"""Probe descriptors — the static request an :class:`IndexScan` carries.

A probe names a document, the index kind to consult and a *path pattern*:
a tuple of ``(axis, name)`` steps with axis ``child``, ``descendant`` or
``attribute`` — the same simple-step form :meth:`repro.xpath.ast.Path.
simple_steps` produces and :class:`~repro.xmldb.dtd.SchemaInfo` reasons
over.  Probes are immutable and hashable so operators carrying them keep
structural equality (the optimizer's matchers compare plans by value).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: one pattern step: (axis, name) with axis child|descendant|attribute
SimpleStep = tuple[str, str]


@dataclass(frozen=True)
class IndexProbe:
    """One index lookup request.

    ``kind`` selects the index:

    - ``"element"`` — the element index: all elements named
      ``steps[0][1]`` below the document root (``//tag``);
    - ``"path"`` — the path index (DataGuide): all nodes whose
      root-to-node tag path matches ``steps``;
    - ``"value"`` — the value index: nodes at the pattern whose typed
      atomic value satisfies ``op``/``value``, each lifted ``lift``
      ancestors up (so a probe on ``items/itemtuple/reserveprice`` can
      return the qualifying ``itemtuple`` elements).
    """

    doc: str
    kind: str  # "element" | "path" | "value"
    steps: tuple[SimpleStep, ...]
    op: str | None = None
    value: Any = None
    #: number of trailing steps to strip from value-probe results
    lift: int = 0
    #: the query literal ``value`` came from (see
    #: :mod:`repro.optimizer.binding`), or None
    slot: int | None = None

    def pattern_string(self) -> str:
        """The pattern in XPath-ish syntax (for labels and errors)."""
        parts: list[str] = []
        for axis, name in self.steps:
            if axis == "descendant":
                parts.append(f"//{name}")
            elif axis == "attribute":
                parts.append(f"/@{name}")
            else:
                parts.append(f"/{name}")
        return "".join(parts)

    def describe(self) -> str:
        """Human-readable form used by :meth:`IndexScan.label`."""
        text = f"{self.doc}{self.pattern_string()}"
        if self.kind == "value":
            value = self.value
            if isinstance(value, str):
                value = f'"{value}"'
            text += f" {self.op} {value}"
            if self.lift:
                text += f" ↑{self.lift}"
        return text
