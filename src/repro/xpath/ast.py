"""AST for the XPath subset.

A :class:`Path` is a list of :class:`Step` objects.  Supported axes are
``child`` (``/name``), ``descendant`` (``//name``), ``attribute``
(``@name``) and ``self``.  Node tests are a tag name, ``*`` or ``text()``.

Steps may carry predicates.  The normalizer of :mod:`repro.xquery` moves
complex predicates into ``where`` clauses before translation (one of the
paper's normalization steps), so the evaluator only has to support two
self-contained predicate forms:

- :class:`PathPredicate` — ``book[author]``: the relative path is non-empty;
- :class:`ComparisonPredicate` — ``book[@year > 1993]``: the atomized value
  of a relative path compared against a constant.

Any other predicate is kept as an :class:`OpaquePredicate` wrapping the
front end's expression object; evaluating one raises, which is the signal
that normalization should have removed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class NameTest:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class AnyTest:
    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class TextTest:
    def __str__(self) -> str:
        return "text()"


NodeTest = NameTest | AnyTest | TextTest


@dataclass(frozen=True)
class PathPredicate:
    """Existence predicate: ``[relative/path]``."""

    path: "Path"

    def __str__(self) -> str:
        return f"[{self.path}]"


@dataclass(frozen=True)
class ComparisonPredicate:
    """Value predicate: ``[relative/path OP literal]``."""

    path: "Path"
    op: str  # one of = != < <= > >=
    value: Any

    def __str__(self) -> str:
        value = self.value
        if isinstance(value, str):
            value = f'"{value}"'
        return f"[{self.path} {self.op} {value}]"


@dataclass(frozen=True)
class OpaquePredicate:
    """A predicate the XPath layer cannot evaluate by itself (it references
    query variables); carried through so the normalizer can lift it."""

    payload: Any

    def __str__(self) -> str:
        return f"[{self.payload}]"


Predicate = PathPredicate | ComparisonPredicate | OpaquePredicate


@dataclass(frozen=True)
class Step:
    axis: str  # "child" | "descendant" | "attribute" | "self"
    test: NodeTest
    predicates: tuple[Predicate, ...] = ()

    def __str__(self) -> str:
        preds = "".join(str(p) for p in self.predicates)
        if self.axis == "attribute":
            return f"@{self.test}{preds}"
        return f"{self.test}{preds}"


@dataclass(frozen=True)
class Path:
    """A location path.  ``absolute`` paths start at the document node."""

    steps: tuple[Step, ...]
    absolute: bool = False

    def __str__(self) -> str:
        parts: list[str] = []
        for i, step in enumerate(self.steps):
            sep = "//" if step.axis == "descendant" else "/"
            if i == 0 and not self.absolute and step.axis != "descendant":
                sep = ""
            parts.append(f"{sep}{step}")
        return "".join(parts)

    def with_extra_steps(self, more: "Path") -> "Path":
        """Concatenate a relative continuation onto this path."""
        return Path(self.steps + more.steps, absolute=self.absolute)

    def without_predicates(self) -> "Path":
        """This path with every predicate stripped (used after the
        normalizer has lifted them into ``where`` clauses)."""
        return Path(tuple(Step(s.axis, s.test) for s in self.steps),
                    absolute=self.absolute)

    def has_predicates(self) -> bool:
        return any(step.predicates for step in self.steps)

    def simple_steps(self) -> list[tuple[str, str]] | None:
        """The ``(axis, name)`` form used by :class:`SchemaInfo`, or
        ``None`` when the path contains tests the schema reasoner does not
        model (``*`` or ``text()``)."""
        result: list[tuple[str, str]] = []
        for step in self.steps:
            if isinstance(step.test, NameTest):
                result.append((step.axis, step.test.name))
            else:
                return None
        return result


def child_step(name: str, *predicates: Predicate) -> Step:
    return Step("child", NameTest(name), tuple(predicates))


def descendant_step(name: str, *predicates: Predicate) -> Step:
    return Step("descendant", NameTest(name), tuple(predicates))


def attribute_step(name: str) -> Step:
    return Step("attribute", NameTest(name))
