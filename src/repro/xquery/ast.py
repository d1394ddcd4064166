"""AST for the XQuery subset of the paper's queries.

The subset: FLWR expressions (``for``/``let``/``where``/``return``),
quantified expressions (``some``/``every`` … ``satisfies``), path
expressions rooted at a variable or ``doc()``, general comparisons,
``and``/``or``, function calls, literals, and element constructors with
``{}``-embedded expressions.  ``order by`` is intentionally absent — the
paper works in the ordered context where input order is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Union

from repro.xpath.ast import Path


@dataclass(frozen=True)
class VarRef:
    name: str

    def __str__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class Literal:
    value: Any
    #: the parser's number for a literal read from the query text (None
    #: for one the front end made up); it rides along to the plan so a
    #: compiled plan can be bound to another text's constants
    slot: int | None = field(default=None, compare=False)

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)


@dataclass(frozen=True)
class ContextItem:
    """The XPath context item ``.`` — appears only inside path predicates
    before normalization lifts them."""

    def __str__(self) -> str:
        return "."


@dataclass(frozen=True)
class DocCall:
    """``doc("name")`` / ``document("name")`` — or, with
    ``collection=True``, ``collection("pattern")``: every stored
    document whose name matches the shell-style pattern, in
    registration order."""

    name: str
    collection: bool = False

    def __str__(self) -> str:
        if self.collection:
            return f'collection("{self.name}")'
        return f'doc("{self.name}")'


@dataclass(frozen=True)
class PathExpr:
    """A path applied to a source expression (variable, doc, context)."""

    source: "Expr"
    path: Path

    def __str__(self) -> str:
        source = str(self.source)
        path = str(self.path)
        if isinstance(self.source, ContextItem):
            return path
        if path.startswith("/"):
            return f"{source}{path}"
        return f"{source}/{path}"


@dataclass(frozen=True)
class FuncCall:
    name: str
    args: tuple["Expr", ...]

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Comparison:
    left: "Expr"
    op: str
    right: "Expr"

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class BoolOp:
    op: str  # "and" | "or"
    terms: tuple["Expr", ...]

    def __str__(self) -> str:
        return f" {self.op} ".join(str(t) for t in self.terms)


@dataclass(frozen=True)
class Quantified:
    kind: str  # "some" | "every"
    var: str
    source: "Expr"
    pred: "Expr"

    def __str__(self) -> str:
        return (f"{self.kind} ${self.var} in {self.source} "
                f"satisfies {self.pred}")


@dataclass(frozen=True)
class ForClause:
    var: str
    source: "Expr"

    def __str__(self) -> str:
        return f"for ${self.var} in {self.source}"


@dataclass(frozen=True)
class LetClause:
    var: str
    expr: "Expr"

    def __str__(self) -> str:
        return f"let ${self.var} := {self.expr}"


Clause = Union[ForClause, LetClause]


@dataclass(frozen=True)
class OrderSpec:
    """One key of an ``order by`` clause (an extension beyond the paper,
    which leaves ``order by`` untreated)."""

    expr: "Expr"
    descending: bool = False

    def __str__(self) -> str:
        suffix = " descending" if self.descending else ""
        return f"{self.expr}{suffix}"


@dataclass(frozen=True)
class FLWR:
    clauses: tuple[Clause, ...]
    where: "Expr | None"
    ret: "Expr"
    #: ``order by`` keys; empty for the paper's (order-preserving) queries
    order_by: tuple[OrderSpec, ...] = ()

    def __str__(self) -> str:
        parts = [str(c) for c in self.clauses]
        if self.where is not None:
            parts.append(f"where {self.where}")
        if self.order_by:
            keys = ", ".join(str(s) for s in self.order_by)
            parts.append(f"order by {keys}")
        parts.append(f"return {self.ret}")
        return "\n".join(parts)


@dataclass(frozen=True)
class TextPart:
    text: str

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class ExprPart:
    expr: "Expr"

    def __str__(self) -> str:
        return f"{{ {self.expr} }}"


Part = Union[TextPart, ExprPart]


@dataclass(frozen=True)
class ElementCtor:
    """``<name attr="...{expr}...">text {expr} <nested/> ...</name>``."""

    name: str
    attributes: tuple[tuple[str, tuple[Part, ...]], ...] = field(
        default_factory=tuple)
    content: tuple["Part | ElementCtor", ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        attrs = "".join(
            f' {name}="{"".join(str(p) for p in parts)}"'
            for name, parts in self.attributes)
        inner = "".join(str(c) for c in self.content)
        return f"<{self.name}{attrs}>{inner}</{self.name}>"


Expr = Union[VarRef, Literal, ContextItem, DocCall, PathExpr, FuncCall,
             Comparison, BoolOp, Quantified, FLWR, ElementCtor]
