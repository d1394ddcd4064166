"""Result construction: the Ξ operators.

The simple Ξ executes a list of commands per input tuple, writing the
query result to the context's output stream as a side effect, and passes
its input through unchanged (identity).  The group-detecting form
``s1 Ξ^{s3}_{A; s2}`` assumes groups span consecutive tuples (arranged by
a stable sort) and runs s1 on each group's first tuple, s2 per tuple and
s3 on the last — saving the explicit Γ that would otherwise materialize a
sequence-valued attribute.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import EvaluationError
from repro.nal.algebra import Operator, scalar_env
from repro.nal.scalar import ScalarExpr
from repro.nal.values import EMPTY_TUPLE, NULL, Tup, canonical_key
from repro.xmldb.node import Node, NodeKind
from repro.xmldb.serialize import escape_text, serialize


class Command:
    """Base class of Ξ commands."""

    def emit(self, env: Tup, ctx) -> None:
        raise NotImplementedError


class Lit(Command):
    """Copy a literal string to the output stream."""

    def __init__(self, text: str):
        self.text = text

    def emit(self, env: Tup, ctx) -> None:
        ctx.emit(self.text)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Lit) and self.text == other.text

    def __hash__(self) -> int:
        return hash(("Lit", self.text))

    def __repr__(self) -> str:
        return repr(self.text)


class Out(Command):
    """Evaluate an expression and copy its rendered value to the output."""

    def __init__(self, expr: ScalarExpr):
        self.expr = expr

    def emit(self, env: Tup, ctx) -> None:
        ctx.emit(render_value(self.expr.evaluate(env, ctx)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Out) and self.expr == other.expr

    def __hash__(self) -> int:
        return hash(("Out", self.expr))

    def __repr__(self) -> str:
        return f"{{{self.expr!r}}}"


def render_value(value: Any) -> str:
    """Stringify a value for result construction — the one rendering
    rule of Ξ (the default engine's column form,
    ``vectorized._render_column``, is this function per row, with
    :func:`~repro.xmldb.serialize.render_rows` for node columns).

    Element nodes serialize as XML; text/attribute nodes and atomic
    values contribute their string value as character data (``& < >``
    escaped, so the output stays well-formed whatever the data holds);
    sequences render item-wise; single-attribute tuples render their
    value; floats print without a trailing ``.0``.
    """
    if value is NULL or value is None:
        return ""
    if isinstance(value, Node):
        if value.kind is NodeKind.ELEMENT:
            return serialize(value)
        return escape_text(value.string_value())
    if isinstance(value, Tup):
        values = [v for _, v in value.items()]
        if len(values) != 1:
            raise EvaluationError(
                f"cannot render a {len(values)}-attribute tuple")
        return render_value(values[0])
    if isinstance(value, (list, tuple)):
        return "".join(render_value(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return escape_text(str(value))


def contains_construct(plan: Operator) -> bool:
    """Whether ``plan`` — including nested plans inside operator
    subscripts — contains a Ξ, whose evaluation writes to the output
    stream as a side effect.  First-witness subscript evaluation
    (:mod:`repro.engine.pipeline`) uses this to force such plans to run
    to completion: stopping early would silently drop constructed
    output."""
    from repro.nal.pretty import _nested_plans
    for op in plan.walk():
        if isinstance(op, (Construct, GroupConstruct)):
            return True
        for expr in op.scalar_exprs():
            for nested in _nested_plans(expr):
                if contains_construct(nested):
                    return True
    return False


class Construct(Operator):
    """Simple Ξ: run the command list per tuple; identity on its input."""

    def __init__(self, child: Operator, commands: Sequence[Command]):
        self.children = (child,)
        self.commands = tuple(commands)

    @property
    def child(self) -> Operator:
        return self.children[0]

    def attrs(self) -> frozenset[str]:
        return self.child.attrs()

    def scalar_exprs(self) -> tuple:
        return tuple(c.expr for c in self.commands if isinstance(c, Out))

    def params(self) -> tuple:
        return (self.commands,)

    def rebuild(self, children: tuple) -> "Construct":
        return Construct(children[0], self.commands)

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        rows = self.child.evaluate(ctx, env)
        for row in rows:
            bound = scalar_env(env, row)
            for command in self.commands:
                command.emit(bound, ctx)
        return rows

    def label(self) -> str:
        return f"Ξ[{'; '.join(repr(c) for c in self.commands)}]"


class GroupConstruct(Operator):
    """Group-detecting Ξ: ``s1 Ξ^{s3}_{A; s2}``.

    Requires each group's tuples to be consecutive in the input (group
    boundaries are detected by a change in any attribute of A); the
    rewriter arranges this with a stable :class:`~repro.nal.unary_ops.Sort`.
    """

    def __init__(self, child: Operator, by_attrs: Sequence[str],
                 s1: Sequence[Command], s2: Sequence[Command],
                 s3: Sequence[Command]):
        self.children = (child,)
        self.by_attrs = tuple(by_attrs)
        self.s1 = tuple(s1)
        self.s2 = tuple(s2)
        self.s3 = tuple(s3)

    @property
    def child(self) -> Operator:
        return self.children[0]

    def attrs(self) -> frozenset[str]:
        return self.child.attrs()

    def scalar_exprs(self) -> tuple:
        return tuple(c.expr for c in (*self.s1, *self.s2, *self.s3)
                     if isinstance(c, Out))

    def params(self) -> tuple:
        return (self.by_attrs, self.s1, self.s2, self.s3)

    def rebuild(self, children: tuple) -> "GroupConstruct":
        return GroupConstruct(children[0], self.by_attrs, self.s1,
                              self.s2, self.s3)

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        return self.emit_rows(self.child.evaluate(ctx, env), env, ctx)

    def emit_rows(self, rows: list[Tup], env: Tup, ctx) -> list[Tup]:
        """Run the group-boundary state machine over materialized rows
        (shared with the vectorized evaluator).  A group's closing
        commands (s3) run when the first row of the *next* group
        arrives (or the input ends)."""
        previous_key = None
        previous_row: Tup | None = None
        for row in rows:
            key = tuple(canonical_key(row[a]) for a in self.by_attrs)
            bound = scalar_env(env, row)
            if key != previous_key:
                if previous_row is not None:
                    closing = scalar_env(env, previous_row)
                    for command in self.s3:
                        command.emit(closing, ctx)
                for command in self.s1:
                    command.emit(bound, ctx)
                previous_key = key
            for command in self.s2:
                command.emit(bound, ctx)
            previous_row = row
        if previous_row is not None:
            closing = scalar_env(env, previous_row)
            for command in self.s3:
                command.emit(closing, ctx)
        return rows

    def label(self) -> str:
        return f"ΞG[{', '.join(self.by_attrs)}]"
