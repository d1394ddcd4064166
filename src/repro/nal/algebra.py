"""Operator base class for NAL plans.

Plans are immutable trees of :class:`Operator` nodes.  Every operator
knows:

- ``attrs()`` — the attribute set A(e) it produces;
- ``free_vars()`` — F(e), the variables that must be bound by an enclosing
  scope (non-empty exactly for the nested algebraic expressions that the
  unnesting equivalences remove);
- ``evaluate(ctx, env)`` — *reference semantics*: a direct transcription of
  the paper's recursive operator definitions.  The reference semantics are
  deliberately naive (binary operators are nested loops); the efficient
  hash-based implementations live in :mod:`repro.engine.kernels`, and
  property tests assert both agree.

Operators compare structurally (type, parameters, children), which the
optimizer's side-condition checks and the tests rely on.
"""

from __future__ import annotations

from typing import Any

from repro.errors import EvaluationError
from repro.nal.values import EMPTY_TUPLE, Tup


class Operator:
    """Base class of all NAL operators."""

    #: subclasses set this in __init__
    children: tuple["Operator", ...] = ()

    # ------------------------------------------------------------------
    # Static structure
    # ------------------------------------------------------------------
    def attrs(self) -> frozenset[str]:
        """A(e): the attributes of the tuples this operator produces."""
        raise NotImplementedError

    def free_vars(self) -> frozenset[str]:
        """F(e): free variables that an enclosing scope must bind."""
        own = frozenset()
        for expr in self.scalar_exprs():
            own |= expr.free_attrs()
        bound = frozenset()
        for child in self.children:
            bound |= child.attrs()
        result = own - bound
        for child in self.children:
            result |= child.free_vars()
        return result

    def scalar_exprs(self) -> tuple:
        """The scalar expressions in this operator's subscript."""
        return ()

    def rebuild(self, children: tuple["Operator", ...]) -> "Operator":
        """A copy of this operator with new children (same parameters)."""
        raise NotImplementedError

    def params(self) -> tuple:
        """Hashable parameter signature (excluding children)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Reference evaluation
    # ------------------------------------------------------------------
    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        """Evaluate with the paper's definitional semantics.

        ``env`` carries the bindings of enclosing scopes when this plan is
        nested inside another operator's subscript.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Structural equality / traversal
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        assert isinstance(other, Operator)
        return (self.params() == other.params()
                and self.children == other.children)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.params(), self.children))

    def walk(self):
        """Pre-order iterator over the operator tree (not descending into
        nested plans inside scalar expressions)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def label(self) -> str:
        """Short human-readable operator label for plan printing."""
        return type(self).__name__

    def __repr__(self) -> str:
        from repro.nal.pretty import plan_to_string
        return plan_to_string(self, compact=True)


def check_attr_disjoint(left: Operator, right: Operator,
                        context: str) -> None:
    """The paper assumes A(e1) ∩ A(e2) = ∅ for binary operators; violating
    it silently merges attributes, so we check eagerly."""
    overlap = left.attrs() & right.attrs()
    if overlap:
        raise EvaluationError(
            f"{context}: operand attribute sets overlap on "
            f"{sorted(overlap)}")


def scalar_env(env: Tup, tup: Tup) -> Tup:
    """The evaluation environment for a subscript expression: enclosing
    bindings extended (and shadowed) by the current tuple."""
    if len(env) == 0:
        return tup
    return env.concat(tup)


def bind_item(item: Any) -> Any:
    """Bind a `for`-iteration item to a variable: single-attribute tuples
    contribute their value (the Πx' convention), other items bind as-is."""
    if isinstance(item, Tup):
        values = [v for _, v in item.items()]
        if len(values) != 1:
            raise EvaluationError(
                f"cannot bind a {len(values)}-attribute tuple to one "
                "variable")
        return values[0]
    return item
