"""Binary NAL operators: ×, join, semijoin, antijoin, left outer join.

Reference semantics follow the paper's recursive definitions directly:
``e1 × e2`` iterates the left operand outermost, so the output order is
left-major/right-minor; the join is σ_p(e1 × e2); the outer join pads
unmatched left tuples with ⊥ on the right attributes except the designated
group attribute ``g``, which receives a default value (f applied to the
empty sequence).  All of them preserve order and none is commutative.
"""

from __future__ import annotations

from repro.nal.algebra import Operator, check_attr_disjoint, scalar_env
from repro.nal.scalar import ScalarExpr
from repro.nal.values import EMPTY_TUPLE, Tup, effective_boolean, null_tuple


class Cross(Operator):
    """Order-preserving cross product."""

    def __init__(self, left: Operator, right: Operator):
        check_attr_disjoint(left, right, "cross product")
        self.children = (left, right)

    @property
    def left(self) -> Operator:
        return self.children[0]

    @property
    def right(self) -> Operator:
        return self.children[1]

    def attrs(self) -> frozenset[str]:
        return self.left.attrs() | self.right.attrs()

    def params(self) -> tuple:
        return ()

    def rebuild(self, children: tuple) -> "Cross":
        return Cross(children[0], children[1])

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        left_rows = self.left.evaluate(ctx, env)
        right_rows = self.right.evaluate(ctx, env)
        return [l.concat(r) for l in left_rows for r in right_rows]

    def label(self) -> str:
        return "×"


class _PredicateJoin(Operator):
    """Shared machinery for the predicate-carrying joins."""

    def __init__(self, left: Operator, right: Operator, pred: ScalarExpr,
                 context: str):
        check_attr_disjoint(left, right, context)
        self.children = (left, right)
        self.pred = pred

    @property
    def left(self) -> Operator:
        return self.children[0]

    @property
    def right(self) -> Operator:
        return self.children[1]

    def scalar_exprs(self) -> tuple:
        return (self.pred,)

    def params(self) -> tuple:
        return (self.pred,)

    def _match(self, combined: Tup, env: Tup, ctx) -> bool:
        return effective_boolean(
            self.pred.evaluate(scalar_env(env, combined), ctx))


class Join(_PredicateJoin):
    """Order-preserving join: σ_p(e1 × e2)."""

    def __init__(self, left: Operator, right: Operator, pred: ScalarExpr):
        super().__init__(left, right, pred, "join")

    def attrs(self) -> frozenset[str]:
        return self.left.attrs() | self.right.attrs()

    def rebuild(self, children: tuple) -> "Join":
        return Join(children[0], children[1], self.pred)

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        left_rows = self.left.evaluate(ctx, env)
        right_rows = self.right.evaluate(ctx, env)
        result = []
        for l in left_rows:
            for r in right_rows:
                combined = l.concat(r)
                if self._match(combined, env, ctx):
                    result.append(combined)
        return result

    def label(self) -> str:
        return f"⋈[{self.pred!r}]"


class SemiJoin(_PredicateJoin):
    """e1 ⋉_p e2: left tuples with at least one join partner."""

    def __init__(self, left: Operator, right: Operator, pred: ScalarExpr):
        super().__init__(left, right, pred, "semijoin")

    def attrs(self) -> frozenset[str]:
        return self.left.attrs()

    def rebuild(self, children: tuple) -> "SemiJoin":
        return SemiJoin(children[0], children[1], self.pred)

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        left_rows = self.left.evaluate(ctx, env)
        right_rows = self.right.evaluate(ctx, env)
        return [l for l in left_rows
                if any(self._match(l.concat(r), env, ctx)
                       for r in right_rows)]

    def label(self) -> str:
        return f"⋉[{self.pred!r}]"


class AntiJoin(_PredicateJoin):
    """e1 ▷_p e2: left tuples with no join partner."""

    def __init__(self, left: Operator, right: Operator, pred: ScalarExpr):
        super().__init__(left, right, pred, "antijoin")

    def attrs(self) -> frozenset[str]:
        return self.left.attrs()

    def rebuild(self, children: tuple) -> "AntiJoin":
        return AntiJoin(children[0], children[1], self.pred)

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        left_rows = self.left.evaluate(ctx, env)
        right_rows = self.right.evaluate(ctx, env)
        return [l for l in left_rows
                if not any(self._match(l.concat(r), env, ctx)
                           for r in right_rows)]

    def label(self) -> str:
        return f"▷[{self.pred!r}]"


class OuterJoin(_PredicateJoin):
    """Left outer join with default: e1 ⟕^{g:default}_p e2.

    Unmatched left tuples are padded with ⊥ for A(e2) \\ {g} and the
    default value for ``g`` — the paper's device for giving empty groups a
    meaningful aggregate value (e.g. count 0) after unnesting with
    Eqvs. 2/4."""

    def __init__(self, left: Operator, right: Operator, pred: ScalarExpr,
                 group_attr: str, default: ScalarExpr):
        super().__init__(left, right, pred, "outer join")
        self.group_attr = group_attr
        self.default = default

    def attrs(self) -> frozenset[str]:
        return self.left.attrs() | self.right.attrs()

    def scalar_exprs(self) -> tuple:
        return (self.pred, self.default)

    def params(self) -> tuple:
        return (self.pred, self.group_attr, self.default)

    def rebuild(self, children: tuple) -> "OuterJoin":
        return OuterJoin(children[0], children[1], self.pred,
                         self.group_attr, self.default)

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        left_rows = self.left.evaluate(ctx, env)
        right_rows = self.right.evaluate(ctx, env)
        pad_attrs = [a for a in self.right.attrs() if a != self.group_attr]
        result = []
        for l in left_rows:
            matched = False
            for r in right_rows:
                combined = l.concat(r)
                if self._match(combined, env, ctx):
                    result.append(combined)
                    matched = True
            if not matched:
                default_value = self.default.evaluate(
                    scalar_env(env, l), ctx)
                padded = l.concat(null_tuple(pad_attrs)) \
                    .extend(self.group_attr, default_value)
                result.append(padded)
        return result

    def label(self) -> str:
        return f"⟕[{self.pred!r}; {self.group_attr}:{self.default!r}]"
