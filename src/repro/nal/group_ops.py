"""Grouping operators: unary Γ, binary Γ (nest-join) and SelfGroup.

The binary grouping operator ``e1 Γ_{g; A1 θ A2; f} e2`` extends every
``e1`` tuple with ``g = f(σ_{A1 θ A2}(e2))``.  The unary operator is
defined in terms of it (paper §2):

    Γ_{g; θA; f}(e) = Π_{A:A'}(ΠD_{A':A}(Π_A(e)) Γ_{g; A'θA; f} e)

i.e. group keys come from the *distinct* values of A in e itself.  The
distinction matters for correctness of unnesting: the binary operator
takes its keys from the (outer) left operand, so keys without matches
still appear — the paper's cure for the count bug.

``SelfGroup`` is our explicitly documented extra operator for the §5.4
plan: it attaches a per-key aggregate over the *same* input to every
tuple, in one scan (see DESIGN.md experiment E4).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import EvaluationError
from repro.nal.algebra import Operator, check_attr_disjoint, scalar_env
from repro.nal.functions import call_function
from repro.nal.scalar import ScalarExpr
from repro.nal.values import (
    EMPTY_TUPLE,
    NULL,
    Tup,
    canonical_key,
    effective_boolean,
    general_compare,
)

_AGG_KINDS = ("id", "project", "count", "sum", "min", "max", "avg")


class AggSpec:
    """The function ``f`` of a grouping operator: an optional selection,
    an optional projection, and an aggregate (or the identity).

    ``AggSpec("min", "c2")`` is the paper's ``min ∘ Π_{c2}``;
    ``AggSpec("count", None, filter=p)`` is ``count ∘ σ_p``;
    ``AggSpec("project", "t2")`` is ``Π_{t2}`` (sequence-valued);
    ``AggSpec("id")`` keeps the whole group.
    """

    def __init__(self, kind: str, attr: str | None = None,
                 filter_pred: ScalarExpr | None = None):
        if kind not in _AGG_KINDS:
            raise EvaluationError(f"unknown aggregate kind {kind!r}")
        if kind in ("project", "sum", "min", "max", "avg") and attr is None:
            raise EvaluationError(f"aggregate {kind!r} needs an attribute")
        self.kind = kind
        self.attr = attr
        self.filter_pred = filter_pred

    # ------------------------------------------------------------------
    def apply(self, group: list[Tup], env: Tup, ctx) -> Any:
        """Evaluate f on a group (a list of tuples)."""
        rows = group
        if self.filter_pred is not None:
            rows = [t for t in rows
                    if effective_boolean(self.filter_pred.evaluate(
                        scalar_env(env, t), ctx))]
        if self.kind == "id":
            return list(rows)
        if self.kind == "project":
            return [t.project([self.attr]) for t in rows]
        if self.kind == "count":
            return len(rows)
        values = [t[self.attr] for t in rows]
        return call_function(self.kind, [values])

    def empty_value(self) -> Any:
        """f(ε): the value for empty groups (outer-join default)."""
        if self.kind in ("id", "project"):
            return []
        if self.kind in ("count", "sum"):
            return 0
        return NULL

    def referenced_attrs(self) -> frozenset[str]:
        """Attributes of the group tuples that f reads."""
        attrs = frozenset() if self.attr is None else frozenset({self.attr})
        if self.filter_pred is not None:
            attrs |= self.filter_pred.free_attrs()
        return attrs

    def depends_on(self, attributes: set[str]) -> bool:
        """Whether f depends on any of ``attributes`` — the Eqv. 4/5
        condition requires f *not* to depend on a2/A2."""
        return bool(self.referenced_attrs() & attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AggSpec):
            return NotImplemented
        return (self.kind, self.attr, self.filter_pred) == \
            (other.kind, other.attr, other.filter_pred)

    def __hash__(self) -> int:
        return hash((self.kind, self.attr, self.filter_pred))

    def __repr__(self) -> str:
        parts = self.kind
        if self.attr is not None:
            parts += f"∘Π[{self.attr}]"
        if self.filter_pred is not None:
            parts += f"∘σ[{self.filter_pred!r}]"
        return parts


def _keys_match(key: Tup, row: Tup, key_attrs: Sequence[str],
                row_attrs: Sequence[str], theta: str) -> bool:
    # Γ is defined through σ_{A1 θ A2}, so its θ is σ's: existential
    # over a sequence-valued attribute (Eqv. 1 over ``path[a]``).
    return all(general_compare(key[ka], theta, row[ra])
               for ka, ra in zip(key_attrs, row_attrs))


class GroupUnary(Operator):
    """Γ_{g; θA; f}(e): one output tuple per distinct value of A (in first
    occurrence order, via the deterministic ΠD), carrying g = f(group)."""

    def __init__(self, child: Operator, group_attr: str,
                 by_attrs: Sequence[str], theta: str, agg: AggSpec):
        self.children = (child,)
        self.group_attr = group_attr
        self.by_attrs = tuple(by_attrs)
        self.theta = theta
        self.agg = agg
        if theta != "=" and len(self.by_attrs) != 1:
            raise EvaluationError(
                "non-equality grouping supports a single attribute")

    @property
    def child(self) -> Operator:
        return self.children[0]

    def attrs(self) -> frozenset[str]:
        return frozenset(self.by_attrs) | {self.group_attr}

    def scalar_exprs(self) -> tuple:
        if self.agg.filter_pred is not None:
            return (self.agg.filter_pred,)
        return ()

    def params(self) -> tuple:
        return (self.group_attr, self.by_attrs, self.theta, self.agg)

    def rebuild(self, children: tuple) -> "GroupUnary":
        return GroupUnary(children[0], self.group_attr, self.by_attrs,
                          self.theta, self.agg)

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        return self.evaluate_rows(self.child.evaluate(ctx, env), env, ctx)

    def evaluate_rows(self, rows: list[Tup], env: Tup, ctx) -> list[Tup]:
        """Group already-materialized rows (shared with the engines'
        grouping kernel for non-equality θ)."""
        # Distinct keys in first-occurrence order (ΠD).
        seen: set = set()
        keys: list[Tup] = []
        for row in rows:
            key_tuple = row.project(self.by_attrs)
            key = tuple(canonical_key(key_tuple[a]) for a in self.by_attrs)
            if key not in seen:
                seen.add(key)
                keys.append(key_tuple)
        result = []
        for key_tuple in keys:
            group = [r for r in rows
                     if _keys_match(key_tuple, r, self.by_attrs,
                                    self.by_attrs, self.theta)]
            value = self.agg.apply(group, env, ctx)
            result.append(key_tuple.extend(self.group_attr, value))
        return result

    def label(self) -> str:
        return (f"Γ[{self.group_attr}; {self.theta}"
                f"{','.join(self.by_attrs)}; {self.agg!r}]")


class GroupBinary(Operator):
    """e1 Γ_{g; A1 θ A2; f} e2 (nest-join): every left tuple gets
    g = f(matching right tuples); empty groups get f(ε)."""

    def __init__(self, left: Operator, right: Operator, group_attr: str,
                 left_attrs: Sequence[str], theta: str,
                 right_attrs: Sequence[str], agg: AggSpec):
        check_attr_disjoint(left, right, "binary grouping")
        self.children = (left, right)
        self.group_attr = group_attr
        self.left_attrs = tuple(left_attrs)
        self.right_attrs = tuple(right_attrs)
        self.theta = theta
        self.agg = agg
        if len(self.left_attrs) != len(self.right_attrs):
            raise EvaluationError(
                "binary grouping needs equally many attributes on both "
                "sides")

    @property
    def left(self) -> Operator:
        return self.children[0]

    @property
    def right(self) -> Operator:
        return self.children[1]

    def attrs(self) -> frozenset[str]:
        return self.left.attrs() | {self.group_attr}

    def scalar_exprs(self) -> tuple:
        if self.agg.filter_pred is not None:
            return (self.agg.filter_pred,)
        return ()

    def params(self) -> tuple:
        return (self.group_attr, self.left_attrs, self.theta,
                self.right_attrs, self.agg)

    def rebuild(self, children: tuple) -> "GroupBinary":
        return GroupBinary(children[0], children[1], self.group_attr,
                           self.left_attrs, self.theta, self.right_attrs,
                           self.agg)

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        left_rows = self.left.evaluate(ctx, env)
        right_rows = self.right.evaluate(ctx, env)
        result = []
        for l in left_rows:
            group = [r for r in right_rows
                     if _keys_match(l, r, self.left_attrs,
                                    self.right_attrs, self.theta)]
            value = self.agg.apply(group, env, ctx)
            result.append(l.extend(self.group_attr, value))
        return result

    def label(self) -> str:
        pairs = ",".join(f"{a}{self.theta}{b}" for a, b in
                         zip(self.left_attrs, self.right_attrs))
        return f"Γ[{self.group_attr}; {pairs}; {self.agg!r}]"


class SelfGroup(Operator):
    """Attach ``g = f(all tuples with the same key)`` to every tuple, in a
    single pass over the input.

    This realizes the §5.4 "grouping" plan: for the self-correlated
    existential query the semijoin e1 ⋉_{b1=b2∧p} e2 with e1 ≅ e2 collapses
    into one scan that counts qualifying partners per key and filters on
    the attached count (see Eqv. 8 and DESIGN.md E4)."""

    def __init__(self, child: Operator, group_attr: str,
                 key_attrs: Sequence[str], agg: AggSpec):
        self.children = (child,)
        self.group_attr = group_attr
        self.key_attrs = tuple(key_attrs)
        self.agg = agg

    @property
    def child(self) -> Operator:
        return self.children[0]

    def attrs(self) -> frozenset[str]:
        return self.child.attrs() | {self.group_attr}

    def scalar_exprs(self) -> tuple:
        if self.agg.filter_pred is not None:
            return (self.agg.filter_pred,)
        return ()

    def params(self) -> tuple:
        return (self.group_attr, self.key_attrs, self.agg)

    def rebuild(self, children: tuple) -> "SelfGroup":
        return SelfGroup(children[0], self.group_attr, self.key_attrs,
                         self.agg)

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        rows = self.child.evaluate(ctx, env)
        # One key object per row, used to build the groups and to look
        # the value up again: a NaN key equals nothing, a second
        # ``canonical_key`` of the same row included.
        keys = [tuple(canonical_key(row[a]) for a in self.key_attrs)
                for row in rows]
        groups: dict[tuple, list[Tup]] = {}
        for key, row in zip(keys, rows):
            groups.setdefault(key, []).append(row)
        values: dict[tuple, Any] = {
            key: self.agg.apply(group, env, ctx)
            for key, group in groups.items()
        }
        return [row.extend(self.group_attr, values[key])
                for key, row in zip(keys, rows)]

    def label(self) -> str:
        return (f"ΓSelf[{self.group_attr}; ="
                f"{','.join(self.key_attrs)}; {self.agg!r}]")
