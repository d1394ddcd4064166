"""Binding a compiled plan to another text's constants.

The parser numbers every literal it reads as a value — its *slot*
(:mod:`repro.xquery.parser`).  The number rides along through
normalize, translate and rewrite on the three places a literal's value
can end up in a plan: a :class:`~repro.nal.scalar.Const`, an XPath
:class:`~repro.xpath.ast.ComparisonPredicate` and a value
:class:`~repro.index.probes.IndexProbe`.  So a plan compiled from one
text serves every text of the same shape (:mod:`repro.session`):

- :func:`bind_plan` puts new values into those places.  It rebuilds
  only the operators on the path to one of them — the rest of the tree
  is shared by reference, which the plans' immutability makes safe —
  and builds fresh :class:`~repro.nal.scalar.NestedPlan` wrappers,
  whose memos describe the plan they wrap.
- :func:`plan_slots` says which slots plans hold; a slot that is
  missing from a plan was consumed structurally, so its value is part
  of what the plan was compiled for and cannot be rebound.
- :func:`shape_plan` puts a :class:`Placeholder` in every slot: the
  plan's *shape*, which :mod:`repro.optimizer.digest` hashes, so two
  bindings of one plan share a digest and the result cache keys on
  ``(digest, values)``.  A placeholder names its value's type: the
  values of one shape always have the same types (the shape key names
  them, :func:`~repro.xquery.lexer.query_shape`), and equal values of
  different types (``5``, ``5.0``) must not share a key.

Operators are rebuilt generically: a shallow copy whose fields holding a
slot are replaced.  Operators keep no per-instance memos, so the copy is
a new plan node like any other.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Any, Callable

from repro.index.probes import IndexProbe
from repro.nal.algebra import Operator
from repro.nal.construct import Out
from repro.nal.group_ops import AggSpec
from repro.nal.scalar import (
    AttrRef,
    CollectionAccess,
    Const,
    DocAccess,
    NestedPlan,
    PathApply,
    ScalarExpr,
)
from repro.xpath.ast import ComparisonPredicate, Path


class Placeholder:
    """Slot ``i``'s stand-in in a plan's shape.  It renders as
    ``?i:type`` (``?0:int``), which no literal value renders as (strings
    render quoted).  The type keeps plans apart whose constants compare
    equal but print differently: ``5`` and ``5.0`` are equal values, and
    ``concat("v", 5)`` is ``"v5"`` where ``concat("v", 5.0)`` is
    ``"v5.0"``."""

    def __init__(self, slot: int, kind: type):
        self.slot = slot
        self.kind = kind

    def __repr__(self) -> str:
        return f"?{self.slot}:{self.kind.__name__}"

    __str__ = __repr__


def bind_plan(plan: Operator, values) -> Operator:
    """``plan`` with the value in every slot ``i`` replaced by
    ``values[i]``."""
    return _Substitution(lambda slot, value: values[slot]).op(plan)


def shape_plan(plan: Operator) -> Operator:
    """``plan`` with a :class:`Placeholder` in every slot."""
    return _Substitution(
        lambda slot, value: Placeholder(slot, type(value))).op(plan)


def plan_slots(plans) -> tuple[frozenset[int], frozenset[int]]:
    """``(slots every plan holds, slots feeding an index probe's value
    in any plan)`` — the probe slots are the only ones a rewrite
    decision reads (:class:`~repro.optimizer.access_paths.ProbeChoice`).
    Subtrees the plans share are walked once."""
    walk = _Substitution(lambda slot, value: value)
    held = None
    for plan in plans:
        walk.op(plan)
        slots = walk.memo[id(plan)][1]
        held = slots if held is None else held & slots
    return held or frozenset(), frozenset(walk.probes)


#: operator fields that never hold a slot
_LEAVES = (str, int, float, type(None), frozenset, dict, list)
#: scalar expressions that never hold one
_SCALAR_LEAVES = frozenset({AttrRef, DocAccess, CollectionAccess})


class _Substitution:
    """One walk over plans; ``value(slot, old value)`` gives each
    slot's new value.  Returning the old value object rebuilds nothing.
    The walk also records, per operator subtree, the slots it holds
    (``memo[id(op)] = (new op, slots)``, so shared subtrees are walked
    once) and which slots feed an index probe (``probes``)."""

    def __init__(self, value: Callable[[int, Any], Any]):
        self.value = value
        self.memo: dict[int, tuple[Operator, frozenset[int]]] = {}
        self.probes: set[int] = set()
        self._seen: set[int] = set()

    def slot(self, slot: int, value: Any) -> Any:
        self._seen.add(slot)
        return self.value(slot, value)

    def op(self, op: Operator) -> Operator:
        done = self.memo.get(id(op))
        if done is None:
            outer, self._seen = self._seen, set()
            children = tuple(self.op(child) for child in op.children)
            fields = {name: new for name, old in vars(op).items()
                      if name != "children"
                      and (new := self.part(old)) is not old}
            new = op
            if fields or any(new is not old for new, old
                             in zip(children, op.children)):
                new = copy.copy(op)
                new.__dict__.update(fields)
                new.children = children
            done = self.memo[id(op)] = (new, frozenset(self._seen))
            self._seen = outer
        self._seen |= done[1]
        return done[0]

    def part(self, part):
        """An operator field (or an item of one) with its slots
        substituted; the same object when it holds none."""
        if isinstance(part, _LEAVES):
            return part
        if isinstance(part, ScalarExpr):
            return self.scalar(part)
        if isinstance(part, IndexProbe):
            if part.slot is None:
                return part
            self.probes.add(part.slot)
            value = self.slot(part.slot, part.value)
            return part if value is part.value else \
                dataclasses.replace(part, value=value)
        if isinstance(part, tuple):
            items = tuple(self.part(item) for item in part)
            return part if all(new is old for new, old
                               in zip(items, part)) else items
        if isinstance(part, (AggSpec, Out)):
            fields = {name: new for name, old in vars(part).items()
                      if (new := self.part(old)) is not old}
            if not fields:
                return part
            clone = copy.copy(part)
            clone.__dict__.update(fields)
            return clone
        return part

    def scalar(self, expr: ScalarExpr) -> ScalarExpr:
        if type(expr) in _SCALAR_LEAVES:
            return expr
        if isinstance(expr, Const):
            if expr.slot is None:
                return expr
            value = self.slot(expr.slot, expr.value)
            return expr if value is expr.value else Const(value, expr.slot)
        if isinstance(expr, NestedPlan):
            plan = self.op(expr.plan)
            return expr if plan is expr.plan else NestedPlan(plan)
        kids = expr.children()
        bound = tuple(self.scalar(kid) for kid in kids)
        if any(new is not old for new, old in zip(bound, kids)):
            expr = expr.rebuild(bound)
        if isinstance(expr, PathApply):
            path = self.path(expr.path)
            if path is not expr.path:
                expr = PathApply(expr.source, path)
        return expr

    def path(self, path: Path) -> Path:
        if not path.has_predicates():
            return path
        steps = []
        for step in path.steps:
            predicates = tuple(
                self.predicate(p) if isinstance(p, ComparisonPredicate)
                else p for p in step.predicates)
            steps.append(step if all(new is old for new, old in zip(
                predicates, step.predicates))
                else dataclasses.replace(step, predicates=predicates))
        if all(new is old for new, old in zip(steps, path.steps)):
            return path
        return dataclasses.replace(path, steps=tuple(steps))

    def predicate(self, predicate: ComparisonPredicate):
        if predicate.slot is None:
            return predicate
        value = self.slot(predicate.slot, predicate.value)
        return predicate if value is predicate.value else \
            dataclasses.replace(predicate, value=value)
