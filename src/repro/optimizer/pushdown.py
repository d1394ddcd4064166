"""The paper's §2 "familiar equivalences" as rewrites.

Section 2 lists equivalences that continue to hold over ordered
sequences (with the usual scope conditions):

    σ_{p1}(σ_{p2}(e))        = σ_{p2}(σ_{p1}(e))
    σ_p(e1 × e2)             = σ_p(e1) × e2          if F(p) ∩ A(e2) = ∅
    σ_p(e1 × e2)             = e1 × σ_p(e2)          if F(p) ∩ A(e1) = ∅
    σ_{p1}(e1 ⋈_{p2} e2)     = σ_{p1}(e1) ⋈_{p2} e2  (and the right twin)
    σ_{p1}(e1 ⋉_{p2} e2)     = σ_{p1}(e1) ⋉_{p2} e2
    σ_{p1}(e1 ⟕_{p2} e2)     = σ_{p1}(e1) ⟕_{p2} e2
    e1 × (e2 × e3)           = (e1 × e2) × e3
    e1 ⋈_{p1} (e2 ⋈_{p2} e3) = (e1 ⋈_{p1} e2) ⋈_{p2} e3

Cross product and join stay associative in the ordered context but are
**not commutative** — none of the rewrites here ever swaps operands.

:func:`push_selections` is the driver: it splits selection predicates
into conjuncts and sinks each conjunct as deep as the scope conditions
allow.  It is a cleanup pass, typically run after unnesting.  (The
paper does the analogous step by hand in §5.5, pushing ``year ≤ 1993``
into the antijoin's right operand.  That push is not left to a cleanup
pass: the rewriter applies ``equivalences.push_into_right`` to every
semijoin/antijoin alternative it emits — Eqvs. 6/7, and 8/9 on top of
them — so the join predicate an engine hashes on is the bare
correlation.  This module covers selections sitting *above* binary
operators.)

Every equivalence is additionally verified as a hypothesis property in
``tests/test_pushdown.py``.
"""

from __future__ import annotations

from repro.nal.algebra import Operator
from repro.nal.join_ops import AntiJoin, Cross, Join, OuterJoin, SemiJoin
from repro.nal.scalar import ScalarExpr, conjuncts, make_conjunction
from repro.nal.unary_ops import Select

#: binary operators that admit a push into their *left* operand
_LEFT_PUSHABLE = (Cross, Join, SemiJoin, AntiJoin, OuterJoin)
#: binary operators that additionally admit a push into their *right*
#: operand (σ commutes with the right factor of × and ⋈ only — pushing
#: into the right side of a semijoin/antijoin/outer join would change
#: which tuples qualify)
_RIGHT_PUSHABLE = (Cross, Join)


def push_selections(plan: Operator) -> Operator:
    """Sink every selection conjunct as deep as scope conditions allow.

    Returns a plan producing the identical tuple sequence (the §2
    equivalences are order-preserving); shares unchanged subtrees with
    the input.
    """
    children = tuple(push_selections(c) for c in plan.children)
    if children != plan.children:
        plan = plan.rebuild(children)
    if isinstance(plan, Select):
        return _push_select(plan)
    return plan


def _push_select(op: Select) -> Operator:
    """Push the conjuncts of one σ into its child where possible."""
    child = op.children[0]
    remaining: list[ScalarExpr] = []
    for conj in conjuncts(op.pred):
        pushed = _try_push(conj, child)
        if pushed is None:
            remaining.append(conj)
        else:
            child = pushed
    if not remaining:
        return child
    if len(remaining) == len(conjuncts(op.pred)) and child is op.children[0]:
        return op
    return Select(child, make_conjunction(remaining))


def _try_push(pred: ScalarExpr, op: Operator) -> Operator | None:
    """σ_pred(op) with pred sunk into op, or ``None`` if no rule fires."""
    free = pred.free_attrs()
    if isinstance(op, _LEFT_PUSHABLE):
        left, right = op.children
        if free and free <= left.attrs():
            new_left = _sink(pred, left)
            return op.rebuild((new_left, right))
        if isinstance(op, _RIGHT_PUSHABLE) and free \
                and free <= right.attrs():
            new_right = _sink(pred, right)
            return op.rebuild((left, new_right))
    if isinstance(op, Select):
        # σ_{p1}(σ_{p2}(e)): recurse through — selections commute.
        inner = _try_push(pred, op.children[0])
        if inner is not None:
            return op.rebuild((inner,))
    return None


def _sink(pred: ScalarExpr, op: Operator) -> Operator:
    """Place σ_pred over ``op``, recursing while rules keep firing."""
    deeper = _try_push(pred, op)
    if deeper is not None:
        return deeper
    return Select(op, pred)


# ----------------------------------------------------------------------
# Associativity
# ----------------------------------------------------------------------
def reassociate_left(plan: Operator) -> Operator:
    """Left-deep reassociation: ``e1 ⋈_{p1} (e2 ⋈_{p2} e3)`` becomes
    ``(e1 ⋈_{p1} e2) ⋈_{p2} e3`` (likewise for ×) whenever the scope
    conditions hold (``F(p1) ∩ A(e3) = ∅`` and ``F(p2) ∩ A(e1) = ∅``).

    The rewrite never reorders operands, so sequence order is
    untouched.
    """
    children = tuple(reassociate_left(c) for c in plan.children)
    if children != plan.children:
        plan = plan.rebuild(children)
    rewritten = _reassociate_once(plan)
    if rewritten is not plan:
        return reassociate_left(rewritten)
    return plan


def _reassociate_once(op: Operator) -> Operator:
    if isinstance(op, Cross):
        e1, inner = op.children
        if isinstance(inner, Cross):
            e2, e3 = inner.children
            return Cross(Cross(e1, e2), e3)
        return op
    if isinstance(op, Join) and not isinstance(op, (SemiJoin, AntiJoin,
                                                    OuterJoin)):
        e1, inner = op.children
        if isinstance(inner, Join) and not isinstance(
                inner, (SemiJoin, AntiJoin, OuterJoin)):
            e2, e3 = inner.children
            p1, p2 = op.pred, inner.pred
            if p1.free_attrs().isdisjoint(e3.attrs()) and \
                    p2.free_attrs().isdisjoint(e1.attrs()):
                return Join(Join(e1, e2, p1), e3, p2)
    return op
