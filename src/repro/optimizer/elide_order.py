"""Sort elision: remove Sort operators whose requirement already holds.

The pass walks a plan bottom-up and, for every :class:`~repro.nal.
unary_ops.Sort` (this covers both the ``order by`` extension and the
stable sort the Γ+Ξ fusion inserts before the group-detecting Ξ), asks
the order-property subsystem whether the child's stream provably
satisfies the sort specification (:func:`repro.optimizer.properties.
satisfies_sort`).  If so the Sort is rewritten to an
:class:`~repro.nal.unary_ops.ElidedSort` — the identity at runtime, but
still visible to EXPLAIN/provenance as ``Sort[elided: …]`` and costed
without the n·log n term, so cost-based rankings genuinely prefer
order-preserving access paths.

A stable sort over an input already non-decreasing on its keys is
*exactly* the identity, so an elided plan is byte-identical to the
forced-sort plan; ``properties.debug_checks`` makes both engines verify
that claim differentially at runtime.

The pass runs on every plan alternative the rewriter produces; it is
pure, so the un-elided plan it was given stays available for
differential comparison.  It never descends into nested subscript
plans — the translator only places Sorts on the outermost spine (inner
``order by`` is rejected), so there is nothing to elide below a
subscript.
"""

from __future__ import annotations

from repro.nal.algebra import Operator
from repro.nal.unary_ops import ElidedSort, Sort
from repro.optimizer.properties import (
    _Inference,
    satisfies_sort,
    sort_requirement,
)
from repro.xmldb.document import DocumentStore


def elide_sorts(plan: Operator, store: DocumentStore) -> Operator:
    """``plan`` with every provably redundant Sort downgraded to an
    :class:`ElidedSort`.  Returns the input object unchanged (identity,
    not a copy) when nothing could be elided."""
    return _elide(plan, _Inference(store))


def _elide(plan: Operator, inference: _Inference) -> Operator:
    children = tuple(_elide(child, inference) for child in plan.children)
    if children != plan.children:
        plan = plan.rebuild(children)
    if type(plan) is Sort:
        child = plan.children[0]
        props = inference.of(child)
        if satisfies_sort(props, sort_requirement(plan)):
            # A structural elision (≤1 row / established prefix) needs
            # no proof; one resting on a data-derived guarantee carries
            # the (document, guarantee key), so a version where the
            # guarantee fails degrades it to a real sort at runtime.
            proof = None if props.at_most_one else props.sorted_proof
            return ElidedSort(child, plan.attributes, plan.descending,
                              proof=proof)
    return plan


def elided_sorts(plan: Operator) -> list[ElidedSort]:
    """Every ElidedSort in ``plan`` (testing/EXPLAIN convenience)."""
    return [op for op in plan.walk() if isinstance(op, ElidedSort)]
