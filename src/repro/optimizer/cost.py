"""A cost model for NAL plans.

The rewriter's default ranking is the paper's measured ordering
(group-Ξ ≻ grouping ≻ outer join ≻ …), hard-wired per label.  This
module provides the alternative the paper leaves implicit ("whenever
there are alternative applications, the most efficient plan should be
chosen"): an *estimated* cost per plan, derived from

- per-document tag statistics (exact counts, collected once per store),
- fanout estimates for path expressions (count(result tag) /
  count(context tag)),
- the nested-loop multiplication rule: a nested algebraic expression in
  a subscript costs (outer cardinality) × (inner plan cost) — which is
  exactly the asymmetry the unnesting equivalences remove.

Costs are in abstract *node-visit units*: scanning a document costs its
element count, hash joins cost the sum of their input cardinalities,
sorts cost n·log₂(n).  The absolute unit is meaningless; what matters —
and what ``tests/test_cost.py`` asserts against measured times — is
that the induced ranking matches reality for the paper's queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.nal.algebra import Operator
from repro.nal.construct import Construct, GroupConstruct
from repro.nal.group_ops import GroupBinary, GroupUnary, SelfGroup
from repro.nal.join_ops import AntiJoin, Cross, Join, OuterJoin, SemiJoin
from repro.nal.scalar import (
    CollectionAccess,
    DocAccess,
    Exists,
    Forall,
    FuncCall,
    NestedPlan,
    PartitionedPath,
    PathApply,
    ScalarExpr,
)
from repro.nal.unary_ops import (
    DistinctProject,
    ElidedSort,
    IndexScan,
    Map,
    Project,
    ProjectAway,
    Rename,
    Select,
    Singleton,
    Sort,
    Table,
    Unnest,
    UnnestMap,
)
from repro.xmldb.document import DocumentStore
from repro.xpath.ast import NameTest, Path

#: selectivity assumed for predicates the model cannot analyse
DEFAULT_SELECTIVITY = 0.5
#: fanout assumed for paths over documents without statistics
DEFAULT_FANOUT = 2.0
#: fixed setup charge per operator under batch-at-a-time execution
#: (batch allocation, predicate compilation, column extraction)
BATCH_SETUP_COST = 16.0
#: fraction of the per-tuple interpreter work the vectorized engine
#: still pays (tight columnar loops replace generator hops and Tup
#: copies for the rest)
VECTORIZED_TUPLE_DISCOUNT = 0.35

#: fixed charge for entering the multi-process path at all: syncing
#: shared-memory manifests to the pool and the scatter/gather round
#: trips.  High on purpose — small queries must stay serial.
PARALLEL_STARTUP_COST = 5000.0
#: per-task charge (plan pickling, one pipe round trip per worker)
PARALLEL_TASK_COST = 500.0
#: per-result-tuple charge: every row the workers produce crosses the
#: process boundary once (encode, pickle, decode, re-intern).  Must
#: stay well below the per-tuple interpreter work, or transfer cost
#: eats the entire parallel win on scan-shaped plans.
PARALLEL_TUPLE_COST = 0.5


class TagStatistics:
    """Exact per-document tag statistics, read straight off each
    document's arena columns (the per-tag row lists the interval
    encoding maintains anyway) — no tree walk, no estimation.

    Memos are keyed by ``(name, seq)``: resolving a name through the
    store (or a pinned snapshot) always yields statistics for exactly
    the version the plan will read, and an update's new version simply
    misses the memo instead of reading the predecessor's counts."""

    def __init__(self, store: DocumentStore):
        self.store = store
        self._counts: dict[tuple[str, int], dict[str, int]] = {}
        self._totals: dict[tuple[str, int], int] = {}
        self._fanouts: dict[tuple[str, int], float] = {}

    def _key_for(self, doc_name: str) -> tuple[str, int] | None:
        if doc_name not in self.store:
            return None
        document = self.store.get(doc_name)
        key = (document.name, document.seq)
        if key not in self._counts:
            arena = document.arena
            self._counts[key] = arena.tag_counts()
            self._totals[key] = arena.element_count
            self._fanouts[key] = arena.average_fanout()
        return key

    def tag_count(self, doc_name: str, tag: str) -> float:
        """Number of ``tag`` elements in the document (0 if unknown)."""
        key = self._key_for(doc_name)
        return float(self._counts.get(key, {}).get(tag, 0))

    def element_count(self, doc_name: str) -> float:
        """Total elements — the cost of one full scan."""
        key = self._key_for(doc_name)
        return float(self._totals.get(key, 0)) or 100.0

    def average_fanout(self, doc_name: str) -> float:
        """Exact mean child-elements per internal element (falls back
        to :data:`DEFAULT_FANOUT` for unknown documents)."""
        key = self._key_for(doc_name)
        return self._fanouts.get(key) or DEFAULT_FANOUT


@dataclass
class ScalarCost:
    """Cost of evaluating a subscript expression once.

    ``fanout`` is the expected number of items it yields (for
    sequence-valued expressions feeding an Υ or quantifier)."""

    per_eval: float
    fanout: float


@dataclass
class PlanCost:
    """Estimated cost of a plan, split into the all-tuples total and the
    cost of producing the *first* output tuple.

    Under the materializing vectorized engine only ``total`` matters; the
    pipelined engine's quantifier short-circuiting pays roughly
    ``first_tuple`` per existence probe, so plan ranking for pipelined
    execution orders by it (``ranking="cost-first-tuple"``).  Blocking
    operators (sort, grouping) pin ``first_tuple`` to ``total``;
    streaming operators pass their child's ``first_tuple`` through plus
    their per-tuple work.  ``first_tuple`` defaults to ``total`` when
    not given.

    The batch split: ``per_tuple`` is the portion of ``total`` that
    scales with tuples flowing through operators, ``per_batch`` the
    cardinality-independent setup a batch-at-a-time execution pays once
    per operator (batch allocation, predicate compilation, column
    extraction).  :meth:`batched_total` combines them into the estimated
    cost under ``mode="vectorized"``; :func:`preferred_mode` compares it
    against ``total`` so vectorized execution is preferred only when the
    cardinality estimates actually amortize the setup.  Both default
    conservatively (``per_tuple = total``, ``per_batch = 0``);
    :meth:`CostModel.estimate` fills them in for the plan root.
    """

    cardinality: float
    total: float
    first_tuple: float | None = None
    per_tuple: float | None = None
    per_batch: float = 0.0

    def __post_init__(self) -> None:
        if self.first_tuple is None:
            self.first_tuple = self.total
        if self.per_tuple is None:
            self.per_tuple = self.total

    def batched_total(self) -> float:
        """Estimated cost under batch-at-a-time execution: every
        operator pays its setup once, while the tuple-scaled work drops
        to the vectorized loop's share."""
        return self.per_batch + self.per_tuple * VECTORIZED_TUPLE_DISCOUNT

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PlanCost card≈{self.cardinality:.0f} " \
               f"cost≈{self.total:.0f} first≈{self.first_tuple:.0f} " \
               f"batched≈{self.batched_total():.0f}>"


class CostModel:
    """Estimates :class:`PlanCost` for NAL plans against one store."""

    def __init__(self, store: DocumentStore):
        self.store = store
        self.stats = TagStatistics(store)
        # attr name -> document name, for attributes bound by
        # χ[d:doc("…")]; populated per estimate() call.
        self._doc_bindings: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Plan-level estimation
    # ------------------------------------------------------------------
    def estimate(self, plan: Operator) -> PlanCost:
        """Cost of evaluating ``plan`` once (outer invocation)."""
        self._doc_bindings = {}
        _collect_doc_bindings(plan, self._doc_bindings)
        cost = self._plan(plan)
        # First-order batch split for the root: all tuple-scaled work is
        # eligible for vectorization, and each operator pays one fixed
        # setup charge per batch it produces.
        cost.per_tuple = cost.total
        cost.per_batch = BATCH_SETUP_COST * sum(1 for _ in plan.walk())
        return cost

    def _plan(self, op: Operator) -> PlanCost:
        if isinstance(op, Singleton):
            return PlanCost(1.0, 0.0)
        if isinstance(op, Table):
            n = float(len(op.rows))
            return PlanCost(n, n, min(1.0, n))
        if isinstance(op, IndexScan):
            return self._index_scan(op)
        if isinstance(op, (Project, ProjectAway, Rename)):
            child = self._plan(op.children[0])
            return PlanCost(child.cardinality,
                            child.total + child.cardinality,
                            child.first_tuple + 1.0)
        if isinstance(op, DistinctProject):
            child = self._plan(op.children[0])
            distinct = max(1.0, child.cardinality * 0.7)
            return PlanCost(distinct, child.total + child.cardinality,
                            child.first_tuple + 1.0)
        if isinstance(op, Select):
            return self._select(op)
        if isinstance(op, (Map, UnnestMap)):
            return self._map(op)
        if isinstance(op, Unnest):
            child = self._plan(op.children[0])
            card = child.cardinality * DEFAULT_FANOUT
            return PlanCost(card, child.total + card,
                            child.first_tuple + 1.0)
        if isinstance(op, ElidedSort):
            # The order-property pass proved the input already sorted:
            # the operator is the identity, so no n·log n is charged
            # and the child's first-tuple cost streams through — which
            # is what lets ``best_plan`` rankings genuinely prefer
            # order-preserving access paths over re-sorting ones.
            child = self._plan(op.children[0])
            return PlanCost(child.cardinality, child.total,
                            child.first_tuple)
        if isinstance(op, Sort):
            # Key extraction touches every row once (NULL/empty keys
            # included — "empty least" costs the same constant per
            # row), then the comparison sort pays n·log n.  Blocking:
            # first_tuple defaults to total.
            child = self._plan(op.children[0])
            n = max(2.0, child.cardinality)
            return PlanCost(child.cardinality,
                            child.total + child.cardinality
                            + n * math.log2(n))
        if isinstance(op, Cross):
            left = self._plan(op.children[0])
            right = self._plan(op.children[1])
            card = left.cardinality * right.cardinality
            return PlanCost(card, left.total + right.total + card,
                            left.first_tuple + right.total + 1.0)
        if isinstance(op, (Join, SemiJoin, AntiJoin, OuterJoin)):
            return self._join(op)
        if isinstance(op, (GroupUnary, GroupBinary, SelfGroup)):
            return self._group(op)
        if isinstance(op, (Construct, GroupConstruct)):
            child = self._plan(op.children[0])
            per_tuple = sum(self._scalar(e).per_eval
                            for e in op.scalar_exprs()) + 1.0
            return PlanCost(child.cardinality,
                            child.total + child.cardinality * per_tuple,
                            child.first_tuple + per_tuple)
        # Unknown operator: charge its children plus its output.
        children = [self._plan(c) for c in op.children]
        card = max((c.cardinality for c in children), default=1.0)
        return PlanCost(card, sum(c.total for c in children) + card)

    # ------------------------------------------------------------------
    def _index_scan(self, op: IndexScan) -> PlanCost:
        """An index probe pays one descent into the sorted structure
        plus one unit per result — never the document's element count.
        Cardinalities come from the index itself (exact, not guessed);
        building the index under mode="lazy" is part of asking."""
        probe = op.probe
        if probe.doc not in self.store:
            return PlanCost(1.0, 1.0)
        size = float(self.store.indexes.estimate(probe))
        descent = math.log2(max(2.0, self.stats.element_count(probe.doc)))
        return PlanCost(size, descent + size,
                        min(descent + 1.0, descent + size))

    # ------------------------------------------------------------------
    def _select(self, op: Select) -> PlanCost:
        child = self._plan(op.children[0])
        pred = self._scalar(op.pred)
        total = child.total + child.cardinality * (1.0 + pred.per_eval)
        # Pipelined: expect 1/selectivity child pulls before the first
        # tuple passes the predicate.
        first = child.first_tuple \
            + (1.0 + pred.per_eval) / DEFAULT_SELECTIVITY
        return PlanCost(max(1.0, child.cardinality * DEFAULT_SELECTIVITY),
                        total, min(first, total))

    def _map(self, op: Map | UnnestMap) -> PlanCost:
        child = self._plan(op.children[0])
        expr = self._scalar(op.expr)
        total = child.total + child.cardinality * (1.0 + expr.per_eval)
        if isinstance(op, UnnestMap):
            card = max(1.0, child.cardinality * expr.fanout)
            # Υ materializes one output tuple per binding; charging it
            # (as Cross charges its output) keeps scan-vs-probe
            # comparisons of the access-path pass unbiased.
            total += card
        else:
            card = child.cardinality
        first = child.first_tuple + 1.0 + expr.per_eval
        return PlanCost(card, total, min(first, total))

    def _join(self, op) -> PlanCost:
        left = self._plan(op.children[0])
        right = self._plan(op.children[1])
        # Hash-based equality joins cost the sum of their inputs; the
        # residual predicate is charged per probed pair (≈ left card).
        build_probe = left.cardinality + right.cardinality
        total = left.total + right.total + build_probe
        if isinstance(op, (SemiJoin, AntiJoin)):
            card = max(1.0, left.cardinality * DEFAULT_SELECTIVITY)
        elif isinstance(op, OuterJoin):
            card = left.cardinality
        else:
            card = max(left.cardinality, right.cardinality)
        # The hash table over the right input is built on the first
        # probe-side pull, so the first output tuple pays the whole
        # build side but only one probe.
        first = left.first_tuple + right.total + right.cardinality + 1.0
        return PlanCost(card, total, min(first, total))

    def _group(self, op) -> PlanCost:
        if isinstance(op, GroupBinary):
            left = self._plan(op.children[0])
            right = self._plan(op.children[1])
            total = (left.total + right.total
                     + left.cardinality + right.cardinality)
            return PlanCost(left.cardinality, total)
        child = self._plan(op.children[0])
        groups = max(1.0, child.cardinality * 0.7)
        return PlanCost(groups, child.total + child.cardinality)

    # ------------------------------------------------------------------
    # Scalar-level estimation
    # ------------------------------------------------------------------
    def _scalar(self, expr: ScalarExpr) -> ScalarCost:
        if isinstance(expr, NestedPlan):
            inner = self._plan(expr.plan)
            return ScalarCost(inner.total, max(1.0, inner.cardinality))
        if isinstance(expr, (Exists, Forall)):
            source = self._scalar(expr.source)
            pred = self._scalar(expr.pred)
            per_eval = source.per_eval + source.fanout * pred.per_eval
            return ScalarCost(per_eval, 1.0)
        if isinstance(expr, PartitionedPath):
            # One worker's slice of a range-partitioned driving scan
            # (see repro.engine.parallel): the inner path's estimate,
            # scaled to the slice — so a worker's preferred_mode sees
            # the fragment's real share of the scan.
            inner = self._path_apply(expr.inner)
            width = max(1.0, float(expr.stop - expr.start))
            share = min(1.0, width / max(1.0, inner.fanout))
            return ScalarCost(max(1.0, inner.per_eval * share),
                              max(1.0, inner.fanout * share))
        if isinstance(expr, PathApply):
            return self._path_apply(expr)
        if isinstance(expr, DocAccess):
            return ScalarCost(1.0, 1.0)
        if isinstance(expr, CollectionAccess):
            members = len(self._collection_members(expr))
            return ScalarCost(max(1.0, members), max(1.0, members))
        if isinstance(expr, FuncCall):
            inner = [self._scalar(a) for a in expr.args]
            per_eval = sum(a.per_eval for a in inner) + 1.0
            fanout = 1.0
            if expr.name == "distinct-values" and inner:
                fanout = max(1.0, inner[0].fanout * 0.7)
            return ScalarCost(per_eval, fanout)
        children = expr.children()
        if not children:
            return ScalarCost(0.0, 1.0)
        inner = [self._scalar(c) for c in children]
        return ScalarCost(sum(c.per_eval for c in inner), 1.0)

    def _path_apply(self, expr: PathApply) -> ScalarCost:
        source = self._scalar(expr.source)
        if isinstance(expr.source, CollectionAccess):
            # A path over every collection member: scan each member,
            # fanout is the summed per-document estimate.
            members = self._collection_members(expr.source)
            scan_cost = sum(self.stats.element_count(name)
                            for name in members)
            fanout = sum(self._path_fanout(name, expr.path)
                         for name in members)
            return ScalarCost(source.per_eval + max(1.0, scan_cost),
                              max(1.0, fanout))
        doc_name = self._root_document(expr.source)
        if doc_name is None or doc_name not in self.store:
            # Relative path (e.g. b2/author): small constant fanout.
            steps = len(expr.path.steps)
            return ScalarCost(source.per_eval + DEFAULT_FANOUT * steps,
                              DEFAULT_FANOUT)
        # Absolute path over a stored document: a // step (or a chain
        # from the root) is a scan — charge the document's element count
        # and estimate the fanout from the final name test.
        scan_cost = self.stats.element_count(doc_name)
        fanout = self._path_fanout(doc_name, expr.path)
        return ScalarCost(source.per_eval + scan_cost, fanout)

    def _path_fanout(self, doc_name: str, path: Path) -> float:
        for step in reversed(path.steps):
            test = step.test
            if isinstance(test, NameTest):
                count = self.stats.tag_count(doc_name, test.name)
                if count:
                    return count
        # No resolvable name test (wildcards / text()): estimate one
        # fanout's worth of nodes per element at the second-deepest
        # level — the arena's exact average fanout, not a guess.
        return max(1.0, self.stats.element_count(doc_name)
                   / max(1.0, self.stats.average_fanout(doc_name)))


    def _collection_members(self, expr: CollectionAccess) -> list[str]:
        if expr.names is not None:
            return [name for name in expr.names if name in self.store]
        return self.store.collection_names(expr.pattern)

    def _root_document(self, expr: ScalarExpr) -> str | None:
        """The document a source expression denotes, if statically known
        — either a direct ``doc("…")`` or an attribute some χ binds to
        one (the translator's ``χ[d1:doc("bib.xml")]`` convention)."""
        if isinstance(expr, DocAccess):
            return expr.name
        from repro.nal.scalar import AttrRef
        if isinstance(expr, AttrRef):
            return self._doc_bindings.get(expr.name)
        children = expr.children()
        if len(children) == 1:
            return self._root_document(children[0])
        return None


def _collect_doc_bindings(op: Operator, out: dict[str, str]) -> None:
    """Record every attribute a χ binds to ``doc("…")``, across the whole
    plan including nested subscript plans (attribute names are unique by
    construction of the translator)."""
    if isinstance(op, Map) and isinstance(op.expr, DocAccess):
        out[op.attr] = op.expr.name
    for expr in op.scalar_exprs():
        _collect_from_scalar(expr, out)
    for child in op.children:
        _collect_doc_bindings(child, out)


def _collect_from_scalar(expr: ScalarExpr, out: dict[str, str]) -> None:
    if isinstance(expr, NestedPlan):
        _collect_doc_bindings(expr.plan, out)
        return
    for child in expr.children():
        _collect_from_scalar(child, out)


def estimate(plan: Operator, store: DocumentStore) -> PlanCost:
    """Convenience wrapper: one-shot cost estimate."""
    return CostModel(store).estimate(plan)


def parallel_total(cost: PlanCost, workers: int) -> float:
    """Estimated total for multi-process execution with ``workers``
    workers: the best serial total divides across the pool (each worker
    runs a serial engine over its fragment, so the floor it amortizes
    is the serial winner, not the tuple-at-a-time total), but the
    query pays a fixed startup charge, a per-task dispatch charge, and
    a per-result-tuple transfer charge — the explicit model of why
    small inputs must stay serial."""
    workers = max(1, workers)
    serial_floor = min(cost.total, cost.batched_total())
    return (PARALLEL_STARTUP_COST
            + workers * PARALLEL_TASK_COST
            + serial_floor / workers
            + cost.cardinality * PARALLEL_TUPLE_COST)


def preferred_mode(plan: Operator, store: DocumentStore,
                   workers: int | None = None) -> str:
    """The execution mode the cost split recommends for ``plan``:
    ``"vectorized"`` when the estimated batched total undercuts the
    tuple-at-a-time total (enough tuples flow to amortize the
    per-operator batch setup), ``"pipelined"`` otherwise — small plans
    stay tuple-at-a-time, scans stay columnar.  With ``workers`` set
    (> 1), a third alternative competes: multi-process scatter/gather,
    chosen only when the plan has a partitionable scan *and*
    :func:`parallel_total` strictly undercuts the serial winner — so
    ``best_plan`` keeps serial execution for small inputs.  This is
    what ``execute(mode="auto")`` dispatches on."""
    cost = estimate(plan, store)
    serial_cost = min(cost.total, cost.batched_total())
    mode = "vectorized" if cost.batched_total() < cost.total \
        else "pipelined"
    if workers is not None and workers > 1:
        from repro.engine.parallel import parallelizable
        if parallelizable(plan, store) is not None \
                and parallel_total(cost, workers) < serial_cost:
            return "parallel"
    return mode
