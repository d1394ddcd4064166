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
    """Estimated cost of evaluating a plan to the end (``total``) and
    the number of tuples it yields.  Every top-level plan is consumed
    to the end, so there is no time-to-first-tuple term: the one
    consumer that stops early — a boolean subscript — sits inside a
    nested plan, whose per-outer-tuple cost the model charges in full
    (an upper bound that keeps the nested alternatives ranked last)."""

    cardinality: float
    total: float

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PlanCost card≈{self.cardinality:.0f} " \
               f"cost≈{self.total:.0f}>"


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
        return self._plan(plan)

    def _plan(self, op: Operator) -> PlanCost:
        if isinstance(op, Singleton):
            return PlanCost(1.0, 0.0)
        if isinstance(op, Table):
            n = float(len(op.rows))
            return PlanCost(n, n)
        if isinstance(op, IndexScan):
            return self._index_scan(op)
        if isinstance(op, (Project, ProjectAway, Rename)):
            child = self._plan(op.children[0])
            return PlanCost(child.cardinality,
                            child.total + child.cardinality)
        if isinstance(op, DistinctProject):
            child = self._plan(op.children[0])
            distinct = max(1.0, child.cardinality * 0.7)
            return PlanCost(distinct, child.total + child.cardinality)
        if isinstance(op, Select):
            return self._select(op)
        if isinstance(op, (Map, UnnestMap)):
            return self._map(op)
        if isinstance(op, Unnest):
            child = self._plan(op.children[0])
            card = child.cardinality * DEFAULT_FANOUT
            return PlanCost(card, child.total + card)
        if isinstance(op, ElidedSort):
            # The order-property pass proved the input already sorted:
            # the operator is the identity, so no n·log n is charged —
            # which is what lets ``best_plan`` rankings genuinely
            # prefer order-preserving access paths over re-sorting
            # ones.
            return self._plan(op.children[0])
        if isinstance(op, Sort):
            # Key extraction touches every row once (NULL/empty keys
            # included — "empty least" costs the same constant per
            # row), then the comparison sort pays n·log n.
            child = self._plan(op.children[0])
            n = max(2.0, child.cardinality)
            return PlanCost(child.cardinality,
                            child.total + child.cardinality
                            + n * math.log2(n))
        if isinstance(op, Cross):
            left = self._plan(op.children[0])
            right = self._plan(op.children[1])
            card = left.cardinality * right.cardinality
            return PlanCost(card, left.total + right.total + card)
        if isinstance(op, (Join, SemiJoin, AntiJoin, OuterJoin)):
            return self._join(op)
        if isinstance(op, (GroupUnary, GroupBinary, SelfGroup)):
            return self._group(op)
        if isinstance(op, (Construct, GroupConstruct)):
            child = self._plan(op.children[0])
            per_tuple = sum(self._scalar(e).per_eval
                            for e in op.scalar_exprs()) + 1.0
            return PlanCost(child.cardinality,
                            child.total + child.cardinality * per_tuple)
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
        return PlanCost(size, descent + size)

    # ------------------------------------------------------------------
    def _select(self, op: Select) -> PlanCost:
        child = self._plan(op.children[0])
        pred = self._scalar(op.pred)
        total = child.total + child.cardinality * (1.0 + pred.per_eval)
        return PlanCost(max(1.0, child.cardinality * DEFAULT_SELECTIVITY),
                        total)

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
        return PlanCost(card, total)

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
        return PlanCost(card, total)

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
