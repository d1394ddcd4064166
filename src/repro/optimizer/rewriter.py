"""The rewrite driver.

``unnest_plan`` walks a translated plan from its sink (the Ξ at the root)
down the operator spine, tracking which attributes the ancestors still
need (the projection the paper applies before checking Eqv. 3/5's side
conditions).  At each nested site — a χ whose subscript holds a nested
algebraic expression, or a σ carrying a quantifier over one — it collects
every applicable equivalence and emits one complete plan per alternative,
ranked:

    group-Ξ fusion  ≻  pure grouping (Eqvs. 3/5/8/9, self-grouping)
                    ≻  outer join (Eqvs. 2/4)  ≻  nest-join (Eqv. 1)
                    ≻  semijoin/antijoin (Eqvs. 6/7)  ≻  nested

which mirrors the measured ordering of the paper's §5 tables.  The
original (nested) plan is always included, so benchmarks can compare all
variants.  A semijoin/antijoin alternative (Eqvs. 6/7) is emitted in
*pushed* form — every conjunct over the right operand alone becomes a σ
on that operand, as the paper does by hand in §5.5 — and Eqvs. 8/9 and
the self-grouping variant start from that same tree.

Invariants the engines and optimizer passes rely on:

- **Plans are immutable.**  The rewriter never mutates the translated
  tree; every alternative is a freshly built tree (shared subtrees are
  reused by reference, which is safe for the same reason).  Engines may
  therefore cache per-plan state keyed by operator identity, and one
  plan can be executed concurrently by several requests.
- **Alternatives are semantically equal.**  Every emitted plan computes
  the same row sequence and Ξ output as the nested original — the
  property the execution modes differentially test, and what lets
  ``execute(mode=...)`` pick any mode for any alternative.
- **Attribute names are stable.**  Rewrites preserve the attribute
  names the normalizer introduced (``w1``, ``g1``, …); downstream
  passes (order-property inference, the vectorized engine's fused
  select-over-map) pattern-match on plan shape without consulting the
  rewrite history.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RewriteError
from repro.nal.algebra import Operator
from repro.nal.construct import Construct
from repro.nal.unary_ops import (
    Map,
    Project,
    ProjectAway,
    Rename,
    Select,
    Sort,
    UnnestMap,
)
from repro.optimizer import equivalences as eq
from repro.xmldb.document import DocumentStore

#: smaller rank = better plan
#: the plan-ranking strategies ``unnest_plan`` accepts
RANKINGS = ("heuristic", "cost")

_RANKS = {
    "group-xi": 0,
    "grouping": 1,
    "outerjoin": 2,
    "nestjoin": 3,
    "semijoin": 4,
    "antijoin": 4,
    "nested": 9,
}


@dataclass
class RewriteResult:
    """One complete plan alternative."""

    label: str
    plan: Operator
    applied: tuple[str, ...]
    #: estimated cost (set when unnest_plan ran with ranking="cost")
    cost: "PlanCost | None" = None
    #: memoized canonical plan digest (see :meth:`digest`)
    _digest: str | None = None
    #: memoized documents and collection patterns (see :meth:`sources`)
    _sources: tuple[frozenset[str], frozenset[str]] | None = None

    def digest(self) -> str:
        """The plan's canonical, process-stable digest (see
        :mod:`repro.optimizer.digest`) — the cache key the session
        layer files prepared plans and results under.  Computed once
        per alternative; sound because plans are immutable (the
        invariant at the top of this module)."""
        if self._digest is None:
            from repro.optimizer.digest import plan_digest
            self._digest = plan_digest(self.plan)
        return self._digest

    def sources(self) -> tuple[frozenset[str], frozenset[str]]:
        """``(document names, collection patterns)`` the plan reads
        (:func:`repro.optimizer.digest.referenced_sources`), computed
        once per alternative like :meth:`digest`.  The memo lives on
        the alternative, so it dies with its plan-cache entry."""
        if self._sources is None:
            from repro.optimizer.digest import referenced_sources
            self._sources = referenced_sources(self.plan)
        return self._sources

    @property
    def rank(self) -> float:
        # An indexed variant ranks just above its scan-based base plan.
        if self.label.endswith("+index"):
            return _RANKS.get(self.label[:-len("+index")], 5) - 0.5
        return _RANKS.get(self.label, 5)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rules = "+".join(self.applied) if self.applied else "-"
        cost = "" if self.cost is None else f" cost≈{self.cost.total:.0f}"
        return f"<RewriteResult {self.label} [{rules}]{cost}>"


def unnest_plan(plan: Operator, store: DocumentStore,
                ranking: str = "heuristic",
                access_paths: bool | None = None,
                tracer=None) -> list[RewriteResult]:
    """All plan alternatives for ``plan``, best first.

    ``ranking="heuristic"`` (default) orders by the paper's measured
    plan hierarchy (group-Ξ ≻ grouping ≻ outer join ≻ nest-join ≻
    semi/antijoin ≻ nested), with the nested original always last.
    ``ranking="cost"`` orders by the estimated all-tuples cost of
    :mod:`repro.optimizer.cost` (ties broken by the heuristic rank, so
    the nested plan never beats an equal-cost rewrite).

    ``access_paths`` controls whether each alternative additionally
    gets an index-based variant (label suffixed ``+index``, ranked just
    above its scan-based base) where :mod:`repro.optimizer.
    access_paths` finds a cheaper probe; the default ``None`` follows
    the store's ``index_mode`` (off ⇒ scans only).

    Every alternative finally passes through
    :func:`repro.optimizer.elide_order.elide_sorts`: Sorts whose
    requirement the order-property inference proves already satisfied
    become ``Sort[elided: …]`` no-ops (``applied`` gains
    ``"elide-sort"``), and the cost estimates below price them without
    the n·log n term.

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`) records one span
    per optimizer pass — rewrite/unnesting, access paths, sort elision,
    cost ranking — each annotated with how many plan alternatives it
    produced or changed, so regressions in a single pass show up in a
    query's trace rather than only in end-to-end timings.
    """
    if ranking not in RANKINGS:
        raise RewriteError(f"unknown ranking {ranking!r}; use one of "
                           f"{RANKINGS}")
    from repro.obs.trace import maybe_span
    with maybe_span(tracer, "rewrite/unnest", "optimize") as span:
        variants = _alternatives(plan, frozenset(), store)
        results: list[RewriteResult] = []
        for label, rewritten, applied in variants:
            fused = eq.fuse_group_construct(rewritten)
            if fused is not None:
                results.append(RewriteResult("group-xi", fused,
                                             applied + ("fuse-xi",)))
            results.append(RewriteResult(label, rewritten, applied))
        if span is not None:
            span.args = {"alternatives": len(results),
                         "labels": [r.label for r in results]}
    if access_paths is None:
        access_paths = store.indexes.enabled
    model = None   # one CostModel (and its tag statistics) for both uses
    if access_paths:
        from repro.optimizer.access_paths import apply_access_paths
        from repro.optimizer.cost import CostModel
        with maybe_span(tracer, "access-paths", "optimize") as span:
            model = CostModel(store)
            indexed: list[RewriteResult] = []
            for result in results:
                rewritten = apply_access_paths(result.plan, store, model)
                if rewritten is not None:
                    indexed.append(RewriteResult(
                        result.label + "+index", rewritten,
                        result.applied + ("access-paths",)))
            results = indexed + results
            if span is not None:
                span.args = {"indexed_variants": len(indexed),
                             "alternatives": len(results)}
    from repro.optimizer.elide_order import elide_sorts
    with maybe_span(tracer, "sort-elision", "optimize") as span:
        elided_plans = 0
        for result in results:
            elided = elide_sorts(result.plan, store)
            if elided is not result.plan:
                result.plan = elided
                result.applied = result.applied + ("elide-sort",)
                elided_plans += 1
        if span is not None:
            span.args = {"plans_with_elisions": elided_plans,
                         "alternatives": len(results)}
    if ranking == "cost":
        with maybe_span(tracer, "cost-ranking", "optimize",
                        ranking=ranking):
            if model is None:
                from repro.optimizer.cost import CostModel
                model = CostModel(store)
            for result in results:
                result.cost = model.estimate(result.plan)
            results.sort(key=lambda r: (r.cost.total, r.rank))
    else:
        results.sort(key=lambda r: r.rank)
    return results


def best_plan(plan: Operator, store: DocumentStore,
              ranking: str = "heuristic") -> RewriteResult:
    """The top-ranked alternative."""
    return unnest_plan(plan, store, ranking=ranking)[0]


# ----------------------------------------------------------------------
# Spine traversal with needed-attribute tracking
# ----------------------------------------------------------------------
Variant = tuple[str, Operator, tuple[str, ...]]


def _alternatives(op: Operator, needed: frozenset[str],
                  store: DocumentStore) -> list[Variant]:
    """Plan alternatives for the subtree under ``op``.  The first entry
    is always the unchanged ('nested') subtree."""
    if isinstance(op, Construct):
        child_needed = frozenset(
            a for expr in op.scalar_exprs() for a in expr.free_attrs())
        return _wrap(op, _alternatives(op.children[0], child_needed,
                                       store))
    if isinstance(op, Select):
        site = eq.match_quantifier_site(op)
        if site is not None:
            return _quantifier_variants(op, site, needed, store)
        child_needed = needed | op.pred.free_attrs()
        return _wrap(op, _alternatives(op.children[0], child_needed,
                                       store))
    if isinstance(op, Map):
        site = eq.match_map_site(op)
        if site is not None:
            return _map_variants(op, site, needed, store)
        return _passthrough(op, needed, store)
    if isinstance(op, (Project, Rename, ProjectAway, Sort, UnnestMap)):
        return _passthrough(op, needed, store)
    return [("nested", op, ())]


def _passthrough(op: Operator, needed: frozenset[str],
                 store: DocumentStore) -> list[Variant]:
    if len(op.children) != 1:
        return [("nested", op, ())]
    child_needed = _needed_below(op, needed)
    return _wrap(op, _alternatives(op.children[0], child_needed, store))


def _needed_below(op: Operator, needed: frozenset[str]) -> frozenset[str]:
    if isinstance(op, Project):
        return frozenset(op.attributes)
    if isinstance(op, Rename):
        reverse = {new: old for old, new in op.mapping.items()}
        return frozenset(reverse.get(a, a) for a in needed)
    if isinstance(op, (UnnestMap, Map)):
        extra = frozenset(
            a for expr in op.scalar_exprs() for a in expr.free_attrs())
        return (needed - {op.attr}) | extra
    if isinstance(op, ProjectAway):
        return needed | frozenset()
    if isinstance(op, Sort):
        return needed | frozenset(op.attributes)
    return needed


def _wrap(op: Operator, child_variants: list[Variant]) -> list[Variant]:
    wrapped: list[Variant] = []
    for label, child, applied in child_variants:
        if child is op.children[0]:
            wrapped.append((label, op, applied))
        else:
            wrapped.append((label, op.rebuild((child,) +
                                              op.children[1:]), applied))
    return wrapped


# ----------------------------------------------------------------------
# Site expansion
# ----------------------------------------------------------------------
def _map_variants(op: Map, site: eq.MapSite, needed: frozenset[str],
                  store: DocumentStore) -> list[Variant]:
    variants: list[Variant] = [("nested", op, ())]
    _require_group_needed(op, needed)
    if site.corr_kind == "theta":
        if eq.eqv3_applicable(site, store, needed):
            variants.append(
                ("grouping", eq.apply_eqv3(site, store, needed),
                 ("eqv3",)))
        if site.theta == "=":
            variants.append(("outerjoin", eq.apply_eqv2(site), ("eqv2",)))
        variants.append(("nestjoin", eq.apply_eqv1(site), ("eqv1",)))
    else:
        if eq.eqv5_applicable(site, store, needed):
            variants.append(
                ("grouping", eq.apply_eqv5(site, store, needed),
                 ("eqv5",)))
        variants.append(("outerjoin", eq.apply_eqv4(site), ("eqv4",)))
    return variants


def _quantifier_variants(op: Select, site: eq.QuantifierSite,
                         needed: frozenset[str],
                         store: DocumentStore) -> list[Variant]:
    variants: list[Variant] = [("nested", op, ())]
    # The ⋉/▷ alternative *is* the pushed form: every conjunct over the
    # right operand alone becomes a σ on that operand (the paper's §5.5
    # hand push), so the join predicate the engines hash on is the bare
    # correlation and the filter runs once over e2, not once per probe.
    if site.kind == "some":
        joined = eq.push_into_right(eq.apply_eqv6(site))
        variants.append(("semijoin", joined, ("eqv6",)))
        if eq.eqv89_applicable(joined, store, needed):
            variants.append(
                ("grouping", eq.apply_eqv8_or_9(joined, store, needed),
                 ("eqv6", "eqv8")))
        elif eq.self_group_applicable(joined):
            variants.append(
                ("grouping", eq.apply_self_group(joined),
                 ("eqv6", "eqv8-self")))
    else:
        joined = eq.push_into_right(eq.apply_eqv7(site))
        variants.append(("antijoin", joined, ("eqv7",)))
        if eq.eqv89_applicable(joined, store, needed):
            variants.append(
                ("grouping", eq.apply_eqv8_or_9(joined, store, needed),
                 ("eqv7", "eqv9")))
    return variants


def _require_group_needed(op: Map, needed: frozenset[str]) -> None:
    if needed and op.attr not in needed:
        raise RewriteError(
            f"nested attribute {op.attr!r} is never used above its χ — "
            "drop the clause instead of unnesting it")
