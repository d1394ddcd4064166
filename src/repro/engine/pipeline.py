"""Subscripts that stop early: first-witness evaluation of boolean
subscripts, and the pull-based evaluation of the nested plans in them.

The batch engine of :mod:`repro.engine.vectorized` materializes every
operator's whole output — the right unit of work for a plan that is
consumed to the end, which every top-level plan is.  A *boolean*
subscript is the one consumer that is not: ``σ[∃x ∈ ⟨plan⟩ : p]``,
``exists(⟨plan⟩)``, ``empty(…)`` or a bare nested plan in a predicate is
decided by the first witness (the first counter-example, for ∀), and the
paper's cost argument for existential queries assumes an engine that
stops there.  So wherever the default engine evaluates a predicate one
row at a time (a σ its columnar pass cannot take, a join residual) it
calls :func:`boolean_subscript`, which pulls tuples from the nested plan
one at a time and stops at the first witness — first-witness cost per
outer tuple instead of all-tuples cost.

What streams is only what can stop early:

- the leaves and the unary pipeline (□, Table, IndexScan, σ, Π, Π̄, ρ, χ,
  Υ, μ, an elided Sort) are generators over their child — an Υ whose
  subscript is a single-step path from one context node walks the
  document lazily, so a consumer that stops also stops the scan itself
  (node visits drop, not just tuple construction);
- every blocking or binary operator inside a nested plan (⋈, ⋉, ▷, ⟕, ×,
  Γ, ΓSelf, Sort, ΠD, ΞG) needs its whole input before its first output,
  so it is produced by the batch engine and yielded: one statement of
  those operators' execution, not two.

Nested plans that contain a Ξ (construction is a side effect on the
output stream) are always drained through the definitional semantics,
so stopping early never changes the constructed output.  Value
contexts (a χ binding a nested plan's whole sequence, an aggregate
over it) have nothing to stop for and never come here: the streamer's
χ evaluates its subscript, and ``NestedPlan.evaluate`` hands the plan
to the batch engine whole (see :mod:`repro.engine.vectorized`).

Differential tests assert :func:`stream_plan` ≡ ``evaluate``, order
included, on randomized plans over every operator type.
"""

from __future__ import annotations

from typing import Iterator

from repro.nal.algebra import Operator, bind_item, scalar_env
from repro.nal.scalar import (
    And,
    Exists,
    Forall,
    FuncCall,
    NestedPlan,
    Not,
    Or,
    PathApply,
    ScalarExpr,
    TupledSeq,
    iter_path_items,
)
from repro.nal.unary_ops import (
    ElidedSort,
    IndexScan,
    Map,
    Project,
    ProjectAway,
    Rename,
    Select,
    Singleton,
    Table,
    Unnest,
    UnnestMap,
)
from repro.nal.values import (
    EMPTY_TUPLE,
    Tup,
    effective_boolean,
    iter_items,
)


def boolean_subscript(expr: ScalarExpr, env: Tup, ctx) -> bool:
    """The effective boolean value of a subscript expression, pulling
    the minimum number of tuples from any nested plan inside it."""
    decide = _BOOLEAN.get(type(expr))
    if decide is None:
        return effective_boolean(expr.evaluate(env, ctx))
    return decide(expr, env, ctx)


def _all_terms(expr: And, env: Tup, ctx) -> bool:
    return all(boolean_subscript(t, env, ctx) for t in expr.terms)


def _any_term(expr: Or, env: Tup, ctx) -> bool:
    return any(boolean_subscript(t, env, ctx) for t in expr.terms)


def _negation(expr: Not, env: Tup, ctx) -> bool:
    return not boolean_subscript(expr.term, env, ctx)


def _some(expr: Exists, env: Tup, ctx) -> bool:
    return any(boolean_subscript(expr.pred, bound, ctx)
               for bound in _quantifier_bindings(expr, env, ctx))


def _every(expr: Forall, env: Tup, ctx) -> bool:
    return all(boolean_subscript(expr.pred, bound, ctx)
               for bound in _quantifier_bindings(expr, env, ctx))


def _quantifier_bindings(quant, env: Tup, ctx) -> Iterator[Tup]:
    for item in iter_subscript(quant.source, env, ctx):
        yield env.extend(quant.var, bind_item(item))


def _nonempty(expr: ScalarExpr, env: Tup, ctx) -> bool:
    # effective_boolean of a tuple sequence is non-emptiness.
    for _ in iter_subscript(expr, env, ctx):
        return True
    return False


def _call(expr: FuncCall, env: Tup, ctx) -> bool:
    if len(expr.args) == 1 and expr.name in ("exists", "empty"):
        return _nonempty(expr.args[0], env, ctx) == (expr.name == "exists")
    return effective_boolean(expr.evaluate(env, ctx))


#: the subscript forms with something to stop for; every other
#: expression has one value and is simply evaluated
_BOOLEAN = {
    And: _all_terms,
    Or: _any_term,
    Not: _negation,
    Exists: _some,
    Forall: _every,
    FuncCall: _call,
    NestedPlan: _nonempty,
}


def iter_subscript(expr: ScalarExpr, env: Tup, ctx):
    """Items of a sequence-valued subscript expression, on demand.

    Yields exactly ``iter_items(expr.evaluate(env, ctx))`` but streams
    nested plans (:func:`stream_plan`), ``e[a]`` tuplings and simple
    path applications instead of materializing them.
    """
    if isinstance(expr, NestedPlan):
        # One inner-plan evaluation per outer tuple — where un-unnested
        # plans spend quadratic time — so the cooperative per-request
        # deadline is checked here, as NestedPlan.evaluate does.
        if ctx.deadline is not None:
            ctx.check_deadline()
        if expr.constructs():
            # Ξ writes to the output stream as a side effect; the plan
            # must run to completion no matter how little the consumer
            # pulls, so short-circuiting is unsafe here.
            yield from expr.plan.evaluate(ctx, env)
        else:
            yield from stream_plan(expr.plan, ctx, env)
    elif isinstance(expr, TupledSeq):
        for item in iter_subscript(expr.inner, env, ctx):
            yield Tup({expr.attr: item})
    elif isinstance(expr, PathApply):
        # Streamed via the shared helper: a single unpredicated step
        # from one context node iterates the arena row interval (or the
        # walk) lazily, so a short-circuiting consumer also stops the
        # scan itself; anything else falls back to evaluate_path.
        yield from iter_path_items(expr, env, ctx)
    else:
        yield from iter_items(expr.evaluate(env, ctx))


def stream_plan(plan: Operator, ctx, env: Tup = EMPTY_TUPLE
                ) -> Iterator[Tup]:
    """``plan``'s result sequence (exactly ``plan.evaluate(ctx, env)``),
    produced on demand where the operator can produce on demand.

    Nested subscript plans are never measured — no EXPLAIN ANALYZE
    entry, span or ``operator.*`` metric; their work is charged to the
    host operator — which is why the batch engine runs with no tree
    position here.
    """
    handler = _STREAMED.get(type(plan))
    if handler is not None:
        return handler(plan, ctx, env)
    # Blocking or binary: nothing to gain from pulling, so the batch
    # engine produces it.  Imported here because the recursion is
    # mutual — the batch engine's σ calls boolean_subscript.
    from repro.engine.vectorized import run_vectorized
    return iter(run_vectorized(plan, ctx, env, path=None).to_rows())


def _child(plan: Operator, ctx, env: Tup) -> Iterator[Tup]:
    return stream_plan(plan.children[0], ctx, env)


def _singleton(plan: Singleton, ctx, env: Tup) -> Iterator[Tup]:
    yield EMPTY_TUPLE


def _table(plan: Table, ctx, env: Tup) -> Iterator[Tup]:
    yield from plan.rows


def _index_scan(plan: IndexScan, ctx, env: Tup) -> Iterator[Tup]:
    for node in ctx.store.indexes.probe(plan.probe, ctx.stats):
        yield Tup({plan.attr: node})


def _select(plan: Select, ctx, env: Tup) -> Iterator[Tup]:
    for t in _child(plan, ctx, env):
        if boolean_subscript(plan.pred, scalar_env(env, t), ctx):
            yield t


def _project(plan: Project, ctx, env: Tup) -> Iterator[Tup]:
    for t in _child(plan, ctx, env):
        yield t.project(plan.attributes)


def _project_away(plan: ProjectAway, ctx, env: Tup) -> Iterator[Tup]:
    for t in _child(plan, ctx, env):
        yield t.project_away(plan.attributes)


def _rename(plan: Rename, ctx, env: Tup) -> Iterator[Tup]:
    for t in _child(plan, ctx, env):
        yield t.rename(plan.mapping)


def _map(plan: Map, ctx, env: Tup) -> Iterator[Tup]:
    # χ binds the subscript's *value* (possibly a whole sequence), so
    # nested plans here must materialize; only boolean contexts
    # short-circuit.
    for t in _child(plan, ctx, env):
        value = plan.expr.evaluate(scalar_env(env, t), ctx)
        yield t.extend(plan.attr, value)


def _unnest_map(plan: UnnestMap, ctx, env: Tup) -> Iterator[Tup]:
    for t in _child(plan, ctx, env):
        for item in iter_subscript(plan.expr, scalar_env(env, t), ctx):
            yield t.extend(plan.attr, bind_item(item))


def _unnest(plan: Unnest, ctx, env: Tup) -> Iterator[Tup]:
    for t in _child(plan, ctx, env):
        yield from plan.evaluate_rows([t])


def _elided_sort(plan: ElidedSort, ctx, env: Tup) -> Iterator[Tup]:
    # Identity, and — unlike a real Sort — *streaming*: tuples pass
    # through without blocking, so a consumer that stops early keeps
    # its first-witness cost.  checked_iter re-verifies sortedness
    # pairwise when the order subsystem's debug switch is on.
    yield from plan.checked_iter(_child(plan, ctx, env), ctx)


_STREAMED = {
    Singleton: _singleton,
    Table: _table,
    IndexScan: _index_scan,
    Select: _select,
    Project: _project,
    ProjectAway: _project_away,
    Rename: _rename,
    Map: _map,
    UnnestMap: _unnest_map,
    Unnest: _unnest,
    ElidedSort: _elided_sort,
}
