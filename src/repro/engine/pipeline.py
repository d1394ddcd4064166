"""Pipelined (Volcano-style) evaluation: every operator yields tuples.

The vectorized engine of :mod:`repro.engine.vectorized` materializes
every operator's whole output, so even a perfectly unnested existential
plan pays all-tuples cost where a real engine would stop at the first
witness.  This module is the engine the paper's cost argument actually
assumes: operators are generators pulling from their children on demand,
and the sequences they produce are — by construction and by differential
test — exactly the vectorized (and hence the reference) sequences.

What pipelining buys, beyond bounded memory:

- **Short-circuit quantifiers.**  A σ predicate holding an ∃/∀
  quantifier, an ``exists()``/``empty()`` call or a bare nested plan is
  evaluated by :func:`boolean_subscript`, which pulls tuples from the
  nested plan one at a time and stops at the first witness (or the first
  counter-example, for ∀) instead of draining the inner input.  That
  turns the paper's existential queries from all-tuples cost into
  first-witness cost per outer tuple.
- **Lazy hash builds.**  The order-preserving hash join builds its hash
  table on the *first pull* of the probe side; if the left input turns
  out empty, the build side never runs.  Residual-only semi/antijoins
  pull the inner input incrementally and stop at the first witness.
- **Streaming scans.**  An Υ whose subscript is a single-step path from
  one context node walks the document lazily, so a short-circuiting
  consumer also stops the scan itself (node visits drop, not just tuple
  construction); ``IndexScan`` streams its probe results.

Nested subscript plans that contain a Ξ (construction is a side effect
on the output stream) are always drained, so short-circuiting never
changes the constructed output.

Differential tests assert pipelined ≡ vectorized ≡ reference, order
included, on randomized plans and documents.
"""

from __future__ import annotations

import time
from typing import Iterator

from repro.errors import EvaluationError
from repro.nal.algebra import Operator, bind_item, scalar_env
from repro.nal.construct import Construct, GroupConstruct, \
    contains_construct
from repro.nal.group_ops import GroupBinary, GroupUnary, SelfGroup
from repro.nal.join_ops import AntiJoin, Cross, Join, OuterJoin, SemiJoin
from repro.nal.scalar import (
    And,
    Const,
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
from repro.nal.values import (
    EMPTY_TUPLE,
    Tup,
    canonical_key,
    effective_boolean,
    iter_items,
    null_tuple,
)
from repro.engine.batch import Batch
from repro.engine.kernels import (
    ROOT_PATH,
    _hash_buckets,
    _probe_key,
    group_binary_rows,
    group_unary_rows,
    self_group_rows,
    split_equi_conjuncts,
)


def run_pipelined(plan: Operator, ctx, env: Tup = EMPTY_TUPLE,
                  path: tuple[int, ...] | None = ROOT_PATH
                  ) -> Iterator[Tup]:
    """Iterate ``plan``'s result sequence, producing tuples on demand.

    ``path`` is the operator's tree position (see
    :data:`~repro.engine.kernels.ROOT_PATH`): when
    ``ctx.analyze_counts`` is active, the operator records one
    invocation when first pulled and one row per tuple actually
    *yielded* — a short-circuited operator honestly reports the rows it
    produced, and an operator that was never pulled has no entry at all
    (rendered ``(not measured)``).  Nested subscript plans run with
    ``path=None`` and stay unmeasured, charged to their host operator.
    """
    handler = _DISPATCH.get(type(plan))
    if handler is None:
        raise EvaluationError(
            f"no pipelined implementation for {type(plan).__name__}")
    gen = handler(plan, ctx, env, path)
    if path is None:
        # Nested subscript plans stay unmeasured (charged to the host
        # operator), under analyze counters, tracing and metrics alike.
        # Deadline enforcement rides on the measured host operators.
        return gen
    if ctx.deadline is not None:
        gen = _deadline_checked(gen, ctx)
    counts = ctx.analyze_counts
    if counts is not None:
        gen = _counted(gen, counts, path)
    if ctx.tracer is not None or ctx.metrics is not None:
        gen = _observed(gen, plan, ctx, path)
    return gen


def _observed(gen: Iterator[Tup], plan: Operator, ctx,
              path: tuple[int, ...]) -> Iterator[Tup]:
    """Observe one pipelined operator: its span opens at the first pull
    and closes when the generator is exhausted *or abandoned* (a
    short-circuiting consumer closes it early — the span honestly shows
    how long the operator was live), and the metrics registry receives
    per-operator-class rows/seconds on the way out."""
    tracer, metrics = ctx.tracer, ctx.metrics
    span = None if tracer is None else \
        tracer.begin(plan.label(), "operator", path=list(path))
    rows = 0
    start = time.perf_counter()
    try:
        for t in gen:
            rows += 1
            yield t
    finally:
        if span is not None:
            span.finish()
        if metrics is not None:
            name = type(plan).__name__
            metrics.counter(f"operator.{name}.invocations").inc()
            metrics.counter(f"operator.{name}.rows_out").inc(rows)
            metrics.histogram(f"operator.{name}.seconds").observe(
                time.perf_counter() - start)


def _deadline_checked(gen: Iterator[Tup], ctx) -> Iterator[Tup]:
    """Cooperative per-request timeout: check the context deadline
    before every pulled tuple (the pipelined engine's unit of work), so
    even a plan stuck inside one long-running operator chain is
    abandoned at the next tuple boundary."""
    ctx.check_deadline()
    for t in gen:
        yield t
        ctx.check_deadline()


def _counted(gen: Iterator[Tup], counts: dict,
             path: tuple[int, ...]) -> Iterator[Tup]:
    calls, rows = counts.get(path, (0, 0))
    counts[path] = (calls + 1, rows)
    for t in gen:
        calls, rows = counts[path]
        counts[path] = (calls, rows + 1)
        yield t


def _child(plan: Operator, i: int, ctx, env: Tup,
           path: tuple[int, ...] | None) -> Iterator[Tup]:
    sub = None if path is None else path + (i,)
    return run_pipelined(plan.children[i], ctx, env, sub)


# ----------------------------------------------------------------------
# Short-circuiting subscript evaluation
# ----------------------------------------------------------------------
_MISSING = object()


def boolean_subscript(expr: ScalarExpr, env: Tup, ctx) -> bool:
    """The effective boolean value of a subscript expression, pulling
    the minimum number of tuples from any nested plan inside it."""
    if isinstance(expr, Const):
        return effective_boolean(expr.value)
    if isinstance(expr, And):
        return all(boolean_subscript(t, env, ctx) for t in expr.terms)
    if isinstance(expr, Or):
        return any(boolean_subscript(t, env, ctx) for t in expr.terms)
    if isinstance(expr, Not):
        return not boolean_subscript(expr.term, env, ctx)
    if isinstance(expr, Exists):
        return any(boolean_subscript(expr.pred, bound, ctx)
                   for bound in _quantifier_bindings(expr, env, ctx))
    if isinstance(expr, Forall):
        return all(boolean_subscript(expr.pred, bound, ctx)
                   for bound in _quantifier_bindings(expr, env, ctx))
    if isinstance(expr, FuncCall) and len(expr.args) == 1 \
            and expr.name in ("exists", "empty"):
        nonempty = next(iter_subscript(expr.args[0], env, ctx),
                        _MISSING) is not _MISSING
        return nonempty if expr.name == "exists" else not nonempty
    if isinstance(expr, NestedPlan):
        # effective_boolean of a tuple sequence is non-emptiness.
        return next(iter_subscript(expr, env, ctx),
                    _MISSING) is not _MISSING
    return effective_boolean(expr.evaluate(env, ctx))


def _quantifier_bindings(quant, env: Tup, ctx) -> Iterator[Tup]:
    for item in iter_subscript(quant.source, env, ctx):
        yield env.extend(quant.var, bind_item(item))


def iter_subscript(expr: ScalarExpr, env: Tup, ctx):
    """Items of a sequence-valued subscript expression, on demand.

    Yields exactly ``iter_items(expr.evaluate(env, ctx))`` but streams
    nested plans (through the pipelined engine), ``e[a]`` tuplings and
    simple path applications instead of materializing them.
    """
    if isinstance(expr, NestedPlan):
        if contains_construct(expr.plan):
            # Ξ writes to the output stream as a side effect; the plan
            # must run to completion no matter how little the consumer
            # pulls, so short-circuiting is unsafe here.
            yield from expr.plan.evaluate(ctx, env)
        else:
            yield from run_pipelined(expr.plan, ctx, env, path=None)
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


def _pred_ok(preds: list[ScalarExpr], combined: Tup, env: Tup,
             ctx) -> bool:
    bound = scalar_env(env, combined)
    return all(boolean_subscript(p, bound, ctx) for p in preds)


def _build_side(plan: Operator, ctx, env: Tup, path):
    """The right operand of a binary operator as a one-shot ``get()``
    returning its materialized rows; the first call drains it.  A right
    operand containing a Ξ drains immediately — its output side
    effects must not depend on whether the probe side produced tuples
    (vectorized and reference mode always evaluate both operands)."""
    it = _child(plan, 1, ctx, env, path)
    rows = list(it) if contains_construct(plan.children[1]) else None

    def get() -> list[Tup]:
        nonlocal rows
        if rows is None:
            rows = list(it)
        return rows

    return get


# ----------------------------------------------------------------------
# Leaf and unary operators
# ----------------------------------------------------------------------
def _singleton(plan: Singleton, ctx, env: Tup, path) -> Iterator[Tup]:
    yield EMPTY_TUPLE


def _table(plan: Table, ctx, env: Tup, path) -> Iterator[Tup]:
    yield from plan.rows


def _index_scan(plan: IndexScan, ctx, env: Tup, path) -> Iterator[Tup]:
    for node in ctx.store.indexes.probe(plan.probe, ctx.stats):
        yield Tup({plan.attr: node})


def _select(plan: Select, ctx, env: Tup, path) -> Iterator[Tup]:
    for t in _child(plan, 0, ctx, env, path):
        if boolean_subscript(plan.pred, scalar_env(env, t), ctx):
            yield t


def _project(plan: Project, ctx, env: Tup, path) -> Iterator[Tup]:
    for t in _child(plan, 0, ctx, env, path):
        yield t.project(plan.attributes)


def _project_away(plan: ProjectAway, ctx, env: Tup, path
                  ) -> Iterator[Tup]:
    for t in _child(plan, 0, ctx, env, path):
        yield t.project_away(plan.attributes)


def _rename(plan: Rename, ctx, env: Tup, path) -> Iterator[Tup]:
    for t in _child(plan, 0, ctx, env, path):
        yield t.rename(plan.mapping)


def _distinct(plan: DistinctProject, ctx, env: Tup, path
              ) -> Iterator[Tup]:
    seen: set = set()
    for t in _child(plan, 0, ctx, env, path):
        projected = t.project(plan.attributes)
        key = tuple(canonical_key(projected[a]) for a in plan.attributes)
        if key not in seen:
            seen.add(key)
            if plan.renaming:
                projected = projected.rename(plan.renaming)
            yield projected


def _map(plan: Map, ctx, env: Tup, path) -> Iterator[Tup]:
    # χ binds the subscript's *value* (possibly a whole sequence), so
    # nested plans here must materialize; only boolean contexts
    # short-circuit.
    for t in _child(plan, 0, ctx, env, path):
        value = plan.expr.evaluate(scalar_env(env, t), ctx)
        yield t.extend(plan.attr, value)


def _unnest_map(plan: UnnestMap, ctx, env: Tup, path) -> Iterator[Tup]:
    for t in _child(plan, 0, ctx, env, path):
        for item in iter_subscript(plan.expr, scalar_env(env, t), ctx):
            yield t.extend(plan.attr, bind_item(item))


def _unnest(plan: Unnest, ctx, env: Tup, path) -> Iterator[Tup]:
    for t in _child(plan, 0, ctx, env, path):
        yield from plan.evaluate_rows([t])


def _sort(plan: Sort, ctx, env: Tup, path) -> Iterator[Tup]:
    # Blocking by nature.
    yield from sorted(_child(plan, 0, ctx, env, path),
                      key=plan.sort_tuple)


def _elided_sort(plan: ElidedSort, ctx, env: Tup, path) -> Iterator[Tup]:
    # Identity, and — unlike a real Sort — *streaming*: tuples pass
    # through without blocking, so short-circuiting consumers keep
    # their first-witness cost.  checked_iter re-verifies sortedness
    # pairwise when the order subsystem's debug switch is on.
    yield from plan.checked_iter(_child(plan, 0, ctx, env, path), ctx)


# ----------------------------------------------------------------------
# Binary operators
# ----------------------------------------------------------------------
def _cross(plan: Cross, ctx, env: Tup, path) -> Iterator[Tup]:
    right_rows = _build_side(plan, ctx, env, path)
    for l in _child(plan, 0, ctx, env, path):
        for r in right_rows():
            yield l.concat(r)


def _join(plan: Join, ctx, env: Tup, path) -> Iterator[Tup]:
    pairs, residual = split_equi_conjuncts(
        plan.pred, plan.left.attrs(), plan.right.attrs())
    right_rows = _build_side(plan, ctx, env, path)
    if pairs:
        left_keys = [p[0] for p in pairs]
        right_keys = [p[1] for p in pairs]
        buckets: dict | None = None
        for l in _child(plan, 0, ctx, env, path):
            if buckets is None:
                # Build lazily on the first probe-side pull.
                buckets = _hash_buckets(
                    Batch.from_rows(right_rows()), right_keys)
            key = _probe_key(l, left_keys)
            if key is None:
                continue
            for r in buckets.get(key, ()):
                combined = l.concat(r)
                if _pred_ok(residual, combined, env, ctx):
                    yield combined
    else:
        for l in _child(plan, 0, ctx, env, path):
            for r in right_rows():
                combined = l.concat(r)
                if _pred_ok([plan.pred], combined, env, ctx):
                    yield combined


def _semi_join(plan: SemiJoin, ctx, env: Tup, path) -> Iterator[Tup]:
    yield from _semi_anti(plan, ctx, env, path, keep_matched=True)


def _anti_join(plan: AntiJoin, ctx, env: Tup, path) -> Iterator[Tup]:
    yield from _semi_anti(plan, ctx, env, path, keep_matched=False)


def _semi_anti(plan, ctx, env: Tup, path,
               keep_matched: bool) -> Iterator[Tup]:
    pairs, residual = split_equi_conjuncts(
        plan.pred, plan.left.attrs(), plan.right.attrs())
    right_iter = _child(plan, 1, ctx, env, path)
    if pairs:
        left_keys = [p[0] for p in pairs]
        right_keys = [p[1] for p in pairs]
        eager = contains_construct(plan.children[1])
        buckets = _hash_buckets(Batch.from_rows(list(right_iter)),
                                right_keys) if eager else None
        for l in _child(plan, 0, ctx, env, path):
            if buckets is None:
                buckets = _hash_buckets(
                    Batch.from_rows(list(right_iter)), right_keys)
            key = _probe_key(l, left_keys)
            matched = key is not None and any(
                _pred_ok(residual, l.concat(r), env, ctx)
                for r in buckets.get(key, ()))
            if matched == keep_matched:
                yield l
        return
    # No hashable keys: pull the inner input incrementally, stopping at
    # the first witness; later probes re-check the cache first.  The
    # inner input is drained only if some probe finds no witness — or
    # up front, when it contains a Ξ whose side effects must fire.
    cache: list[Tup] = list(right_iter) \
        if contains_construct(plan.children[1]) else []
    for l in _child(plan, 0, ctx, env, path):
        matched = any(_pred_ok([plan.pred], l.concat(r), env, ctx)
                      for r in cache)
        if not matched:
            for r in right_iter:
                cache.append(r)
                if _pred_ok([plan.pred], l.concat(r), env, ctx):
                    matched = True
                    break
        if matched == keep_matched:
            yield l


def _outer_join(plan: OuterJoin, ctx, env: Tup, path) -> Iterator[Tup]:
    pairs, residual = split_equi_conjuncts(
        plan.pred, plan.left.attrs(), plan.right.attrs())
    pad_attrs = [a for a in plan.right.attrs() if a != plan.group_attr]
    right_rows = _build_side(plan, ctx, env, path)
    buckets: dict | None = None
    if not pairs:
        residual = [plan.pred]
    for l in _child(plan, 0, ctx, env, path):
        if pairs:
            if buckets is None:
                buckets = _hash_buckets(Batch.from_rows(right_rows()),
                                        [p[1] for p in pairs])
            key = _probe_key(l, [p[0] for p in pairs])
            candidates = buckets.get(key, []) if key is not None else []
        else:
            candidates = right_rows()
        matched = False
        for r in candidates:
            combined = l.concat(r)
            if _pred_ok(residual, combined, env, ctx):
                matched = True
                yield combined
        if not matched:
            default_value = plan.default.evaluate(scalar_env(env, l), ctx)
            yield (l.concat(null_tuple(pad_attrs))
                    .extend(plan.group_attr, default_value))


# ----------------------------------------------------------------------
# Grouping (blocking; the hash kernels of repro.engine.kernels)
# ----------------------------------------------------------------------
def _group_unary(plan: GroupUnary, ctx, env: Tup, path) -> Iterator[Tup]:
    yield from group_unary_rows(plan, list(_child(plan, 0, ctx, env,
                                                  path)), env, ctx)


def _group_binary(plan: GroupBinary, ctx, env: Tup, path
                  ) -> Iterator[Tup]:
    left = Batch.from_rows(list(_child(plan, 0, ctx, env, path)))
    right = Batch.from_rows(list(_child(plan, 1, ctx, env, path)))
    yield from group_binary_rows(plan, left, right, env, ctx)


def _self_group(plan: SelfGroup, ctx, env: Tup, path) -> Iterator[Tup]:
    yield from self_group_rows(plan, list(_child(plan, 0, ctx, env,
                                                 path)), env, ctx)


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def _construct(plan: Construct, ctx, env: Tup, path) -> Iterator[Tup]:
    for t in _child(plan, 0, ctx, env, path):
        bound = scalar_env(env, t)
        for command in plan.commands:
            command.emit(bound, ctx)
        yield t


def _group_construct(plan: GroupConstruct, ctx, env: Tup, path
                     ) -> Iterator[Tup]:
    yield from plan.emit_rows_iter(_child(plan, 0, ctx, env, path),
                                   env, ctx)


_DISPATCH = {
    Singleton: _singleton,
    Table: _table,
    IndexScan: _index_scan,
    Select: _select,
    Project: _project,
    ProjectAway: _project_away,
    Rename: _rename,
    DistinctProject: _distinct,
    Map: _map,
    UnnestMap: _unnest_map,
    Unnest: _unnest,
    Sort: _sort,
    ElidedSort: _elided_sort,
    Cross: _cross,
    Join: _join,
    SemiJoin: _semi_join,
    AntiJoin: _anti_join,
    OuterJoin: _outer_join,
    GroupUnary: _group_unary,
    GroupBinary: _group_binary,
    SelfGroup: _self_group,
    Construct: _construct,
    GroupConstruct: _group_construct,
}
