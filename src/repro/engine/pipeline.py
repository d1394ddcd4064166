"""Subscripts that stop early: first-witness evaluation of boolean
subscripts, their nested plans run on the column engine a slice at a
time.

A *boolean* subscript — ``σ[∃x ∈ ⟨plan⟩ : p]``, ``exists(⟨plan⟩)``,
``empty(…)``, a bare nested plan in a predicate — is decided by its
first witness (first counter-example, for ∀), and the paper's cost
argument for existential queries assumes an engine that stops there.
Wherever the default engine tests a predicate one row at a time (a σ
its columnar pass cannot take, a join residual) it calls
:func:`boolean_subscript`, which pulls the nested plan
(:func:`stream_plan`) only as far as the answer needs:

- the plan's tuple-wise operators from its root down (the keys of
  :data:`~repro.engine.vectorized.TUPLEWISE`) and the *driving leaf*
  below them — a Table, an IndexScan, or an Υ over □ whose path leaves
  one context node by ``child::tag`` or ``descendant::tag`` — are
  found once per plan (:func:`slicing`);
- the leaf's rows are cut into slices ``[0, s)``, ``[s, 3s)``,
  ``[3s, 7s)`` …, each run through the chain's column kernels
  (:func:`~repro.engine.vectorized.run_chain`); the consumer pulls
  rows out of each slice's batch, so the slice that decides is the
  last one run.  ``s`` = ⌈``BATCH_SETUP_COST`` /
  ``VECTORIZED_TUPLE_DISCOUNT``⌉ (:mod:`repro.optimizer.cost`): the
  slice whose vectorized row work covers the batch setup every slice
  pays again per operator.  A quantifier over a bare path is cut alike;
- any other plan, or a leaf that does not slice at run time, runs
  whole through :func:`~repro.engine.vectorized.run_vectorized`; a plan
  holding a Ξ (a side effect on the output) is drained through its
  definition.

``document_scans`` stay the definitional evaluator's (one scan per
inner evaluation, not per slice); ``node_visits`` count the rows the
slices walked — between the first-witness count and the definitional
one.  Value contexts (χ, aggregates) have nothing to stop for and never
come here.  Differential tests assert :func:`stream_plan` ≡
``evaluate``, order included; ``docs/execution-modes.md`` has the
details.
"""

from __future__ import annotations

from math import ceil
from typing import Iterator

from repro.engine.batch import Batch, NodeColumn
from repro.nal.algebra import Operator, bind_item
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
    _path_context,
)
from repro.nal.unary_ops import (
    ElidedSort,
    IndexScan,
    Singleton,
    Table,
    UnnestMap,
)
from repro.nal.values import (
    EMPTY_TUPLE,
    Tup,
    effective_boolean,
    iter_items,
)
from repro.optimizer.cost import BATCH_SETUP_COST, VECTORIZED_TUPLE_DISCOUNT
from repro.xmldb.node import NodeKind

#: driving-leaf rows in a nested plan's first slice; each later slice
#: is twice the one before
FIRST_SLICE = ceil(BATCH_SETUP_COST / VECTORIZED_TUPLE_DISCOUNT)


def boolean_subscript(expr: ScalarExpr, env: Tup, ctx) -> bool:
    """The effective boolean value of a subscript expression, pulling
    the minimum number of slices from any nested plan inside it."""
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

    Yields exactly ``iter_items(expr.evaluate(env, ctx))``, but nested
    plans (:func:`stream_plan`) and paths a slice at a time.
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
            yield from _stream(expr.plan, expr.slicing(), ctx, env)
    else:
        # A path from one context node is cut into slices like a
        # driving leaf's, so stopping also stops the walk itself.
        walk = _path_slices(expr, ctx, env) \
            if isinstance(expr, PathApply) else None
        if walk is None:
            yield from iter_items(expr.evaluate(env, ctx))
            return
        arena, slices = walk
        for rows in slices:
            yield from map(arena.nodes.__getitem__, rows)


def stream_plan(plan: Operator, ctx, env: Tup = EMPTY_TUPLE
                ) -> Iterator[Tup]:
    """``plan``'s result sequence (exactly ``plan.evaluate(ctx, env)``),
    a slice of its driving leaf at a time where the plan slices.  Never
    measured (no tree position, span or ``operator.*`` metric): nested
    plans are charged to their host operator."""
    return _stream(plan, slicing(plan), ctx, env)


def slicing(plan: Operator) -> tuple:
    """How :func:`stream_plan` cuts ``plan``: ``(chain, sorts, leaf)``
    — the tuple-wise operators above its driving leaf, leaf-most first,
    less the elided Sorts among them (identities while their
    certificate holds), those Sorts, and the leaf; ``()`` when the plan
    runs whole."""
    # Imported here: the column engine's σ calls boolean_subscript.
    from repro.engine.vectorized import TUPLEWISE
    chain = []
    while not _drives(plan):
        if type(plan) not in TUPLEWISE:
            return ()
        chain.append(plan)
        plan = plan.children[0]
    return (tuple(op for op in reversed(chain)
                  if type(op) is not ElidedSort),
            tuple(op for op in chain if type(op) is ElidedSort), plan)


def _drives(plan: Operator) -> bool:
    if type(plan) is UnnestMap:
        return type(plan.children[0]) is Singleton \
            and type(plan.expr) is PathApply
    return type(plan) is Table or type(plan) is IndexScan


def _stream(plan: Operator, sliced: tuple, ctx, env: Tup
            ) -> Iterator[Tup]:
    from repro.engine.vectorized import run_chain, run_vectorized
    metrics = ctx.metrics
    if metrics is not None:
        metrics.counter("subscript.boolean.evaluations").inc()
    slices = _leaf_slices(sliced, ctx, env) if sliced else None
    if slices is None:
        yield from run_vectorized(plan, ctx, env, path=None).to_rows()
        return
    for batch in slices:
        if metrics is not None:
            metrics.counter("subscript.boolean.slices").inc()
            metrics.counter("subscript.boolean.driving_rows").inc(
                len(batch))
        yield from run_chain(sliced[0], batch, ctx, env).to_rows()


def _leaf_slices(sliced: tuple, ctx, env: Tup):
    """The driving leaf's output as batches, a slice each, or None.  The
    scan or probe and the chain's elisions are charged once, now."""
    _, sorts, leaf = sliced
    if any(not sort.proof_holds(ctx) or sort._debug() for sort in sorts):
        return None
    if type(leaf) is Table:
        slices = map(Batch.from_rows, _cut(leaf.rows))
    else:
        if type(leaf) is IndexScan:
            arena, pres = ctx.store.indexes.probe_rows(leaf.probe,
                                                       ctx.stats)
            rows = _cut(pres)
        else:
            walk = _path_slices(leaf.expr, ctx, env)
            if walk is None:
                return None
            arena, rows = walk
        slices = (Batch.from_columns({leaf.attr: NodeColumn(arena, part)},
                                     len(part)) for part in rows)
    for sort in sorts:
        sort._record_elision(ctx, taken=True)
    return slices


def _path_slices(expr: PathApply, ctx, env: Tup):
    """``(arena, rows in slices)`` of a path from one context node — its
    first step cut into slices, the other steps applied to each — or
    None.  The document scan is charged as the evaluator charges it:
    once, when the walk starts at the document root."""
    from repro.engine.vectorized import _apply_steps, _compile_steps
    nodes, path = _path_context(expr, env, ctx)
    steps = _compile_steps(path)
    if len(nodes) != 1 or not steps or steps[0][0] == "attribute":
        return None
    arena, pre = nodes[0].arena, nodes[0].pre
    if not all(arena.tag_is_flat(name)
               for axis, name in steps[:-1] if axis == "descendant"):
        return None  # a step after nested tags needs the dedup pass
    stats = ctx.stats
    if pre == 0 and arena.doc_name is not None:
        stats.record_scan(arena.doc_name)
    stats.order_fastpath_hits += 1
    (axis, name), rest = steps[0], steps[1:]
    walk = _descendants if axis == "descendant" else _children
    return arena, (_apply_steps(arena, rows, rest, stats)[1] if rest
                   else rows for rows in walk(arena, pre, name, stats))


def _cut(rows: list) -> Iterator[list]:
    """``rows`` in slices: :data:`FIRST_SLICE` rows, then each slice
    twice the one before."""
    lo, size = 0, FIRST_SLICE
    while lo < len(rows):
        yield rows[lo:lo + size]
        lo, size = lo + size, 2 * size


def _descendants(arena, pre: int, name: str, stats) -> Iterator[list]:
    """The ``name`` descendants of row ``pre`` in slices — one visit
    per row handed out."""
    for rows in _cut(arena.descendants_by_tag(pre, name)):
        stats.node_visits += len(rows)
        yield rows


def _children(arena, pre: int, name: str, stats) -> Iterator[list]:
    """The ``name`` children of row ``pre`` in slices, walking the
    children only as far as the slices reach — one visit per child
    walked, as the evaluator's child step charges."""
    kinds, ends, names, name_ids = \
        arena.kinds, arena.ends, arena.names, arena.name_ids
    row, end = pre + 1, ends[pre]
    while row < end and kinds[row] is NodeKind.ATTRIBUTE:
        row += 1
    rows, size = [], FIRST_SLICE
    while row < end:
        stats.node_visits += 1
        if kinds[row] is NodeKind.ELEMENT and names[name_ids[row]] == name:
            rows.append(row)
            if len(rows) == size:
                yield rows
                rows, size = [], 2 * size
        row = ends[row]
    if rows:
        yield rows
