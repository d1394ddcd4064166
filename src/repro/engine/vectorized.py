"""Vectorized (batch-at-a-time) evaluation over arena columns.

The engine: it moves whole :class:`~repro.engine.batch.Batch` objects —
flat parallel columns with ``Tup`` materialization deferred to the
operators that genuinely need rows.  The wins, MonetDB/X100
style, come from columnar fast paths over the PR 3 arena, with
node-valued columns kept as rows of ints
(:class:`~repro.engine.batch.NodeColumn`) from the scan to the output
text:

- **scans**: an Υ (or the path argument of a χ) over
  ``$d/child//tag/@attr`` paths hands its whole context column to the
  arena's step kernel (:meth:`~repro.xmldb.arena.Arena.step_rows`, via
  :func:`_apply_steps` — the one place this engine executes a path
  step): int columns in, result rows out, no per-row call, no ``Node``
  handle, no ``Tup`` copy per output row; an IndexScan wraps the
  probe's pre rows as one node column;
- **function subscripts**: ``string`` / ``data`` / ``decimal`` /
  ``number`` / ``contains`` / ``starts-with`` over a node column read
  its string values once and convert in one pass (:func:`_text_lane`);
- **selections**: a σ whose predicate is built from comparisons over
  attributes, constants and short child/descendant paths is compiled
  into a selection-vector pass — string values read once off the arena
  columns, compared in a C-level ``map``;
- **semijoins / antijoins** with a bare-equality predicate (what the
  rewriter emits) are decided on key columns alone — right side → key
  set, left side → selection vector, ``left.take(selection)``;
- **×** with a one-row side (a ``let $d := doc(…)`` beside a scan)
  broadcasts that row over the other side's columns;
- **grouping, ΠD, Sort, µ / µD** — what Eqvs. 1–9 build the unnested
  plans from — run on key columns: dense group ids and first rows
  (:func:`~repro.engine.kernels.group_ids`), the aggregate's σ as a
  row mask, a sort permutation, item owners; their outputs are
  ``take`` / ``replicate`` of the input columns plus one value column.
  ``χ[a: path[item]]`` hands µ its walk as it is
  (:class:`~repro.engine.batch.SeqColumn`);
- **order-by**: an :class:`~repro.nal.unary_ops.ElidedSort` whose PR 5
  sortedness certificate holds passes the *entire batch* through
  untouched;
- **result construction**: Ξ / ΞG render each command as a column of
  output fragments (:func:`_command_columns`) — node columns and
  ``{path}`` results straight off the arena
  (:func:`~repro.xmldb.serialize.render_rows`), every other value
  through :func:`~repro.nal.construct.render_value` — and interleave
  the columns into the output stream.

⋈, ⟕ and binary Γ run the row kernels of :mod:`repro.engine.kernels`
(``join_rows``, …); that module states the hard semantics (NULL and
NaN keys, boolean coercion, mixed-type sort keys) once, and
property-based tests assert ``run_vectorized`` ≡ reference regardless.
What still becomes ``Tup`` rows and ``Node`` handles
(``Batch.to_rows``), and why: the outputs of those joins (they pair
whole tuples) and Γ[``id``]'s groups (they *are* tuples); the batch of
any operator whose subscript bails out to the scalar interpreter, which
evaluates against a bound tuple (nested plans, quantifiers, predicated
paths) — for an aggregate's σ that computes the mask and nothing else;
the result of a nested plan in a value context (χ binds it as a
sequence of tuples); and Ξ's row loop, which a ``{…}`` of that kind —
or a function over a path — still takes.  The final batch is *not*
turned into rows: it is returned as it is, and
``ExecutionResult.rows`` materializes it when somebody asks.

Invariants: batches are immutable (operators derive new ones, see
:mod:`repro.engine.batch`); selection vectors are scratch state owned by
a single operator invocation, drawn from the request-scoped
:class:`~repro.engine.batch.BatchBuffers` pool on the context; a
predicate evaluated row at a time goes through
:func:`~repro.engine.pipeline.boolean_subscript`, so a nested plan
under a quantifier, ``exists()`` or ``empty()`` runs vector-at-a-time,
X100 style: its :data:`TUPLEWISE` operators (σ, Π, Π̄, ρ, χ, Υ, µ, an
elided Sort — every input row yields its outputs on its own, so their
kernels take any slice of their input) run over growing slices of its
driving leaf (:func:`run_chain`), only up to the slice holding its
first witness; a nested plan in a value context (``χ[t: ⟨plan⟩]``,
``min(⟨plan⟩)``, a ``{…}``, a comparison operand) runs through
:func:`run_vectorized` itself, once per outer tuple with that tuple as
its environment — ``NestedPlan.evaluate`` asks the context, and
:func:`run_vectorized` names itself there while it runs — so the
correlation predicate it carries (``attr = $outer``: the ``=`` lane of
:func:`~repro.engine.batch.compare_columns`; ``$outer ∈ seq``:
:func:`_membership_mask`) is a comparison of key columns; only a plan
holding a Ξ is drained through its definition.  Either way nested
operators are charged to their host operator.
"""

from __future__ import annotations

import time
from itertools import chain, compress, repeat

from repro.engine.batch import (
    Batch,
    BroadcastColumn,
    NodeColumn,
    SeqColumn,
    _PY_OPS,
    compare_columns,
    item_keys,
    key_column,
    selection_vector,
)
from repro.engine.kernels import (
    ROOT_PATH,
    group_binary_rows,
    group_ids,
    group_values,
    join_rows,
    outer_join_rows,
    row_keys,
    semi_anti_rows,
    semi_anti_selection,
    sort_permutation,
    unnest_batch,
)
from repro.engine.pipeline import boolean_subscript
from repro.errors import EvaluationError
from repro.nal.algebra import Operator, bind_item, scalar_env
from repro.nal.construct import (
    Construct,
    GroupConstruct,
    Lit,
    render_value,
)
from repro.nal.group_ops import GroupBinary, GroupUnary, SelfGroup
from repro.nal.join_ops import AntiJoin, Cross, Join, OuterJoin, SemiJoin
from repro.nal.functions import call_function
from repro.nal.scalar import (
    And,
    AttrRef,
    Comparison,
    Const,
    DocAccess,
    FuncCall,
    In,
    Not,
    Or,
    PathApply,
    TupledSeq,
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
    NULL,
    Tup,
    effective_boolean,
    iter_items,
    matches_nothing,
)
from repro.xmldb.document import ScanStats
from repro.xmldb.node import Node, NodeSequence
from repro.xmldb.serialize import render_rows
from repro.xpath.ast import NameTest, Path


def run_vectorized(plan: Operator, ctx, env: Tup = EMPTY_TUPLE,
                   path: tuple[int, ...] | None = ROOT_PATH
                   ) -> Batch:
    """Evaluate ``plan`` batch-at-a-time; returns the result batch as
    the root operator left it (``.to_rows()`` for ``Tup`` rows — the
    executor hands the batch on and nobody on the request path asks).

    When ``ctx.analyze_counts`` is a dict (EXPLAIN ANALYZE mode), each
    operator's invocation count and total output rows are recorded in
    it under its tree position (see
    :data:`~repro.engine.kernels.ROOT_PATH`).  With a tracer or metrics
    registry attached, every invocation gets a span and ``operator.*``
    metrics — plus ``vectorized.<Operator>.batches`` counters and
    ``vectorized.<Operator>.rows_per_batch`` histograms, so a trace of
    a vectorized run stays honest about its unit of work.  Durations
    are inclusive of children; the span nesting attributes time.
    ``path=None`` runs the plan unobserved: it is how
    :mod:`repro.engine.pipeline` runs a boolean subscript's plan that
    does not slice, and how a nested plan in a value context runs
    (``ctx.nested_engine``, asked by ``NestedPlan.evaluate``): those
    stay charged to their host.
    """
    outer, ctx.nested_engine = ctx.nested_engine, run_vectorized
    try:
        return _run(plan, ctx, env, path)
    finally:
        ctx.nested_engine = outer


def _run(plan: Operator, ctx, env: Tup, path) -> Batch:
    handler = _DISPATCH.get(type(plan))
    if handler is None:
        raise EvaluationError(
            f"no vectorized implementation for {type(plan).__name__}")
    if ctx.deadline is not None:
        ctx.check_deadline()
    if path is None:
        return handler(plan, ctx, env, None)
    if ctx.tracer is None and ctx.metrics is None:
        batch = handler(plan, ctx, env, path)
    else:
        batch = _observed(handler, plan, ctx, env, path)
    counts = ctx.analyze_counts
    if counts is not None:
        calls, total = counts.get(path, (0, 0))
        counts[path] = (calls + 1, total + len(batch))
    return batch


def _observed(handler, plan: Operator, ctx, env: Tup, path) -> Batch:
    tracer, metrics = ctx.tracer, ctx.metrics
    span = None if tracer is None else \
        tracer.begin(plan.label(), "operator", path=list(path))
    start = time.perf_counter()
    batch = handler(plan, ctx, env, path)
    elapsed = time.perf_counter() - start
    if span is not None:
        span.finish()
    if metrics is not None:
        name = type(plan).__name__
        metrics.counter(f"operator.{name}.invocations").inc()
        metrics.counter(f"operator.{name}.rows_out").inc(len(batch))
        metrics.histogram(f"operator.{name}.seconds").observe(elapsed)
        metrics.counter(f"vectorized.{name}.batches").inc()
        metrics.histogram(f"vectorized.{name}.rows_per_batch") \
            .observe(len(batch))
    return batch


def _child(plan: Operator, i: int, ctx, env: Tup, path) -> Batch:
    return _run(plan.children[i], ctx, env,
                None if path is None else path + (i,))


# ----------------------------------------------------------------------
# Columnar path application (the arena scan kernel)
# ----------------------------------------------------------------------
def _compile_steps(path: Path) -> list[tuple[str, str]] | None:
    """``path`` as ``(axis, name)`` pairs, or None when it needs the
    full XPath evaluator (predicates, ``*``/``text()``, the self axis,
    absolute paths)."""
    if path.absolute:
        return None
    steps: list[tuple[str, str]] = []
    for step in path.steps:
        if step.predicates or not isinstance(step.test, NameTest) \
                or step.axis not in ("child", "descendant", "attribute"):
            return None
        steps.append((step.axis, step.test.name))
    return steps


def _attempt(columnar_pass, *args):
    """Run a columnar pass (``ctx`` is its last argument) whose scan
    statistics only count when it succeeds: a None result — the signal
    to fall back to the row interpreter, which records the same walks
    for itself — rolls back whatever the pass had recorded."""
    stats = args[-1].stats
    mark = stats.mark()
    result = columnar_pass(*args)
    if result is None:
        stats.rollback(mark)
    return result


def _apply_steps(arena, pres: list[int], steps: list[tuple[str, str]],
                 stats: ScanStats):
    """``steps`` applied to a whole column of context rows of one
    arena: ``(owners, rows)`` — the selected pre rows grouped per
    context in input order, document order and duplicate-free inside a
    group, ``owners[i]`` the position in ``pres`` that ``rows[i]``
    belongs to (``owners`` None: the identity, as from ``step_rows``).
    The whole result is None when the walk cannot guarantee that
    cheaply (nested tags mid-path) and must fall back.  One context is
    simply a one-row column.

    This is the one place the default engine executes a path step; the
    step itself is :meth:`~repro.xmldb.arena.Arena.step_rows`, which
    reads int columns only — no handle is created here.

    ``stats`` receives what the XPath evaluator would have recorded for
    the same walks: one document scan per context whose first step
    leaves a document root, and the arena rows read (children scanned,
    descendant hits); the caller, which knows how many path evaluations
    the column stands for, counts their order fast-path hits.
    Operators run their columnar passes under :func:`_attempt`, so a
    bail-out leaves no trace of them.

    Soundness argument: each context's row set is kept an *antichain*
    (pairwise disjoint subtrees) in document order.  A ``child`` step
    from an antichain yields an antichain in document order; a
    ``descendant`` step yields a sorted duplicate-free list always, but
    an antichain only when the tag is flat (``tag_is_flat``) — so a
    further step after a non-flat descendant step bails out.
    """
    start = 0
    roots = pres.count(0)
    # The doc("x.xml")/root convenience: a leading child step naming
    # the document root collapses to self (see PathApply).
    if roots and steps and steps[0] == (
            "child", arena.names[arena.name_ids[0]]):
        if roots != len(pres):
            return None
        start = 1
    if roots and start < len(steps) and arena.doc_name is not None \
            and steps[start][0] != "attribute":
        stats.record_scan(arena.doc_name, roots)
    owners = None
    rows = pres
    antichain = True
    visits = 0
    for axis, name in steps[start:]:
        if not antichain:
            return None
        step_owners, rows, scanned = arena.step_rows(rows, axis, name)
        if step_owners is not None:
            owners = step_owners if owners is None \
                else [owners[o] for o in step_owners]
        visits += scanned
        if axis == "descendant":
            antichain = arena.tag_is_flat(name)
    stats.node_visits += visits
    return owners, rows


def _source_values(source, batch: Batch, env: Tup, ctx):
    """Per-row values of a path source (attribute column, outer-binding
    constant, or document root), or None when not columnar."""
    if isinstance(source, AttrRef):
        if source.name in batch.attrs:
            return batch.column(source.name)
        if source.name in env:
            return BroadcastColumn([env[source.name]] * len(batch))
        return None
    if isinstance(source, DocAccess):
        return NodeColumn(ctx.store.get(source.name).arena,
                          [0] * len(batch))
    return None


def _context_runs(values):
    """A source column as ``(arena, row indices, pre rows)`` runs — one
    per maximal stretch of handles of the same arena (``row indices``
    is None for a :class:`NodeColumn`: every row, in order).  NULL rows
    are no context at all (a path from nothing selects nothing); any
    other value makes the column non-columnar (None)."""
    if type(values) is NodeColumn:
        return [(values.arena, None, values.pres)]
    runs: list[tuple] = []
    arena = None
    for i, value in enumerate(values):
        if value is NULL:
            continue
        if not isinstance(value, Node):
            return None
        if value.arena is not arena:
            arena = value.arena
            index: list[int] = []
            pres: list[int] = []
            runs.append((arena, index, pres))
        index.append(i)
        pres.append(value.pre)
    return runs


def _path_rows(expr: PathApply, batch: Batch, env: Tup, ctx):
    """``expr`` applied to every row of the batch, columnar:
    ``(walks, aligned)`` with one ``(arena, owners, rows)`` walk per
    run of :func:`_context_runs` (see :func:`_apply_steps`), ``owners``
    being batch row indices, ascending across the runs; ``aligned``
    says that every batch row selected exactly one node, in order (the
    one walk's ``rows`` line up with the batch).  None when the path,
    its source or the data needs the row interpreter."""
    steps = _compile_steps(expr.path)
    if steps is None:
        return None
    sources = _source_values(expr.source, batch, env, ctx)
    if sources is None:
        return None
    runs = _context_runs(sources)
    if runs is None:
        return None
    walks = []
    aligned = False
    for arena, index, pres in runs:
        walk = _apply_steps(arena, pres, steps, ctx.stats)
        if walk is None:
            return None
        # every context is one path evaluation born ordered and
        # duplicate-free: no dedup-sort pass ran
        ctx.stats.order_fastpath_hits += len(pres)
        owners, rows = walk
        if owners is None:  # one node per context
            aligned = index is None
            owners = list(range(len(rows))) if aligned else index
        elif index is not None:
            owners = [index[o] for o in owners]
        walks.append((arena, owners, rows))
    return walks, aligned


def _node_column(parts):
    """``(arena, rows)`` parts as one node-valued column: a
    :class:`NodeColumn` when they come from one arena, else the
    handles."""
    if len(parts) == 1:
        return NodeColumn(*parts[0])
    nodes: list[Node] = []
    for arena, rows in parts:
        nodes.extend(map(arena.nodes.__getitem__, rows))
    return nodes


def _walk_items(walks):
    """The walks of :func:`_path_rows` flat: ``(owners, nodes)`` — the
    batch row of every selected node, and the nodes as one column."""
    owners = walks[0][1] if len(walks) == 1 \
        else [o for walk in walks for o in walk[1]]
    return owners, _node_column([(arena, rows)
                                 for arena, _, rows in walks])


# ----------------------------------------------------------------------
# Scalar-expression compilation → value columns
# ----------------------------------------------------------------------
def _expr_column(expr, batch: Batch, env: Tup, ctx) -> list | None:
    """``expr`` as a raw-value column over the batch (one entry per
    row, exactly what ``expr.evaluate`` would return for that row), or
    None when the expression needs the scalar interpreter (nested
    plans, quantifiers, ``In``, unknown shapes)."""
    if isinstance(expr, Const):
        return BroadcastColumn([expr.value] * len(batch))
    if isinstance(expr, (AttrRef, DocAccess)):
        return _source_values(expr, batch, env, ctx)
    if isinstance(expr, PathApply):
        walked = _path_rows(expr, batch, env, ctx)
        if walked is None:
            return None
        column: list = [NodeSequence() for _ in range(len(batch))]
        for arena, owners, rows in walked[0]:
            for owner, node in zip(owners, map(arena.nodes.__getitem__,
                                               rows)):
                column[owner].append(node)
        return column
    if isinstance(expr, TupledSeq) and isinstance(expr.inner, PathApply):
        walked = _path_rows(expr.inner, batch, env, ctx)
        if walked is None:
            return None
        return SeqColumn(expr.attr, *_walk_items(walked[0]), len(batch))
    if isinstance(expr, FuncCall):
        if expr.name == "zero-or-one" and len(expr.args) == 1 \
                and isinstance(expr.args[0], PathApply):
            column = _zero_or_one_column(expr.args[0], batch, env, ctx)
            if column is not None:
                return column
        columns = []
        for arg in expr.args:
            column = _expr_column(arg, batch, env, ctx)
            if column is None:
                return None
            columns.append(column)
        name = expr.name
        if not columns:
            return [call_function(name, []) for _ in range(len(batch))]
        column = _text_lane(name, columns)
        if column is not None:
            return column
        return [call_function(name, list(values))
                for values in zip(*columns)]
    return None


def _numbers(texts: list[str]) -> list[float]:
    return list(map(float, texts))


#: column forms of the atomizing functions the unnested plans carry,
#: by (name, arity): the string values of a one-node-per-row column,
#: then the broadcast string arguments
_TEXT_LANES = {
    ("string", 1): list,
    ("data", 1): lambda texts: [[text] for text in texts],
    ("decimal", 1): _numbers,
    ("number", 1): _numbers,
    ("contains", 2): lambda texts, part: [part in text for text in texts],
    ("starts-with", 2): lambda texts, prefix: list(
        map(str.startswith, texts, repeat(prefix))),
}


def _text_lane(name: str, columns: list):
    """``name(node column, broadcast strings…)`` for the functions of
    :data:`_TEXT_LANES`: the string values read once off the arena and
    converted in one pass.  None — the per-row ``call_function`` arm,
    which also raises the proper error — for any other function or
    argument shape, and for text ``decimal`` cannot convert."""
    lane = _TEXT_LANES.get((name, len(columns)))
    if lane is None or type(columns[0]) is not NodeColumn or not all(
            type(column) is BroadcastColumn and column
            and type(column[0]) is str for column in columns[1:]):
        return None
    try:
        return lane(columns[0].string_values(),
                    *(column[0] for column in columns[1:]))
    except ValueError:
        return None


def _zero_or_one_column(expr: PathApply, batch: Batch, env: Tup, ctx):
    """``zero-or-one(path)`` over the batch — the shape the normalizer
    gives every ``where``/``let`` over a child path: the single
    selected node per row (NULL where there is none), as a
    :class:`NodeColumn` when every row has one.  None when the path is
    not columnar or some row selects several nodes (the row
    interpreter then raises the proper error)."""
    walked = _path_rows(expr, batch, env, ctx)
    if walked is None:
        return None
    walks, aligned = walked
    if aligned:
        return NodeColumn(walks[0][0], walks[0][2])
    column = [NULL] * len(batch)
    for arena, owners, rows in walks:
        for owner, node in zip(owners, map(arena.nodes.__getitem__,
                                           rows)):
            if column[owner] is not NULL:
                return None
            column[owner] = node
    return column


def _predicate_mask(pred, batch: Batch, env: Tup, ctx
                    ) -> list[bool] | None:
    """``pred`` as a boolean mask over the batch (one vectorized pass
    per comparison or ``∈``; any other expression :func:`_expr_column`
    takes, by effective boolean value), or None when the predicate
    needs the row-at-a-time interpreter (quantifiers, nested
    plans...)."""
    if isinstance(pred, And) or isinstance(pred, Or):
        masks = []
        for term in pred.terms:
            mask = _predicate_mask(term, batch, env, ctx)
            if mask is None:
                return None
            masks.append(mask)
        if isinstance(pred, And):
            return [all(row) for row in zip(*masks)] if masks \
                else [True] * len(batch)
        return [any(row) for row in zip(*masks)] if masks \
            else [False] * len(batch)
    if isinstance(pred, Not):
        mask = _predicate_mask(pred.term, batch, env, ctx)
        return None if mask is None else [not m for m in mask]
    if isinstance(pred, Comparison):
        left = _expr_column(pred.left, batch, env, ctx)
        if left is None:
            return None
        right = _expr_column(pred.right, batch, env, ctx)
        if right is None:
            return None
        return compare_columns(left, pred.op, right)
    if isinstance(pred, In):
        return _membership_mask(pred, batch, env, ctx)
    if isinstance(pred, FuncCall) and _applies_path(pred):
        # exists(path) and the like are decided row by row: the
        # evaluator stops a walk at its first witness
        return None
    values = _expr_column(pred, batch, env, ctx)
    return None if values is None else list(map(effective_boolean, values))


def _membership_mask(pred: In, batch: Batch, env: Tup, ctx
                     ) -> list[bool] | None:
    """``item ∈ seq`` — the correlation test of Eqvs. 4/5 — on key
    columns: one item per row on the left, a flat
    :class:`SeqColumn` on the right, a row true when the keys of its
    own items hold its item's key.  None for any other pair."""
    sequences = _expr_column(pred.seq, batch, env, ctx)
    if type(sequences) is not SeqColumn:
        return None
    items = _expr_column(pred.item, batch, env, ctx)
    keys = None if items is None else item_keys(items)
    if keys is None:
        return None
    mask = [False] * len(batch)
    for owner, key in zip(sequences.owners, key_column(sequences.items)):
        if key == keys[owner]:
            mask[owner] = True
    return mask


def _row_mask(pred, batch: Batch, env: Tup, ctx) -> list[bool]:
    """``pred`` of every row: the columnar pass, or — for a predicate
    it cannot take, and only to fill the mask — row at a time through
    :func:`~repro.engine.pipeline.boolean_subscript`."""
    mask = _attempt(_predicate_mask, pred, batch, env, ctx)
    if mask is None:
        mask = [boolean_subscript(pred, scalar_env(env, t), ctx)
                for t in batch.to_rows()]
    return mask


# ----------------------------------------------------------------------
# Leaves
# ----------------------------------------------------------------------
def _singleton(plan: Singleton, ctx, env: Tup, path) -> Batch:
    return Batch.from_rows([EMPTY_TUPLE])


def _table(plan: Table, ctx, env: Tup, path) -> Batch:
    return Batch.from_rows(list(plan.rows))


def _index_scan(plan: IndexScan, ctx, env: Tup, path) -> Batch:
    arena, pres = ctx.store.indexes.probe_rows(plan.probe, ctx.stats)
    return Batch.from_columns({plan.attr: NodeColumn(arena, pres)},
                              len(pres))


# ----------------------------------------------------------------------
# Unary operators
# ----------------------------------------------------------------------
def _fusible_select_map(plan: Select, ctx):
    """Shape check for the fused select-over-map pass: recognize
    ``σ[attr op const](χ[attr:zero-or-one(src/path)](E))`` — the shape
    the normalizer produces for every simple ``where`` clause — and
    return ``(path application, op, const)``, or None.

    Fusion is disabled whenever observation is on (EXPLAIN ANALYZE,
    tracing, metrics), because it would hide the χ operator's
    per-operator record.
    """
    if ctx.analyze_counts is not None or ctx.tracer is not None \
            or ctx.metrics is not None:
        return None
    mapop = plan.children[0]
    expr = mapop.expr
    if not (isinstance(expr, FuncCall) and expr.name == "zero-or-one"
            and len(expr.args) == 1
            and isinstance(expr.args[0], PathApply)):
        return None
    pred = plan.pred
    if not isinstance(pred, Comparison):
        return None
    attr = mapop.attr
    if isinstance(pred.left, AttrRef) and pred.left.name == attr \
            and isinstance(pred.right, Const):
        op, const = pred.op, pred.right.value
    elif isinstance(pred.right, AttrRef) and pred.right.name == attr \
            and isinstance(pred.left, Const):
        op, const = _FLIP_OP[pred.op], pred.left.value
    else:
        return None
    if isinstance(const, bool) or not isinstance(const, (int, float)):
        return None
    if isinstance(const, int) and abs(const) > 2 ** 53:
        return None
    return expr.args[0], op, const


def _fused_select_map(plan: Select, fusion, batch: Batch, env: Tup,
                      ctx) -> Batch | None:
    """The fused pass over the already-computed child-of-χ batch:
    compute the comparison straight off arena string values and
    materialize the χ column *only for surviving rows* (as a
    :class:`NodeColumn` — no handle is created here at all).

    Semantics-preserving by construction: the materialized column holds
    exactly what ``zero-or-one`` returns for a surviving row (the
    single node), the numeric mask matches ``compare_columns`` (missing
    → False, same float conversion), and every shape the pass cannot
    reproduce bit-for-bit — multi-item path results (where zero-or-one
    raises), non-numeric text, non-node sources — returns None so the
    caller continues through the unfused operators over the same batch.
    """
    path_expr, op, const = fusion
    walked = _path_rows(path_expr, batch, env, ctx)
    if walked is None:
        return None
    walks, aligned = walked
    compare = _PY_OPS[op]
    selected: list[int] = []
    parts = []
    for arena, owners, rows in walks:
        if not aligned and len(set(owners)) != len(rows):
            return None  # several items in a row: zero-or-one raises
        try:
            numbers = list(map(float, arena.string_values(rows)))
        except ValueError:
            return None
        keep = [k for k, n in enumerate(numbers) if compare(n, const)]
        selected.extend([owners[k] for k in keep])
        parts.append((arena, [rows[k] for k in keep]))
    return batch.take(selection_vector(selected)).with_column(
        plan.children[0].attr, _node_column(parts))


_FLIP_OP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=",
            ">": "<", ">=": "<="}


def _select(plan: Select, ctx, env: Tup, path) -> Batch:
    fusion = None if type(plan.children[0]) is not Map \
        else _fusible_select_map(plan, ctx)
    if fusion is not None:
        mapop = plan.children[0]
        # Fusion only engages unobserved, so no tree position is needed.
        inner = _run(mapop.children[0], ctx, env, None)
        fused = _attempt(_fused_select_map, plan, fusion, inner, env,
                         ctx)
        if fused is not None:
            return fused
        # Data-dependent bail-out: finish unfused over the same batch
        # (never re-run the subtree — it may have been expensive).
        batch = _map_batch(mapop, inner, env, ctx)
    else:
        batch = _child(plan, 0, ctx, env, path)
    return _select_batch(plan, batch, env, ctx)


def _select_batch(plan: Select, batch: Batch, env: Tup, ctx) -> Batch:
    if len(batch) == 0:
        return batch
    mask = _attempt(_predicate_mask, plan.pred, batch, env, ctx)
    if mask is not None:
        buffers = ctx.batch_buffers
        scratch = buffers.acquire()
        scratch.extend(compress(range(len(mask)), mask))
        result = batch.take(selection_vector(scratch))
        buffers.release(scratch)
        return result
    return Batch.from_rows(
        [t for t in batch.to_rows()
         if boolean_subscript(plan.pred, scalar_env(env, t), ctx)])


def _project(plan: Project, batch: Batch, env: Tup, ctx) -> Batch:
    return batch.project(tuple(plan.attributes))


def _project_away(plan: ProjectAway, batch: Batch, env: Tup,
                  ctx) -> Batch:
    return batch.project_away(tuple(plan.attributes))


def _rename(plan: Rename, batch: Batch, env: Tup, ctx) -> Batch:
    return batch.rename(plan.mapping)


def _distinct(plan: DistinctProject, ctx, env: Tup, path) -> Batch:
    batch = _child(plan, 0, ctx, env, path).project(plan.attributes)
    firsts = group_ids(row_keys(batch, plan.attributes))[1]
    return batch.take(firsts).rename(plan.renaming)


def _map_batch(plan: Map, batch: Batch, env: Tup, ctx) -> Batch:
    values = _attempt(_expr_column, plan.expr, batch, env, ctx)
    if values is not None:
        return batch.with_column(plan.attr, values)
    result = []
    for t in batch.to_rows():
        value = plan.expr.evaluate(scalar_env(env, t), ctx)
        result.append(t.extend(plan.attr, value))
    return Batch.from_rows(result)


def _unnest_map(plan: UnnestMap, batch: Batch, env: Tup, ctx) -> Batch:
    if isinstance(plan.expr, PathApply):
        fast = _attempt(_unnest_map_fast, plan, batch, env, ctx)
        if fast is not None:
            return fast
    result = []
    for t in batch.to_rows():
        for item in iter_items(plan.expr.evaluate(scalar_env(env, t),
                                                  ctx)):
            result.append(t.extend(plan.attr, bind_item(item)))
    return Batch.from_rows(result)


def _unnest_map_fast(plan: UnnestMap, batch: Batch, env: Tup,
                     ctx) -> Batch | None:
    """Υ over a compilable path: the whole context column goes through
    the arena's step kernel at once, and the output batch is the
    replicated input columns plus one :class:`NodeColumn` — no per-row
    calls, no handles, no intermediate ``Tup`` copies."""
    walked = _path_rows(plan.expr, batch, env, ctx)
    if walked is None:
        return None
    walks, aligned = walked
    indices, column = _walk_items(walks)
    if aligned:  # one item per row: nothing moves
        return batch.with_column(plan.attr, column)
    return batch.replicate(indices, plan.attr, column)


def _unnest(plan: Unnest, batch: Batch, env: Tup, ctx) -> Batch:
    return unnest_batch(plan, batch)


def _sort(plan: Sort, ctx, env: Tup, path) -> Batch:
    batch = _child(plan, 0, ctx, env, path)
    return batch.take(sort_permutation(plan, batch))


def _elided_sort(plan: ElidedSort, batch: Batch, env: Tup, ctx) -> Batch:
    if plan.proof_holds(ctx) and not plan._debug():
        # The sortedness certificate covers the whole batch: pass it
        # through without even materializing rows.
        plan._record_elision(ctx, taken=True)
        return batch
    return Batch.from_rows(plan.checked_rows(batch.to_rows(), ctx))


#: kernels ``(plan, input batch, env, ctx)`` of the operators each of
#: whose input rows yields its outputs on its own, in order — the same
#: over any slice of their input (:func:`run_chain`)
TUPLEWISE = {
    Select: _select_batch,
    Project: _project,
    ProjectAway: _project_away,
    Rename: _rename,
    Map: _map_batch,
    UnnestMap: _unnest_map,
    Unnest: _unnest,
    ElidedSort: _elided_sort,
}


def _tuplewise(plan: Operator, ctx, env: Tup, path) -> Batch:
    return TUPLEWISE[type(plan)](plan, _child(plan, 0, ctx, env, path),
                                 env, ctx)


def run_chain(chain, batch: Batch, ctx, env: Tup) -> Batch:
    """The :data:`TUPLEWISE` operators ``chain`` (leaf-most first) over
    ``batch`` — one slice of a boolean subscript plan's driving leaf —
    unobserved, checking the deadline per operator as
    :func:`run_vectorized` does."""
    for plan in chain:
        if ctx.deadline is not None:
            ctx.check_deadline()
        batch = TUPLEWISE[type(plan)](plan, batch, env, ctx)
    return batch


# ----------------------------------------------------------------------
# Binary and grouping operators
# ----------------------------------------------------------------------
def _cross(plan: Cross, ctx, env: Tup, path) -> Batch:
    left = _child(plan, 0, ctx, env, path)
    right = _child(plan, 1, ctx, env, path)
    # A one-row side (every ``let $d := doc(…)`` beside a scan) is
    # broadcast over the other side's columns: no row is concatenated.
    if len(left) == 1:
        return left.repeat(len(right)).beside(right)
    if len(right) == 1:
        return left.beside(right.repeat(len(left)))
    right_rows = right.to_rows()
    return Batch.from_rows([l.concat(r) for l in left.to_rows()
                            for r in right_rows])


def _join(plan: Join, ctx, env: Tup, path) -> Batch:
    return Batch.from_rows(join_rows(
        plan, _child(plan, 0, ctx, env, path),
        _child(plan, 1, ctx, env, path), env, ctx))


def _semi_anti(plan, ctx, env: Tup, path, keep_matched: bool) -> Batch:
    left = _child(plan, 0, ctx, env, path)
    right = _child(plan, 1, ctx, env, path)
    selection = semi_anti_selection(plan, left, right, keep_matched)
    if selection is not None:
        # Bare equalities (the pushed ⋉/▷ the rewriter emits): decided
        # on the key columns alone — neither input becomes rows.
        return left.take(selection_vector(selection))
    return Batch.from_rows(semi_anti_rows(plan, left, right, env, ctx,
                                          keep_matched))


def _semi_join(plan: SemiJoin, ctx, env: Tup, path) -> Batch:
    return _semi_anti(plan, ctx, env, path, keep_matched=True)


def _anti_join(plan: AntiJoin, ctx, env: Tup, path) -> Batch:
    return _semi_anti(plan, ctx, env, path, keep_matched=False)


def _outer_join(plan: OuterJoin, ctx, env: Tup, path) -> Batch:
    return Batch.from_rows(outer_join_rows(
        plan, _child(plan, 0, ctx, env, path),
        _child(plan, 1, ctx, env, path), env, ctx))


def _aggregate(agg, batch: Batch, ids: list[int], groups: int,
               env: Tup, ctx) -> list:
    """f of every group, the aggregate's σ decided as a row mask."""
    mask = None if agg.filter_pred is None \
        else _row_mask(agg.filter_pred, batch, env, ctx)
    return group_values(agg, batch, ids, groups, mask)


def _group_unary(plan: GroupUnary, ctx, env: Tup, path) -> Batch:
    batch = _child(plan, 0, ctx, env, path)
    if plan.theta != "=":
        # General θ keeps the definitional form: one pass for the
        # distinct keys, then a filter per key.
        return Batch.from_rows(
            plan.evaluate_rows(batch.to_rows(), env, ctx))
    keys = row_keys(batch, plan.by_attrs)
    ids, firsts = group_ids(keys)
    result = batch.project(plan.by_attrs).take(firsts)
    return result.with_column(plan.group_attr, _aggregate(
        plan.agg, *_members(batch, keys, ids, firsts), len(firsts), env,
        ctx))


def _members(batch: Batch, keys: list, ids: list[int],
             firsts: list[int]) -> tuple[Batch, list[int]]:
    """The rows that are members of their group, with their ids: all,
    except that a NULL or NaN key = nothing, itself included — its group
    is there, but empty.  Only group representatives are checked."""
    if not any(map(matches_nothing, map(keys.__getitem__, firsts))):
        return batch, ids
    live = [row for row, key in enumerate(keys) if not matches_nothing(key)]
    return batch.take(live), [ids[row] for row in live]


def _group_binary(plan: GroupBinary, ctx, env: Tup, path) -> Batch:
    return Batch.from_rows(group_binary_rows(
        plan, _child(plan, 0, ctx, env, path),
        _child(plan, 1, ctx, env, path), env, ctx))


def _self_group(plan: SelfGroup, ctx, env: Tup, path) -> Batch:
    batch = _child(plan, 0, ctx, env, path)
    keys = row_keys(batch, plan.key_attrs)
    ids, firsts = group_ids(keys)
    values = _aggregate(plan.agg, *_members(batch, keys, ids, firsts),
                        len(firsts), env, ctx)
    return batch.with_column(plan.group_attr,
                             list(map(values.__getitem__, ids)))


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def _render_column(values) -> list[str]:
    """:func:`~repro.nal.construct.render_value` of every row of a
    column — the one rendering rule, with its arena-level form for a
    :class:`NodeColumn` and one call for a broadcast."""
    if type(values) is NodeColumn:
        return render_rows(values.arena, values.pres)
    if type(values) is BroadcastColumn:
        return [render_value(values[0])] * len(values) if values else []
    return list(map(render_value, values))


def _rendered_path(expr: PathApply, batch: Batch, env: Tup, ctx):
    """``{path}`` as a column of rendered strings: the whole context
    column through the step kernel, the selected rows through the arena
    renderer, a row's several nodes joined in document order (none:
    the empty string)."""
    walked = _path_rows(expr, batch, env, ctx)
    if walked is None:
        return None
    walks, aligned = walked
    if aligned:
        return render_rows(walks[0][0], walks[0][2])
    column = [""] * len(batch)
    for arena, owners, rows in walks:
        for owner, text in zip(owners, render_rows(arena, rows)):
            column[owner] += text
    return column


def _command_columns(commands, batch: Batch, env: Tup, ctx):
    """Ξ commands as parallel columns of output fragments, one per
    command (a ``Lit`` is a broadcast), or None when some ``{…}`` needs
    the row loop.  Which lane runs is a matter of expression type: a
    bare path renders off the arena, anything else
    :func:`_expr_column` yields renders per value — except a function
    over a path, whose argument would be materialized as a sequence of
    handles per row where the row loop's evaluator takes one slice
    (``{ count($b//bid) }``); nested plans, quantifiers and the other
    shapes :func:`_expr_column` refuses are refused here alike."""
    columns = []
    for command in commands:
        if isinstance(command, Lit):
            columns.append(repeat(command.text, len(batch)))
            continue
        expr = command.expr
        if isinstance(expr, PathApply):
            column = _rendered_path(expr, batch, env, ctx)
        elif isinstance(expr, FuncCall) and _applies_path(expr):
            return None
        else:
            column = _expr_column(expr, batch, env, ctx)
            if column is not None:
                column = _render_column(column)
        if column is None:
            return None
        columns.append(column)
    return columns


def _applies_path(expr) -> bool:
    return isinstance(expr, PathApply) \
        or any(_applies_path(child) for child in expr.children())


def _construct(plan: Construct, ctx, env: Tup, path) -> Batch:
    batch = _child(plan, 0, ctx, env, path)
    columns = _attempt(_command_columns, plan.commands, batch, env, ctx)
    if columns is None:
        for row in batch.to_rows():
            bound = scalar_env(env, row)
            for command in plan.commands:
                command.emit(bound, ctx)
    else:
        ctx.emit_all(chain.from_iterable(zip(*columns)))
    return batch


def _group_commands(plan: GroupConstruct, batch: Batch, env: Tup, ctx):
    """The group-detecting Ξ's three command lists as fragment columns:
    ``(starts, s1, s2, s3)`` — ``starts`` the first row of every group
    (a change in any ``by_attrs`` key), s1 evaluated over those rows,
    s3 over each group's last row, s2 over every row, exactly the rows
    the state machine of ``GroupConstruct.emit_rows`` runs them on.
    None when a command needs the row loop."""
    count = len(batch)
    keys = row_keys(batch, plan.by_attrs)
    starts = [i for i in range(count) if not i or keys[i] != keys[i - 1]]
    lasts = [i - 1 for i in starts[1:]] + [count - 1]
    columns = []
    for commands, rows in ((plan.s1, batch.take(starts)),
                           (plan.s2, batch),
                           (plan.s3, batch.take(lasts))):
        fragments = _command_columns(commands, rows, env, ctx)
        if fragments is None:
            return None
        columns.append(list(zip(*fragments)) if fragments
                       else [()] * len(rows))
    return (starts, *columns)


def _group_construct(plan: GroupConstruct, ctx, env: Tup, path) -> Batch:
    batch = _child(plan, 0, ctx, env, path)
    if len(batch) == 0:
        return batch
    grouped = _attempt(_group_commands, plan, batch, env, ctx)
    if grouped is None:
        plan.emit_rows(batch.to_rows(), env, ctx)
        return batch
    starts, s1, s2, s3 = grouped
    for group, (lo, hi) in enumerate(zip(starts,
                                         starts[1:] + [len(batch)])):
        ctx.emit_all(s1[group])
        ctx.emit_all(chain.from_iterable(s2[lo:hi]))
        ctx.emit_all(s3[group])
    return batch


_DISPATCH = {
    Singleton: _singleton,
    Table: _table,
    IndexScan: _index_scan,
    Select: _select,
    Project: _tuplewise,
    ProjectAway: _tuplewise,
    Rename: _tuplewise,
    DistinctProject: _distinct,
    Map: _tuplewise,
    UnnestMap: _tuplewise,
    Unnest: _tuplewise,
    Sort: _sort,
    ElidedSort: _tuplewise,
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
