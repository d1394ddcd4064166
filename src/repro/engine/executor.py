"""The ``execute`` entry point: run a plan, collect rows, the constructed
XML output and the scan statistics."""

from __future__ import annotations

import time

from repro.engine.batch import Batch
from repro.engine.context import EvalContext
from repro.engine.kernels import ROOT_PATH
from repro.engine.vectorized import run_vectorized
from repro.errors import UnsupportedModeError
from repro.nal.algebra import Operator
from repro.nal.values import Tup
from repro.xmldb.document import DocumentStore, ScanStats

#: execution modes accepted by :func:`execute` (``"auto"`` resolves to
#: :data:`DEFAULT_MODE` — or parallel, when workers are enabled and the
#: cost model's startup-vs-speedup estimate favors it)
MODES = ("vectorized", "reference", "auto", "parallel")

#: the mode every entry point runs when none is named (``execute``,
#: ``Database.execute``, ``CompiledQuery.run``, ``trace_query``,
#: ``Session``, the CLIs, the server): the one serial engine.
DEFAULT_MODE = "vectorized"


def resolve_workers(workers: int | None,
                    explicit_parallel: bool = False) -> int | None:
    """The effective worker count for one execution: the explicit
    argument wins, then the ``REPRO_WORKERS`` environment override;
    an explicit ``mode="parallel"`` with neither defaults to the
    machine's cores, while ``mode="auto"`` leaves parallelism off
    unless someone asked for workers."""
    import os

    from repro.engine.parallel import DEFAULT_WORKERS, WORKERS_ENV

    if workers is not None:
        return workers
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise UnsupportedModeError(
                f"{WORKERS_ENV}={env!r} is not a worker count: expected "
                "an integer") from None
    return DEFAULT_WORKERS if explicit_parallel else None


class ExecutionResult:
    """Outcome of one plan execution."""

    def __init__(self, rows: "list[Tup] | tuple[Tup, ...] | Batch",
                 output: str, stats: dict, elapsed: float,
                 operator_counts: dict[tuple, tuple[int, int]]
                 | None = None,
                 trace=None, metrics=None, cached: bool = False):
        #: the result sequence as handed over: the default engine's
        #: final column batch, the rows of the other modes, or a
        #: result-cache entry (a batch or a tuple of rows, both
        #: immutable and shared) — read it through :attr:`rows`
        self.raw_rows = rows
        #: the XML text the Ξ operators constructed
        self.output = output
        #: scan-statistics snapshot (document scans, node visits) —
        #: collected request-scoped, so it describes exactly this
        #: execution even when other executions ran concurrently
        self.stats = stats
        #: wall-clock seconds
        self.elapsed = elapsed
        #: EXPLAIN ANALYZE data: tree position -> (invocations, rows).
        #: A tree position is the pre-order path of child indices from
        #: the root — ``()`` for the root operator, ``(0, 1)`` for the
        #: second child of the first child.  None unless execute() ran
        #: with analyze=True.
        self.operator_counts = operator_counts
        #: the :class:`~repro.obs.trace.Tracer` the execution recorded
        #: spans into (None unless one was passed to execute())
        self.trace = trace
        #: the :class:`~repro.obs.metrics.MetricsRegistry` holding this
        #: request's counters/histograms (None unless one was passed)
        self.metrics = metrics
        #: True when the rows/output were served from a session's
        #: result cache (``stats`` then snapshots the populating run,
        #: with ``result_cache_hit`` set; see :mod:`repro.session`)
        self.cached = cached

    @property
    def rows(self) -> list[Tup]:
        """The operator tree's result sequence.  The default engine
        hands over columns; they become ``Tup`` rows (and node handles)
        the first time somebody asks — as a list of this result's own,
        so consumers of one cached entry cannot mutate each other's
        rows."""
        rows = self.raw_rows
        if not isinstance(rows, list):
            rows = self.raw_rows = list(
                rows.to_rows() if isinstance(rows, Batch) else rows)
        return rows

    @property
    def row_count(self) -> int:
        """``len(rows)`` without materializing them."""
        return len(self.raw_rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ExecutionResult rows={self.row_count} "
                f"output={len(self.output)} chars "
                f"scans={self.stats['document_scans']} "
                f"elapsed={self.elapsed:.4f}s>")


def execute(plan: Operator, store: DocumentStore,
            mode: str = DEFAULT_MODE,
            analyze: bool = False,
            tracer=None, metrics=None,
            timeout: float | None = None,
            workers: int | None = None) -> ExecutionResult:
    """Execute a plan against a document store (or an already-pinned
    :class:`~repro.xmldb.document.StoreSnapshot`).

    The execution runs against a snapshot taken at entry: concurrent
    ``DocumentStore.update()`` calls publish new document versions, but
    this query keeps reading the versions it pinned (MVCC snapshot
    isolation — see ``docs/updates.md``).

    ``mode="vectorized"`` (:data:`DEFAULT_MODE`; what the benchmarks
    measure) uses the batch-at-a-time engine of
    :mod:`repro.engine.vectorized` — columns move through operators as
    flat arrays with selection-vector passes over the arena, joins and
    groupings run the hash kernels of :mod:`repro.engine.kernels`,
    quantifier / ``exists()`` subscripts stop at the first witness
    (:mod:`repro.engine.pipeline`) and nested plans in value
    subscripts run on the same engine, once per outer tuple;
    ``mode="auto"`` resolves to it, or
    to ``"parallel"`` when a worker budget is set and the cost gate
    opens (:func:`repro.optimizer.cost.preferred_mode`);
    ``mode="reference"`` uses the definitional semantics (the oracle
    of the differential tests).
    See ``docs/execution-modes.md`` for the full decision table.
    ``analyze=True`` (any mode but reference) additionally records
    per-operator invocation and row counts keyed by tree position —
    render them with :func:`~repro.engine.executor.analyze_to_string`;
    under ``mode="reference"`` it raises
    :class:`~repro.errors.UnsupportedModeError` (the definitional
    evaluator has no measurement hooks).

    Scan statistics are collected *request-scoped*: each call gets a
    fresh :class:`~repro.xmldb.document.ScanStats`, so interleaved
    executions against one store cannot cross-contaminate counters.
    The store's shared ``stats`` keeps a cumulative process-wide tally
    (each request is absorbed into it on completion).

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`) records an
    ``execute[mode]`` span plus one nested span per operator
    invocation; ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) collects per-operator
    rows/time and the scan statistics as counters.  Both default to
    off and cost nothing when absent.

    ``timeout`` (seconds) sets a *cooperative* per-request deadline:
    the engine checks it at every operator invocation and once per
    outer tuple of a nested subscript plan, and abandons the execution
    with :class:`~repro.errors.DeadlineExceededError` once it passes.  The
    reference evaluator has no per-operator hooks, so under
    ``mode="reference"`` only the pre-execution and the
    per-outer-tuple checks apply.
    """
    if mode not in MODES:
        raise ValueError(f"unknown execution mode {mode!r}")
    workers = resolve_workers(workers,
                              explicit_parallel=(mode == "parallel"))
    # Pin a snapshot for the whole execution: every document name the
    # plan touches resolves to the version current *now*, so concurrent
    # DocumentStore.update() calls cannot tear this query across
    # versions.  (An already-pinned StoreSnapshot pins to itself.)
    store = store.snapshot()
    if mode == "auto":
        from repro.optimizer.cost import preferred_mode
        mode = preferred_mode(plan, store, workers=workers)
    if analyze and mode == "reference":
        raise UnsupportedModeError(
            "analyze=True is not supported under mode='reference': the "
            "definitional evaluator has no per-operator measurement "
            "hooks, so EXPLAIN ANALYZE would silently return nothing — "
            "use mode='vectorized'")
    if analyze and mode == "parallel":
        raise UnsupportedModeError(
            "analyze=True is not supported under mode='parallel': "
            "operator counts live in the worker processes and tree "
            "positions of plan fragments do not line up with the "
            "original plan — use a serial mode for EXPLAIN ANALYZE")
    stats = ScanStats()
    deadline = None if timeout is None else time.monotonic() + timeout
    ctx = EvalContext(store, stats=stats, tracer=tracer, metrics=metrics,
                      deadline=deadline, deadline_budget=timeout)
    if deadline is not None:
        ctx.check_deadline()
    if analyze:
        ctx.analyze_counts = {}
    span = None if tracer is None \
        else tracer.begin(f"execute[{mode}]", "lifecycle", mode=mode)
    start = time.perf_counter()
    if mode == "parallel":
        from repro.engine.parallel import run_parallel
        rows = run_parallel(plan, ctx, workers or 2)
    elif mode == "vectorized":
        rows = run_vectorized(plan, ctx)
    else:
        rows = plan.evaluate(ctx)
    elapsed = time.perf_counter() - start
    if span is not None:
        span.finish()
    # Keep the shared counters meaningful as a process-wide total
    # without ever reading them for a result (serialized against
    # concurrent request completions by the store lock).
    store.absorb_stats(stats)
    if metrics is not None:
        _scan_stats_to_metrics(stats, metrics)
        metrics.gauge("execution.rows").set(len(rows))
        metrics.gauge("execution.seconds").set(elapsed)
    return ExecutionResult(rows, ctx.output_text(),
                           stats.snapshot(), elapsed,
                           operator_counts=ctx.analyze_counts,
                           trace=tracer, metrics=metrics)


def _scan_stats_to_metrics(stats: ScanStats, metrics) -> None:
    """Fold a request's scan statistics into its metrics registry."""
    metrics.counter("scan.document_scans").inc(stats.total_scans)
    metrics.counter("scan.node_visits").inc(stats.node_visits)
    metrics.counter("index.probes").inc(stats.total_probes)
    metrics.counter("xpath.order_fastpath_hits").inc(
        stats.order_fastpath_hits)
    metrics.counter("xpath.order_dedup_passes").inc(
        stats.order_dedup_passes)


def analyze_to_string(plan: Operator,
                      result: ExecutionResult) -> str:
    """EXPLAIN ANALYZE rendering: the plan tree annotated with each
    operator's invocation count and emitted rows, matched by tree
    position (so an operator instance shared between two positions of a
    rewritten tree reports each position separately).

    Operators inside nested subscripts show as ``(not measured)`` —
    their work is charged to the host operator, which is exactly the
    nested-loop cost the unnesting equivalences eliminate.
    """
    counts = result.operator_counts
    if counts is None:
        raise ValueError("result was not executed with analyze=True")
    lines: list[str] = []

    def walk(op: Operator, depth: int, path: tuple) -> None:
        pad = "  " * depth
        entry = counts.get(path)
        if entry is None:
            note = "(not measured)"
        else:
            calls, rows = entry
            note = f"[calls={calls} rows={rows}]"
        lines.append(f"{pad}{op.label()}  {note}")
        from repro.nal.pretty import _nested_plans
        for expr in op.scalar_exprs():
            for nested in _nested_plans(expr):
                lines.append(f"{pad}  ⟨nested⟩")
                # Nested subscript plans are never measured; give them a
                # path no engine records under.
                walk(nested, depth + 2, path + ("nested",))
        for index, child in enumerate(op.children):
            walk(child, depth + 1, path + (index,))

    walk(plan, 0, ROOT_PATH)
    return "\n".join(lines)


def operators_by_path(plan: Operator) -> dict[tuple, Operator]:
    """Tree position → operator, for every position the engines can
    record under (nested subscript plans excluded — they are never
    measured).  The companion of ``ExecutionResult.operator_counts``
    for reconciling EXPLAIN ANALYZE with the metrics registry."""
    out: dict[tuple, Operator] = {}

    def walk(op: Operator, path: tuple) -> None:
        out[path] = op
        for index, child in enumerate(op.children):
            walk(child, path + (index,))

    walk(plan, ROOT_PATH)
    return out
