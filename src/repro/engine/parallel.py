"""Multi-process scatter/gather execution over shared-memory arenas.

``mode="parallel"`` splits one query across a persistent pool of worker
processes.  Frozen arenas cross the process boundary through
:mod:`repro.xmldb.shm` (zero-copy column views, one segment per
document); plan *fragments* cross it as pickles; result rows come back
as compact ``(document, pre)`` handles that the parent re-interns
against its own arenas — so parallel output is byte-identical to the
serial engines, which the differential suite pins.

The planner here recognizes two partitionable shapes:

- **inter-document sharding** (``strategy="docs"``): the driving
  Υ-scan ranges over ``collection("pattern")``.  Matching documents are
  dealt to workers and the one ``collection()`` leaf is rewritten per
  task into an explicit name subset.  When PR 5's order properties
  certify the fragment's stream is in document order of the driving
  attribute, partial results are **k-way merged** on
  ``(doc.seq, pre)`` from a round-robin deal (best load balance);
  otherwise the deal is contiguous-by-``seq`` and gather concatenates
  in task order, which *is* serial order because every operator
  between the driving scan and the fragment root is per-row.
- **intra-document range partitioning** (``strategy="range"``): the
  driving Υ-scan applies ``//tag …`` to one document root.  The
  arena's per-tag pre list is split into contiguous ranges — one
  :class:`PartitionedPath` per worker — and gather concatenates:
  contiguous pre ranges are document-ordered by construction.  For
  multi-step paths the first tag must be *flat* (no self-nesting), so
  per-range results live in disjoint subtrees.

Emitting operators (Ξ, group-Ξ, Sort) are **peeled off the top** and
run in the parent over the merged rows: workers never produce output
text, and a peeled Sort turns gather into gather-sort.  Plans with no
partitionable scan fall back to serial execution (counted in the
``parallel.fallback`` metric) — and ``preferred_mode`` only ever picks
``"parallel"`` when :func:`~repro.optimizer.cost.parallel_total`
undercuts the serial estimate, so small inputs stay serial.

The pool is spawned lazily, reused across queries, and torn down via
``atexit`` / ``Database.close()``; losing a worker mid-query raises
:class:`~repro.errors.ParallelExecutionError` and discards the pool so
the next query runs on a healthy one.
"""

from __future__ import annotations

import atexit
import heapq
import multiprocessing
import os
import pickle
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.engine.vectorized import run_vectorized
from repro.errors import ParallelExecutionError
from repro.nal.algebra import Operator, scalar_env
from repro.nal.construct import Construct, GroupConstruct, \
    contains_construct
from repro.nal.join_ops import AntiJoin, Cross, Join, OuterJoin, SemiJoin
from repro.nal.scalar import AttrRef, CollectionAccess, DocAccess, \
    NestedPlan, PartitionedPath, PathApply, ScalarExpr, _path_context
from repro.nal.unary_ops import ElidedSort, Map, Project, ProjectAway, \
    Rename, Select, Singleton, Sort, Table, UnnestMap
from repro.nal.values import EMPTY_TUPLE, NULL, Tup
from repro.obs.trace import maybe_span
from repro.xmldb.node import Node, NodeSequence, global_order_key
from repro.xpath.ast import NameTest

#: default worker count for an explicit ``mode="parallel"`` request
#: that names none: the machine's cores, but at least 2 (one worker
#: would only add process-boundary overhead to serial execution)
DEFAULT_WORKERS = max(2, os.cpu_count() or 1)

#: environment override consulted by the executor: the worker budget
#: of ``mode="auto"`` / ``"parallel"`` requests that name none
WORKERS_ENV = "REPRO_WORKERS"

#: test hook (see :func:`inject_crash`): the next dispatched task with
#: this index instructs its worker to die mid-query
_CRASH_TASK: int | None = None


@contextmanager
def inject_crash(task_index: int = 0):
    """Make the worker executing task ``task_index`` of the next
    parallel query exit hard (``os._exit``) before evaluating — the
    crash-injection hook the self-healing test uses."""
    global _CRASH_TASK
    previous = _CRASH_TASK
    _CRASH_TASK = task_index
    try:
        yield
    finally:
        _CRASH_TASK = previous


# ----------------------------------------------------------------------
# Row transport: values cross the process boundary as tagged trees with
# nodes reduced to (document name, pre); the parent re-interns them.
# ----------------------------------------------------------------------
def encode_value(value):
    if isinstance(value, Node):
        return ("n", value.arena.doc_name, value.pre)
    if value is NULL:
        return ("0",)
    if isinstance(value, Tup):
        return ("t", tuple((attr, encode_value(item))
                           for attr, item in value.items()))
    if isinstance(value, NodeSequence):
        return ("s", [encode_value(item) for item in value])
    if isinstance(value, list):
        return ("l", [encode_value(item) for item in value])
    if isinstance(value, tuple):
        return ("T", tuple(encode_value(item) for item in value))
    return ("v", value)


def decode_value(encoded, store):
    tag = encoded[0]
    if tag == "n":
        return store.get(encoded[1]).arena.nodes[encoded[2]]
    if tag == "0":
        return NULL
    if tag == "t":
        return Tup({attr: decode_value(item, store)
                    for attr, item in encoded[1]})
    if tag == "s":
        return NodeSequence(decode_value(item, store)
                            for item in encoded[1])
    if tag == "l":
        return [decode_value(item, store) for item in encoded[1]]
    if tag == "T":
        return tuple(decode_value(item, store) for item in encoded[1])
    return encoded[1]


# ----------------------------------------------------------------------
# Plan analysis: find the partitionable driving scan
# ----------------------------------------------------------------------
#: operators that may sit between the fragment root and the driving
#: scan: each produces its output as a per-input-row run (filter, scalar
#: extension, per-row unnest, projection, or a left-major join whose
#: right side is evaluated whole in every worker), so partitioning the
#: driving rows partitions the fragment's output without reordering.
_PER_ROW_SPINE = (Select, Map, UnnestMap, Project, ProjectAway, Rename,
                  Join, SemiJoin, AntiJoin, OuterJoin, Cross)


@dataclass
class ParallelPlan:
    """The analysis result :func:`parallelizable` hands to the runner."""

    strategy: str                 # "docs" | "range"
    emit_chain: list              # peeled Ξ/group-Ξ/Sort, root first
    inner: Operator               # the fragment workers execute
    spine: list                   # ops from ``inner`` down to driver
    driver: UnnestMap             # the partitionable Υ scan
    pattern: str | None = None    # docs strategy: collection pattern
    doc_name: str | None = None   # range strategy: the scanned document
    tag: str | None = None        # range strategy: first-step tag
    members: list = field(default_factory=list)


def _peel_emit_chain(plan: Operator) -> tuple[list, Operator]:
    """Split ``plan`` into (top emit chain, fragment below it)."""
    chain: list = []
    op = plan
    while isinstance(op, (Construct, GroupConstruct, Sort)):
        chain.append(op)
        op = op.children[0]
    return chain, op


def _unit_chain(op: Operator) -> bool:
    """Does this subtree produce exactly one tuple (χ* over □)?"""
    while isinstance(op, Map):
        op = op.children[0]
    return isinstance(op, Singleton)


def _unit_doc_binding(op: Operator, attr: str) -> str | None:
    """The document name a χ in the unit chain binds ``attr`` to."""
    while isinstance(op, Map):
        if op.attr == attr and isinstance(op.expr, DocAccess):
            return op.expr.name
        op = op.children[0]
    return None


def _contains_table(op: Operator) -> bool:
    """Literal Table inputs may embed unfrozen nodes that a pickle
    would silently deep-copy (arena and all) — veto them outright."""
    for node in op.walk():
        if isinstance(node, Table):
            return True
        for expr in node.scalar_exprs():
            if _scalar_contains_table(expr):
                return True
    return False


def _scalar_contains_table(expr) -> bool:
    if isinstance(expr, NestedPlan):
        return _contains_table(expr.plan)
    return any(_scalar_contains_table(c) for c in expr.children())


def _collection_exprs(op: Operator):
    """Every ``CollectionAccess`` leaf in the fragment, nested plans
    included."""
    for node in op.walk():
        for expr in node.scalar_exprs():
            yield from _scalar_collections(expr)


def _scalar_collections(expr):
    if isinstance(expr, CollectionAccess):
        yield expr
    if isinstance(expr, NestedPlan):
        yield from _collection_exprs(expr.plan)
        return
    for child in expr.children():
        yield from _scalar_collections(child)


def _classify_driver(driver: UnnestMap, store) -> dict | None:
    """Partitioning strategy for one candidate driving scan, if any."""
    expr = driver.expr
    source = expr.source if isinstance(expr, PathApply) else expr
    if isinstance(source, CollectionAccess):
        if source.names is not None:
            return None  # already a shard of a previous partitioning
        members = store.collection_names(source.pattern)
        if len(members) < 2:
            return None
        return {"strategy": "docs", "pattern": source.pattern,
                "members": members}
    if not isinstance(expr, PathApply):
        return None
    if isinstance(source, DocAccess):
        doc_name = source.name
    elif isinstance(source, AttrRef):
        doc_name = _unit_doc_binding(driver.children[0], source.name)
    else:
        return None
    if doc_name is None or doc_name not in store:
        return None
    steps = expr.path.steps
    if not steps:
        return None
    first = steps[0]
    if first.axis != "descendant" or first.predicates \
            or not isinstance(first.test, NameTest):
        return None
    if len(steps) > 1 \
            and not store.get(doc_name).arena.tag_is_flat(first.test.name):
        # Nested occurrences of the first tag would let different
        # ranges reach overlapping subtrees — not partition-safe.
        return None
    return {"strategy": "range", "doc_name": doc_name,
            "tag": first.test.name}


def parallelizable(plan: Operator, store) -> ParallelPlan | None:
    """Analyse ``plan`` for a partitionable shape.

    Returns the descriptor :func:`run_parallel` executes, or ``None``
    when the plan must run serially: no driving Υ over a document/
    collection scan, an output-emitting Ξ *inside* the fragment, a
    cross-row operator (sort, group, distinct) below the peeled top,
    or a literal table input."""
    emit_chain, inner = _peel_emit_chain(plan)
    if contains_construct(inner) or _contains_table(inner):
        return None
    spine: list = []
    op = inner
    while True:
        if isinstance(op, UnnestMap) and _unit_chain(op.children[0]):
            details = _classify_driver(op, store)
            if details is not None:
                return ParallelPlan(
                    strategy=details["strategy"], emit_chain=emit_chain,
                    inner=inner, spine=spine, driver=op,
                    pattern=details.get("pattern"),
                    doc_name=details.get("doc_name"),
                    tag=details.get("tag"),
                    members=details.get("members", []))
            return None
        if isinstance(op, _PER_ROW_SPINE):
            spine.append(op)
            op = op.children[0]
            continue
        return None


def _replace_driver(pp: ParallelPlan, new_driver: Operator) -> Operator:
    """Rebuild the fragment with the driving scan swapped out; the
    spine records the left-spine path from ``inner`` to the driver."""
    rebuilt = new_driver
    for op in reversed(pp.spine):
        rebuilt = op.rebuild((rebuilt,) + op.children[1:])
    return rebuilt


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(conn) -> None:  # pragma: no cover - runs in children
    """Worker loop: attach shared-memory documents, execute pickled
    plan fragments (under the vectorized engine — fragments are scan
    spines, its columnar fast path), reply with encoded rows + scan
    statistics."""
    from repro.engine.context import EvalContext
    from repro.xmldb.document import DocumentStore, ScanStats
    from repro.xmldb.shm import attach_document

    store = DocumentStore(index_mode="lazy")
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "sync":
            for manifest in message[1]:
                name = manifest["doc"]
                stale = store._documents.pop(name, None)
                if stale is not None:
                    stale.arena.detach()
                store._documents[name] = attach_document(manifest)
        elif kind == "drop":
            stale = store._documents.pop(message[1], None)
            if stale is not None:
                stale.arena.detach()
        elif kind == "task":
            payload = message[1]
            if payload.get("crash"):
                os._exit(1)
            try:
                plan = pickle.loads(payload["plan"])
                stats = ScanStats()
                ctx = EvalContext(store, stats=stats)
                rows = run_vectorized(plan, ctx).to_rows()
                conn.send(("ok", ([encode_value(row) for row in rows],
                                  stats.snapshot())))
            except BaseException as exc:  # noqa: BLE001 - marshalled
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
        elif kind == "exit":
            break
    for document in list(store._documents.values()):
        document.arena.detach()
    conn.close()


class _Worker:
    """Parent-side record of one pool member."""

    __slots__ = ("process", "conn", "attached")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        #: documents this worker has attached, as ``{name: seq}``
        self.attached: dict[str, int] = {}


class WorkerPool:
    """A lazily-spawned, reusable pool of query workers bound to one
    :class:`~repro.xmldb.document.DocumentStore`.

    The pool owns the store's shared-memory exports, keyed by document
    *version* ``(name, seq)``: it creates them on first use, exports
    further versions as updates publish them (a query pinned to an old
    snapshot re-exports its version on demand), and unlinks superseded
    versions' segments on store change, at pool shutdown
    (``Database.close()``) and at interpreter exit.

    One :class:`threading.Lock` serializes the entire scatter/gather of
    a query against the store-listener callbacks: an update arriving
    mid-query waits for the query's workers to finish, so a segment is
    never unlinked between the moment a task referencing it was
    dispatched and the moment its worker replied (pipe order then
    guarantees the worker processed the ``sync`` — and attached the
    segment — before it sees the ``drop``)."""

    def __init__(self, store):
        self.store = store
        self._mp = multiprocessing.get_context("spawn")
        self.workers: list[_Worker] = []
        self._exports: dict[tuple[str, int], object] = {}
        self._lock = threading.Lock()
        store.add_listener(self._on_store_change)

    # -- lifecycle -----------------------------------------------------
    def _on_store_change(self, event: str, name: str) -> None:
        # Register (a rotation under the same name), update and
        # unregister all supersede previously exported versions of the
        # name; only an export matching the store's *current* version
        # survives.  Workers drop their stale attachment before the
        # parent unlinks the segment (messages are processed in pipe
        # order, and the pool lock keeps in-flight queries ahead of
        # this callback).
        with self._lock:
            current = self.store.get(name).seq if name in self.store \
                else None
            doomed = [key for key in self._exports
                      if key[0] == name and key[1] != current]
            if not doomed:
                return
            stale_seqs = {key[1] for key in doomed}
            for worker in self.workers:
                if worker.attached.get(name) in stale_seqs:
                    worker.attached.pop(name, None)
                    try:
                        worker.conn.send(("drop", name))
                    except (OSError, ValueError):
                        pass
            for key in doomed:
                self._exports.pop(key).close()

    def ensure_size(self, count: int) -> None:
        while len(self.workers) < count:
            parent_conn, child_conn = self._mp.Pipe()
            process = self._mp.Process(target=_worker_main,
                                       args=(child_conn,), daemon=True,
                                       name="repro-parallel-worker")
            process.start()
            child_conn.close()
            self.workers.append(_Worker(process, parent_conn))

    def abandon(self) -> None:
        """Discard every worker (after a crash): terminate hard and
        drop the pipes.  Exports stay — the next query respawns
        workers and re-syncs manifests (the pool self-heals)."""
        workers, self.workers = self.workers, []
        for worker in workers:
            try:
                worker.conn.close()
            except OSError:
                pass
            if worker.process.is_alive():
                worker.process.terminate()
            worker.process.join(timeout=5)

    def shutdown(self) -> None:
        """Deterministic teardown: stop workers, unlink every
        shared-memory segment, detach from the store."""
        for worker in self.workers:
            try:
                worker.conn.send(("exit",))
            except (OSError, ValueError):
                pass
        for worker in self.workers:
            worker.process.join(timeout=5)
            if worker.process.is_alive():  # pragma: no cover - stuck
                worker.process.terminate()
                worker.process.join(timeout=5)
            try:
                worker.conn.close()
            except OSError:
                pass
        self.workers = []
        exports, self._exports = self._exports, {}
        for export in exports.values():
            export.close()
        try:
            self.store.remove_listener(self._on_store_change)
        except (ValueError, AttributeError):
            pass

    # -- document sync -------------------------------------------------
    def _export_for(self, document):
        """The shared-memory export of one pinned document version,
        created on demand — including re-creation for an old version a
        snapshot still holds after its export was dropped (the pinned
        :class:`~repro.xmldb.document.Document` is the source of truth,
        so the fresh export is identical to the dropped one)."""
        from repro.xmldb.shm import export_document

        key = (document.name, document.seq)
        export = self._exports.get(key)
        if export is None:
            export = export_document(document)
            self._exports[key] = export
        return export

    def sync_worker(self, worker: _Worker, names, resolver=None) -> None:
        """Attach ``names`` in ``worker`` at the versions ``resolver``
        (the executing query's pinned snapshot; the live store when
        absent) resolves them to.  A worker holding another version of
        a name swaps it out — version choice is per query, and the
        worker-side store keys by name."""
        resolver = self.store if resolver is None else resolver
        manifests = []
        for name in names:
            export = self._export_for(resolver.get(name))
            if worker.attached.get(name) != export.seq:
                manifests.append(export.manifest)
                worker.attached[name] = export.seq
        if manifests:
            worker.conn.send(("sync", manifests))

    # -- execution -----------------------------------------------------
    def execute(self, tasks, ctx) -> list:
        """Scatter ``tasks`` (one per worker) and gather results in
        task order.  ``tasks`` are dicts with ``plan`` (pickled
        fragment), ``docs`` (names the fragment reads) and ``crash``
        (test hook).  Returns ``[(encoded_rows, stats_snapshot)]``.

        Any failure mid-protocol — a dead worker, a broken pipe, even
        a deadline firing between replies — abandons the whole pool:
        undrained result pipes would desynchronize the next query, and
        respawning workers is cheaper than re-establishing trust in
        half-used ones."""
        self.ensure_size(len(tasks))
        try:
            replies = self._scatter_gather(tasks, ctx)
        except BaseException:
            self.abandon()
            raise
        for index, (status, payload) in enumerate(replies):
            if status != "ok":
                raise ParallelExecutionError(
                    f"parallel worker {index} failed: {payload}")
        return [payload for _, payload in replies]

    def _scatter_gather(self, tasks, ctx) -> list:
        # The pool lock is held for the whole scatter/gather: it keeps
        # the store-change listener from unlinking a segment a
        # dispatched task still needs, and serializes concurrent
        # parallel queries over the shared worker pipes.
        with self._lock:
            try:
                for index, task in enumerate(tasks):
                    worker = self.workers[index]
                    self.sync_worker(worker, task["docs"], ctx.store)
                    worker.conn.send(("task", {"plan": task["plan"],
                                               "crash": task["crash"]}))
            except (OSError, ValueError, BrokenPipeError) as exc:
                raise ParallelExecutionError(
                    f"lost a parallel worker while dispatching: {exc}") \
                    from exc
            replies = []
            for index, task in enumerate(tasks):
                worker = self.workers[index]
                with maybe_span(ctx.tracer, f"parallel.task[{index}]",
                                "parallel", docs=",".join(task["docs"])):
                    try:
                        while not worker.conn.poll(0.05):
                            if ctx.deadline is not None:
                                ctx.check_deadline()
                            if not worker.process.is_alive() \
                                    and not worker.conn.poll(0):
                                raise EOFError("worker process died")
                        replies.append(worker.conn.recv())
                    except (EOFError, OSError,
                            pickle.UnpicklingError) as exc:
                        raise ParallelExecutionError(
                            f"parallel worker {index} died mid-query "
                            f"({exc}); the pool has been discarded and "
                            "will respawn on the next query") from exc
            return replies


#: one active pool per process, keyed by its store — serving binds one
#: store for the process lifetime, and tests that rotate stores get
#: the previous pool (and its segments) torn down deterministically
_ACTIVE_POOL: WorkerPool | None = None


def get_pool(store) -> WorkerPool:
    global _ACTIVE_POOL
    if _ACTIVE_POOL is not None and _ACTIVE_POOL.store is not store:
        _ACTIVE_POOL.shutdown()
        _ACTIVE_POOL = None
    if _ACTIVE_POOL is None:
        _ACTIVE_POOL = WorkerPool(store)
    return _ACTIVE_POOL


def close_pool(store=None) -> None:
    """Tear down the active pool (``Database.close()`` / ``atexit``).
    With ``store`` given, only a pool bound to that store is closed."""
    global _ACTIVE_POOL
    if _ACTIVE_POOL is None:
        return
    if store is not None and _ACTIVE_POOL.store is not store:
        return
    _ACTIVE_POOL.shutdown()
    _ACTIVE_POOL = None


atexit.register(close_pool)


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def run_parallel(plan: Operator, ctx, workers: int) -> list[Tup]:
    """Execute ``plan`` across the worker pool; falls back to the
    serial vectorized engine (counting ``parallel.fallback``) when the
    plan has no partitionable shape."""
    from repro.optimizer.digest import referenced_documents
    from repro.optimizer.properties import properties_of

    pp = parallelizable(plan, ctx.store)
    if pp is None or workers < 2:
        return _fallback(plan, ctx, "shape")
    referenced = set(referenced_documents(pp.inner))
    if any(name not in ctx.store for name in referenced):
        # Let the serial path raise the canonical UnknownDocumentError.
        return _fallback(plan, ctx, "missing-document")
    # A second collection() elsewhere in the fragment (a nested plan,
    # a join's right side) resolves against the *worker's* store, so
    # every task must carry the full member set of every pattern.
    # The driver's own leaf is exempt: it gets rewritten to an
    # explicit per-task name subset, which is the whole point.
    driver_source = pp.driver.expr.source \
        if isinstance(pp.driver.expr, PathApply) else pp.driver.expr
    for access in _collection_exprs(pp.inner):
        if access is driver_source and pp.strategy == "docs":
            continue
        if access.names is not None:
            referenced.update(access.names)
        else:
            referenced.update(
                ctx.store.collection_names(access.pattern))

    if pp.strategy == "docs":
        props = properties_of(pp.inner, ctx.store)
        certified = props.doc_order_attr is not None
        partitions = _deal_documents(pp.members, workers,
                                     round_robin=certified)
        task_plans = [
            _replace_driver(pp, _subset_driver(pp.driver, pp.pattern,
                                               subset))
            for subset in partitions]
        task_docs = [sorted(referenced | set(subset))
                     for subset in partitions]
        merge = "kway" if certified else "concat"
        merge_key = props.doc_order_attr
    else:
        ranges, context_error = _range_partitions(pp, ctx, workers)
        if ranges is None:
            return _fallback(plan, ctx, context_error or "context")
        task_plans = [
            _replace_driver(pp, UnnestMap(
                pp.driver.children[0], pp.driver.attr,
                PartitionedPath(pp.driver.expr, start, stop),
                origin=pp.driver.origin))
            for start, stop in ranges]
        task_docs = [sorted(referenced | {pp.doc_name})
                     for _ in ranges]
        merge = "concat"
        merge_key = None

    if len(task_plans) < 2:
        return _fallback(plan, ctx, "too-small")
    try:
        pickles = [pickle.dumps(task_plan) for task_plan in task_plans]
    except Exception:  # noqa: BLE001 - unpicklable plan state
        return _fallback(plan, ctx, "unpicklable")

    tasks = [{"plan": blob, "docs": docs,
              "crash": _CRASH_TASK == index}
             for index, (blob, docs)
             in enumerate(zip(pickles, task_docs))]
    # Pool identity follows the *live* store; the snapshot pinned in
    # ctx.store only decides which document versions the tasks attach.
    pool = get_pool(getattr(ctx.store, "store", ctx.store))
    with maybe_span(ctx.tracer, "parallel.scatter-gather", "parallel",
                    strategy=pp.strategy, tasks=len(tasks),
                    merge=merge):
        results = pool.execute(tasks, ctx)

    partial_rows: list[list[Tup]] = []
    for encoded_rows, stats_snapshot in results:
        partial_rows.append([decode_value(row, ctx.store)
                             for row in encoded_rows])
        ctx.stats.absorb_snapshot(stats_snapshot)

    if merge == "kway":
        rows = list(heapq.merge(
            *partial_rows,
            key=lambda row: global_order_key(row[merge_key])))
    else:
        rows = [row for partial in partial_rows for row in partial]

    sorted_in_gather = False
    for op in reversed(pp.emit_chain):
        if isinstance(op, ElidedSort):
            rows = op.checked_rows(rows, ctx)
        elif isinstance(op, Sort):
            rows = sorted(rows, key=op.sort_tuple)
            sorted_in_gather = True
        elif isinstance(op, GroupConstruct):
            rows = op.emit_rows(rows, EMPTY_TUPLE, ctx)
        else:  # Construct
            for row in rows:
                bound = scalar_env(EMPTY_TUPLE, row)
                for command in op.commands:
                    command.emit(bound, ctx)
    if sorted_in_gather and merge == "concat":
        merge = "gather-sort"

    if ctx.metrics is not None:
        ctx.metrics.counter("parallel.tasks").inc(len(tasks))
        ctx.metrics.counter(f"parallel.merge.{merge}").inc()
        ctx.metrics.gauge("parallel.workers").set(len(tasks))
    return rows


def _fallback(plan: Operator, ctx, reason: str) -> list[Tup]:
    if ctx.metrics is not None:
        ctx.metrics.counter("parallel.fallback").inc()
    with maybe_span(ctx.tracer, "parallel.fallback", "parallel",
                    reason=reason):
        return run_vectorized(plan, ctx).to_rows()


def _deal_documents(members: list[str], workers: int,
                    round_robin: bool) -> list[list[str]]:
    """Split collection members over at most ``workers`` tasks.
    Round-robin balances skewed corpora but interleaves documents —
    only used when the k-way merge can restore global order; the
    contiguous deal keeps concatenation order-correct."""
    count = min(workers, len(members))
    if round_robin:
        partitions = [members[index::count] for index in range(count)]
    else:
        size, extra = divmod(len(members), count)
        partitions, cursor = [], 0
        for index in range(count):
            width = size + (1 if index < extra else 0)
            partitions.append(members[cursor:cursor + width])
            cursor += width
    return [p for p in partitions if p]


def _subset_driver(driver: UnnestMap, pattern: str,
                   subset: list[str]) -> UnnestMap:
    """The driving scan with its ``collection()`` leaf restricted to
    one task's document subset."""
    shard = CollectionAccess(pattern, names=tuple(subset))
    expr = driver.expr
    if isinstance(expr, PathApply):
        new_expr: ScalarExpr = PathApply(shard, expr.path)
    else:
        new_expr = shard
    return UnnestMap(driver.children[0], driver.attr, new_expr,
                     origin=driver.origin)


def _range_partitions(pp: ParallelPlan, ctx, workers: int):
    """Contiguous ``(start, stop)`` slices of the driving tag's pre
    list, computed in the parent over the same frozen columns the
    workers see."""
    unit_rows = run_vectorized(pp.driver.children[0], ctx).to_rows()
    if len(unit_rows) != 1:
        return None, "non-unit-context"
    env = scalar_env(EMPTY_TUPLE, unit_rows[0])
    nodes, path = _path_context(pp.driver.expr, env, ctx)
    if len(nodes) != 1:
        return None, "non-unit-context"
    context = nodes[0]
    total = len(context.arena.descendants_by_tag(context.pre, pp.tag))
    count = min(workers, total)
    if count < 2:
        return None, "too-small"
    size, extra = divmod(total, count)
    ranges, cursor = [], 0
    for index in range(count):
        width = size + (1 if index < extra else 0)
        ranges.append((cursor, cursor + width))
        cursor += width
    return ranges, None
