"""The request lifecycle's long-lived layer: sessions, prepared
queries, plan and result caches.

The paper's algebra assumes a database *server* context — the same
query shapes arrive repeatedly over stable documents — but the one-shot
API re-lexes, re-normalizes and re-optimizes on every call.  This
module splits the lifecycle into three explicit layers:

- :class:`Session` (long-lived) — wraps a
  :class:`~repro.api.Database` with a **plan cache** (query text →
  compiled/optimized alternatives, keyed by the store's registration
  epoch so any document change invalidates wholesale) and a **result
  cache** (canonical plan digest + the referenced documents' versions →
  rows/output, evicted entry-by-entry when a referenced document is
  re-registered or removed).  Safe to share between threads and asyncio
  tasks.
- :class:`PreparedQuery` (per query shape) — the product of
  ``lex → parse → normalize → translate → unnest/optimize``, computed
  once.  Holds the ranked plan alternatives and their process-stable
  digests (:mod:`repro.optimizer.digest`).
- Execution (per request) — every :meth:`PreparedQuery.execute` call
  builds a fresh request-scoped
  :class:`~repro.engine.context.EvalContext` (scan stats, metrics,
  trace, cooperative deadline), so concurrent requests cannot observe
  each other; only the immutable plan and arena columns are shared.

Cache keys, exactly:

- plan cache: ``(query text, ranking, store.epoch)``;
- result cache: ``(plan digest, ((doc name, doc seq), …))`` — the
  referenced documents in sorted name order with their registration
  sequence numbers, so a re-registered document (new ``seq``) can never
  serve a stale entry even before eviction runs.

Observability: when a :class:`~repro.obs.metrics.MetricsRegistry` rides
along on a request, the session records ``session.plan_cache.hit/miss``
and ``session.result_cache.hit/miss`` counters into it; cumulative
session-level tallies are available from :meth:`Session.cache_stats`.
A cached :class:`~repro.engine.executor.ExecutionResult` has
``cached=True`` and a ``result_cache_hit`` marker in its stats — the
stats snapshot the populating execution, not work done on the hit.

Concurrency contract: the caches serialize under per-cache locks held
only for dict operations (never across a compile or an execution), the
store serializes registration under its own lock, and everything else
the execution path touches is either immutable (plans, arenas) or
request-scoped (the context).  ``tests/test_session.py`` hammers one
session from many threads and asserts byte-identical results to serial
runs with no metric cross-contamination.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable

from repro.engine.executor import DEFAULT_MODE, ExecutionResult, execute
from repro.obs.trace import maybe_span
from repro.optimizer.digest import referenced_collections, \
    referenced_documents
from repro.optimizer.rewriter import RewriteResult

#: "not passed" marker for per-request overrides of session defaults
_UNSET = object()


class LRUCache:
    """A small thread-safe least-recently-used map.

    ``max_size <= 0`` disables the cache entirely (every ``get`` misses,
    every ``put`` is dropped) — benchmarks use that to isolate the plan
    cache's effect from the result cache's."""

    def __init__(self, max_size: int):
        self.max_size = max_size
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            return None

    def put(self, key, value) -> None:
        if self.max_size <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)

    def evict_if(self, predicate: Callable) -> int:
        """Drop every entry whose *key* satisfies ``predicate``;
        returns how many were dropped."""
        with self._lock:
            doomed = [k for k in self._entries if predicate(k)]
            for k in doomed:
                del self._entries[k]
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class PreparedQuery:
    """A query shape taken through the whole compile/optimize pipeline
    exactly once, ready for repeated (concurrent) execution.

    Everything here is immutable after construction — the alternatives
    list, the plans inside it, the digests — so one instance can serve
    any number of threads.  Obtain instances from
    :meth:`Session.prepare`; the constructor itself performs the full
    compilation (and is what the plan cache memoizes).
    """

    def __init__(self, session: "Session", text: str, ranking: str,
                 tracer=None):
        from repro.api import compile_query
        self.session = session
        self.text = text
        self.ranking = ranking
        compiled = compile_query(text, session.database, ranking=ranking,
                                 tracer=tracer)
        #: ranked plan alternatives, best first (immutable)
        self.alternatives: tuple[RewriteResult, ...] = \
            tuple(compiled.plans())
        #: the translated-but-unoptimized plan (for EXPLAIN)
        self.nested_plan = compiled.plan
        self._auto_modes: dict[str, str] = {}
        self._auto_lock = threading.Lock()

    # ------------------------------------------------------------------
    def best(self) -> RewriteResult:
        return self.alternatives[0]

    def plan_named(self, label: str) -> RewriteResult:
        for alt in self.alternatives:
            if alt.label == label:
                return alt
        known = sorted({a.label for a in self.alternatives})
        raise KeyError(f"no plan labelled {label!r}; available: {known}")

    def explain(self, label: str | None = None) -> str:
        from repro.nal.pretty import plan_to_string
        plan = self.nested_plan if label is None \
            else self.plan_named(label).plan
        return plan_to_string(plan)

    def resolve_mode(self, mode: str, alt: RewriteResult,
                     workers: int | None = None) -> str:
        """``"auto"`` resolved once per (alternative, worker budget,
        store epoch) — the cost model's verdict is a function of the
        frozen arenas and the parallelism on offer, so repeated
        requests reuse it instead of re-walking the plan."""
        if mode != "auto":
            return mode
        key = (alt.digest(), workers)
        with self._auto_lock:
            resolved = self._auto_modes.get(key)
        if resolved is None:
            from repro.optimizer.cost import preferred_mode
            resolved = preferred_mode(alt.plan,
                                      self.session.database.store,
                                      workers=workers)
            with self._auto_lock:
                self._auto_modes[key] = resolved
        return resolved

    # ------------------------------------------------------------------
    def execute(self, mode: str | None = None, label: str | None = None,
                analyze: bool = False, tracer=None, metrics=None,
                timeout=_UNSET, use_result_cache: bool = True,
                workers=_UNSET, snapshot=None) -> ExecutionResult:
        """One request: execute the best plan (or the alternative named
        ``label``) with a fresh request-scoped context.

        The session's result cache is consulted first (unless
        ``use_result_cache=False``, ``analyze=True`` or a ``tracer`` is
        attached — observed requests always execute so their recordings
        describe real work).  ``timeout`` defaults to the session's
        ``default_timeout``; ``workers`` to its ``default_workers``
        (the parallel worker budget ``mode="auto"`` weighs and
        ``mode="parallel"`` uses).  ``snapshot`` (a
        :class:`~repro.xmldb.document.StoreSnapshot`) pins the request
        to previously captured document versions instead of the
        store's current ones; the result-cache key then carries the
        *pinned* versions, so old-snapshot requests neither serve nor
        clobber entries of newer versions."""
        return self.session._execute_prepared(
            self, mode=mode, label=label, analyze=analyze,
            tracer=tracer, metrics=metrics, timeout=timeout,
            use_result_cache=use_result_cache, workers=workers,
            snapshot=snapshot)


class Session:
    """Long-lived execution context over a
    :class:`~repro.api.Database`: plan cache, result cache, defaults.

    Construct via :meth:`repro.api.Database.session`.  ``close()``
    detaches the store listener; a session is otherwise stateless
    beyond its caches and can simply be dropped.
    """

    def __init__(self, database, *, plan_cache_size: int = 128,
                 result_cache_size: int = 256,
                 default_mode: str = DEFAULT_MODE,
                 default_timeout: float | None = None,
                 default_workers: int | None = None,
                 ranking: str = "heuristic"):
        self.database = database
        self.default_mode = default_mode
        self.default_timeout = default_timeout
        self.default_workers = default_workers
        self.ranking = ranking
        self._plan_cache = LRUCache(plan_cache_size)
        self._result_cache = LRUCache(result_cache_size)
        self._listener = self._on_store_change
        database.store.add_listener(self._listener)
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach from the store and drop the caches."""
        if not self._closed:
            self.database.store.remove_listener(self._listener)
            self._plan_cache.clear()
            self._result_cache.clear()
            self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _on_store_change(self, event: str, name: str) -> None:
        """Store mutation hook (runs under the store lock): evict every
        plan-cache entry compiled under a previous epoch (plans bake in
        schema facts and access paths), and the result-cache entries
        whose pinned version of the changed document is *superseded* —
        entries keyed to the version that is still current stay put.
        That version-awareness matters under updates: an entry
        populated by a query pinned to the new version (or by any query
        of an *unchanged* document) is still exact, and dropping it
        would turn every update into a full cache flush for the name."""
        store = self.database.store
        epoch = store.epoch
        self._plan_cache.evict_if(lambda key: key[2] != epoch)
        current = store.get(name).seq if name in store else None
        self._result_cache.evict_if(
            lambda key: any(doc == name and seq != current
                            for doc, seq in key[1]))

    # ------------------------------------------------------------------
    # Prepare (plan cache)
    # ------------------------------------------------------------------
    def prepare(self, text: str, ranking: str | None = None,
                tracer=None) -> PreparedQuery:
        """The compiled/optimized form of ``text``, from the plan cache
        when the same shape was prepared before under the current store
        epoch.  Compilation runs outside the cache lock, so two threads
        racing on a cold shape may both compile — one result wins, both
        are correct (plans are immutable)."""
        return self._prepare(text, ranking, tracer)[0]

    def _prepare(self, text: str, ranking: str | None,
                 tracer=None) -> tuple[PreparedQuery, bool]:
        """(prepared, plan_cache_hit) — the hit flag feeds per-request
        metrics without re-deriving it from shared counters."""
        ranking = self.ranking if ranking is None else ranking
        key = (text, ranking, self.database.store.epoch)
        prepared = self._plan_cache.get(key)
        if prepared is not None:
            return prepared, True
        with maybe_span(tracer, "prepare", "session",
                        ranking=ranking):
            prepared = PreparedQuery(self, text, ranking, tracer=tracer)
        self._plan_cache.put(key, prepared)
        return prepared, False

    # ------------------------------------------------------------------
    # Execute (result cache)
    # ------------------------------------------------------------------
    def execute(self, text: str, mode: str | None = None,
                label: str | None = None, analyze: bool = False,
                tracer=None, metrics=None, timeout=_UNSET,
                ranking: str | None = None,
                use_result_cache: bool = True,
                workers=_UNSET, snapshot=None) -> ExecutionResult:
        """Prepare-and-execute in one call — the server's request path."""
        prepared, plan_hit = self._prepare(text, ranking, tracer)
        if metrics is not None:
            name = "hit" if plan_hit else "miss"
            metrics.counter(f"session.plan_cache.{name}").inc()
        return prepared.execute(mode=mode, label=label, analyze=analyze,
                                tracer=tracer, metrics=metrics,
                                timeout=timeout,
                                use_result_cache=use_result_cache,
                                workers=workers, snapshot=snapshot)

    def _doc_versions(self, plan, resolver=None) -> tuple:
        """The referenced documents' ``(name, seq)`` pairs in sorted
        name order — the freshness half of the result-cache key.
        ``collection()`` patterns are resolved against ``resolver``
        (a pinned :class:`~repro.xmldb.document.StoreSnapshot`, when
        the request carries one; the live store otherwise) *at key
        time*: every member contributes its version, so a member's
        update/re-registration and a membership change (register/
        unregister of a matching name) both rotate the key."""
        store = self.database.store if resolver is None else resolver
        names = set(referenced_documents(plan))
        for pattern in referenced_collections(plan):
            names.update(store.collection_names(pattern))
        versions = []
        for name in sorted(names):
            # An unknown document surfaces as the usual execution-time
            # error; version it as absent so the key stays total.
            seq = store.get(name).seq if name in store else -1
            versions.append((name, seq))
        return tuple(versions)

    def _execute_prepared(self, prepared: PreparedQuery,
                          mode: str | None, label: str | None,
                          analyze: bool, tracer, metrics, timeout,
                          use_result_cache: bool,
                          workers=_UNSET, snapshot=None) -> ExecutionResult:
        mode = self.default_mode if mode is None else mode
        # Validate before the result-cache shortcut so a bogus mode
        # fails identically on hits and misses.
        from repro.engine.executor import MODES, resolve_workers
        if mode not in MODES:
            raise ValueError(f"unknown execution mode {mode!r}")
        if timeout is _UNSET:
            timeout = self.default_timeout
        if workers is _UNSET:
            workers = self.default_workers
        workers = resolve_workers(workers,
                                  explicit_parallel=(mode == "parallel"))
        alt = prepared.best() if label is None \
            else prepared.plan_named(label)
        if mode != "reference":
            mode = prepared.resolve_mode(mode, alt, workers=workers)
        cacheable = (use_result_cache and not analyze and tracer is None)
        key = None
        if cacheable:
            key = (alt.digest(), self._doc_versions(alt.plan, snapshot))
            start = time.perf_counter()
            entry = self._result_cache.get(key)
            if entry is not None:
                rows, output, stats = entry
                lookup = time.perf_counter() - start
                if metrics is not None:
                    metrics.counter("session.result_cache.hit").inc()
                hit_stats = dict(stats)
                hit_stats["result_cache_hit"] = True
                return ExecutionResult(rows, output, hit_stats,
                                       lookup, operator_counts=None,
                                       trace=tracer, metrics=metrics,
                                       cached=True)
            if metrics is not None:
                metrics.counter("session.result_cache.miss").inc()
        target = self.database.store if snapshot is None else snapshot
        result = execute(alt.plan, target, mode=mode,
                         analyze=analyze, tracer=tracer, metrics=metrics,
                         timeout=timeout, workers=workers)
        if key is not None:
            # The result as the engine left it + output text + stats
            # snapshot: the default engine's column batch is immutable
            # and stored as it is — nothing is materialized for the
            # cache; a row list (the other modes) is copied, its owner
            # may mutate it.  A hit reads its rows through
            # ``ExecutionResult.rows``, which copies on first access.
            rows = result.raw_rows
            self._result_cache.put(
                key, (tuple(rows) if isinstance(rows, list) else rows,
                      result.output, result.stats))
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict:
        """Cumulative cache effectiveness counters (what the server's
        ``/stats`` endpoint and the Q12 benchmark report)."""
        plan, result = self._plan_cache, self._result_cache
        return {
            "plan_cache": {"size": len(plan), "hits": plan.hits,
                           "misses": plan.misses},
            "result_cache": {"size": len(result), "hits": result.hits,
                             "misses": result.misses},
            "store_epoch": self.database.store.epoch,
        }
