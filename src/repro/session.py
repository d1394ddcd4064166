"""The request lifecycle's long-lived layer: sessions, prepared
queries, plan and result caches.

The paper's algebra assumes a database *server* context — the same
query shapes arrive repeatedly over stable documents — but the one-shot
API re-lexes, re-normalizes and re-optimizes on every call.  This
module splits the lifecycle into three explicit layers:

- :class:`Session` (long-lived) — wraps a
  :class:`~repro.api.Database` with a **plan cache** (query *shape* →
  compiled/optimized alternatives, keyed by the store's registration
  epoch so any document change invalidates wholesale) and a **result
  cache** (canonical plan digest + bound constants + the referenced
  documents' versions → rows/output, evicted entry-by-entry when a
  referenced document is re-registered or removed).  Safe to share
  between threads and asyncio tasks.
- :class:`PreparedQuery` (per query shape) — the product of
  ``lex → parse → normalize → translate → unnest/optimize``, computed
  once per shape: a *template*.  A text that differs from the
  template's only in constants gets a :class:`BoundQuery` of it
  (:meth:`PreparedQuery.bind`), which builds its own plans only when it
  executes (:mod:`repro.optimizer.binding`).
- Execution (per request) — every :meth:`PreparedQuery.execute` call
  builds a fresh request-scoped
  :class:`~repro.engine.context.EvalContext` (scan stats, metrics,
  trace, cooperative deadline), so concurrent requests cannot observe
  each other; only the immutable plan and arena columns are shared.

Cache keys, exactly:

- plan cache: ``(shape, ranking, store.epoch)``.  The shape is the text
  with each literal replaced by its type
  (:func:`~repro.xquery.lexer.query_shape`; ``doc()`` names stay in
  it).  The entry is the shape's first template, and it serves every
  text of the shape that has the template's text at each *fixed*
  literal — a literal whose value cannot be rebound.  A literal is
  fixed when the parser did not read it as a value (a digit in a
  comment or in constructor text: the pre-scan and the parser disagree,
  and then every literal is fixed — one template per text), when some
  plan alternative does not hold it (it was consumed structurally),
  or, under ``ranking="cost"``, when it feeds an index probe (the
  ranking reads its value).  A template for other text at the fixed
  literals is filed under ``(shape, ranking, store.epoch, fixed
  literals, their text)``.  Which literals are fixed is worked out the
  first time the template meets a text other than its own.
- result cache: ``(plan digest, values, ((doc name, doc seq), …))`` —
  the digest of the *template's* alternative, which renders constants
  as typed slot placeholders (``?0:int``, :mod:`repro.optimizer.digest`),
  the request's constants, and the referenced documents in sorted name
  order with their registration sequence numbers, so a re-registered
  document (new ``seq``) can never serve a stale entry even before
  eviction runs.  Two texts that differ in a constant never share an
  entry, nor do ``5`` and ``5.0`` (equal values, different types: the
  placeholders differ).  The digest and the referenced documents are
  memoized on the template's alternative; :meth:`Session.execute` with
  a disabled result cache builds no key at all.

Binding.  A binding's plans are the template's with the constants
replaced — except where a compile decision read a constant.  The one
such decision is the access-path cost comparison
(:class:`~repro.optimizer.access_paths.ProbeChoice`): a binding
re-prices it for its own constants, and if the outcome flips the text
is compiled afresh (not filed, and its result is not cached).  A hit
never binds: the key needs only the template.  The exception is a plan
label the template lacks: only the re-pricing can tell whether this
text's compile has it (a flip adds or drops a ``+index`` alternative),
so such a request has no key until it executes.

One request counts one lookup per cache.  :meth:`Session.execute` does
both lookups itself; a caller that must not block (the server's event
loop) splits it: :meth:`Session.lookup` (cache dicts only — never
compiles, binds or executes; it builds the result key once), then on a
miss :meth:`Session.compile` / :meth:`PreparedQuery.lookup` and
``PreparedQuery.execute(..., key=key)``, which stores the result under
that key without looking again.

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
from repro.optimizer.binding import bind_plan, plan_slots
from repro.optimizer.rewriter import RewriteResult
from repro.xquery.lexer import QueryShape, query_shape

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

    def get(self, key, count: bool = True):
        """The entry under ``key`` or None; ``count=False`` leaves the
        hit/miss tally to a later :meth:`count`."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            if count:
                self._count(entry is not None)
            return entry

    def count(self, hit: bool) -> None:
        """Tally one lookup made with ``count=False``."""
        with self._lock:
            self._count(hit)

    def _count(self, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1

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

    The constructor compiles ``text``: the result is a *template*,
    holding the ranked alternatives for the template's own constants
    (:attr:`values`, one per slot).  :meth:`bind` gives the same
    template with another text's constants (a :class:`BoundQuery`).
    Everything shared is immutable, so one instance can serve any number
    of threads.  Obtain instances from :meth:`Session.prepare`.
    """

    def __init__(self, session: "Session", text: str, ranking: str,
                 tracer=None, shape: QueryShape | None = None):
        from repro.api import compile_query
        self.session = session
        self.text = text
        self.ranking = ranking
        compiled = compile_query(text, session.database, ranking=ranking,
                                 tracer=tracer)
        #: the template this query binds (itself, for a compiled one)
        self.template = self
        #: the constants, one per slot
        self.values: tuple = compiled.values
        self._alternatives: tuple[RewriteResult, ...] = \
            tuple(compiled.plans())
        self._nested_plan = compiled.plan
        #: access-path decisions a binding re-checks
        self._choices = tuple(alt.probe_choice for alt in self._alternatives
                              if alt.probe_choice is not None)
        #: the pre-scan of :attr:`text` (None: no plan cache, no shape
        #: work), and whether the parser read exactly its literals
        self.shape = shape
        self.bindable = shape is not None and compiled.spans == shape.spans
        self._fixed: tuple[int, ...] | None = None
        self._auto_modes: dict[str, str] = {}
        self._auto_lock = threading.Lock()

    @property
    def fixed(self) -> tuple[int, ...]:
        """The pre-scan literals whose text is part of the plan-cache
        key — all of them when the parser did not read exactly the
        pre-scan's literals; otherwise those some plan does not hold,
        and under ``ranking="cost"`` those feeding an index probe.
        Worked out on first use: a shape only ever seen with its own
        constants never needs it."""
        if self._fixed is None:
            every = tuple(range(len(self.shape.spans)))
            if not self.bindable:
                self._fixed = every
            else:
                held, probes = plan_slots(
                    (self._nested_plan,
                     *(alt.plan for alt in self._alternatives)))
                if self.ranking != "cost":
                    probes = frozenset()
                self._fixed = tuple(i for i in every
                                    if i not in held or i in probes)
        return self._fixed

    def serves(self, text: str, shape: QueryShape) -> bool:
        """Whether ``text`` (of this template's shape) has this
        template's text at every fixed literal."""
        return text == self.text or not self.fixed or \
            _fixed_text(text, shape, self.fixed) \
            == _fixed_text(self.text, self.shape, self.fixed)

    def bind(self, text: str, values: tuple) -> "PreparedQuery":
        """This template with ``text``'s constants ``values`` (the
        template itself when they are its own)."""
        if values == self.values:
            return self
        return BoundQuery(self, text, values)

    def _flipped(self) -> "PreparedQuery | None":
        """A fresh compile of this text when an access-path decision the
        template made goes the other way for its constants — never, for
        the template itself."""
        return None

    def _keyed(self, label: str | None) -> RewriteResult | None:
        """The alternative a request for ``label`` keys its result on:
        the template's (a binding shares its digest), read without
        binding or compiling anything."""
        return self.alternative(label)

    # ------------------------------------------------------------------
    @property
    def alternatives(self) -> tuple[RewriteResult, ...]:
        """The ranked plan alternatives, best first (immutable)."""
        return self._alternatives

    @property
    def nested_plan(self):
        """The translated-but-unoptimized plan (for EXPLAIN)."""
        return self._nested_plan

    def best(self) -> RewriteResult:
        return self.alternative()

    def alternative(self, label: str | None = None) -> RewriteResult:
        """The best plan, or the one named ``label``."""
        return _pick(self._alternatives, label)

    def plan_named(self, label: str) -> RewriteResult:
        return self.alternative(label)

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
        requests reuse it instead of re-walking the plan.  A binding
        shares its template's verdicts (every mode computes the same
        output; ``auto`` only picks the fastest)."""
        if mode != "auto":
            return mode
        template = self.template
        key = (alt.digest(), workers)
        with template._auto_lock:
            resolved = template._auto_modes.get(key)
        if resolved is None:
            from repro.optimizer.cost import preferred_mode
            resolved = preferred_mode(alt.plan,
                                      self.session.database.store,
                                      workers=workers)
            with template._auto_lock:
                template._auto_modes[key] = resolved
        return resolved

    # ------------------------------------------------------------------
    def lookup(self, mode: str | None = None, label: str | None = None
               ) -> tuple[tuple, ExecutionResult | None]:
        """The result-cache half of :meth:`execute`: ``(key, the cached
        result or None)``; never compiles, binds or executes.  Counts
        one result-cache lookup, and raises on a bad mode or label
        exactly as :meth:`execute` does — except a label only a
        re-priced binding can have: that is a miss with a None key
        (:meth:`Session.result_key` names it once the binding has
        executed).  Continue a miss with ``execute(..., key=key)``."""
        session = self.session
        _, keyed, _ = session._request(self, mode, label, _UNSET)
        key = None if keyed is None else session.result_key(self, keyed)
        return key, session._cached(key)

    def execute(self, mode: str | None = None, label: str | None = None,
                analyze: bool = False, tracer=None, metrics=None,
                timeout=_UNSET, use_result_cache: bool = True,
                workers=_UNSET, snapshot=None,
                key: tuple | None = None) -> ExecutionResult:
        """One request: execute the best plan (or the alternative named
        ``label``) with a fresh request-scoped context.

        The session's result cache is consulted first (unless
        ``use_result_cache=False``, ``analyze=True`` or a ``tracer`` is
        attached — observed requests always execute so their recordings
        describe real work; or a ``key`` is given: the caller already
        missed under it in :meth:`lookup`, so the result is stored under
        it without a second lookup).  ``timeout`` defaults to the
        session's ``default_timeout``; ``workers`` to its
        ``default_workers`` (the parallel worker budget ``mode="auto"``
        weighs and ``mode="parallel"`` uses).  ``snapshot`` (a
        :class:`~repro.xmldb.document.StoreSnapshot`) pins the request
        to previously captured document versions instead of the
        store's current ones; the result-cache key then carries the
        *pinned* versions, so old-snapshot requests neither serve nor
        clobber entries of newer versions."""
        return self.session._execute_prepared(
            self, mode=mode, label=label, analyze=analyze,
            tracer=tracer, metrics=metrics, timeout=timeout,
            use_result_cache=use_result_cache, workers=workers,
            snapshot=snapshot, key=key)


class BoundQuery(PreparedQuery):
    """A template bound to another text's constants :attr:`values`.

    It holds the template, the text, the constants and its own memos —
    nothing else; what the plan cache needs (:attr:`shape`,
    :attr:`fixed`, :meth:`serves`) is the template's business.  It builds
    its plans only when :meth:`alternative` / :attr:`alternatives` ask,
    and only the ones asked for.  Before the first, it re-prices the
    template's access-path decisions for its constants
    (:meth:`_flipped`)."""

    def __init__(self, template: PreparedQuery, text: str, values: tuple):
        self.template = template
        self.session = template.session
        self.ranking = template.ranking
        self.text = text
        self.values = values
        self._alternatives: tuple[RewriteResult, ...] | None = None
        #: the alternatives built so far, by label
        self._bound: dict[str, RewriteResult] = {}
        #: whether the re-pricing ran, and its fresh compile on a flip
        self._checked = not template._choices
        self._fresh: PreparedQuery | None = None

    def _flipped(self) -> PreparedQuery | None:
        """A fresh compile of this text when an access-path decision
        the template made goes the other way for these constants; None
        when the template's plans hold."""
        if not self._checked:
            from repro.optimizer.cost import CostModel
            model = CostModel(self.session.database.store)
            if not all(choice.holds(self.values, model)
                       for choice in self.template._choices):
                self._fresh = PreparedQuery(self.session, self.text,
                                            self.ranking)
            self._checked = True
        return self._fresh

    def _keyed(self, label: str | None) -> RewriteResult | None:
        """The template's alternative ``label``; when the template has
        none, what the re-pricing says — None while it has not run."""
        try:
            return self.template.alternative(label)
        except KeyError:
            if not self._checked:
                return None
            return self.alternative(label)

    def _bind(self, alt: RewriteResult) -> RewriteResult:
        return RewriteResult(alt.label, bind_plan(alt.plan, self.values),
                             alt.applied, cost=alt.cost)

    @property
    def alternatives(self) -> tuple[RewriteResult, ...]:
        if self._alternatives is None:
            fresh = self._flipped()
            self._alternatives = fresh.alternatives if fresh else tuple(
                self._bind(alt) for alt in self.template.alternatives)
        return self._alternatives

    @property
    def nested_plan(self):
        return bind_plan(self.template.nested_plan, self.values)

    def alternative(self, label: str | None = None) -> RewriteResult:
        """The best plan, or the one named ``label``; builds only this
        one."""
        if self._alternatives is not None:
            return _pick(self._alternatives, label)
        fresh = self._flipped()
        if fresh is not None:
            return fresh.alternative(label)
        shared = self.template.alternative(label)
        bound = self._bound.get(shared.label)
        if bound is None:
            bound = self._bound[shared.label] = self._bind(shared)
        return bound


def _pick(alternatives: tuple[RewriteResult, ...],
          label: str | None) -> RewriteResult:
    if label is None:
        return alternatives[0]
    for alt in alternatives:
        if alt.label == label:
            return alt
    known = sorted({a.label for a in alternatives})
    raise KeyError(f"no plan labelled {label!r}; available: {known}")


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
        #: plan hits that bound constants other than the template's
        self._bindings = 0
        self._bindings_lock = threading.Lock()
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
                            for doc, seq in key[2]))

    # ------------------------------------------------------------------
    # Prepare (plan cache)
    # ------------------------------------------------------------------
    def prepare(self, text: str, ranking: str | None = None,
                tracer=None) -> PreparedQuery:
        """The compiled/optimized form of ``text``: from the plan cache
        when a text of the same shape was prepared before under the
        current store epoch (bound to ``text``'s constants), compiled
        otherwise.  Compilation runs outside the cache lock, so two
        threads racing on a cold shape may both compile — one result
        wins, both are correct (plans are immutable)."""
        return self._prepare(text, ranking, tracer)[0]

    def _prepare(self, text: str, ranking: str | None,
                 tracer=None) -> tuple[PreparedQuery, bool]:
        """(prepared, plan_cache_hit) — the hit flag feeds per-request
        metrics without re-deriving it from shared counters."""
        prepared = self._find(text, ranking)
        if prepared is not None:
            return prepared, True
        return self.compile(text, ranking, tracer), False

    def _find(self, text: str,
              ranking: str | None) -> PreparedQuery | None:
        """The plan cache's one lookup for ``text``: its shape's
        template bound to its constants, or None.  A disabled cache
        counts the miss and scans nothing."""
        cache = self._plan_cache
        if cache.max_size <= 0:
            cache.count(False)
            return None
        shape = query_shape(text)
        key = self._plan_key(shape.key, ranking)
        entry = cache.get(key, count=False)
        if entry is not None and not entry.serves(text, shape):
            entry = cache.get(_fixed_key(key, text, shape, entry.fixed),
                              count=False)
        cache.count(entry is not None)
        if entry is None or not entry.bindable:
            return entry
        bound = entry.bind(text, shape.values)
        if bound is not entry:
            with self._bindings_lock:
                self._bindings += 1
        return bound

    def _plan_key(self, shape_key: tuple, ranking: str | None) -> tuple:
        ranking = self.ranking if ranking is None else ranking
        return (shape_key, ranking, self.database.store.epoch)

    def compile(self, text: str, ranking: str | None = None,
                tracer=None) -> PreparedQuery:
        """The plan-miss half of :meth:`prepare`: compile ``text`` and
        file it in the plan cache *without* looking the cache up — for
        a caller whose :meth:`lookup` already counted the miss.  The
        first template of a shape is filed under the shape; one that
        the shape's template cannot serve (other text at a fixed
        literal), under the shape plus that text."""
        ranking = self.ranking if ranking is None else ranking
        cache = self._plan_cache
        shape = query_shape(text) if cache.max_size > 0 else None
        with maybe_span(tracer, "prepare", "session", ranking=ranking):
            prepared = PreparedQuery(self, text, ranking, tracer=tracer,
                                     shape=shape)
        if shape is not None:
            key = self._plan_key(shape.key, ranking)
            first = cache.get(key, count=False)
            if first is not None and not first.serves(text, shape):
                key = _fixed_key(key, text, shape, first.fixed)
            cache.put(key, prepared)
        return prepared

    def lookup(self, text: str, mode: str | None = None,
               label: str | None = None) -> tuple:
        """The cache half of :meth:`execute`: never compiles, never
        binds a plan, never executes, so an event loop may call it.
        Looks the plan cache up, and — when the plan is cached — builds
        the result key and looks the result cache up; returns
        ``(prepared, key, result)`` with None for a miss
        (``(None, None, None)`` on a plan miss: the key needs the
        plan).  A bad mode or an unknown label raises as
        :meth:`execute` would.

        Continue a miss so the request counts one lookup per cache and
        builds its key once: :meth:`compile` then
        :meth:`PreparedQuery.lookup` after a plan miss, then
        :meth:`PreparedQuery.execute` with ``key=key``."""
        prepared = self._find(text, None)
        if prepared is None:
            return None, None, None
        return (prepared, *prepared.lookup(mode, label))

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

    def doc_versions(self, alt: RewriteResult, resolver=None) -> tuple:
        """The referenced documents' ``(name, seq)`` pairs in sorted
        name order — the freshness half of the result-cache key.
        ``collection()`` patterns are resolved against ``resolver``
        (a pinned :class:`~repro.xmldb.document.StoreSnapshot`, when
        the request carries one; the live store otherwise) *at key
        time*: every member contributes its version, so a member's
        update/re-registration and a membership change (register/
        unregister of a matching name) both rotate the key."""
        store = self.database.store if resolver is None else resolver
        documents, patterns = alt.sources()
        names = set(documents)
        for pattern in patterns:
            names.update(store.collection_names(pattern))
        versions = []
        for name in sorted(names):
            # An unknown document surfaces as the usual execution-time
            # error; version it as absent so the key stays total.
            seq = store.get(name).seq if name in store else -1
            versions.append((name, seq))
        return tuple(versions)

    def _request(self, prepared: PreparedQuery, mode: str | None,
                 label: str | None, workers) -> tuple:
        """``(mode, keyed alternative, workers)`` of one request,
        validated before any result-cache lookup so a bogus mode or
        label fails identically on hits and misses.  The alternative is
        the one the result key is built from — the template's: no plan
        is bound for a lookup — or None when the label is one only a
        re-priced binding may have (see :meth:`PreparedQuery.lookup`)."""
        mode = self.default_mode if mode is None else mode
        from repro.engine.executor import MODES, resolve_workers
        if mode not in MODES:
            raise ValueError(f"unknown execution mode {mode!r}")
        if workers is _UNSET:
            workers = self.default_workers
        workers = resolve_workers(workers,
                                  explicit_parallel=(mode == "parallel"))
        return mode, prepared._keyed(label), workers

    def result_key(self, prepared: PreparedQuery, alt: RewriteResult,
                   snapshot=None) -> tuple:
        """The result-cache key of ``prepared`` run as ``alt`` (the
        template's alternative, or a binding's own): the alternative's
        digest (constants as typed placeholders), the request's
        constants, the document versions."""
        return (alt.digest(), prepared.values,
                self.doc_versions(alt, snapshot))

    def _result_key(self, prepared: PreparedQuery,
                    alt: RewriteResult | None, snapshot) -> tuple | None:
        """:meth:`result_key`, or None while the cache is disabled — a
        cache that cannot hit is worth no digest and no document walk —
        or while ``alt`` is unknown."""
        if self._result_cache.max_size <= 0 or alt is None:
            return None
        return self.result_key(prepared, alt, snapshot)

    def _cached(self, key: tuple | None,
                metrics=None) -> ExecutionResult | None:
        """One result-cache lookup (a disabled cache's None key counts
        as a miss): the hit as a ``cached=True`` result, or None."""
        start = time.perf_counter()
        entry = self._result_cache.get(key)
        if entry is None:
            if metrics is not None:
                metrics.counter("session.result_cache.miss").inc()
            return None
        rows, output, stats = entry
        lookup = time.perf_counter() - start
        if metrics is not None:
            metrics.counter("session.result_cache.hit").inc()
        hit_stats = dict(stats)
        hit_stats["result_cache_hit"] = True
        return ExecutionResult(rows, output, hit_stats, lookup,
                               operator_counts=None, metrics=metrics,
                               cached=True)

    def _execute_prepared(self, prepared: PreparedQuery,
                          mode: str | None, label: str | None,
                          analyze: bool, tracer, metrics, timeout,
                          use_result_cache: bool, workers=_UNSET,
                          snapshot=None,
                          key: tuple | None = None) -> ExecutionResult:
        mode, keyed, workers = self._request(prepared, mode, label,
                                             workers)
        if timeout is _UNSET:
            timeout = self.default_timeout
        if not use_result_cache or analyze or tracer is not None:
            key = None
        elif key is None:
            key = self._result_key(prepared, keyed, snapshot)
            hit = self._cached(key, metrics)
            if hit is not None:
                return hit
        alt = prepared.alternative(label)
        if prepared._flipped() is not None:
            # Not the plan the key names: run it, file nothing.
            key = None
        if mode != "reference":
            mode = prepared.resolve_mode(
                mode, alt if keyed is None else keyed, workers=workers)
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
                           "misses": plan.misses,
                           "bindings": self._bindings},
            "result_cache": {"size": len(result), "hits": result.hits,
                             "misses": result.misses},
            "store_epoch": self.database.store.epoch,
        }


def _fixed_text(text: str, shape: QueryShape, fixed: tuple) -> tuple:
    """The source text of the pre-scan literals numbered ``fixed``."""
    return tuple(text[slice(*shape.spans[i])] for i in fixed)


def _fixed_key(key: tuple, text: str, shape: QueryShape,
               fixed: tuple) -> tuple:
    """Where a template for ``text`` is filed when its shape's first
    template cannot serve it: the shape key plus the fixed literals
    and their text."""
    return key + (fixed, _fixed_text(text, shape, fixed))
