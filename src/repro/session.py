"""The request lifecycle's long-lived layer: sessions, prepared
queries, plan and result caches (``docs/serving.md`` walks through
both caches with examples).

The paper's algebra assumes a database *server* context — the same
query shapes arrive repeatedly over stable documents.  This module
splits the lifecycle into three layers:

- :class:`Session` (long-lived) — a :class:`~repro.api.Database` with a
  **plan cache** (query *shape* → compiled alternatives) and a
  **result cache** (plan digest + constants + the referenced documents'
  versions → rows/output).  Safe to share between threads and asyncio
  tasks.
- :class:`PreparedQuery` (per shape) — ``lex → parse → normalize →
  translate → unnest/optimize``, computed once: a *template*.  A text
  that differs from it only in constants gets a :class:`BoundQuery`
  (:meth:`PreparedQuery.bind`), which builds its own plans only when it
  executes (:mod:`repro.optimizer.binding`).
- Execution (per request) — every :meth:`PreparedQuery.execute` builds
  a fresh :class:`~repro.engine.context.EvalContext`, so concurrent
  requests share only immutable plans and arena columns.

Cache keys, exactly:

- plan cache: ``(shape, ranking, generation)``.  The shape is the text
  with each literal replaced by its type
  (:func:`~repro.xquery.lexer.query_shape`; ``doc()`` names stay).  The
  entry is the shape's first template; it serves every text of the
  shape with the template's text at each *fixed* literal — one the
  parser did not read as a value (then every literal is fixed), one
  some plan alternative does not hold, or under ``ranking="cost"`` one
  feeding an index probe.  A template for other text at the fixed
  literals goes under ``(shape, ranking, generation, fixed literals,
  their text)``; which literals are fixed is worked out the first time
  the template meets another text.  The *generation* counts the
  registrations and removals the session has seen, read before a
  compile starts: a compile racing a registration files its plan where
  no lookup finds it.
- result cache: ``(plan digest, values, ((doc name, doc seq), …))`` —
  the digest of the *template's* alternative (constants as typed
  placeholders, ``?0:int``: ``5`` and ``5.0`` never share an entry),
  the request's constants, and the referenced documents' versions in
  name order, so a superseded version never serves, even before
  eviction runs.  Digest and documents are memoized on the
  alternative; a disabled result cache builds no key.

What a store change evicts.  A registration or removal bumps the
generation, so every plan goes: plans bake in root names, DTD facts and
which documents exist.  An update changes none of those, so it evicts
only templates that decided something from the document's *content*
(:meth:`PreparedQuery.stale_after_update`: the cost ranking, or access
paths when the store keeps indexes) — a heuristic, index-free plan
survives every update.  An elided sort in a kept plan checks its order
guarantee on the version it runs on and sorts for real where it no
longer holds (:meth:`~repro.nal.unary_ops.ElidedSort.proof_holds`).
Results: entries pinning a superseded version of the changed document.

Binding.  A binding's plans are the template's with the constants
replaced — except where the access-path cost comparison read one
(:class:`~repro.optimizer.access_paths.ProbeChoice`): a binding
re-prices it, and if the outcome flips the text is compiled afresh (not
filed, result not cached).  A hit never binds; only a plan label the
template lacks (a flip adds or drops ``+index``) has no key until the
binding executes.

One request counts one lookup per cache.  A caller that must not block
(the server's event loop) splits :meth:`Session.execute`:
:meth:`Session.lookup` (cache dicts only; builds the result key once),
then on a miss :meth:`Session.compile` / :meth:`PreparedQuery.lookup`
and ``PreparedQuery.execute(..., key=key)``.  With a
:class:`~repro.obs.metrics.MetricsRegistry` attached, a request records
``session.plan_cache.hit/miss`` and ``session.result_cache.hit/miss``;
:meth:`Session.cache_stats` has the cumulative tallies.  A cached
:class:`~repro.engine.executor.ExecutionResult` has ``cached=True`` and
the populating run's stats plus a ``result_cache_hit`` marker.

Concurrency: the caches lock only around dict operations (never across
a compile or an execution); the store serializes mutation under its own
lock; everything else is immutable or request-scoped.
``tests/test_session.py`` hammers one session from many threads.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from fnmatch import fnmatchcase
from typing import Callable

from repro.engine.executor import (
    DEFAULT_MODE,
    ExecutionResult,
    check_mode,
    execute,
)
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

    def put(self, key, value, admit: Callable | None = None) -> None:
        """File ``value`` under ``key`` — unless ``admit()``, asked
        under the cache lock, says no."""
        if self.max_size <= 0:
            return
        with self._lock:
            if admit is not None and not admit():
                return
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)

    def evict_if(self, predicate: Callable) -> int:
        """Drop every entry for which ``predicate(key, value)`` holds;
        returns how many were dropped."""
        with self._lock:
            doomed = [k for k, v in self._entries.items()
                      if predicate(k, v)]
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
        #: whether a compile decision read document statistics: the
        #: cost ranking, or access paths over a store with indexes
        self._priced = ranking == "cost" \
            or session.database.store.indexes.enabled
        #: the pre-scan of :attr:`text` (None: no plan cache, no shape
        #: work), and whether the parser read exactly its literals
        self.shape = shape
        self.bindable = shape is not None and compiled.spans == shape.spans
        self._fixed: tuple[int, ...] | None = None

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

    def stale_after_update(self, name: str) -> bool:
        """Whether an update of document ``name`` invalidates this
        template: it priced its plans with statistics and a plan reads
        ``name`` (by ``doc()`` or a ``collection()`` pattern).  Nothing
        else a compile reads can change under an update."""
        return self._priced and any(
            name in documents or any(fnmatchcase(name, pattern)
                                     for pattern in patterns)
            for documents, patterns in (alt.sources()
                                        for alt in self._alternatives))

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

    # ------------------------------------------------------------------
    def lookup(self, mode: str | None = None, label: str | None = None
               ) -> tuple[tuple, ExecutionResult | None]:
        """The result-cache half of :meth:`execute`: ``(key, the cached
        result or None)``; never compiles, binds or executes.  Counts
        one lookup and raises on a bad mode or label as :meth:`execute`
        does — a label only a re-priced binding can have is a miss with
        a None key.  Continue a miss with ``execute(..., key=key)``."""
        session = self.session
        _, keyed = session._request(self, mode, label)
        key = None if keyed is None else session.result_key(self, keyed)
        return key, session._cached(key)

    def execute(self, mode: str | None = None, label: str | None = None,
                analyze: bool = False, tracer=None, metrics=None,
                timeout=_UNSET, use_result_cache: bool = True,
                snapshot=None,
                key: tuple | None = None) -> ExecutionResult:
        """One request: execute the best plan (or the alternative named
        ``label``) with a fresh request-scoped context.

        The result cache is consulted first, unless
        ``use_result_cache=False``, ``analyze=True`` or a ``tracer`` is
        attached (observed requests always execute), or a ``key`` is
        given (the caller missed under it in :meth:`lookup`; the result
        is stored under it).  ``timeout`` defaults to the session's.
        ``snapshot`` (a :class:`~repro.xmldb.document.StoreSnapshot`)
        pins the request to captured document versions; the result key
        then carries the *pinned* versions."""
        return self.session._execute_prepared(
            self, mode=mode, label=label, analyze=analyze,
            tracer=tracer, metrics=metrics, timeout=timeout,
            use_result_cache=use_result_cache,
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
                 ranking: str = "heuristic"):
        self.database = database
        self.default_mode = default_mode
        self.default_timeout = default_timeout
        self.ranking = ranking
        self._plan_cache = LRUCache(plan_cache_size)
        self._result_cache = LRUCache(result_cache_size)
        #: registrations and removals seen (the plan-cache key's third
        #: element)
        self._generation = 0
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
        """Store mutation hook (runs under the store lock).  Plans: a
        registration or removal bumps the generation and evicts every
        plan filed under an older one; an update evicts the templates
        :meth:`PreparedQuery.stale_after_update` names.  Results: the
        entries pinning a *superseded* version of the changed document
        — one populated against the current version is still exact."""
        if event == "update":
            self._plan_cache.evict_if(
                lambda _, prepared: prepared.stale_after_update(name))
        else:
            self._generation += 1
            generation = self._generation
            self._plan_cache.evict_if(lambda key, _: key[2] != generation)
        store = self.database.store
        current = store.get(name).seq if name in store else None
        self._result_cache.evict_if(
            lambda key, _: any(doc == name and seq != current
                               for doc, seq in key[2]))

    # ------------------------------------------------------------------
    # Prepare (plan cache)
    # ------------------------------------------------------------------
    def prepare(self, text: str, ranking: str | None = None,
                tracer=None) -> PreparedQuery:
        """The compiled/optimized form of ``text``: its shape's filed
        template bound to ``text``'s constants, compiled otherwise.
        Compilation runs outside the cache lock, so two threads racing
        on a cold shape may both compile — one result wins, both are
        correct (plans are immutable)."""
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
        key = self._plan_key(shape.key, ranking, self._generation)
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

    def _plan_key(self, shape_key: tuple, ranking: str | None,
                  generation: int) -> tuple:
        ranking = self.ranking if ranking is None else ranking
        return (shape_key, ranking, generation)

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
        store = self.database.store
        generation, epoch = self._generation, store.epoch
        with maybe_span(tracer, "prepare", "session", ranking=ranking):
            prepared = PreparedQuery(self, text, ranking, tracer=tracer,
                                     shape=shape)
        if shape is not None:
            key = self._plan_key(shape.key, ranking, generation)
            first = cache.get(key, count=False)
            if first is not None and not first.serves(text, shape):
                key = _fixed_key(key, text, shape, first.fixed)
            # A priced plan is not filed if the store changed while it
            # compiled (the epoch moves before the eviction runs).
            cache.put(key, prepared,
                      admit=lambda: not prepared._priced
                      or store.epoch == epoch)
        return prepared

    def lookup(self, text: str, mode: str | None = None,
               label: str | None = None) -> tuple:
        """The cache half of :meth:`execute`: never compiles, binds or
        executes, so an event loop may call it.  Returns ``(prepared,
        key, result)``, None for a miss (``(None, None, None)`` on a
        plan miss: the key needs the plan); a bad mode or label raises
        as :meth:`execute` would.  Continue a miss with
        :meth:`compile` then :meth:`PreparedQuery.lookup` (plan miss),
        then :meth:`PreparedQuery.execute` with ``key=key``."""
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
                snapshot=None) -> ExecutionResult:
        """Prepare-and-execute in one call — the server's request path."""
        prepared, plan_hit = self._prepare(text, ranking, tracer)
        if metrics is not None:
            name = "hit" if plan_hit else "miss"
            metrics.counter(f"session.plan_cache.{name}").inc()
        return prepared.execute(mode=mode, label=label, analyze=analyze,
                                tracer=tracer, metrics=metrics,
                                timeout=timeout,
                                use_result_cache=use_result_cache,
                                snapshot=snapshot)

    def doc_versions(self, alt: RewriteResult, resolver=None) -> tuple:
        """The referenced documents' ``(name, seq)`` pairs in sorted
        name order — the freshness half of the result-cache key.
        ``collection()`` patterns resolve against ``resolver`` (the
        request's pinned snapshot, else the live store) *at key time*,
        so a member's new version and a membership change both rotate
        the key."""
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
                 label: str | None) -> tuple:
        """``(mode, keyed alternative)`` of one request,
        validated before any result-cache lookup so a bogus mode or
        label fails alike on hits and misses.  The alternative is the
        template's (the result key's), or None for a label only a
        re-priced binding may have (see :meth:`PreparedQuery.lookup`)."""
        mode = self.default_mode if mode is None else mode
        check_mode(mode)
        return mode, prepared._keyed(label)

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
                          use_result_cache: bool,
                          snapshot=None,
                          key: tuple | None = None) -> ExecutionResult:
        mode, keyed = self._request(prepared, mode, label)
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
        target = self.database.store if snapshot is None else snapshot
        result = execute(alt.plan, target, mode=mode,
                         analyze=analyze, tracer=tracer, metrics=metrics,
                         timeout=timeout)
        if key is not None:
            # The result as the engine left it: the default engine's
            # column batch is immutable and stored as it is; a row list
            # (the other modes) is copied, its owner may mutate it.
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
    """Where a template for ``text`` goes when its shape's first cannot
    serve it: the shape key plus the fixed literals and their text."""
    return key + (fixed, _fixed_text(text, shape, fixed))
