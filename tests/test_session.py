"""Tests for the request-lifecycle layer (:mod:`repro.session`):
session/prepared-query split, plan + result caches, invalidation,
deadlines, and concurrent execution equivalence."""

from __future__ import annotations

import gc
import threading
import weakref

import pytest

from repro.api import Database
from repro.datagen import (
    BIB_DTD,
    REVIEWS_DTD,
    generate_bib,
    generate_reviews,
)
from repro.errors import DeadlineExceededError, UnknownDocumentError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.session import LRUCache, Session

NESTED_QUERY = '''
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
return
  <author><name> { $a1 } </name>
  { let $d2 := doc("bib.xml")
    for $b2 in $d2/book[$a1 = author]
    return $b2/title }
  </author>
'''

TITLES_QUERY = 'for $t in doc("bib.xml")//title return $t'

EXISTS_QUERY = '''
let $d1 := document("bib.xml")
for $t1 in $d1//book/title
where some $t2 in document("reviews.xml")//entry/title
      satisfies $t1 = $t2
return <book-with-review>{ $t1 }</book-with-review>
'''

SHAPES = (NESTED_QUERY, TITLES_QUERY, EXISTS_QUERY)
MODES = ("vectorized", "reference")


@pytest.fixture
def db() -> Database:
    db = Database()
    db.register_tree("bib.xml", generate_bib(10, 2, seed=5),
                     dtd_text=BIB_DTD)
    db.register_tree("reviews.xml", generate_reviews(10, seed=5),
                     dtd_text=REVIEWS_DTD)
    return db


# ----------------------------------------------------------------------
# LRUCache
# ----------------------------------------------------------------------
def test_lru_cache_evicts_least_recently_used():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1       # refresh a
    cache.put("c", 3)                # evicts b
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert cache.hits == 3 and cache.misses == 1


def test_lru_cache_size_zero_disables():
    cache = LRUCache(0)
    cache.put("a", 1)
    assert cache.get("a") is None
    assert len(cache) == 0


def test_lru_cache_evict_if():
    cache = LRUCache(8)
    for i in range(4):
        cache.put(("k", i), i)
    assert cache.evict_if(lambda key, _: key[1] % 2 == 0) == 2
    assert len(cache) == 2


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------
def test_prepare_reuses_compiled_query(db):
    with db.session() as session:
        first = session.prepare(NESTED_QUERY)
        second = session.prepare(NESTED_QUERY)
        assert first is second, \
            "the same text must come back from the plan cache"
        assert session.cache_stats()["plan_cache"]["hits"] == 1


def test_plan_cache_is_keyed_by_shape(db):
    """Texts that differ only in constants share one compiled template;
    each gets it bound to its own constants."""
    template = ('for $b in doc("bib.xml")//book where $b/@year > {} '
                'return $b/title')
    with db.session() as session:
        old = session.prepare(template.format(1990))
        new = session.prepare(template.format(2000))
        assert new.template is old and new is not old
        assert (old.values, new.values) == ((1990,), (2000,))
        assert "2000" in new.explain() and "1990" not in new.explain()
        stats = session.cache_stats()["plan_cache"]
        assert (stats["size"], stats["hits"], stats["misses"],
                stats["bindings"]) == (1, 1, 1, 1)
        # The template's own constants (however spelt) bind nothing.
        assert session.prepare(template.format("01990")) is old


def test_plan_cache_keyed_by_ranking(db):
    with db.session() as session:
        heuristic = session.prepare(NESTED_QUERY)
        cost = session.prepare(NESTED_QUERY, ranking="cost")
        assert heuristic is not cost
        assert session.prepare(NESTED_QUERY, ranking="cost") is cost


def test_prepared_query_api(db):
    with db.session() as session:
        prepared = session.prepare(NESTED_QUERY)
        assert prepared.best() is prepared.alternatives[0]
        assert "Ξ" in prepared.explain()
        nested = prepared.plan_named("nested")
        assert nested.label == "nested"
        with pytest.raises(KeyError):
            prepared.plan_named("hashjoin")
        result = prepared.execute(label="nested")
        assert result.output == db.execute(nested.plan).output


def test_plan_cache_records_per_request_metrics(db):
    with db.session() as session:
        cold = MetricsRegistry()
        session.execute(TITLES_QUERY, metrics=cold)
        warm = MetricsRegistry()
        session.execute(TITLES_QUERY, metrics=warm)
        assert cold.counter("session.plan_cache.miss").value == 1
        assert cold.counter("session.plan_cache.hit").value == 0
        assert warm.counter("session.plan_cache.hit").value == 1
        assert warm.counter("session.plan_cache.miss").value == 0


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
def test_result_cache_hit_is_marked_and_identical(db):
    with db.session() as session:
        miss = session.execute(NESTED_QUERY)
        hit = session.execute(NESTED_QUERY)
        assert not miss.cached and hit.cached
        assert hit.stats.get("result_cache_hit") is True
        assert hit.output == miss.output
        assert hit.rows == miss.rows


@pytest.mark.parametrize("mode", (None, "reference"))
def test_result_cache_hit_rows_are_isolated(db, mode):
    """Whatever the cache holds — the default engine's column batch or
    another mode's rows — the populating request and every hit get
    rows of their own."""
    with db.session() as session:
        miss = session.execute(TITLES_QUERY, mode=mode)
        miss.rows.append("mutated by the miss")
        first = session.execute(TITLES_QUERY, mode=mode)
        first.rows.append("mutated")
        second = session.execute(TITLES_QUERY, mode=mode)
        assert first.cached and second.cached
        assert second.rows == miss.rows[:-1] == first.rows[:-1]


def test_result_cache_stores_the_batch_unmaterialized(db, monkeypatch):
    """A miss does not turn the result into rows for the cache's sake,
    and a hit that only reads ``output`` / ``row_count`` never does."""
    from repro.engine.batch import Batch
    calls: list[int] = []
    real = Batch.to_rows
    monkeypatch.setattr(
        Batch, "to_rows", lambda batch: calls.append(1) or real(batch))
    with db.session() as session:
        miss = session.execute(TITLES_QUERY)
        hit = session.execute(TITLES_QUERY)
        assert hit.cached and hit.output == miss.output
        assert hit.row_count == miss.row_count > 0
        assert calls == []
        assert len(hit.rows) == hit.row_count
        assert calls == [1]


def test_result_cache_bypassed_for_observed_requests(db):
    """analyze/trace requests must do real work, not replay a cache
    entry; explicit opt-out bypasses too."""
    with db.session() as session:
        session.execute(NESTED_QUERY)
        assert session.execute(NESTED_QUERY, analyze=True).cached \
            is False
        assert session.execute(NESTED_QUERY,
                               tracer=Tracer()).cached is False
        assert session.execute(NESTED_QUERY,
                               use_result_cache=False).cached is False
        assert session.execute(NESTED_QUERY).cached is True


def test_result_cache_shared_across_query_texts_with_same_plan(db):
    """The cache key is the canonical plan digest, so two texts that
    optimize to the same plan share one entry."""
    with db.session() as session:
        session.execute(TITLES_QUERY)
        reformatted = ('for $t in doc("bib.xml")//title'
                       '\nreturn $t')
        result = session.execute(reformatted)
        assert result.cached


def test_result_cache_disabled_by_size_zero(db):
    with db.session(result_cache_size=0) as session:
        session.execute(TITLES_QUERY)
        assert session.execute(TITLES_QUERY).cached is False


def test_disabled_result_cache_is_never_keyed(db, monkeypatch):
    """A cache that cannot hit costs no digest and no document walk;
    each request still counts its one (missing) lookup."""
    monkeypatch.setattr(Session, "doc_versions", lambda *args: pytest.fail(
        "keyed a disabled result cache"))
    with db.session(result_cache_size=0) as session:
        session.execute(TITLES_QUERY)
        session.execute(TITLES_QUERY)
        assert session.prepare(TITLES_QUERY).best()._digest is None
        assert session.cache_stats()["result_cache"]["misses"] == 2


def test_document_references_die_with_their_plan(db):
    """``RewriteResult.sources()`` is memoized on the alternative, so an
    evicted plan takes its memo along instead of pinning it."""
    with db.session(plan_cache_size=1) as session:
        session.execute(NESTED_QUERY)
        alt = session.prepare(NESTED_QUERY).best()
        assert alt.sources() is alt.sources()
        assert alt.sources() == (frozenset({"bib.xml"}), frozenset())
        alive = weakref.ref(alt)
        del alt
        session.execute(TITLES_QUERY)  # evicts NESTED_QUERY's plan
        gc.collect()
        assert alive() is None


def test_lookup_never_compiles_or_executes(db):
    with db.session() as session:
        assert session.lookup(TITLES_QUERY) == (None, None, None)
        assert session.cache_stats()["plan_cache"]["size"] == 0
        prepared = session.prepare(TITLES_QUERY)
        found, key, result = session.lookup(TITLES_QUERY)
        assert (found, result) == (prepared, None)
        assert len(session._result_cache) == 0
        miss = prepared.execute(key=key)
        prepared_again, key_again, hit = session.lookup(TITLES_QUERY)
        assert prepared_again is prepared and key_again == key
        assert hit.cached and hit.output == miss.output
        with pytest.raises(ValueError):
            session.lookup(TITLES_QUERY, mode="bogus")
        with pytest.raises(KeyError):
            session.lookup(TITLES_QUERY, label="no-such-plan")
        stats = session.cache_stats()
        assert (stats["plan_cache"]["hits"],
                stats["plan_cache"]["misses"]) == (4, 2)
        assert (stats["result_cache"]["hits"],
                stats["result_cache"]["misses"]) == (1, 1)


def test_unknown_mode_rejected_even_on_cache_hit(db):
    with db.session() as session:
        session.execute(TITLES_QUERY)
        with pytest.raises(ValueError):
            session.execute(TITLES_QUERY, mode="bogus")


# ----------------------------------------------------------------------
# Invalidation
# ----------------------------------------------------------------------
def test_reregistering_document_evicts_caches(db):
    with db.session() as session:
        warm = session.execute(NESTED_QUERY)
        assert session.execute(NESTED_QUERY).cached
        db.unregister("bib.xml")
        db.register_tree("bib.xml", generate_bib(12, 2, seed=9),
                         dtd_text=BIB_DTD)
        fresh = session.execute(NESTED_QUERY)
        assert fresh.cached is False, \
            "a re-registered document must not serve stale results"
        assert fresh.output != warm.output
        assert session.execute(NESTED_QUERY).cached is True


def test_unregister_evicts_only_referencing_entries(db):
    with db.session() as session:
        session.execute(TITLES_QUERY)            # reads bib.xml
        session.execute(EXISTS_QUERY)            # reads both documents
        assert len(session._result_cache) == 2
        db.unregister("reviews.xml")
        # the exists entry (reads reviews.xml) is gone; the titles
        # entry survives the result cache, though its *plan* entry is
        # epoch-invalidated and recompiles
        assert len(session._result_cache) == 1
        assert session.execute(TITLES_QUERY).cached is True
        with pytest.raises(UnknownDocumentError):
            session.execute(EXISTS_QUERY)


def test_closed_session_detaches_listener(db):
    session = db.session()
    session.execute(TITLES_QUERY)
    session.close()
    db.unregister("bib.xml")                     # must not blow up
    assert session.cache_stats()["result_cache"]["size"] == 0


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_deadline_fires_in_every_mode(db, mode):
    with db.session() as session:
        with pytest.raises(DeadlineExceededError):
            session.execute(NESTED_QUERY, mode=mode, timeout=1e-9,
                            use_result_cache=False)


def test_session_default_timeout_and_override(db):
    with db.session(default_timeout=1e-9) as session:
        with pytest.raises(DeadlineExceededError):
            session.execute(TITLES_QUERY)
        # per-request override lifts the session default
        result = session.execute(TITLES_QUERY, timeout=None)
        assert result.output


def test_deadline_error_is_a_timeout(db):
    with db.session() as session:
        with pytest.raises(TimeoutError):
            session.execute(NESTED_QUERY, timeout=1e-9)


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------
def test_concurrent_execution_matches_serial(db):
    """N threads hammering one session with mixed shapes across all
    four modes must produce byte-identical output to serial runs, with
    per-request metrics that never see another request's counters —
    and, the shapes being warmed serially first, exactly one plan-cache
    miss per shape however many threads ask afterwards."""
    with db.session() as session:
        serial = {}
        for text in SHAPES:
            for mode in MODES:
                serial[(text, mode)] = session.execute(
                    text, mode=mode, use_result_cache=False).output
        assert session.cache_stats()["plan_cache"]["misses"] \
            == len(SHAPES)

        requests = [(text, mode) for text in SHAPES for mode in MODES]
        requests *= 3
        failures: list[str] = []
        barrier = threading.Barrier(8)

        def worker(worker_index: int) -> None:
            try:
                barrier.wait(timeout=30)
                for i, (text, mode) in enumerate(requests):
                    if i % 8 != worker_index:
                        continue
                    metrics = MetricsRegistry()
                    result = session.execute(text, mode=mode,
                                             metrics=metrics,
                                             use_result_cache=False)
                    if result.output != serial[(text, mode)]:
                        failures.append(
                            f"{mode}: output diverged under "
                            "concurrency")
                    plan_events = (
                        metrics.counter("session.plan_cache.hit").value
                        + metrics.counter(
                            "session.plan_cache.miss").value)
                    if plan_events != 1:
                        failures.append(
                            f"{mode}: {plan_events} plan-cache events "
                            "leaked into one request's metrics")
            except Exception as exc:  # pragma: no cover - diagnostics
                failures.append(f"worker {worker_index}: {exc!r}")

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, failures
        plan_cache = session.cache_stats()["plan_cache"]
        assert plan_cache["misses"] == len(SHAPES)
        assert plan_cache["hits"] == len(SHAPES) * (len(MODES) - 1) \
            + len(requests)


def test_concurrent_scan_stats_are_request_scoped(db):
    """A request's ScanStats must describe only its own execution —
    the deterministic counters of a small query are identical whether
    it runs alone or concurrently with heavier queries."""
    with db.session() as session:
        alone = session.execute(TITLES_QUERY, use_result_cache=False)
        baseline = dict(alone.stats)
        mismatches: list[dict] = []
        barrier = threading.Barrier(5)

        def small() -> None:
            barrier.wait(timeout=30)
            for _ in range(5):
                stats = dict(session.execute(
                    TITLES_QUERY, use_result_cache=False).stats)
                if stats != baseline:
                    mismatches.append(stats)

        def heavy() -> None:
            barrier.wait(timeout=30)
            for _ in range(3):
                session.execute(NESTED_QUERY, use_result_cache=False)

        threads = [threading.Thread(target=small) for _ in range(2)] \
            + [threading.Thread(target=heavy) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not mismatches, \
            "scan stats cross-contaminated between concurrent requests"


def test_concurrent_cold_prepare_is_safe(db):
    """Two threads racing on a cold shape may both compile; both must
    succeed and later requests must hit one cached entry."""
    with db.session() as session:
        outputs: list[str] = []
        barrier = threading.Barrier(4)

        def worker() -> None:
            barrier.wait(timeout=30)
            outputs.append(session.execute(
                NESTED_QUERY, use_result_cache=False).output)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(set(outputs)) == 1
        assert session.prepare(NESTED_QUERY) is \
            session.prepare(NESTED_QUERY)


# ----------------------------------------------------------------------
# Introspection
# ----------------------------------------------------------------------
def test_cache_stats_shape(db):
    with db.session() as session:
        session.execute(TITLES_QUERY)
        session.execute(TITLES_QUERY)
        stats = session.cache_stats()
        assert stats["plan_cache"]["size"] == 1
        assert stats["plan_cache"]["bindings"] == 0
        assert stats["result_cache"]["hits"] == 1
        assert stats["store_epoch"] == db.store.epoch
