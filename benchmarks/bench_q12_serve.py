"""E12 — the serving path: prepared queries, caches, concurrent clients.

Not a paper table: the paper assumes a database *server* context where
the same query shapes arrive repeatedly, and this benchmark measures
what PR 8's request-lifecycle layer buys in exactly that setting.
Three request paths over the seeded auction documents:

- **cold** — every request pays the full pipeline: lex → parse →
  normalize → translate → unnest/optimize → execute (a fresh
  :class:`~repro.session.Session` per request, so nothing is reused);
- **prepared** — the plan cache is warm: requests reuse the compiled
  :class:`~repro.session.PreparedQuery` and only execute (the result
  cache is bypassed so the number isolates the plan cache's effect);
- **cached** — both caches warm: the request is answered from the
  result cache keyed by ``(plan digest, document versions)``.

The gated metrics are **dimensionless ratios** (both legs ride the
same machine):

- ``prepared_speedup`` = cold / prepared — recorded on the scan
  shapes, where per-request optimization dominates tiny-document
  execution; the acceptance criterion is ≥2× (the nested
  ``popular-items`` shape rides along unrated here: its execution
  dwarfs compilation, so the ratio would sit in the gate's noise);
- ``result_cache_speedup`` = prepared / cached — recorded on the
  nested shape, whose prepared leg is large enough that the O(lookup)
  hit wins by orders of magnitude (on the scan shapes both legs are
  tens of microseconds and the ratio is timing noise);
- ``plan_cache_hit_rate`` — from the concurrent serving run below;
  deterministic because each shape is warmed serially first, so
  exactly one miss per shape.

A serving section then runs the real :class:`~repro.server.app.
QueryServer` (port 0, in-process asyncio loop) under concurrent
client threads posting the mixed shapes, and records p50/p99 latency
and QPS — machine-dependent, so they ride along ungated.  Run
directly for the speedup check::

    PYTHONPATH=src python benchmarks/bench_q12_serve.py \\
        [items] [bids] [out.json]

which asserts the ≥2× prepared-vs-cold speedup on both scan shapes
(the 2-core dev box measures 2.7–4.7×, under the former default
engine as under this one; the 9× first committed came from another
host) and ≥5× result-cache speedup on the nested shape.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
import urllib.request

import pytest

from repro.api import Database
from repro.bench.harness import write_json
from repro.datagen import BIDS_DTD, ITEMS_DTD, generate_bids, \
    generate_items

Q12_QUERIES = {
    "bids-scan": '''
let $d1 := doc("bids.xml")
for $b1 in $d1//bidtuple
where $b1/bid >= 980
return <big>{ $b1/itemno }</big>
''',
    "items-scan": '''
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple
where $i1/reserveprice >= 450
return <pricey>{ $i1/itemno }</pricey>
''',
    "popular-items": '''
let $d1 := doc("bids.xml")
for $i1 in distinct-values($d1//itemno)
where count($d1//bidtuple[itemno = $i1]) >= 3
return <popular-item>{ $i1 }</popular-item>
''',
}

#: shapes the ≥2× prepared-speedup acceptance criterion applies to
#: (optimization-dominated; see the module docstring)
GATED_SHAPES = ("bids-scan", "items-scan")

SIZES = ((50, 250), (100, 500))

_DB_CACHE: dict[tuple[int, int], Database] = {}


def database(items: int, bids: int, seed: int = 7) -> Database:
    key = (items, bids)
    if key not in _DB_CACHE:
        db = Database(index_mode="lazy")
        db.register_tree("bids.xml",
                         generate_bids(bids, items=items, seed=seed),
                         dtd_text=BIDS_DTD)
        db.register_tree("items.xml", generate_items(items, seed=seed),
                         dtd_text=ITEMS_DTD)
        _DB_CACHE[key] = db
    return _DB_CACHE[key]


# ----------------------------------------------------------------------
# Request-path comparison (cold / prepared / cached)
# ----------------------------------------------------------------------
def lifecycle_at(query: str, items: int, bids: int,
                 repeat: int = 7) -> dict:
    """Measure the three request paths for one shape at one scale."""
    db = database(items, bids)
    text = Q12_QUERIES[query]

    cold_s = float("inf")
    for _ in range(max(1, repeat)):
        with db.session() as session:     # nothing cached
            start = time.perf_counter()
            cold_result = session.execute(text, use_result_cache=False)
            cold_s = min(cold_s, time.perf_counter() - start)

    with db.session() as session:
        prepared_result = session.execute(text, use_result_cache=False)
        assert prepared_result.output == cold_result.output, \
            "the prepared path must return byte-identical output"
        prepared_s = float("inf")
        for _ in range(max(1, repeat)):
            start = time.perf_counter()
            session.execute(text, use_result_cache=False)
            prepared_s = min(prepared_s, time.perf_counter() - start)

        session.execute(text)             # populate the result cache
        cached_s = float("inf")
        for _ in range(max(1, repeat)):
            start = time.perf_counter()
            cached_result = session.execute(text)
            cached_s = min(cached_s, time.perf_counter() - start)
        assert cached_result.cached, "expected a result-cache hit"
        assert cached_result.output == cold_result.output, \
            "a result-cache hit must return byte-identical output"

    record = {
        "query": query,
        "items": items,
        "bids": bids,
        "rows": len(cold_result.rows),
        "cold_seconds": cold_s,
        "prepared_seconds": prepared_s,
        "cached_seconds": cached_s,
    }
    # Each gated ratio appears only on the records where it is robust:
    # prepared-vs-cold on the optimization-dominated scan shapes (the
    # ≥2× criterion), result-cache-vs-prepared on the
    # execution-dominated nested shape (where prepared work is large
    # enough that a ~20µs lookup wins by orders of magnitude — on the
    # scan shapes both legs are tens of microseconds and the ratio is
    # timing noise).
    if query in GATED_SHAPES:
        record["prepared_speedup"] = cold_s / prepared_s \
            if prepared_s else float("inf")
    else:
        record["result_cache_speedup"] = prepared_s / cached_s \
            if cached_s else float("inf")
    return record


# ----------------------------------------------------------------------
# Concurrent serving (real server, client threads)
# ----------------------------------------------------------------------
def serve_at(items: int, bids: int, clients: int = 4,
             requests_per_client: int = 25) -> dict:
    """Run the QueryServer in-process and hammer it with concurrent
    clients posting the mixed shapes; returns the serving record."""
    import asyncio

    from repro.server.app import QueryServer, ServerConfig

    db = database(items, bids)
    session = db.session(default_timeout=30.0)
    server = QueryServer(session, ServerConfig(
        port=0, max_concurrency=max(2, clients // 2),
        queue_depth=clients * requests_per_client))

    loop = asyncio.new_event_loop()
    ready = threading.Event()

    async def run() -> None:
        await server.start()
        ready.set()
        await server.serve_forever()

    def runner() -> None:
        try:
            loop.run_until_complete(run())
        except asyncio.CancelledError:
            pass

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    if not ready.wait(10):
        raise RuntimeError("query server did not start")
    host, port = server.address
    url = f"http://{host}:{port}/query"

    def post(payload: dict) -> dict:
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"}, method="POST")
        with urllib.request.urlopen(request, timeout=30) as reply:
            return json.loads(reply.read().decode("utf-8"))

    shapes = list(Q12_QUERIES.values())
    for text in shapes:                   # exactly one miss per shape
        post({"query": text})

    latencies: list[float] = []
    lock = threading.Lock()

    def client(index: int) -> None:
        mine: list[float] = []
        for i in range(requests_per_client):
            text = shapes[(index + i) % len(shapes)]
            start = time.perf_counter()
            reply = post({"query": text})
            mine.append(time.perf_counter() - start)
            assert reply["rows"] >= 0
        with lock:
            latencies.extend(mine)

    workers = [threading.Thread(target=client, args=(c,))
               for c in range(clients)]
    wall_start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    wall = time.perf_counter() - wall_start

    stats = session.cache_stats()
    plan = stats["plan_cache"]
    result = stats["result_cache"]
    loop.call_soon_threadsafe(
        lambda: [task.cancel() for task in asyncio.all_tasks(loop)])
    thread.join(timeout=5)
    session.close()

    latencies.sort()
    total = len(latencies)
    return {
        "query": "serve-mixed",
        "items": items,
        "bids": bids,
        "clients": clients,
        "requests": total,
        "qps": total / wall if wall else float("inf"),
        "p50_ms": statistics.median(latencies) * 1e3,
        "p99_ms": latencies[min(total - 1, int(total * 0.99))] * 1e3,
        "plan_cache_hit_rate":
            plan["hits"] / (plan["hits"] + plan["misses"]),
        "result_cache_hit_rate":
            result["hits"] / (result["hits"] + result["misses"]),
    }


# ----------------------------------------------------------------------
# pytest-benchmark hooks (comparison runs: pytest benchmarks/)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("items,bids", SIZES)
@pytest.mark.parametrize("query", tuple(Q12_QUERIES))
def test_q12_cold(benchmark, query, items, bids):
    db = database(items, bids)
    text = Q12_QUERIES[query]
    benchmark.group = f"q12 {query}, items={items} bids={bids}"

    def cold():
        with db.session() as session:
            return session.execute(text, use_result_cache=False).output

    benchmark(cold)


@pytest.mark.parametrize("items,bids", SIZES)
@pytest.mark.parametrize("query", tuple(Q12_QUERIES))
def test_q12_prepared(benchmark, query, items, bids):
    db = database(items, bids)
    text = Q12_QUERIES[query]
    benchmark.group = f"q12 {query}, items={items} bids={bids}"
    with db.session() as session:
        session.execute(text, use_result_cache=False)
        benchmark(lambda: session.execute(
            text, use_result_cache=False).output)


@pytest.mark.parametrize("items,bids", SIZES)
@pytest.mark.parametrize("query", tuple(Q12_QUERIES))
def test_q12_cached(benchmark, query, items, bids):
    db = database(items, bids)
    text = Q12_QUERIES[query]
    benchmark.group = f"q12 {query}, items={items} bids={bids}"
    with db.session() as session:
        session.execute(text)
        benchmark(lambda: session.execute(text).output)


# ----------------------------------------------------------------------
def main(argv: list[str]) -> int:
    items = int(argv[0]) if argv else 100
    bids = int(argv[1]) if len(argv) > 1 else items * 5
    records = [lifecycle_at(query, items, bids)
               for query in Q12_QUERIES]
    serving = serve_at(items, bids)
    print(f"Q12 (serving path), items={items}, bids={bids}")
    for record in records:
        prepared_x = record["cold_seconds"] / record["prepared_seconds"]
        cached_x = record["prepared_seconds"] / record["cached_seconds"]
        print(f"  {record['query']:14s}: cold "
              f"{record['cold_seconds'] * 1e3:7.2f}ms, prepared "
              f"{record['prepared_seconds'] * 1e3:7.3f}ms "
              f"({prepared_x:.1f}x), cached "
              f"{record['cached_seconds'] * 1e6:6.0f}us "
              f"({cached_x:.0f}x) [{record['rows']} rows]")
    print(f"  {serving['query']:14s}: {serving['requests']} requests, "
          f"{serving['clients']} clients -> {serving['qps']:.0f} QPS, "
          f"p50 {serving['p50_ms']:.2f}ms, p99 {serving['p99_ms']:.2f}ms, "
          f"plan-cache hit rate {serving['plan_cache_hit_rate']:.3f}")
    if len(argv) > 2:
        write_json(argv[2], {"schema": "repro-bench/1",
                             "queries": {"q12_serve":
                                         records + [serving]}})
        print(f"  JSON written to {argv[2]}")
    for record in records:
        if record["query"] in GATED_SHAPES:
            assert record["prepared_speedup"] >= 2.0, \
                (f"{record['query']}: expected >=2x prepared vs cold, "
                 f"got {record['prepared_speedup']:.1f}x")
        else:
            assert record["result_cache_speedup"] >= 5.0, \
                (f"{record['query']}: expected O(lookup) result-cache "
                 f"hits (>=5x), got "
                 f"{record['result_cache_speedup']:.1f}x")
        assert record["cached_seconds"] <= record["prepared_seconds"], \
            f"{record['query']}: a result-cache hit must not be slower"
    assert serving["plan_cache_hit_rate"] >= 0.9, \
        "warmed shapes must hit the plan cache"
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
