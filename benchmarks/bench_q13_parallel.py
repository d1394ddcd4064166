"""E13 — parallel execution: multi-process scatter/gather over
shared-memory arenas.

Not a paper table: the paper's engine is single-threaded; this
benchmark measures what the parallel execution mode buys on the two
workload shapes it targets (see docs/parallelism.md):

- ``docs-shards`` — a sharded corpus queried through
  ``collection("shard-*.xml")``: inter-document sharding deals the
  member documents to worker processes and k-way-merges the fragments
  by ``(seq, pre)``;
- ``range-scan`` — one large document scanned via ``$d//itemtuple``:
  intra-document range partitioning slices the tag's pre-list into
  contiguous per-worker ranges.

Workers attach the frozen arenas from ``multiprocessing.shared_memory``
segments (zero copies), so the only per-query transfer is the result
rows.  Every measurement first asserts the parallel output is
byte-identical to the default (serial) engine's.

Speedup is machine-dependent (it needs actual cores), so the committed
baseline gates only the machine-independent ``parallel_tasks`` counter;
``speedup`` rides along and is asserted ≥2× only when the host has at
least 4 CPUs.  Run directly at scale::

    PYTHONPATH=src python benchmarks/bench_q13_parallel.py \\
        [items-per-shard] [range-items] [out.json]
"""

from __future__ import annotations

import os
import sys

from repro.api import CompiledQuery, Database, compile_query
from repro.bench.harness import write_json
from repro.datagen import ITEMS_DTD, generate_items
from repro.engine.executor import DEFAULT_MODE
from repro.obs.metrics import MetricsRegistry

SHARDS = 4
WORKERS = 4

Q13_QUERIES = {
    "docs-shards": '''
for $i1 in collection("shard-*.xml")//itemtuple
where $i1/reserveprice >= 490
return <pricey>{ $i1/itemno }</pricey>
''',
    "range-scan": '''
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple
where $i1/reserveprice >= 490
return <pricey>{ $i1/itemno }</pricey>
''',
}

_CACHE: dict[tuple[int, int],
             tuple[Database, dict[str, CompiledQuery]]] = {}


def compiled(per_shard: int, range_items: int, seed: int = 7
             ) -> tuple[Database, dict[str, CompiledQuery]]:
    key = (per_shard, range_items)
    if key not in _CACHE:
        db = Database()
        for shard in range(SHARDS):
            db.register_tree(f"shard-{shard}.xml",
                             generate_items(per_shard,
                                            seed=seed + shard),
                             dtd_text=ITEMS_DTD)
        db.register_tree("items.xml",
                         generate_items(range_items, seed=seed),
                         dtd_text=ITEMS_DTD)
        _CACHE[key] = (db, {name: compile_query(text, db)
                            for name, text in Q13_QUERIES.items()})
    return _CACHE[key]


def speedup_at(query: str, per_shard: int, range_items: int,
               repeat: int = 5, seed: int = 7) -> dict:
    """Measure serial (the default engine) vs parallel for one query
    at one scale; returns the comparison record."""
    db, queries = compiled(per_shard, range_items, seed=seed)
    plan = queries[query].best().plan
    serial_mode = DEFAULT_MODE

    serial_result = db.execute(plan, mode=serial_mode)
    metrics = MetricsRegistry()
    parallel_result = db.execute(plan, mode="parallel",
                                 workers=WORKERS, metrics=metrics)
    assert parallel_result.output == serial_result.output, \
        "parallel mode must be byte-identical to serial execution"
    assert parallel_result.rows == serial_result.rows, \
        "parallel mode must produce identical rows"
    counters = metrics.snapshot()["counters"]
    tasks = counters.get("parallel.tasks", 0)
    assert tasks == WORKERS, \
        f"{query}: expected {WORKERS} scatter tasks, got {tasks}"
    merge_mode = next((key.rsplit(".", 1)[1] for key in counters
                       if key.startswith("parallel.merge.")), "none")

    serial_s = parallel_s = float("inf")
    for _ in range(max(1, repeat)):
        serial_s = min(serial_s,
                       db.execute(plan, mode=serial_mode).elapsed)
        parallel_s = min(parallel_s,
                         db.execute(plan, mode="parallel",
                                    workers=WORKERS).elapsed)
    return {
        "query": query,
        "items": SHARDS * per_shard if query == "docs-shards"
        else range_items,
        "rows": len(serial_result.rows),
        "workers": WORKERS,
        "parallel_tasks": tasks,
        "merge_mode": merge_mode,
        "serial_mode": serial_mode,
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s
        else float("inf"),
    }


def main(argv: list[str]) -> int:
    per_shard = int(argv[0]) if argv else 1200
    # The range doc defaults to 16x a shard: intra-document slicing
    # pays a per-result-row transfer charge, so it needs a deeper scan
    # than the sharded corpus before the split pulls clear of serial.
    range_items = int(argv[1]) if len(argv) > 1 else 16 * per_shard
    records = [speedup_at(query, per_shard, range_items)
               for query in Q13_QUERIES]
    print(f"Q13 (parallel scatter/gather), shards={SHARDS}x{per_shard},"
          f" range-doc={range_items}, workers={WORKERS}")
    for record in records:
        print(f"  {record['query']:11s}: {record['serial_mode']:10s} "
              f"{record['serial_seconds']:.4f}s, parallel "
              f"{record['parallel_seconds']:.4f}s "
              f"-> {record['speedup']:.1f}x "
              f"[{record['rows']} rows, {record['parallel_tasks']} "
              f"tasks, merge={record['merge_mode']}]")
    if len(argv) > 2:
        write_json(argv[2], {"schema": "repro-bench/1",
                             "queries": {"q13_parallel": records}})
        print(f"  JSON written to {argv[2]}")
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        for record in records:
            assert record["speedup"] >= 2.0, \
                (f"{record['query']}: expected >=2x parallel speedup "
                 f"on a {cpus}-CPU host, got {record['speedup']:.1f}x")
    else:
        print(f"  note: host has {cpus} CPU(s) — speedup recorded but "
              f"not asserted (needs >=4)")
    from repro.engine.parallel import close_pool
    close_pool()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
