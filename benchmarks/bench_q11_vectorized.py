"""E11 — vectorized execution: batch-at-a-time scans over arena columns.

Not a paper table: the paper's engine is tuple-at-a-time; this
benchmark measures what PR 7's batch-at-a-time strategy buys on the
workload class it targets — selective scan-filter queries where the
per-tuple interpretation overhead (generator hops, ``Tup`` copies,
per-row scalar dispatch) dominates.  The vectorized engine instead
moves whole batches through the plan: the Υ scan resolves to the
arena's per-tag pre lists, the hoisted ``where`` clause fuses into one
selection-vector pass reading string values straight off the arena
columns, and only surviving rows are ever materialized as tuples.

Two queries over the seeded auction documents:

- ``bids-scan`` — bids with ``bid >= 980`` (every ``bidtuple`` has a
  numeric ``bid``; the filter is highly selective);
- ``items-scan`` — items with ``reserveprice >= 450`` (only ~40% of
  items carry a ``reserveprice`` at all, so the pass is NULL-heavy).

The gated ``speedup`` metric is vectorized vs pipelined.  Run directly
for the speedup check at scale::

    PYTHONPATH=src python benchmarks/bench_q11_vectorized.py \\
        [items] [bids] [out.json]

which asserts the ≥5× speedup this PR's acceptance criterion names
on both queries (comfortably above it at the default
4000 items × 20000 bids).
"""

from __future__ import annotations

import sys

import pytest

from repro.api import CompiledQuery, Database, compile_query
from repro.bench.harness import write_json
from repro.datagen import BIDS_DTD, ITEMS_DTD, generate_bids, \
    generate_items

Q11_QUERIES = {
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
}

SIZES = ((400, 2000), (1000, 5000))

_CACHE: dict[tuple[int, int],
             tuple[Database, dict[str, CompiledQuery]]] = {}


def compiled(items: int, bids: int, seed: int = 7
             ) -> tuple[Database, dict[str, CompiledQuery]]:
    key = (items, bids)
    if key not in _CACHE:
        db = Database()
        db.register_tree("bids.xml",
                         generate_bids(bids, items=items, seed=seed),
                         dtd_text=BIDS_DTD)
        db.register_tree("items.xml", generate_items(items, seed=seed),
                         dtd_text=ITEMS_DTD)
        _CACHE[key] = (db, {name: compile_query(text, db)
                            for name, text in Q11_QUERIES.items()})
    return _CACHE[key]


@pytest.mark.parametrize("items,bids", SIZES)
@pytest.mark.parametrize("mode", ("pipelined", "vectorized"))
@pytest.mark.parametrize("query", tuple(Q11_QUERIES))
def test_q11_by_size(benchmark, query, mode, items, bids):
    db, queries = compiled(items, bids)
    plan = queries[query].best().plan
    benchmark.group = f"q11 {query}, items={items} bids={bids}"
    benchmark(lambda: db.execute(plan, mode=mode).output)


def speedup_at(query: str, items: int, bids: int, repeat: int = 5,
               seed: int = 7) -> dict:
    """Measure pipelined vs vectorized for one query at one scale;
    returns the comparison record."""
    db, queries = compiled(items, bids, seed=seed)
    plan = queries[query].best().plan
    pipelined_result = db.execute(plan, mode="pipelined")
    vectorized_result = db.execute(plan, mode="vectorized")
    assert vectorized_result.output == pipelined_result.output, \
        "vectorized mode must be byte-identical to pipelined mode"
    assert vectorized_result.rows == pipelined_result.rows, \
        "vectorized mode must produce identical rows"
    pipelined_s = vectorized_s = float("inf")
    for _ in range(max(1, repeat)):
        pipelined_s = min(pipelined_s,
                          db.execute(plan, mode="pipelined").elapsed)
        vectorized_s = min(vectorized_s,
                           db.execute(plan, mode="vectorized").elapsed)
    return {
        "query": query,
        "items": items,
        "bids": bids,
        "rows": len(pipelined_result.rows),
        "pipelined_seconds": pipelined_s,
        "vectorized_seconds": vectorized_s,
        "speedup": pipelined_s / vectorized_s if vectorized_s
        else float("inf"),
    }


def main(argv: list[str]) -> int:
    items = int(argv[0]) if argv else 4000
    bids = int(argv[1]) if len(argv) > 1 else items * 5
    records = [speedup_at(query, items, bids)
               for query in Q11_QUERIES]
    print(f"Q11 (vectorized scans), items={items}, bids={bids}")
    for record in records:
        print(f"  {record['query']:10s}: pipelined "
              f"{record['pipelined_seconds']:.4f}s, vectorized "
              f"{record['vectorized_seconds']:.4f}s "
              f"-> {record['speedup']:.1f}x "
              f"[{record['rows']} rows]")
    if len(argv) > 2:
        write_json(argv[2], {"schema": "repro-bench/1",
                             "queries": {"q11_vectorized": records}})
        print(f"  JSON written to {argv[2]}")
    for record in records:
        assert record["speedup"] >= 5.0, \
            (f"{record['query']}: expected >=5x speedup, "
             f"got {record['speedup']:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
