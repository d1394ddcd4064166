"""E8 — pipelined execution: short-circuit exists over the auction data.

Not a paper table: the paper's engine (Natix) pipelines its operators,
so its nested-plan timings already include first-witness semantics; our
materializing default engine pays all-tuples cost per outer tuple
instead.  Q8 asks, per auction item, whether *any* bid exists for it:

    for $i1 in doc("items.xml")/items/itemtuple
    where exists(for $b2 in doc("bids.xml")/bids/bidtuple
                 where $b2/itemno = $i1/itemno return $b2) ...

Under the default mode the nested plan filters and materializes all
bids per item before ``exists()`` looks at the result; under
``mode="pipelined"`` the same plan stops at the first matching bid —
first-witness instead of all-tuples cost, with the inner document walk
itself stopping early (node visits drop by the same factor).  Run
directly for the speedup check at scale::

    PYTHONPATH=src python benchmarks/bench_q8_pipeline.py \\
        [items] [bids] [out.json]

which asserts the ≥5× speedup this PR's acceptance criterion names
(comfortably >40× at the default 60 items × 3000 bids).
"""

from __future__ import annotations

import sys
import time

import pytest

from repro.api import CompiledQuery, Database, compile_query
from repro.bench.harness import time_plan, write_json
from repro.datagen import BIDS_DTD, ITEMS_DTD, generate_bids, \
    generate_items
from repro.engine.context import EvalContext
from repro.engine.executor import DEFAULT_MODE
from repro.engine.pipeline import run_pipelined

Q8_EXISTS = '''
let $d1 := doc("items.xml")
for $i1 in $d1/items/itemtuple
where exists(
  for $b2 in doc("bids.xml")/bids/bidtuple
  where $b2/itemno = $i1/itemno
  return $b2)
return
  <hot-item>
    { $i1/itemno }
  </hot-item>
'''

SIZES = ((10, 200), (20, 1000))

_CACHE: dict[tuple[int, int], tuple[Database, CompiledQuery]] = {}


def compiled(items: int, bids: int,
             seed: int = 7) -> tuple[Database, CompiledQuery]:
    key = (items, bids)
    if key not in _CACHE:
        db = Database()
        db.register_tree("bids.xml",
                         generate_bids(bids, items=items, seed=seed),
                         dtd_text=BIDS_DTD)
        db.register_tree("items.xml", generate_items(items, seed=seed),
                         dtd_text=ITEMS_DTD)
        _CACHE[key] = (db, compile_query(Q8_EXISTS, db))
    return _CACHE[key]


@pytest.mark.parametrize("items,bids", SIZES)
@pytest.mark.parametrize("mode", (DEFAULT_MODE, "pipelined"))
def test_q8_by_size(benchmark, mode, items, bids):
    db, query = compiled(items, bids)
    plan = query.plan_named("nested").plan
    benchmark.group = f"q8 exists, items={items} bids={bids}"
    benchmark(lambda: db.execute(plan, mode=mode).output)


def speedup_at(items: int, bids: int, repeat: int = 3,
               seed: int = 7) -> dict:
    """Measure the materializing default engine vs pipelined at one
    scale; returns the comparison."""
    db, query = compiled(items, bids, seed=seed)
    plan = query.plan_named("nested").plan
    materializing_result = db.execute(plan)
    pipelined_result = db.execute(plan, mode="pipelined")
    assert pipelined_result.output == materializing_result.output, \
        "pipelined mode must be byte-identical to the default mode"
    materializing_s = min(time_plan(db, plan, repeat=repeat),
                          materializing_result.elapsed)
    pipelined_s = float("inf")
    for _ in range(max(1, repeat)):
        pipelined_s = min(pipelined_s,
                          db.execute(plan, mode="pipelined").elapsed)
    return {
        "items": items,
        "bids": bids,
        "hot_items": pipelined_result.output.count("<hot-item>"),
        "materializing_seconds": materializing_s,
        "pipelined_seconds": pipelined_s,
        "speedup": materializing_s / pipelined_s if pipelined_s
        else float("inf"),
        "materializing_node_visits":
            materializing_result.stats["node_visits"],
        "pipelined_node_visits": pipelined_result.stats["node_visits"],
    }


def tracing_overhead_when_disabled(items: int, bids: int,
                                   repeat: int = 9,
                                   seed: int = 7) -> dict:
    """Cost of the observability hooks when no tracer/metrics is
    attached, as a fraction of the uninstrumented engine.

    The floor runs the pipelined engine with ``path=None``, which
    skips every per-operator instrumentation check at every level (the
    same bypass nested subscript plans use); the measured leg runs the
    identical plan through the normal path, where each operator pull
    tests ``ctx.tracer``/``ctx.metrics`` and finds them ``None``.  The
    two legs are interleaved and the minimum of each is compared, so a
    load spike hits both or neither."""
    db, query = compiled(items, bids, seed=seed)
    plan = query.plan_named("nested").plan

    def drain(path):
        ctx = EvalContext(db.store)
        start = time.perf_counter()
        for _ in run_pipelined(plan, ctx, path=path):
            pass
        return time.perf_counter() - start

    drain(None), drain(())          # warm both legs
    floor_s = disabled_s = float("inf")
    for _ in range(max(1, repeat)):
        floor_s = min(floor_s, drain(None))
        disabled_s = min(disabled_s, drain(()))
    overhead = disabled_s / floor_s - 1.0 if floor_s else 0.0
    return {
        "floor_seconds": floor_s,
        "disabled_seconds": disabled_s,
        "disabled_overhead_pct": overhead * 100.0,
    }


def main(argv: list[str]) -> int:
    items = int(argv[0]) if argv else 60
    bids = int(argv[1]) if len(argv) > 1 else items * 50
    comparison = speedup_at(items, bids)
    overhead = tracing_overhead_when_disabled(items, bids)
    comparison.update(overhead)
    print(f"Q8 (short-circuit exists), items={items}, bids={bids}, "
          f"hot items={comparison['hot_items']}")
    print(f"  default   : {comparison['materializing_seconds']:.4f}s "
          f"({comparison['materializing_node_visits']} node visits)")
    print(f"  pipelined : {comparison['pipelined_seconds']:.4f}s "
          f"({comparison['pipelined_node_visits']} node visits)")
    print(f"  speedup   : {comparison['speedup']:.1f}x")
    print(f"  tracing overhead when disabled: "
          f"{comparison['disabled_overhead_pct']:+.2f}% "
          f"(floor {comparison['floor_seconds']:.4f}s, "
          f"hooks-off {comparison['disabled_seconds']:.4f}s)")
    if len(argv) > 2:
        write_json(argv[2], {"schema": "repro-bench/1",
                             "queries": {"q8_pipeline": [comparison]}})
        print(f"  JSON written to {argv[2]}")
    assert comparison["speedup"] >= 5.0, \
        f"expected >=5x speedup, got {comparison['speedup']:.1f}x"
    # <3% is the acceptance bar; the 1ms absolute allowance keeps a
    # sub-millisecond timer blip on a tiny run from failing the build.
    assert comparison["disabled_seconds"] <= \
        comparison["floor_seconds"] * 1.03 + 1e-3, \
        "observability hooks must cost <3% when disabled, measured " \
        f"{comparison['disabled_overhead_pct']:+.2f}%"
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
