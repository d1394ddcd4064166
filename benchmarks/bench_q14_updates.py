"""E14 — live updates: incremental delta maintenance vs full
re-registration.

Not a paper table: the paper's documents are static; this benchmark
measures what the versioned delta arenas (``xmldb/delta.py``, see
docs/updates.md) buy a mixed read/update workload over the frozen
"everything is immutable" alternative, which would re-register the
whole document for every change:

- **update latency** — one ``Replace`` of an ``itemtuple`` subtree
  through ``DocumentStore.update`` (columnar splice + incremental
  path/value index maintenance, ``index_mode="eager"``), against
  serializing the current version and re-registering it from text
  (re-parse, re-encode, eager index rebuild).  The ratio is the gated
  ``update_speedup`` — both legs ride the same machine, so it is
  machine-independent; the committed floor is 5x and the script
  asserts it at CI scale.
- **read interference** — the same scan-filter query timed on a quiet
  store and interleaved with updates.  MVCC readers never block on
  writers (each query pins a snapshot), so the interleaved latency
  should track the quiet one; the ratio rides along ungated (it sits
  near 1x, inside the timing-noise band the gate refuses to judge).
- **maintenance counters** — ``incremental_applies`` /
  ``full_builds`` from the index manager pin that the update path
  really is incremental: one apply per update, and full builds only
  for registrations.  Deterministic, and gated exactly.

Every measurement round first asserts the updated store answers the
read query byte-identically to a fresh database registered from the
updated version's serialization — the incremental path must never
drift from re-parse-from-scratch semantics.  Run directly at scale::

    PYTHONPATH=src python benchmarks/bench_q14_updates.py \\
        [items] [out.json]
"""

from __future__ import annotations

import sys
import time

from repro.api import Database, compile_query
from repro.bench.harness import write_json
from repro.datagen import ITEMS_DTD, generate_items
from repro.xmldb.delta import Replace
from repro.xmldb.node import element
from repro.xmldb.serialize import serialize

UPDATES = 20
READS = 5

READ_QUERY = '''
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple
where $i1/reserveprice >= 490
return <pricey>{ $i1/itemno }</pricey>
'''


def build_db(items: int, seed: int = 7) -> Database:
    db = Database(index_mode="eager")
    db.register_tree("items.xml", generate_items(items, seed=seed),
                     dtd_text=ITEMS_DTD)
    return db


def replacement(k: int):
    """A fresh ``itemtuple`` subtree whose reserveprice (499) lands in
    the read query's result — every update visibly changes the rows."""
    return element("itemtuple",
                   element("itemno", f"updated-{k:04d}"),
                   element("description", f"refreshed item {k}"),
                   element("offered_by", "u9999"),
                   element("reserveprice", "499"))


def nth_item_pre(db: Database, k: int) -> int:
    rows = db.store.get("items.xml").arena.tag_rows("itemtuple")
    return rows[k % len(rows)]


def assert_differential(db: Database, plan) -> None:
    """The updated store must answer exactly like a database freshly
    registered from the updated version's serialization."""
    text = serialize(db.store.get("items.xml").root)
    scratch = Database(index_mode="eager")
    scratch.register_text("items.xml", text, dtd_text=ITEMS_DTD)
    scratch_plan = compile_query(READ_QUERY, scratch).best().plan
    live = db.execute(plan)
    fresh = scratch.execute(scratch_plan)
    assert live.output == fresh.output, \
        "updated store diverged from re-parse-from-scratch"
    assert serialize(db.store.get("items.xml").root) == \
        serialize(scratch.store.get("items.xml").root)


def measure(items: int, seed: int = 7) -> dict:
    db = build_db(items, seed=seed)
    plan = compile_query(READ_QUERY, db).best().plan
    db.execute(plan)  # warm any lazily built structures

    # Quiet-store read latency.
    read_quiet = min(db.execute(plan).elapsed for _ in range(READS))

    # Update latency: Replace one itemtuple per round, timed around
    # the whole publish (splice + incremental index maintenance +
    # version bookkeeping).
    update_s = float("inf")
    for k in range(UPDATES):
        ops = Replace(nth_item_pre(db, k), replacement(k))
        start = time.perf_counter()
        db.update("items.xml", ops)
        update_s = min(update_s, time.perf_counter() - start)
    applies = db.store.indexes.incremental_applies
    assert applies == UPDATES, \
        f"expected {UPDATES} incremental applies, got {applies}"
    assert_differential(db, plan)

    # Interleaved read latency: the reader pins a snapshot, so updates
    # landing around it must not change what it costs.
    read_mixed = float("inf")
    for k in range(READS):
        db.update("items.xml",
                  Replace(nth_item_pre(db, UPDATES + k),
                          replacement(UPDATES + k)))
        read_mixed = min(read_mixed, db.execute(plan).elapsed)

    # Full re-registration latency for the same logical change: the
    # only update path a strictly-frozen store offers.
    text = serialize(db.store.get("items.xml").root)
    rereg_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        db.unregister("items.xml")
        db.register_text("items.xml", text, dtd_text=ITEMS_DTD)
        rereg_s = min(rereg_s, time.perf_counter() - start)

    rows = len(db.execute(plan).rows)
    record = {
        "query": "replace-item",
        "items": items,
        "updates": UPDATES,
        "rows": rows,
        "update_seconds": update_s,
        "rereg_seconds": rereg_s,
        "update_speedup": rereg_s / update_s if update_s
        else float("inf"),
        "incremental_applies": applies,
        "full_builds": db.store.indexes.full_builds,
        "read_quiet_seconds": read_quiet,
        "read_mixed_seconds": read_mixed,
        "read_interference": read_mixed / read_quiet if read_quiet
        else float("inf"),
    }
    return record


def main(argv: list[str]) -> int:
    items = int(argv[0]) if argv else 4000
    record = measure(items)
    print(f"Q14 (live updates), items={items}, "
          f"updates={record['updates']}")
    print(f"  update    : {record['update_seconds'] * 1e3:8.3f} ms "
          f"(incremental index maintenance, "
          f"{record['incremental_applies']} applies)")
    print(f"  re-register: {record['rereg_seconds'] * 1e3:8.3f} ms "
          f"(re-parse + eager rebuild)")
    print(f"  -> update_speedup {record['update_speedup']:.1f}x")
    print(f"  read quiet {record['read_quiet_seconds'] * 1e3:.3f} ms, "
          f"interleaved {record['read_mixed_seconds'] * 1e3:.3f} ms "
          f"-> interference {record['read_interference']:.2f}x "
          f"[{record['rows']} rows]")
    if len(argv) > 1:
        write_json(argv[1], {"schema": "repro-bench/1",
                             "queries": {"q14_updates": [record]}})
        print(f"  JSON written to {argv[1]}")
    if items >= 2000:
        assert record["update_speedup"] >= 5.0, \
            (f"expected >=5x update speedup over re-registration, "
             f"got {record['update_speedup']:.1f}x")
    else:
        print("  note: small document — speedup recorded but not "
              "asserted (needs items >= 2000)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
