"""Versioned delta arenas: live updates, MVCC snapshot isolation,
incremental index maintenance and the cache/CLI/server surface.

The contract under test (docs/updates.md): ``DocumentStore.update``
publishes a brand-new immutable version per delta, readers pin the
versions current when they start (threads and parallel worker
processes alike), indexes are maintained incrementally yet stay
byte-identical to scratch builds, and the session result cache evicts
*only* superseded versions.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, Delete, Insert, Replace
from repro.datagen import ITEMS_DTD, generate_items
from repro.engine.executor import execute
from repro.errors import (
    EvaluationError,
    FrozenDocumentError,
    UnknownDocumentError,
)
from repro.index.structural import PathIndex
from repro.index.value import ValueIndex
from repro.xmldb.delta import DeltaError, apply_delta
from repro.xmldb.node import NodeKind, element
from repro.xmldb.serialize import serialize

ENGINE_MODES = ("reference", "vectorized")

BIB = ("<bib>"
       "<book year='1994'><title>TCP/IP Illustrated</title></book>"
       "<book year='2000'><title>Data on the Web</title></book>"
       "</bib>")


def bib_db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.register_text("bib.xml", BIB)
    return db


def doc_text(db: Database, name: str = "bib.xml") -> str:
    return serialize(db.store.get(name).root)


# ----------------------------------------------------------------------
# Delta semantics
# ----------------------------------------------------------------------
def test_insert_appends_and_bumps_version():
    db = bib_db()
    old = db.store.get("bib.xml")
    new = db.update("bib.xml",
                    Insert(old.root, 2,
                           element("book", element("title", "New"))))
    assert new.version == 1 and new.seq != old.seq
    assert db.store.get("bib.xml") is new
    assert doc_text(db).endswith(
        "<book><title>New</title></book></bib>")


def test_insert_at_index_places_subtree():
    db = bib_db()
    root = db.store.get("bib.xml").root
    db.update("bib.xml",
              Insert(root, 0, element("book", element("title", "First"))))
    assert doc_text(db).startswith(
        "<bib><book><title>First</title></book>")


def test_delete_removes_subtree():
    db = bib_db()
    first_book = db.store.get("bib.xml").root.children[0]
    db.update("bib.xml", Delete(first_book))
    assert doc_text(db) == ("<bib><book year=\"2000\">"
                            "<title>Data on the Web</title>"
                            "</book></bib>")


def test_replace_swaps_subtree():
    db = bib_db()
    first_book = db.store.get("bib.xml").root.children[0]
    db.update("bib.xml",
              Replace(first_book, element("note", "gone")))
    text = doc_text(db)
    assert "<note>gone</note>" in text
    assert "TCP/IP" not in text


def test_multi_op_update_is_one_version():
    db = bib_db()
    old = db.store.get("bib.xml")
    new = db.update("bib.xml", [
        Insert(old.root, 2, element("book", element("title", "New"))),
        # intermediate coordinates: pre 1 is still the first book
        Delete(1),
    ])
    assert new.version == 1, "one update call = one published version"
    text = doc_text(db)
    assert "TCP/IP" not in text and "New" in text
    assert new.delta_counts == {"insert": 1, "delete": 1, "replace": 0}


def test_old_version_is_untouched():
    db = bib_db()
    old = db.store.get("bib.xml")
    before = serialize(old.root)
    rows_before = len(old.arena.kinds)
    db.update("bib.xml", Delete(old.root.children[0]))
    assert serialize(old.root) == before
    assert len(old.arena.kinds) == rows_before
    assert old.version == 0


def test_interval_invariants_hold_after_update():
    db = bib_db()
    root = db.store.get("bib.xml").root
    db.update("bib.xml",
              Insert(root, 1, element("book", element("title", "Mid"),
                                      year="2024")))
    arena = db.store.get("bib.xml").arena
    n = len(arena.kinds)
    for pre in range(n):
        end = arena.ends[pre]
        assert pre < end <= n
        parent = arena.parents[pre]
        if pre:
            assert parent < pre < arena.ends[parent], \
                "child interval must nest inside its parent's"
    # posts must order anti-symmetrically to pres within ancestry
    for pre in range(1, n):
        parent = arena.parents[pre]
        assert arena.posts[parent] > arena.posts[pre]


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_delete_root_rejected():
    db = bib_db()
    with pytest.raises(DeltaError):
        db.update("bib.xml", Delete(0))


def test_attribute_rows_rejected():
    db = bib_db()
    arena = db.store.get("bib.xml").arena
    attr_pre = next(p for p, k in enumerate(arena.kinds)
                    if k is NodeKind.ATTRIBUTE)
    with pytest.raises(DeltaError):
        db.update("bib.xml", Delete(attr_pre))
    with pytest.raises(DeltaError):
        db.update("bib.xml", Replace(attr_pre, element("x")))


def test_insert_index_out_of_range_rejected():
    db = bib_db()
    root = db.store.get("bib.xml").root
    with pytest.raises(DeltaError):
        db.update("bib.xml", Insert(root, 7, element("x")))


def test_frozen_tree_rejected_as_patch():
    db = bib_db()
    frozen = db.store.get("bib.xml").root.children[0]
    with pytest.raises(DeltaError):
        db.update("bib.xml", Insert(db.store.get("bib.xml").root, 0,
                                    frozen))


def test_unknown_document_rejected():
    db = bib_db()
    with pytest.raises(UnknownDocumentError):
        db.update("nope.xml", Delete(1))


def test_later_ops_must_use_integer_pres():
    db = bib_db()
    root = db.store.get("bib.xml").root
    with pytest.raises(DeltaError):
        db.update("bib.xml", [Delete(root.children[0]),
                              Delete(root.children[1])])


def test_frozen_document_error_points_at_update():
    db = bib_db()
    with pytest.raises(FrozenDocumentError,
                       match="DocumentStore.update"):
        db.store.get("bib.xml").root.append_child(element("x"))


# ----------------------------------------------------------------------
# Version chain and compaction
# ----------------------------------------------------------------------
def test_version_chain_stats_and_compaction():
    db = Database(compact_every=3)
    db.register_text("bib.xml", BIB)
    root_pre = 0
    for k in range(2):
        db.update("bib.xml",
                  Insert(root_pre, 0,
                         element("book", element("title", f"v{k}"))))
    stats = db.store.get("bib.xml").version_stats()
    assert stats["version"] == 2
    assert stats["chain_length"] == 2
    assert stats["compaction_watermark"] == 0
    assert stats["delta_counts"]["insert"] == 2
    assert [entry["version"] for entry in stats["delta_chain"]] == [1, 2]
    # third update folds the chain
    db.update("bib.xml",
              Insert(root_pre, 0,
                     element("book", element("title", "v2"))))
    stats = db.store.get("bib.xml").version_stats()
    assert stats["version"] == 3
    assert stats["chain_length"] == 0
    assert stats["compaction_watermark"] == 3
    assert stats["base_rows"] == stats["rows"]
    # cumulative op counts survive compaction
    assert stats["delta_counts"]["insert"] == 3


def test_insert_resolves_parent_by_pre_id():
    db = bib_db()
    db.update("bib.xml", Insert(0, 0, element("marker")))
    assert doc_text(db).startswith("<bib><marker/>")


# ----------------------------------------------------------------------
# Snapshot isolation
# ----------------------------------------------------------------------
PAIR = "<pair><a>0</a><b>0</b></pair>"
PAIR_QUERY = ('let $d := doc("pair.xml") '
              'return <r>{ $d/pair/a }{ $d/pair/b }</r>')


def _pair_update(db: Database, k: int) -> None:
    """Replace both correlated values in ONE atomic update.  Rows:
    0=pair 1=a 2=text 3=b 4=text; the first replace swaps rows [1, 3)
    for an equal-sized subtree, so b stays at pre 3."""
    db.update("pair.xml", [Replace(1, element("a", str(k))),
                           Replace(3, element("b", str(k)))])


def test_snapshot_isolation_under_concurrent_threads():
    db = Database()
    db.register_text("pair.xml", PAIR)
    session = db.session()
    prepared = session.prepare(PAIR_QUERY)
    stop = threading.Event()
    torn: list[str] = []

    def writer() -> None:
        k = 1
        while not stop.is_set():
            _pair_update(db, k)
            k += 1

    def reader() -> None:
        for _ in range(200):
            out = prepared.execute(use_result_cache=False).output
            a = out.split("<a>")[1].split("</a>")[0]
            b = out.split("<b>")[1].split("</b>")[0]
            if a != b:
                torn.append(out)
                break

    writers = [threading.Thread(target=writer) for _ in range(2)]
    readers = [threading.Thread(target=reader) for _ in range(2)]
    for thread in writers + readers:
        thread.start()
    for thread in readers:
        thread.join()
    stop.set()
    for thread in writers:
        thread.join()
    session.close()
    assert not torn, f"reader observed a torn update: {torn[0]}"


def test_explicit_snapshot_pins_old_version():
    db = bib_db()
    session = db.session()
    snap = db.snapshot()
    db.update("bib.xml", Delete(db.store.get("bib.xml").root.children[0]))
    query = 'for $t in doc("bib.xml")//title return $t'
    old = session.execute(query, snapshot=snap)
    assert "TCP/IP" in old.output, \
        "old-snapshot execution must read the pre-update version"
    new = session.execute(query)
    assert "TCP/IP" not in new.output
    session.close()


def test_parallel_workers_execute_pinned_snapshot():
    """A pinned snapshot must reach worker processes: parallel
    execution against an old StoreSnapshot re-exports the superseded
    version and returns pre-update rows."""
    from repro.api import compile_query

    db = Database()
    db.register_tree("items.xml", generate_items(400, seed=3),
                     dtd_text=ITEMS_DTD)
    plan = compile_query(
        'let $d := doc("items.xml") '
        'for $i in $d//itemtuple return $i/itemno', db).best().plan
    snap = db.snapshot()
    before = execute(plan, snap).output
    # replace every itemtuple's itemno in a few sweeps of updates
    doc = db.store.get("items.xml")
    for k in range(3):
        target = db.store.get("items.xml").arena.tag_rows("itemtuple")[k]
        db.update("items.xml",
                  Replace(target, element("itemtuple",
                                          element("itemno", "CHANGED"),
                                          element("description", "x"),
                                          element("offered_by", "u0"))))
    try:
        pinned = execute(plan, snap, mode="parallel", workers=2)
        assert pinned.output == before
        assert "CHANGED" not in pinned.output
        current = execute(plan, db.store, mode="parallel", workers=2)
        assert current.output.count("CHANGED") == 3
        assert current.output == execute(plan, db.store).output
    finally:
        db.close()
    assert serialize(doc.root) == serialize(snap.get("items.xml").root)


def test_parallel_reads_race_atomic_multi_op_updates():
    """Workers must never see half an update: every itemno is rewritten
    to the same generation tag in one multi-op update, so any snapshot
    a parallel query pins is uniform."""
    from repro.api import compile_query

    db = Database()
    db.register_tree("flat.xml", generate_items(60, seed=11),
                     dtd_text=ITEMS_DTD)
    plan = compile_query(
        'let $d := doc("flat.xml") '
        'for $i in $d//itemtuple return $i/itemno', db).best().plan

    def rewrite_all(k: int) -> None:
        arena = db.store.get("flat.xml").arena
        # replace back-to-front: every patch has the same row count as
        # the window it replaces, and the windows are disjoint, so each
        # recorded pre id stays valid in the intermediate coordinates
        db.update("flat.xml",
                  [Replace(pre, element("itemno", f"gen-{k}"))
                   for pre in reversed(arena.tag_rows("itemno"))])

    stop = threading.Event()
    mixed: list[set] = []

    def writer() -> None:
        k = 1
        while not stop.is_set():
            rewrite_all(k)
            k += 1

    def reader() -> None:
        for _ in range(25):
            out = execute(plan, db.store, mode="parallel",
                          workers=2).output
            gens = {part.split("</itemno>")[0]
                    for part in out.split("<itemno>")[1:]}
            if len(gens) > 1:
                mixed.append(gens)
                break

    rewrite_all(0)
    writer_thread = threading.Thread(target=writer)
    reader_thread = threading.Thread(target=reader)
    writer_thread.start()
    reader_thread.start()
    reader_thread.join()
    stop.set()
    writer_thread.join()
    db.close()
    assert not mixed, f"parallel reader saw a torn update: {mixed[0]}"


# ----------------------------------------------------------------------
# Session caches
# ----------------------------------------------------------------------
def test_result_cache_evicts_only_superseded_versions():
    db = Database()
    db.register_text("a.xml", "<a><x>1</x></a>")
    db.register_text("b.xml", "<b><y>2</y></b>")
    session = db.session()
    query_a = 'for $x in doc("a.xml")//x return $x'
    query_b = 'for $y in doc("b.xml")//y return $y'
    session.execute(query_a)
    session.execute(query_b)
    hits_before = session.cache_stats()["result_cache"]["hits"]
    db.update("b.xml", Insert(0, 1, element("y", "3")))
    # a.xml's entry survived the update to b.xml
    session.execute(query_a)
    assert session.cache_stats()["result_cache"]["hits"] == \
        hits_before + 1
    # b.xml's superseded entry is gone: fresh execution, new rows
    result = session.execute(query_b)
    assert session.cache_stats()["result_cache"]["hits"] == \
        hits_before + 1
    assert "<y>3</y>" in result.output
    session.close()


def test_in_flight_old_snapshot_query_completes_after_eviction():
    """Regression test for version-aware eviction: a query that pinned
    a snapshot *before* an update must complete correctly after the
    update evicted that version's cache entries — and must neither
    serve nor clobber the new version's entries."""
    db = bib_db()
    session = db.session()
    query = 'for $t in doc("bib.xml")//title return $t'
    snap = db.snapshot()
    session.execute(query)  # populates the v0 entry
    db.update("bib.xml",
              Replace(db.store.get("bib.xml").root.children[0],
                      element("book", element("title", "Fresh"))))
    old = session.execute(query, snapshot=snap)
    assert "TCP/IP" in old.output and "Fresh" not in old.output
    new = session.execute(query)
    assert "Fresh" in new.output and "TCP/IP" not in new.output
    # the old-snapshot run must not have poisoned the current entry
    again = session.execute(query)
    assert again.output == new.output
    session.close()


def test_update_event_notifies_listeners():
    db = bib_db()
    events = []
    db.store.add_listener(lambda event, name: events.append((event,
                                                             name)))
    db.update("bib.xml", Insert(0, 0, element("marker")))
    assert ("update", "bib.xml") in events


# ----------------------------------------------------------------------
# Incremental index maintenance
# ----------------------------------------------------------------------
def assert_indexes_match_scratch(db: Database, name: str) -> None:
    document = db.store.get(name)
    inc = db.store.indexes.for_version(document)
    scratch_path = PathIndex(document.root, document.arena)
    scratch_value = ValueIndex(document.root, document.arena)
    assert sorted(inc.path.paths()) == sorted(scratch_path.paths())
    for path in scratch_path.paths():
        assert inc.path.rows_at(path) == scratch_path.rows_at(path)
    assert sorted(inc.value.paths()) == sorted(scratch_value.paths())
    for path in scratch_value.paths():
        a = inc.value._values[path]
        b = scratch_value._values[path]
        assert a.all_keys == b.all_keys and a.all_pres == b.all_pres
        assert a.num_keys == b.num_keys and a.num_pres == b.num_pres
        assert a.text_keys == b.text_keys and a.text_pres == b.text_pres
        assert {k: sorted(v) for k, v in a.by_key.items()} == \
               {k: sorted(v) for k, v in b.by_key.items()}


def test_incremental_indexes_match_scratch_builds():
    db = Database(index_mode="eager")
    db.register_tree("items.xml", generate_items(120, seed=7),
                     dtd_text=ITEMS_DTD)
    rows = db.store.get("items.xml").arena.tag_rows("itemtuple")
    db.update("items.xml",
              Replace(rows[2], element("itemtuple",
                                       element("itemno", "X1"),
                                       element("description", "d"),
                                       element("offered_by", "u1"),
                                       element("reserveprice", "808"))))
    db.update("items.xml",
              Delete(db.store.get("items.xml")
                     .arena.tag_rows("itemtuple")[4]))
    db.update("items.xml",
              Insert(0, 0, element("itemtuple",
                                   element("itemno", "X2"),
                                   element("description", "d2"),
                                   element("offered_by", "u2"))))
    assert db.store.indexes.incremental_applies == 3
    assert db.store.indexes.full_builds == 1
    assert_indexes_match_scratch(db, "items.xml")


def test_index_probe_reflects_update():
    db = Database(index_mode="eager")
    db.register_tree("items.xml", generate_items(100, seed=7),
                     dtd_text=ITEMS_DTD)
    from repro.api import compile_query
    query = ('let $d := doc("items.xml") '
             'for $i in $d//itemtuple '
             'where $i/reserveprice = 12345 return $i/itemno')
    plan = compile_query(query, db).best().plan
    assert db.execute(plan).rows == []
    target = db.store.get("items.xml").arena.tag_rows("itemtuple")[0]
    db.update("items.xml",
              Replace(target, element("itemtuple",
                                      element("itemno", "HIT"),
                                      element("description", "d"),
                                      element("offered_by", "u"),
                                      element("reserveprice", "12345"))))
    plan_after = compile_query(query, db).best().plan
    result = db.execute(plan_after)
    assert "HIT" in result.output


def test_insert_under_atomic_element_deindexes_path():
    """An insert that gives a previously atomic element an element
    child must flip the path non-atomic — exactly as a scratch build
    would see it."""
    db = Database(index_mode="eager")
    db.register_text("d.xml", "<d><v>1</v><v>2</v></d>")
    # give the first <v> an element child
    arena = db.store.get("d.xml").arena
    v_pre = arena.tag_rows("v")[0]
    db.update("d.xml", Insert(v_pre, 1, element("sub", "x")))
    assert_indexes_match_scratch(db, "d.xml")


def test_lazy_mode_builds_on_demand_per_version():
    db = Database(index_mode="lazy")
    db.register_text("d.xml", "<d><v>1</v></d>")
    db.update("d.xml", Insert(0, 1, element("v", "2")))
    # no index existed pre-update, so nothing incremental: the build
    # happens on first use, for the current version
    assert db.store.indexes.incremental_applies == 0
    assert_indexes_match_scratch(db, "d.xml")


# ----------------------------------------------------------------------
# Property-based differential: random delta sequences == re-parse
# ----------------------------------------------------------------------
def _fragment(rng_label: int):
    return element("extra",
                   element("tag", f"t{rng_label}"),
                   element("val", str(rng_label % 97)))


def _row_names(arena) -> list:
    return [None if arena.name_ids[pre] < 0
            else arena.names[arena.name_ids[pre]]
            for pre in range(len(arena.kinds))]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_random_delta_sequences_match_reparse(data):
    db = Database()
    db.register_text(
        "d.xml",
        "<items>" + "".join(
            f"<itemtuple><itemno>i{k}</itemno>"
            f"<reserveprice>{100 + k}</reserveprice></itemtuple>"
            for k in range(6)) + "</items>")
    n_ops = data.draw(st.integers(min_value=1, max_value=6),
                      label="n_ops")
    for step in range(n_ops):
        arena = db.store.get("d.xml").arena
        element_pres = [pre for pre, kind in enumerate(arena.kinds)
                        if kind is NodeKind.ELEMENT]
        kind = data.draw(st.sampled_from(("insert", "delete",
                                          "replace")),
                         label=f"op_{step}")
        label = data.draw(st.integers(min_value=0, max_value=999),
                          label=f"label_{step}")
        if kind == "insert":
            parent = data.draw(st.sampled_from(element_pres),
                               label=f"parent_{step}")
            child_count = sum(
                1 for c in arena.child_lists[parent]
                if c.kind in (NodeKind.ELEMENT, NodeKind.TEXT))
            index = data.draw(st.integers(min_value=0,
                                          max_value=child_count),
                              label=f"index_{step}")
            db.update("d.xml", Insert(parent, index, _fragment(label)))
            continue
        targets = [pre for pre in element_pres if pre > 0]
        if not targets:
            continue
        target = data.draw(st.sampled_from(targets),
                           label=f"target_{step}")
        if kind == "delete":
            db.update("d.xml", Delete(target))
        else:
            db.update("d.xml", Replace(target, _fragment(label)))

    updated = db.store.get("d.xml")
    text = serialize(updated.root)
    scratch = Database()
    scratch.register_text("d.xml", text)
    reparsed = scratch.store.get("d.xml")

    # byte-identical serialization after a re-parse round trip
    assert serialize(reparsed.root) == text
    # column-exact arena equality (names resolved through each arena's
    # own dictionary — interning order may differ)
    a, b = updated.arena, reparsed.arena
    assert a.kinds == b.kinds
    assert _row_names(a) == _row_names(b)
    assert a.texts == b.texts
    assert a.posts == b.posts
    assert a.levels == b.levels
    assert a.parents == b.parents
    assert a.ends == b.ends
    assert a.child_counts == b.child_counts
    # and all four engines agree between the two databases
    from repro.api import compile_query
    query = ('let $d := doc("d.xml") '
             'return <out>{ $d//itemno }{ $d//tag }</out>')
    expected = None
    for mode in ENGINE_MODES:
        live = db.execute(compile_query(query, db).best().plan,
                          mode=mode)
        fresh = scratch.execute(
            compile_query(query, scratch).best().plan, mode=mode)
        assert live.output == fresh.output
        if expected is None:
            expected = live.output
        assert live.output == expected


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_random_deltas_keep_incremental_indexes_exact(data):
    db = Database(index_mode="eager")
    db.register_text(
        "d.xml",
        "<items>" + "".join(
            f"<itemtuple><itemno>i{k}</itemno>"
            f"<reserveprice>{100 + k}</reserveprice></itemtuple>"
            for k in range(5)) + "</items>")
    for step in range(data.draw(st.integers(min_value=1, max_value=5),
                                label="n_ops")):
        arena = db.store.get("d.xml").arena
        element_pres = [pre for pre, kind in enumerate(arena.kinds)
                        if kind is NodeKind.ELEMENT and pre > 0]
        if not element_pres:
            break
        kind = data.draw(st.sampled_from(("insert", "delete",
                                          "replace")),
                         label=f"op_{step}")
        label = data.draw(st.integers(min_value=0, max_value=999),
                          label=f"label_{step}")
        target = data.draw(st.sampled_from(element_pres),
                           label=f"target_{step}")
        if kind == "insert":
            db.update("d.xml", Insert(arena.parents[target], 0,
                                      _fragment(label)))
        elif kind == "delete":
            db.update("d.xml", Delete(target))
        else:
            db.update("d.xml", Replace(target, _fragment(label)))
    assert_indexes_match_scratch(db, "d.xml")


# ----------------------------------------------------------------------
# apply_delta (engine-independent splice layer)
# ----------------------------------------------------------------------
def test_apply_delta_returns_records():
    db = bib_db()
    document = db.store.get("bib.xml")
    arena, records = apply_delta(document,
                                 [Delete(document.root.children[0])])
    assert len(records) == 1
    assert records[0].kind == "delete"
    assert records[0].removed > 0 and records[0].inserted == 0
    # the source document is untouched: apply_delta is pure
    assert db.store.get("bib.xml") is document
    assert document.version == 0


# ----------------------------------------------------------------------
# CLI and server surface
# ----------------------------------------------------------------------
def test_cli_stats_prints_version_chain(tmp_path, capsys):
    from repro.__main__ import main

    path = tmp_path / "bib.xml"
    path.write_text(BIB)
    assert main(["stats", "bib.xml", "--doc",
                 f"bib.xml={path}"]) == 0
    out = capsys.readouterr().out
    assert "version chain:" in out
    assert "compaction watermark" in out
    assert "delta ops" in out


class _ServerHandle:
    """A QueryServer on its own event-loop thread (port 0)."""

    def __init__(self):
        self.db = Database(index_mode="lazy")
        self.db.register_text("bib.xml", BIB)
        self.session = self.db.session()
        from repro.server.app import QueryServer, ServerConfig
        self.server = QueryServer(self.session, ServerConfig(port=0))
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()

        async def run() -> None:
            await self.server.start()
            ready.set()
            await self.server.serve_forever()

        def runner() -> None:
            try:
                self.loop.run_until_complete(run())
            except asyncio.CancelledError:
                pass

        self.thread = threading.Thread(target=runner, daemon=True)
        self.thread.start()
        assert ready.wait(10), "server did not start"
        host, port = self.server.address
        self.base = f"http://{host}:{port}"

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(
            lambda: [task.cancel()
                     for task in asyncio.all_tasks(self.loop)])
        self.thread.join(timeout=5)
        self.session.close()

    def get(self, path: str):
        try:
            with urllib.request.urlopen(self.base + path,
                                        timeout=10) as reply:
                return reply.status, json.loads(reply.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def post(self, path: str, payload):
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST")
        try:
            with urllib.request.urlopen(request, timeout=10) as reply:
                return reply.status, json.loads(reply.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())


@pytest.fixture(scope="module")
def update_server():
    handle = _ServerHandle()
    yield handle
    handle.stop()


def test_server_update_endpoint(update_server):
    query = {"query": 'for $t in doc("bib.xml")//title return $t'}
    status, before = update_server.post("/query", query)
    assert status == 200 and "TCP/IP" in before["output"]
    status, reply = update_server.post("/update", {
        "document": "bib.xml",
        "ops": [{"op": "insert", "parent": 0, "index": 2,
                 "xml": "<book><title>Streamed In</title></book>"}],
    })
    assert status == 200
    assert reply["version"] == 1 and reply["applied"] == 1
    assert reply["delta_counts"]["insert"] == 1
    status, after = update_server.post("/query", query)
    assert status == 200 and "Streamed In" in after["output"]


def test_server_update_validation(update_server):
    status, reply = update_server.post("/update", {
        "document": "bib.xml",
        "ops": [{"op": "delete", "target": 0}],
    })
    assert status == 400 and reply["kind"] == "bad-update"
    status, reply = update_server.post("/update", {
        "document": "nope.xml",
        "ops": [{"op": "delete", "target": 1}],
    })
    assert status == 404 and reply["kind"] == "bad-document"
    status, reply = update_server.post("/update", {
        "document": "bib.xml",
        "ops": [{"op": "teleport", "target": 1}],
    })
    assert status == 400 and reply["kind"] == "bad-update"
    status, reply = update_server.post("/update", {
        "document": "bib.xml",
        "ops": [{"op": "insert", "parent": 0, "index": 0,
                 "xml": "<broken>"}],
    })
    assert status == 400 and reply["kind"] == "bad-update"


def test_server_stats_reports_versions(update_server):
    status, stats = update_server.get("/stats")
    assert status == 200
    info = stats["documents"]["bib.xml"]
    current = update_server.db.store.get("bib.xml")
    assert info["seq"] == current.seq
    assert info["version"] == current.version
    assert info["rows"] == len(current.arena.kinds)
    assert "live_snapshots" in stats
    assert stats["server"]["updates_total"] >= 1
    assert stats["server"]["update_errors_total"] >= 1


def test_store_snapshot_api():
    db = bib_db()
    snap = db.snapshot()
    assert "bib.xml" in snap
    assert snap.names() == ["bib.xml"]
    assert db.store.live_snapshot_count() >= 1
    versions = snap.versions()
    assert versions["bib.xml"] == db.store.get("bib.xml").seq
    assert snap.snapshot() is snap


# ----------------------------------------------------------------------
# Reclamation: superseded versions die by reference count
# ----------------------------------------------------------------------
AUCTION_SCAN = '''
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple
where $i1/reserveprice >= 250
return <pricey>{ $i1/itemno }</pricey>
'''

AUCTION_SEMIJOIN = '''
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple/itemno
where some $b2 in doc("bids.xml")//bidtuple[bid >= 500]/itemno
      satisfies $i1 = $b2
return <wanted>{ $i1 }</wanted>
'''


def _fresh_item(step: int):
    return element("itemtuple", element("itemno", f"N{step:04d}"),
                   element("description", f"refreshed {step}"),
                   element("offered_by", "U00001"),
                   element("reserveprice", str(450 + step)))


def _replace_an_item(db: Database, step: int) -> None:
    rows = db.store.get("items.xml").arena.tag_rows("itemtuple")
    db.update("items.xml", Replace(rows[step % len(rows)],
                                   _fresh_item(step)))


def test_superseded_versions_die_without_the_cyclic_collector():
    """With the cyclic GC off, N updates with reads of every engine in
    between (and no snapshot held) leave at most the current and the
    previous version alive — Document, arena columns and all: the
    handle ↔ arena cycles are cut when the Document's last reference
    goes (``Arena.release_handles``), not at the next gen-2 pass."""
    import gc
    import weakref

    from repro.datagen import BIDS_DTD, generate_bids

    gc.collect()
    gc.disable()
    try:
        db = Database()
        db.register_tree("items.xml", generate_items(30, seed=7),
                         dtd_text=ITEMS_DTD)
        db.register_tree("bids.xml", generate_bids(90, items=30, seed=7),
                         dtd_text=BIDS_DTD)
        session = db.session()
        documents, arenas = [], []
        for step in range(12):
            current = db.store.get("items.xml")
            documents.append(weakref.ref(current))
            arenas.append(weakref.ref(current.arena))
            del current
            _replace_an_item(db, step)
            for mode in ENGINE_MODES:
                assert session.execute(AUCTION_SCAN, mode=mode).output
                session.execute(AUCTION_SEMIJOIN, mode=mode)
        assert sum(ref() is not None for ref in documents) <= 1
        assert sum(ref() is not None for ref in arenas) <= 1

        # A held snapshot pins its version: still readable, handles
        # still interned, while the store moves on.
        snapshot = db.snapshot()
        pinned = snapshot.get("items.xml")
        before = serialize(pinned.root)
        handle = pinned.root.children[2]
        pinned_doc, pinned_arena = weakref.ref(pinned), \
            weakref.ref(pinned.arena)
        del pinned
        for step in range(12, 16):
            _replace_an_item(db, step)
        assert serialize(snapshot.get("items.xml").root) == before
        assert snapshot.get("items.xml").arena.nodes[handle.pre] is handle
        plan = session.prepare(AUCTION_SCAN).best().plan
        assert execute(plan, snapshot).output == \
            execute(plan, snapshot, mode="reference").output

        # Dropping the snapshot unpins it; a handle somebody still
        # holds keeps its identity and its arena's columns — nothing
        # else.
        del snapshot
        assert pinned_doc() is None
        assert handle.document is None
        assert handle.parent.children[2] is handle
        assert handle.child_elements("itemno")[0].string_value()
        assert handle.arena is pinned_arena()
        del handle
        assert pinned_arena() is None
        db.close()
    finally:
        gc.enable()


def test_unregistered_builder_documents_die_by_reference_count():
    """A registered (builder-arena) document too: unregister it and the
    prebuilt handle tables are let go; a node the caller still holds
    stays interned."""
    import gc
    import weakref

    gc.collect()
    gc.disable()
    try:
        db = bib_db()
        document = db.store.get("bib.xml")
        arena = weakref.ref(document.arena)
        held = document.root.children[1]
        del document
        db.store.unregister("bib.xml")
        assert arena() is not None            # ``held`` keeps it
        assert held.parent.children[1] is held
        assert held.attribute("year").text == "2000"
        del held
        assert arena() is None
    finally:
        gc.enable()
