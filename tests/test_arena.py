"""The interval-encoded arena document store: column invariants,
O(1) containment, freeze semantics, frozen ≡ builder-tree axes, the
deterministic multi-document order behind the evaluator's dedup, and
the per-version string-value / hash-key memos."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Delete, Insert, Replace
from repro.api import Database, compile_query
from repro.bench.queries import PAPER_QUERIES
from repro.datagen import (
    BIDS_DTD,
    ITEMS_DTD,
    generate_bib,
    generate_bids,
    generate_items,
)
from repro.engine.batch import NodeColumn, key_column
from repro.errors import FrozenDocumentError
from repro.index.value import ValueIndex
from repro.nal.values import canonical_key, text_key
from repro.xmldb.arena import arena_for
from repro.xmldb.document import DocumentStore
from repro.xmldb.node import Node, NodeKind, element, global_order_key
from repro.xmldb.parser import parse_document
from repro.xmldb.serialize import serialize
from repro.xpath.evaluator import _document_order_dedup, evaluate_path
from repro.xpath.parser import parse_path
from tests.conftest import assign_order_keys, builder_copy, ledger, \
    ledger_query

DOC = """
<bib>
  <book year="1994"><title>A</title><author><last>L1</last></author></book>
  <book year="2000"><title>B</title>
    <author><last>L2</last></author>
    <author><last>L1</last></author>
  </book>
  <book year="1990"><title>C</title><editor><last>L3</last></editor></book>
</bib>
"""


@pytest.fixture
def store():
    s = DocumentStore()
    s.register_text("bib.xml", DOC)
    return s


@pytest.fixture
def arena(store):
    return store.get("bib.xml").arena


# ----------------------------------------------------------------------
# Column invariants
# ----------------------------------------------------------------------
def test_pre_numbering_matches_order_keys(arena):
    for pre, node in enumerate(arena.nodes):
        assert node.pre == pre
        assert node.order_key == pre
        assert node.arena is arena


def test_parent_levels_and_intervals(arena):
    for pre in range(len(arena)):
        parent = arena.parents[pre]
        if parent < 0:
            assert pre == 0
            assert arena.levels[pre] == 0
            continue
        # containment: a child row lies inside its parent's interval
        assert parent < pre < arena.ends[parent]
        assert arena.levels[pre] == arena.levels[parent] + 1
        # post-order: a node closes before its ancestors
        assert arena.posts[pre] < arena.posts[parent]


def test_interval_containment_equals_ancestry(arena):
    def ancestors(pre):
        while arena.parents[pre] >= 0:
            pre = arena.parents[pre]
            yield pre

    for d in range(len(arena)):
        ancestor_set = set(ancestors(d))
        for a in range(len(arena)):
            assert arena.is_ancestor(a, d) == (a in ancestor_set), (a, d)


def test_name_interning_and_tag_rows(arena):
    assert arena.tag_count("book") == 3
    assert arena.tag_count("author") == 3
    assert arena.tag_count("nope") == 0
    # per-tag row lists are in document (pre) order
    rows = arena.tag_rows("author")
    assert rows == sorted(rows)
    # interned ids round-trip through the names table
    for pre in rows:
        assert arena.names[arena.name_ids[pre]] == "author"


def test_string_value_reads_text_columns(arena):
    root = arena.nodes[0]
    books = root.child_elements("book")
    assert books[0].string_value().replace("\n", "").strip() \
        .startswith("A")
    title = books[1].child_elements("title")[0]
    assert title.string_value() == "B"
    year = books[0].attribute("year")
    assert year.string_value() == "1994"


def test_frozen_handles_report_document(store, arena):
    document = store.get("bib.xml")
    for node in arena.nodes:
        assert node.document is document


# ----------------------------------------------------------------------
# Freeze semantics (the string-value staleness fix)
# ----------------------------------------------------------------------
def test_mutation_after_registration_raises(store):
    root = store.get("bib.xml").root
    with pytest.raises(FrozenDocumentError, match="finalized"):
        root.append_child(element("book"))
    book = root.child_elements("book")[0]
    with pytest.raises(FrozenDocumentError):
        book.set_attribute("lang", "en")


def test_string_value_cache_cannot_go_stale(store):
    """The historical bug: mutate after the cache filled and the cache
    served stale text.  Freezing makes the mutation itself impossible,
    so the cached value is trustworthy forever."""
    root = store.get("bib.xml").root
    book = root.child_elements("book")[0]
    before = book.string_value()
    with pytest.raises(FrozenDocumentError):
        book.append_child(Node(NodeKind.TEXT, text="STALE"))
    assert book.string_value() == before
    assert "STALE" not in root.string_value()


def test_builder_trees_stay_mutable():
    root = element("r", element("a", "1"))
    assert root.string_value() == "1"
    root.append_child(element("b", "2"))  # no document, no freeze
    assert [c.name for c in root.child_elements()] == ["a", "b"]


def test_freeze_discards_builder_mode_string_value_cache():
    """A value cached while the tree was still mutable may predate
    later builder-mode edits; finalization must recompute from the
    columns, or indexes (keyed by arena string values) and scans
    (keyed by node.string_value()) would disagree."""
    root = element("r", "hello")
    assert root.string_value() == "hello"      # fills the cache
    root.append_child(Node(NodeKind.TEXT, text=" world"))
    store = DocumentStore()
    store.register_tree("t.xml", root)
    assert root.string_value() == "hello world"
    assert root.string_value() == root.arena.string_value(0)


def test_frozen_child_lists_are_immutable(store):
    """append_child raises — and so must direct list mutation, or the
    child lists would silently desynchronize from the interval
    columns."""
    root = store.get("bib.xml").root
    with pytest.raises(AttributeError):
        root.children.append(element("book"))
    with pytest.raises(AttributeError):
        root.child_elements("book")[0].attributes.append(
            Node(NodeKind.ATTRIBUTE, name="x", text="1"))


# ----------------------------------------------------------------------
# Frozen document (arena range scans) ≡ builder tree (pointer walks)
# ----------------------------------------------------------------------
PATHS = ("//book", "//author", "//last", "book/title", "//book/@year",
         "//title/text()", "book/*", "//book[author]",
         "//book[@year > 1993]", "//missing")


def described(nodes) -> list[tuple]:
    """What a node sequence looks like from outside, comparable across
    a frozen document and an unregistered builder tree of the same
    text: pre-order rank, kind, name and string value, in order."""
    return [(n.order_key, n.kind, n.name, n.string_value())
            for n in nodes]


def builder_root(text: str) -> Node:
    """The parsed tree as a builder tree, never registered: ``arena is
    None``, so every axis takes the pointer walk."""
    root = builder_copy(parse_document(text).root)
    assert root.arena is None
    return root


@pytest.mark.parametrize("path_text", PATHS)
def test_frozen_document_matches_builder_tree(store, path_text):
    path = parse_path(path_text)
    frozen = evaluate_path(store.get("bib.xml").root, path)
    walked = evaluate_path(builder_root(DOC), path)
    assert described(frozen) == described(walked)


def test_frozen_matches_builder_on_generated_doc():
    store = DocumentStore()
    store.register_tree("bib.xml", generate_bib(25, 3, seed=11))
    root = store.get("bib.xml").root
    walked_root = generate_bib(25, 3, seed=11)
    assign_order_keys(walked_root)
    for path_text in ("//author", "//book/title", "//last"):
        path = parse_path(path_text)
        frozen = evaluate_path(root, path)
        walked = evaluate_path(walked_root, path)
        assert described(frozen) == described(walked) and len(frozen) > 0


def test_iter_descendants_same_frozen_and_builder(arena):
    frozen = list(arena.nodes[0].iter_descendants(include_self=True))
    walked = list(builder_root(DOC).iter_descendants(include_self=True))
    assert described(frozen) == described(walked)
    assert all(n.kind is not NodeKind.ATTRIBUTE for n in frozen)


def test_descendant_range_touches_only_results(store):
    """The encoding's point: a //tag step charges |result| visits, not
    the document size."""
    from repro.xmldb.document import ScanStats
    root = store.get("bib.xml").root
    stats = ScanStats()
    result = evaluate_path(root, parse_path("//author"), stats=stats)
    assert stats.node_visits == len(result) == 3
    assert stats.document_scans == {"bib.xml": 1}


#: the two shapes of the retired ``bench_q9_storage.py``
Q9_DIGEST = '''
let $d1 := doc("items.xml")
let $b1 := doc("bids.xml")
return
  <digest>
    <items>{ count($d1//itemno) }</items>
    <bids>{ count($b1//bid) }</bids>
    <bid-days>{ count($b1//biddate) }</bid-days>
    <reserve-prices>{ count($d1//reserveprice) }</reserve-prices>
  </digest>
'''

Q9_FILTER = '''
let $d1 := doc("items.xml")
for $r1 in $d1//reserveprice
where $r1 >= 400
return <pricey> { $r1 } </pricey>
'''


@pytest.fixture(scope="module")
def auction_db() -> Database:
    db = Database()
    db.register_tree("items.xml", generate_items(2000, seed=7),
                     dtd_text=ITEMS_DTD)
    db.register_tree("bids.xml",
                     generate_bids(10000, items=2000, seed=7),
                     dtd_text=BIDS_DTD)
    return db


@pytest.mark.parametrize("text, visits", [
    (Q9_DIGEST, 2000 + 10000 + 10000 + 760),   # one visit per counted node
    (Q9_FILTER, 760),                          # one per reserveprice
], ids=("digest", "filter"))
def test_query_visits_are_the_rows_it_reads(auction_db, text, visits):
    """The same at scale and through the whole stack: the best plan of
    a query over 2 000 items / 10 000 bids (~90 000 nodes) visits
    exactly the rows its ``//tag`` steps return."""
    result = auction_db.execute(compile_query(text, auction_db).best().plan)
    assert result.stats["node_visits"] == visits


# ----------------------------------------------------------------------
# Arena statistics
# ----------------------------------------------------------------------
def test_arena_stats_summary(arena):
    stats = arena.stats()
    assert stats["kinds"]["element"] == arena.element_count
    assert stats["kinds"]["attribute"] == 3
    assert stats["tag_counts"]["book"] == 3
    assert stats["depth_histogram"][0] == 1          # the root
    assert stats["max_depth"] == 3                   # bib/book/author/last
    assert stats["rows"] == len(arena)


def test_arena_for_loose_tree_does_not_freeze():
    root = element("r", element("v", "1"), element("v", "2"))
    arena = arena_for(root)
    assert arena.document is None
    assert root.arena is None                        # still a builder
    assert arena.tag_count("v") == 2
    root.append_child(element("v", "3"))             # still mutable


def test_arena_for_frozen_subtree_scopes_to_the_subtree():
    """An index built over a frozen non-root node must cover only that
    subtree — aliasing the whole-document arena would silently widen
    lookup results to the entire document."""
    from repro.index import ElementIndex, PathIndex
    store = DocumentStore()
    store.register_text(
        "s.xml", "<r><a><x>1</x></a><b><x>2</x><x>3</x></b></r>")
    root = store.get("s.xml").root
    branch_a, branch_b = root.child_elements()
    sub = arena_for(branch_a)
    assert sub is not root.arena and sub.document is None
    assert sub.nodes[0] is branch_a                  # row 0 = given root
    assert sub.tag_count("x") == 1
    assert len(ElementIndex(branch_b).lookup("x")) == 2
    assert PathIndex(branch_a).paths() == [("a",), ("a", "x")]


# ----------------------------------------------------------------------
# Deterministic multi-document order (the dedup fix)
# ----------------------------------------------------------------------
def test_dedup_orders_by_registration_sequence():
    store = DocumentStore()
    store.register_text("z.xml", "<z><v>1</v></z>")
    store.register_text("a.xml", "<a><v>2</v></a>")
    z_nodes = evaluate_path(store.get("z.xml").root, parse_path("//v"))
    a_nodes = evaluate_path(store.get("a.xml").root, parse_path("//v"))
    mixed = a_nodes + z_nodes + a_nodes
    ordered = _document_order_dedup(mixed)
    # registration order (z before a), not name or id() order
    assert [n.string_value() for n in ordered] == ["1", "2"]
    assert ordered == _document_order_dedup(list(reversed(mixed)))


def test_global_order_key_is_stable():
    store = DocumentStore()
    d1 = store.register_text("one.xml", "<r><v>x</v></r>")
    d2 = store.register_text("two.xml", "<r><v>y</v></r>")
    assert d1.seq < d2.seq
    k1 = global_order_key(d1.root)
    k2 = global_order_key(d2.root)
    assert k1 < k2
    loose = element("r")
    assert global_order_key(loose) < k1  # unregistered sorts first


def test_multi_document_query_order_is_deterministic():
    """End-to-end regression: a sequence drawing from two documents
    dedups into the same order on every evaluation."""
    store = DocumentStore()
    store.register_text("b.xml", "<bib><t>B1</t><t>B2</t></bib>")
    store.register_text("r.xml", "<rev><t>R1</t></rev>")
    roots = [store.get("r.xml").root, store.get("b.xml").root]
    runs = [evaluate_path(roots, parse_path("//t")) for _ in range(5)]
    texts = [[n.string_value() for n in run] for run in runs]
    assert texts == [["B1", "B2", "R1"]] * 5


# ----------------------------------------------------------------------
# Per-version memos: string values and hash keys
# ----------------------------------------------------------------------
#: texts whose keys are NaN, infinities, signed zero, numbers that are
#: spelled two ways, text, and nothing
MEMO_TEXTS = ("NaN", "nan", "INF", "-0", "1.0", "01", "x", "", " 7 ")

#: a tree as nested ``(tag, attributes, children)`` with text leaves —
#: mixed content, empty elements, attributes (built fresh per arena,
#: since registering a builder tree freezes it)
tree_specs = st.recursive(
    st.sampled_from(MEMO_TEXTS),
    lambda kids: st.tuples(
        st.sampled_from("abc"),
        st.dictionaries(st.sampled_from("xy"), st.sampled_from(MEMO_TEXTS),
                        max_size=2),
        st.lists(kids, max_size=3)),
    max_leaves=10)


def _build(spec):
    if isinstance(spec, str):
        return spec
    tag, attrs, kids = spec
    return element(tag, *map(_build, kids), **attrs)


def _document(specs) -> Node:
    return element("r", *map(_build, specs))


def _memo_arenas(specs):
    """The same generated document's arena as a builder tree, as parsed
    text, after an ``Insert`` / ``Delete`` / ``Replace`` (each version
    read before its update, so the next one starts with its carried
    memos), and once its document is gone (``release_handles``)."""
    built = Database()
    built.register_tree("d.xml", _document(specs))
    yield built.store.get("d.xml").arena
    parsed = Database()
    parsed.register_text("d.xml", serialize(_document(specs)))
    yield parsed.store.get("d.xml").arena
    for op in (Insert(0, 0, _document(specs)), Delete(1),
               Replace(1, _document(specs))):
        db = Database()
        db.register_tree("d.xml", _document(specs))
        old = db.store.get("d.xml").arena
        _check_memos(old)
        db.update("d.xml", op)
        arena = db.store.get("d.xml").arena
        assert arena is not old
        _check_carried(arena)
        yield arena
    released = Database()
    released.register_tree("d.xml", _document(specs))
    arena = released.store.get("d.xml").arena
    released.unregister("d.xml")
    assert arena.document is None and arena.nodes._refs is not None
    yield arena


def _check_carried(arena):
    """Every memo entry an update carried is what a fresh fill of the
    new version computes for its row."""
    for pre, value in arena._string_memo.items():
        assert arena.string_value(pre) == value
    for pre, key in arena.key_memo.items():
        assert repr(key) == repr(text_key(arena.string_value(pre)))


def _check_memos(arena):
    rows = list(range(len(arena)))
    rows += rows[::-1]   # every row twice in one column
    before = dict(arena._string_memo)
    fresh = [arena.string_value(pre) for pre in rows]
    assert arena._string_memo == before      # the definition is uncached
    for _ in range(2):
        handles = [arena.nodes[pre] for pre in rows]
        assert arena.string_values(rows) == fresh \
            == [node.string_value() for node in handles]
        keys = key_column(NodeColumn(arena, rows))
        assert list(map(repr, keys)) == list(map(repr, map(text_key, fresh))) \
            == [repr(canonical_key(node)) for node in handles]
        # a NaN key is a float of its own in every row, even a repeated one
        nans = [key[1] for key in keys if key[1] != key[1]]
        assert len(set(map(id, nans))) == len(nans)
    kinds, ends = arena.kinds, arena.ends
    for pre in arena._string_memo:    # never the <t>text</t> arm
        assert kinds[pre] is NodeKind.ELEMENT
        assert not (ends[pre] == pre + 2 and kinds[pre + 1] is NodeKind.TEXT)
    assert all(key[1] == key[1] for key in arena.key_memo.values())


@settings(max_examples=40, deadline=None)
@given(st.lists(tree_specs, min_size=1, max_size=4))
def test_memoized_string_values_and_keys_equal_a_fresh_computation(specs):
    for arena in _memo_arenas(specs):
        _check_memos(arena)


def test_second_execution_of_the_paper_queries_adds_no_memo_entries():
    """Q1–Q6, every alternative, at books=40: the first run fills the
    memos, the second reads them."""
    db = Database()
    for name, text in ledger.corpus({"books": 40, "bids": 40}, 7).items():
        db.register_text(name, text)
    plans = [alt.plan for key in ("q1", "q2", "q3", "q4", "q5", "q6")
             for alt in compile_query(PAPER_QUERIES[key].text, db).plans()]
    arenas = [db.store.get(name).arena
              for name in ("bib.xml", "prices.xml", "reviews.xml",
                           "bids.xml")]

    def sizes():
        return [(len(a._string_memo), len(a.key_memo)) for a in arenas]

    for plan in plans:
        db.execute(plan)
    first = sizes()
    assert first[0][0] and all(keys for _, keys in first)
    for plan in plans:
        db.execute(plan)
    assert sizes() == first


def test_superseded_version_is_reclaimed_with_its_memos():
    """The memos hold no handles and no cycles: with the cyclic GC off,
    a read-and-superseded version dies by reference count, and its
    successor starts with the memos it carried: every entry but the
    replaced item's rows."""
    import gc
    import weakref

    text = ledger_query(ledger.ITEMS_WITH_BID, 900)
    gc.collect()
    gc.disable()
    try:
        db = Database()
        db.register_tree("items.xml", generate_items(30, seed=7),
                         dtd_text=ITEMS_DTD)
        db.register_tree("bids.xml", generate_bids(90, items=30, seed=7),
                         dtd_text=BIDS_DTD)
        output = compile_query(text, db).run().output
        arena = db.store.get("items.xml").arena
        assert arena.key_memo
        old = weakref.ref(arena)
        assert "I00003" in output
        row = arena.tag_rows("itemtuple")[2]        # I00003
        window = range(row, arena.ends[row])
        carried = {pre for pre in arena.key_memo if pre not in window}
        assert carried and len(carried) < len(arena.key_memo)
        del arena
        db.update("items.xml", Replace(row, element(
            "itemtuple", element("itemno", "N0000"),
            element("description", "d"), element("offered_by", "U00001"),
            element("reserveprice", "450"))))
        assert old() is None
        arena = db.store.get("items.xml").arena
        assert set(arena.key_memo) == carried  # as many rows in as out
        _check_carried(arena)
        assert compile_query(text, db).run().output \
            == output.replace("<wanted><itemno>I00003</itemno></wanted>", "")
        assert arena.key_memo
    finally:
        gc.enable()


def test_value_index_reads_atomicity_off_the_columns():
    """A value index over a lazy arena (a post-update version) decides
    "no element children" from the interval columns: it creates no
    handle, in a scratch build and in the incremental update path."""
    db = Database(index_mode="eager")
    db.register_tree("items.xml", generate_items(20, seed=7),
                     dtd_text=ITEMS_DTD)
    row = db.store.get("items.xml").arena.tag_rows("itemtuple")[3]
    db.update("items.xml", Delete(row))
    document = db.store.get("items.xml")
    arena = document.arena
    assert arena.nodes._cache.keys() <= {0}      # the root handle only
    handles = dict(arena.nodes._cache)
    index = ValueIndex(document.root, arena)
    assert index.is_indexed(("items", "itemtuple", "itemno"))
    assert not index.is_indexed(("items", "itemtuple"))
    db.update("items.xml", Insert(0, 0, element(
        "itemtuple", element("itemno", "N9"), element("description", "d"),
        element("offered_by", "U1"), element("reserveprice", "7"))))
    assert arena.nodes._cache == handles
    latest = db.store.get("items.xml").arena
    assert latest.nodes._cache.keys() <= {0}
