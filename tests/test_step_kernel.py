"""The whole-column kernels of :mod:`repro.xmldb.arena` and the column
types built on them, against the XPath evaluator and ``canonical_key``.

``Arena.step_rows`` is the one place the default engine executes a path
step, so it is checked where the engine cannot hide a mistake: on
generated trees, for context columns that are sorted antichains (the
one-pass lane), unsorted, duplicated and nested (the per-context lane),
on registered arenas and delta versions alike — result rows *and*
the visit counts the scan statistics are built from.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database
from repro.engine.batch import Batch, NodeColumn, numeric_column
from repro.engine.kernels import key_column, probe_keys
from repro.nal.values import NULL, canonical_key
from repro.xmldb.delta import Delete, Insert
from repro.xmldb.document import ScanStats
from repro.xmldb.node import NodeKind, element
from repro.xmldb.serialize import serialize
from repro.xpath.ast import NameTest, Path, Step
from repro.xpath.evaluator import evaluate_path
from tests.test_xml_roundtrip import trees

TAGS = ("a", "b", "item", "x1", "absent")


def _reference(arena, pre: int, axis: str, name: str):
    """What the evaluator selects and records for one context."""
    stats = ScanStats()
    path = Path((Step(axis, NameTest(name)),), absolute=False)
    nodes = evaluate_path(arena.nodes[pre], path, stats=stats)
    return [n.pre for n in nodes], stats.node_visits


def _check_column(arena, pres: list[int]) -> None:
    for axis in ("child", "descendant"):
        for name in TAGS:
            owners, rows, visits = arena.step_rows(pres, axis, name)
            if owners is None:  # the identity: one hit per context
                owners = list(range(len(pres)))
            rows = list(rows)
            assert len(owners) == len(rows)
            assert owners == sorted(owners), "groups in input order"
            expected_visits = 0
            for i, pre in enumerate(pres):
                want, seen = _reference(arena, pre, axis, name)
                assert [r for o, r in zip(owners, rows) if o == i] \
                    == want, (axis, name, pres, i)
                expected_visits += seen
            assert visits == expected_visits, (axis, name, pres)


@settings(max_examples=60, deadline=None)
@given(trees(), st.data())
def test_step_rows_agrees_with_evaluator_on_any_context(tree, data):
    db = Database()
    arena = db.register_tree("t.xml", tree).arena
    elements = [pre for pre, kind in enumerate(arena.kinds)
                if kind is NodeKind.ELEMENT]
    # unsorted, duplicated, nested — whatever hypothesis likes
    pres = data.draw(st.lists(st.sampled_from(elements), max_size=8),
                     label="contexts")
    _check_column(arena, pres)
    # the sorted-antichain lane: every row of one flat tag
    for name in arena.tag_names():
        if arena.tag_is_flat(name):
            _check_column(arena, list(arena.tag_rows(name)))


def _auction(items: int = 12) -> str:
    return "<items>" + "".join(
        f"<itemtuple><itemno>I{k:03d}</itemno>"
        f"<reserveprice>{100 + 7 * k}</reserveprice>"
        + ("<note>x<b>y</b></note>" if k % 3 == 0 else "")
        + "</itemtuple>" for k in range(items)) + "</items>"


def test_step_rows_lanes_on_delta_arenas():
    """The same answers from a registered arena and a delta version
    (lazy handle tables, spliced ``child_counts``)."""
    db = Database()
    db.register_text("items.xml", _auction())
    db.update("items.xml", Insert(0, 3, element(
        "itemtuple", element("itemno", "N1"),
        element("reserveprice", "455"))))
    tuples = db.store.get("items.xml").arena.tag_rows("itemtuple")
    updated = db.update("items.xml", Delete(tuples[7]))
    scratch = Database()
    fresh = scratch.register_text("items.xml", serialize(updated.root))
    assert updated.arena.child_counts == fresh.arena.child_counts
    for arena in (fresh.arena, updated.arena):
        tuples = list(arena.tag_rows("itemtuple"))
        _check_column(arena, tuples)                 # one-pass lane
        _check_column(arena, tuples[::-1])           # unsorted
        _check_column(arena, [0, tuples[2], 0])      # nested, dups
        owners, rows, _ = arena.step_rows(tuples, "child", "itemno")
        assert owners is None, "one itemno per itemtuple is the identity"
        assert arena.string_values(list(rows))[:2] == ["I000", "I001"]


def test_sparse_and_dense_antichains_give_the_same_answers():
    """A child step over a sorted antichain is one pass over the tag
    rows the column spans, or — when the column is sparse in that span
    (σ survivors, index probe results) — a bisection per context; both
    report the identity when every context has exactly one hit."""
    arena = Database().register_text("items.xml", _auction(240)).arena
    tuples = list(arena.tag_rows("itemtuple"))
    for column in (tuples, tuples[::2], tuples[::7], tuples[::60],
                   tuples[100:104], [tuples[5], tuples[200]]):
        _check_column(arena, column)
        owners, rows, visits = arena.step_rows(column, "child", "itemno")
        assert owners is None
        assert rows == [pre + 1 for pre in column]
        assert visits == sum(arena.child_counts[pre] for pre in column)
        owners, rows, _ = arena.step_rows(column, "child", "note")
        noted = [i for i, pre in enumerate(column)
                 if tuples.index(pre) % 3 == 0]
        assert owners == (None if len(noted) == len(column) else noted)


def test_step_rows_creates_no_handles():
    db = Database()
    db.register_text("items.xml", _auction())
    arena = db.update("items.xml", Delete(
        db.store.get("items.xml").arena.tag_rows("itemtuple")[0])).arena
    tuples = list(arena.tag_rows("itemtuple"))
    arena.step_rows(tuples, "child", "reserveprice")
    arena.step_rows([0], "descendant", "b")
    arena.string_values(tuples)
    assert set(arena.nodes._cache) <= {0}, "only Document.root exists"
    assert not arena.child_lists._cache


# ----------------------------------------------------------------------
# NodeColumn and the key / numeric kernels
# ----------------------------------------------------------------------
@pytest.fixture
def priced():
    db = Database()
    doc = db.register_text(
        "v.xml", "<r><e>10</e><e>2.5</e><e> 7 </e><e>abc</e>"
                 "<e>I0042</e><e>inf</e><e><f>1</f><f>2</f></e><e/></r>")
    return doc.arena


def test_node_column_degrades_to_a_sequence_of_handles(priced):
    rows = list(priced.tag_rows("e"))
    column = NodeColumn(priced, rows)
    assert len(column) == len(rows)
    assert list(column) == [priced.nodes[r] for r in rows]
    assert column[2] is priced.nodes[rows[2]]
    batch = Batch.from_columns({"n": column, "k": list(range(len(rows)))},
                               len(rows))
    taken = batch.take([3, 0])
    assert type(taken.column("n")) is NodeColumn
    assert taken.column("n").pres == [rows[3], rows[0]]
    doubled = batch.replicate([1, 1, 2], "x", ["p", "q", "r"])
    assert type(doubled.column("n")) is NodeColumn
    assert [t["n"] for t in doubled.to_rows()] == \
        [priced.nodes[rows[1]]] * 2 + [priced.nodes[rows[2]]]


def test_key_column_is_canonical_key_on_every_shape(priced):
    rows = list(priced.tag_rows("e"))
    column = NodeColumn(priced, rows)
    assert key_column(column) == [canonical_key(n) for n in column]
    assert key_column(column)[6] == ("n", 12.0)    # "1"+"2" → 12
    assert key_column(column)[7] == ("s", "")      # empty element


def test_numeric_column_reads_string_values_off_the_arena(priced):
    rows = list(priced.tag_rows("e"))
    assert numeric_column(NodeColumn(priced, rows[:3])) == [10.0, 2.5, 7.0]
    # any non-numeric text sends the column to the general loop
    assert numeric_column(NodeColumn(priced, rows)) is None
    assert numeric_column(NodeColumn(priced, [])) == []


def test_probe_keys_follow_canonical_key():
    big = 2 ** 53
    batch = Batch.from_columns(
        {"a": [big, big + 1, True, 1, "1", 1.0, NULL, "x"],
         "b": ["k"] * 8}, 8)
    keys = probe_keys(batch, ["a"])
    assert keys[0] != keys[1], "2**53 and 2**53 + 1 must stay apart"
    assert keys[0] == (("n", big),)
    assert keys[2] == (("b", True),) and keys[2] != keys[3], \
        "a boolean keys as a boolean, never as the number 1"
    assert keys[3] == keys[4] == keys[5] == (("n", 1),)
    assert keys[6] is None, "NULL keys neither build nor probe"
    assert keys[7] == (("s", "x"),)
    both = probe_keys(batch, ["a", "b"])
    assert both[6] is None and both[7] == (("s", "x"), ("s", "k"))
    for row, key in zip(batch.to_rows(), keys):
        if key is not None:
            assert key == (canonical_key(row["a"]),)
