"""The default engine's column kernels — Γ (θ ``=``), ΓSelf, ΠD, Sort,
µ / µD, the ``@attr`` step and χ's function lanes — against
``mode="reference"`` on generated batches: equal rows in equal order,
equal ``document_scans`` and ``node_visits``; and the two correlation
lanes of a nested plan's σ (``attr = $outer``, ``$outer ∈ seq``)
against ``general_compare`` row by row; Γ's number fold against
``call_function``; and NaN keys through the arena's key memo.

Batches come as ``Table`` rows (plain value columns, builder-tree
nodes among them) and as scans of one generated document registered
three ways — a builder tree, parsed text, and a version republished by
an ``Insert`` (lazy handle tables) — so node-valued key columns arrive
as :class:`~repro.engine.batch.NodeColumn` over every arena kind."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Insert
from repro.api import Database, compile_query
from repro.engine.batch import (
    Batch,
    BroadcastColumn,
    NodeColumn,
    SeqColumn,
    compare_columns,
)
from repro.engine.context import EvalContext
from repro.engine.executor import execute
from repro.engine.kernels import group_ids, group_values
from repro.engine.vectorized import _predicate_mask, run_vectorized
from repro.errors import EvaluationError
from repro.nal import (
    NULL,
    AggSpec,
    DistinctProject,
    GroupUnary,
    Map,
    Select,
    SelfGroup,
    Singleton,
    Sort,
    Table,
    Tup,
    Unnest,
    UnnestMap,
)
from repro.nal.scalar import (
    AttrRef,
    Comparison,
    Const,
    DocAccess,
    FuncCall,
    In,
    PathApply,
    TupledSeq,
)
from repro.nal.functions import call_function
from repro.nal.values import general_compare
from repro.xmldb.node import element
from repro.xmldb.parser import parse_document
from repro.xpath.ast import Path
from repro.xpath.parser import parse_path
from tests.conftest import exact

NAN = float("nan")
#: every value kind a key column can hold; sequences last
KEYS = (1, "1", 1.0, -0.0, 0, 2, "2.0", NAN, "NaN", NULL, True, False,
        "", "x", "I007", element("k", "1"), element("k", "x"),
        [1, "a"], [])
ATOMIC_KEYS = KEYS[:-2]
NUMBERS = (1, 2.5, "3", 4, -1.0)

MASKABLE = Comparison(AttrRef("v"), ">", Const(2))
NOT_MASKABLE = In(AttrRef("v"), Const([1, "3", 4]))
FILTERS = (None, MASKABLE, NOT_MASKABLE)
AGGREGATES = tuple(
    AggSpec(kind, attr, pred)
    for kind, attr in (("id", None), ("project", "v"), ("count", None),
                       ("sum", "v"), ("min", "v"), ("max", "v"),
                       ("avg", "v"))
    for pred in FILTERS)


def agree(plan, store=None):
    """Default ≡ reference: rows in order, scans and visits — or the
    same error."""
    store = Database().store if store is None else store
    try:
        reference = execute(plan, store, mode="reference")
    except EvaluationError:
        with pytest.raises(EvaluationError):
            execute(plan, store)
        return None
    default = execute(plan, store)
    assert exact(default.rows) == exact(reference.rows)
    assert default.stats["document_scans"] \
        == reference.stats["document_scans"]
    assert default.stats["node_visits"] == reference.stats["node_visits"]
    return default


def tables(keys=KEYS, max_size=8):
    """Rows ``(i, k1, k2, v)``: ``i`` tells equal-keyed rows apart."""
    row = st.tuples(st.sampled_from(range(len(keys))),
                    st.sampled_from(range(len(keys))),
                    st.sampled_from(NUMBERS))
    return st.lists(row, max_size=max_size).map(lambda rows: Table(
        "T", ["i", "k1", "k2", "v"],
        [{"i": i, "k1": keys[a], "k2": keys[b], "v": v}
         for i, (a, b, v) in enumerate(rows)]))


# ----------------------------------------------------------------------
# Value columns
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(tables(ATOMIC_KEYS), st.sampled_from(AGGREGATES), st.booleans())
def test_group_unary_agrees(table, agg, two_keys):
    by = ["k1", "k2"] if two_keys else ["k1"]
    agree(GroupUnary(table, "g", by, "=", agg))


@settings(max_examples=150, deadline=None)
@given(tables(), st.sampled_from(AGGREGATES), st.booleans())
def test_self_group_agrees(table, agg, two_keys):
    keys = ["k1", "k2"] if two_keys else ["k1"]
    agree(SelfGroup(table, "g", keys, agg))


@settings(max_examples=100, deadline=None)
@given(tables(), st.booleans(), st.booleans())
def test_distinct_project_agrees(table, two_keys, renamed):
    attrs = ["k1", "k2"] if two_keys else ["k1"]
    agree(DistinctProject(table, attrs, {"k1": "z"} if renamed else None))


@settings(max_examples=150, deadline=None)
@given(tables(max_size=12), st.booleans(), st.booleans(), st.booleans())
def test_sort_agrees(table, two_keys, first_desc, second_desc):
    """Mixed types, NaN and empty ranks, ties (``i`` shows stability),
    either direction per attribute."""
    attrs = ["k1", "k2"] if two_keys else ["k1"]
    agree(Sort(table, attrs, [first_desc, second_desc][:len(attrs)]))


def test_empty_input():
    empty = Table("T", ["i", "k1", "k2", "v"], [])
    for agg in AGGREGATES:
        assert agree(GroupUnary(empty, "g", ["k1"], "=", agg)).rows == []
        assert agree(SelfGroup(empty, "g", ["k1"], agg)).rows == []
    assert agree(DistinctProject(empty, ["k1"])).rows == []
    assert agree(Sort(empty, ["k1"])).rows == []
    assert agree(Unnest(empty, "v", ["x"], dedup=True,
                        preserve_empty=True)).rows == []
    # no grouping attribute: one group holding everything
    table = Table("T", ["v"], [{"v": 1}, {"v": 4}])
    assert agree(GroupUnary(table, "g", [], "=", AggSpec("sum", "v"))) \
        .rows == [Tup({"g": 5.0})]


def test_group_ids_number_groups_by_first_occurrence():
    ids, firsts = group_ids(["b", "a", "b", "c", "a"])
    assert ids == [0, 1, 0, 2, 1]
    assert firsts == [0, 1, 3]
    assert group_ids([]) == ([], [])


ITEMS = (1, "1", 1.0, "x", "x", NAN, True, "", element("k", "x"))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(
    st.just(NULL), st.lists(st.sampled_from(range(len(ITEMS))),
                            max_size=4)), max_size=6),
       st.booleans(), st.booleans(), st.booleans())
def test_unnest_agrees_on_sequence_values(sequences, dedup,
                                          preserve_empty, tupled):
    """Empty, NULL and duplicate-bearing sequences, of bare items and
    of item tuples."""
    def items(picks):
        if picks is NULL:
            return NULL
        return [Tup({"x": ITEMS[i]}) if tupled else ITEMS[i]
                for i in picks]
    table = Table("T", ["i", "s"], [{"i": i, "s": items(picks)}
                                    for i, picks in enumerate(sequences)])
    agree(Unnest(table, "s", ["x"], dedup=dedup,
                 preserve_empty=preserve_empty))


def test_unnest_of_whole_groups():
    """µ over Γ[id]: item tuples of several attributes."""
    table = Table("T", ["k", "v"], [{"k": k, "v": v} for k, v in
                                    ((1, "a"), (2, "b"), (1, "a"))])
    grouped = Map(GroupUnary(table, "g", ["k"], "=", AggSpec("id")),
                  "n", Const(0))
    for dedup in (False, True):
        agree(Unnest(grouped, "g", ["k", "v"], dedup=dedup))


# ----------------------------------------------------------------------
# Node columns over every arena kind
# ----------------------------------------------------------------------
TEXTS = ("1", "1.0", "x", "", "NaN", "I007", "-0.0", "2")


def _entry(key: int, year: int | None, kids: list[int]):
    attrs = {} if year is None else {"y": TEXTS[year], "z": "0"}
    return element("e", element("k", TEXTS[key]),
                   *(element("a", element("n", TEXTS[kid]))
                     for kid in kids), **attrs)


entries = st.lists(st.tuples(
    st.sampled_from(range(len(TEXTS))),
    st.one_of(st.none(), st.sampled_from(range(len(TEXTS)))),
    st.lists(st.sampled_from(range(len(TEXTS))), max_size=3)),
    min_size=1, max_size=7)


def _databases(rows):
    """The same document as a builder tree, as parsed text, and after
    an ``Insert`` republished it."""
    def tree(upto=None):
        return element("r", *(_entry(*row) for row in rows[:upto]))
    built, parsed, updated = Database(), Database(), Database()
    built.register_tree("d.xml", tree())
    from repro.xmldb.serialize import serialize
    parsed.register_text("d.xml", serialize(tree()))
    updated.register_tree("d.xml", tree(-1))
    updated.update("d.xml", Insert(0, len(rows) - 1, _entry(*rows[-1])))
    assert parse_document(serialize(tree())).root.string_value() \
        == updated.store.get("d.xml").root.string_value()
    return built, parsed, updated


def _scan():
    """``e`` per entry, ``k`` its key element (one per row), ``y`` its
    ``@y`` (NULL where missing), ``v`` a number."""
    def one(path):
        return FuncCall("zero-or-one",
                        [PathApply(AttrRef("e"), parse_path(path))])
    plan = UnnestMap(Singleton(), "e", PathApply(
        DocAccess("d.xml"),
        Path(parse_path("//e").steps, absolute=False)))
    plan = Map(Map(plan, "k", one("k")), "y", one("@y"))
    return Map(plan, "v", Const(3))


def _node_plans():
    scan = _scan()
    authors = Map(scan, "w", TupledSeq(
        PathApply(AttrRef("e"), parse_path("a")), "w_i"))
    plans = [
        scan,
        Select(scan, Comparison(AttrRef("y"), "<=", Const(1))),
        Map(scan, "s", FuncCall("string", [AttrRef("k")])),
        Map(scan, "s", FuncCall("data", [AttrRef("k")])),
        Map(scan, "s", FuncCall("decimal", [AttrRef("k")])),
        Map(scan, "s", FuncCall("number", [AttrRef("y")])),
        Select(scan, FuncCall("contains", [AttrRef("k"), Const("0")])),
        Select(scan, FuncCall("starts-with", [AttrRef("k"), Const("I")])),
        Select(scan, FuncCall("contains", [AttrRef("k"), Const(0)])),
        DistinctProject(scan, ["k"]),
        DistinctProject(scan, ["y", "k"], {"y": "year"}),
        Sort(scan, ["k"]), Sort(scan, ["y", "k"], [True, False]),
        # the sequence column degrades for every other consumer
        authors, Select(authors, Comparison(AttrRef("k"), "=", Const(1))),
        SelfGroup(authors, "g", ["k"], AggSpec("id")),
    ]
    for agg in (AggSpec("count"), AggSpec("count", None, MASKABLE),
                AggSpec("count", None, Comparison(
                    AttrRef("y"), "<=", Const(1))),
                AggSpec("min", "k"), AggSpec("project", "e"),
                AggSpec("id", None, NOT_MASKABLE)):
        plans.append(GroupUnary(scan, "g", ["k"], "=", agg))
        plans.append(GroupUnary(scan, "g", ["y", "k"], "=", agg))
        plans.append(SelfGroup(scan, "g", ["k"], agg))
    for dedup in (False, True):
        for preserve_empty in (False, True):
            unnested = Unnest(Map(authors, "t", Const(0)), "w", ["w_i"],
                              dedup=dedup, preserve_empty=preserve_empty)
            plans.append(unnested)
            plans.append(Sort(Map(unnested, "s", FuncCall(
                "string", [AttrRef("w_i")])), ["s"]))
    return plans


@settings(max_examples=25, deadline=None)
@given(entries)
def test_node_columns_agree_on_every_arena_kind(rows):
    for db in _databases(rows):
        for plan in _node_plans():
            agree(plan, db.store)


def test_scan_columns_are_the_column_types_the_kernels_read():
    """The differential above is about these lanes, not about a row
    fallback that happens to agree."""
    db = _databases([(0, 1, [2, 2]), (2, None, []), (0, 3, [4])])[1]
    ctx = EvalContext(db.store)
    batch = run_vectorized(_scan(), ctx)
    assert type(batch.column("k")) is NodeColumn
    assert batch.column("y")[1] is NULL          # no @y on the second
    authors = run_vectorized(Map(_scan(), "w", TupledSeq(
        PathApply(AttrRef("e"), parse_path("a")), "w_i")), ctx)
    column = authors.column("w")
    assert type(column) is SeqColumn
    assert column.owners == [0, 0, 2] and type(column.items) is NodeColumn
    assert [len(seq) for seq in column] == [2, 0, 1]
    unnested = run_vectorized(Unnest(Map(_scan(), "w", TupledSeq(
        PathApply(AttrRef("e"), parse_path("a")), "w_i")),
        "w", ["w_i"], dedup=True), ctx)
    assert type(unnested.column("w_i")) is NodeColumn
    assert len(unnested) == 2
    assert isinstance(Batch.from_rows([]).column("anything"), list)


# ----------------------------------------------------------------------
# The correlation lanes: attr = $outer, $outer ∈ seq
# ----------------------------------------------------------------------
def _correlated(ctx):
    """The batch a nested plan's σ sees: ``k`` one node per row, ``w``
    a flat sequence column, ``y`` a plain list with NULLs."""
    batch = run_vectorized(Map(_scan(), "w", TupledSeq(
        PathApply(AttrRef("e"), parse_path("a/n")), "w_i")), ctx)
    assert type(batch.column("k")) is NodeColumn
    assert type(batch.column("w")) is SeqColumn
    return batch


@settings(max_examples=25, deadline=None)
@given(entries)
def test_correlation_lanes_agree_with_general_compare(rows):
    """Every outer value kind against a node column and a sequence
    column of every arena kind: the lane answers what
    ``general_compare`` answers for each row, or refuses (None)."""
    outer = KEYS + tuple(TEXTS)
    for db in _databases(rows):
        ctx = EvalContext(db.store)
        batch = _correlated(ctx)
        tuples = batch.to_rows()
        taken = 0
        for value in outer + (tuples[0]["k"], tuples[-1]["e"]):
            env = Tup({"o": value})
            for pred in (Comparison(AttrRef("k"), "=", AttrRef("o")),
                         Comparison(AttrRef("o"), "=", AttrRef("k")),
                         Comparison(AttrRef("o"), "=", AttrRef("o")),
                         Comparison(AttrRef("k"), "=", AttrRef("k")),
                         Comparison(AttrRef("k"), "=", AttrRef("y")),
                         Comparison(AttrRef("k"), "=", AttrRef("w")),
                         In(AttrRef("o"), AttrRef("w")),
                         In(AttrRef("k"), AttrRef("w")),
                         In(AttrRef("y"), AttrRef("w")),
                         In(AttrRef("o"), AttrRef("k"))):
                try:
                    expected = [bool(pred.evaluate(env.concat(row), ctx))
                                for row in tuples]
                except EvaluationError:
                    continue
                mask = _predicate_mask(pred, batch, env, ctx)
                assert mask is None or mask == expected, (pred, value)
                taken += mask is not None
        assert taken >= 6 * len(outer)   # the lanes, not the refusals


def test_equality_lane_on_broadcast_pairs():
    """Both sides broadcast — 1 / "1" / 1.0 / -0.0 / NaN / "NaN" / ""
    / NULL / booleans / builder nodes / multi-item and empty
    sequences, each against each (and against itself: one NaN object
    on both sides still equals nothing)."""
    for left in KEYS:
        for right in KEYS:
            mask = compare_columns(BroadcastColumn([left] * 3), "=",
                                   BroadcastColumn([right] * 3))
            assert mask == [general_compare(left, "=", right)] * 3, \
                (left, right)


def test_correlation_lanes_are_taken_for_the_shapes_of_q1_and_q2(
        monkeypatch):
    """Not a row fallback that happens to agree: the two lanes never
    call ``general_compare``; any other operator on text still does,
    once per row."""
    from repro.engine import batch as batch_module
    db = _databases([(0, 1, [2, 0]), (2, None, []), (1, 3, [4])])[1]
    ctx = EvalContext(db.store)
    batch = _correlated(ctx)
    calls = []
    monkeypatch.setattr(
        batch_module, "general_compare",
        lambda *args: calls.append(args) or general_compare(*args))
    env = Tup({"o": "x", "n": element("k", "1")})
    assert _predicate_mask(Comparison(AttrRef("k"), "=", AttrRef("o")),
                           batch, env, ctx) == [False, True, False]
    assert _predicate_mask(Comparison(AttrRef("n"), "=", AttrRef("k")),
                           batch, env, ctx) == [True, False, True]
    assert _predicate_mask(In(AttrRef("n"), AttrRef("w")),
                           batch, env, ctx) == [True, False, False]
    assert not calls
    assert _predicate_mask(Comparison(AttrRef("k"), "<", AttrRef("o")),
                           batch, env, ctx) == [True, False, True]
    assert len(calls) == 3


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.sampled_from(NUMBERS), max_size=3), max_size=6),
       st.data())
def test_seq_column_take_stays_flat(sequences, data):
    """``take`` (with repetition, as ``replicate`` uses it) keeps the
    column flat and denotes the rows the degraded lists denote."""
    owners = [row for row, seq in enumerate(sequences) for _ in seq]
    column = SeqColumn("v", owners, [v for seq in sequences for v in seq],
                       len(sequences))
    indices = data.draw(st.lists(st.sampled_from(range(len(sequences))),
                                 max_size=8)) if sequences else []
    taken = column.take(indices)
    assert type(taken) is SeqColumn and len(taken) == len(indices)
    assert taken.owners == sorted(taken.owners)
    assert exact(list(taken)) == exact([column[i] for i in indices])
    batch = Batch.from_columns({"s": column}, len(sequences))
    assert type(batch.take(indices).column("s")) is SeqColumn


# ----------------------------------------------------------------------
# Γ's number fold, and NaN keys through the per-version key memo
# ----------------------------------------------------------------------
NUMERIC_VALUES = (1, 2.5, -0.0, 0.0, NAN, float("inf"), -3, 2 ** 53,
                  "3", "NaN", "-0", " 7 ", "1e3")
#: the lane refuses these: ints past 2**53, text that is no number,
#: booleans, empty and multi-item sequences
OTHER_VALUES = (2 ** 53 + 1, "x", "", True, False, [], [1, 2], NULL)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("min", "max", "sum", "avg")), st.booleans(),
       st.data())
def test_number_fold_equals_call_function(kind, numeric, data):
    """Per group, in row order: empty groups, NaN first / middle /
    last, ``-0.0`` / ``0.0`` in either order, mixed int / float — the
    fold's answer is ``call_function``'s, value and type; where the
    lane refuses, the same answer or the same error."""
    pool = NUMERIC_VALUES if numeric else NUMERIC_VALUES + OTHER_VALUES
    rows = data.draw(st.lists(st.tuples(st.integers(0, 3),
                                        st.sampled_from(pool)),
                              max_size=12))
    groups = data.draw(st.integers(0, 2)) \
        + max((group for group, _ in rows), default=-1) + 1
    ids = [group for group, _ in rows]
    values = [value for _, value in rows]
    mask = data.draw(st.one_of(st.none(), st.lists(
        st.booleans(), min_size=len(rows), max_size=len(rows))))
    members = [[v for i, v in zip(ids, values) if i == group]
               for group in range(groups)] if mask is None else \
        [[v for i, v, m in zip(ids, values, mask) if i == group and m]
         for group in range(groups)]
    batch = Batch.from_columns({"v": values}, len(values))
    try:
        expected = [call_function(kind, [group]) for group in members]
    except EvaluationError as error:
        with pytest.raises(EvaluationError, match=re.escape(str(error))):
            group_values(AggSpec(kind, "v"), batch, ids, groups, mask)
        return
    assert exact(group_values(AggSpec(kind, "v"), batch, ids, groups,
                              mask)) == exact(expected)


def test_number_fold_calls_no_function(monkeypatch):
    """A number column — plain values or a node column — never reaches
    ``call_function``; booleans do, and raise what they always raised."""
    from repro.engine import kernels
    db = _databases([(0, 1, []), (7, 2, []), (0, 6, [])])[1]
    nodes = run_vectorized(_scan(), EvalContext(db.store)).column("k")
    assert type(nodes) is NodeColumn
    monkeypatch.setattr(kernels, "call_function", None)
    for kind in ("min", "max", "sum", "avg"):
        agg = AggSpec(kind, "v")
        assert exact(group_values(agg, Batch.from_columns(
            {"v": [1, NAN, -0.0, "2"]}, 4), [1, 1, 0, 1], 3, None)) \
            == exact([call_function(kind, [group]) for group in
                      ([-0.0], [1, NAN, "2"], [])])
        assert exact(group_values(agg, Batch.from_columns({"v": nodes}, 3),
                                  [0, 1, 0], 2, None)) \
            == exact([call_function(kind, [[1.0, 1.0]]),
                      call_function(kind, [[2.0]])])
    monkeypatch.undo()
    with pytest.raises(EvaluationError, match="cannot aggregate booleans"):
        group_values(AggSpec("sum", "v"), Batch.from_columns(
            {"v": [1, True]}, 2), [0, 0], 1, None)


#: ``<w><v>…</v></w>`` rows: two ``NaN``s, a ``nan``, ``1`` and ``1.0``
#: (equal), ``x``; a ``w``'s string value is its ``v``'s, concatenated
NAN_DOC = "<r>" + "".join(f"<w><v>{v}</v></w>" for v in (
    "NaN", "1", "NaN", "nan", "1.0", "x")) + "</r>"
NAN_MATCHES = "<m><v>1</v></m><m><v>1.0</v></m><m><v>x</v></m>"
#: name → query, expected output per alternative (every alternative, both
#: engines).  The ``grouping`` alternative of a self-comparison answers
#: as if ``=`` were reflexive, so its NaN rows find themselves — the
#: rewrite's behaviour before the memo too, the same on both engines.
NAN_QUERIES = {
    "join": ('''for $a in doc("n.xml")//v, $b in doc("n.xml")//v
       where $a = $b
       return <p>{ $a }{ $b }</p>''', {
        "nested": "<p><v>1</v><v>1</v></p><p><v>1</v><v>1.0</v></p>"
                  "<p><v>1.0</v><v>1</v></p><p><v>1.0</v><v>1.0</v></p>"
                  "<p><v>x</v><v>x</v></p>"}),
    "distinct": ('''for $v in distinct-values(doc("n.xml")//v)
       return <d>{ $v }</d>''', {
        "nested": "<d>NaN</d><d>1</d><d>NaN</d><d>nan</d><d>x</d>"}),
    "group": ('''let $d1 := doc("n.xml")
       for $a1 in distinct-values($d1//v)
       return <g><k>{ $a1 }</k>{
         let $d2 := doc("n.xml")
         for $w2 in $d2/w[$a1 = v]
         return $w2/v }</g>''', dict.fromkeys(
        ("outerjoin", "nested"),
        "<g><k>NaN</k></g><g><k>1</k><v>1</v><v>1.0</v></g>"
        "<g><k>NaN</k></g><g><k>nan</k></g><g><k>x</k><v>x</v></g>")),
    "some": ('''for $t1 in doc("n.xml")//w
       where some $t2 in doc("n.xml")//w satisfies $t1 = $t2
       return <m>{ $t1/v }</m>''', {
        "semijoin": NAN_MATCHES, "nested": NAN_MATCHES,
        "grouping": "<m><v>NaN</v></m><m><v>1</v></m><m><v>NaN</v></m>"
                    "<m><v>nan</v></m><m><v>1.0</v></m><m><v>x</v></m>"}),
    "exists": ('''let $d1 := doc("n.xml")
       for $b1 in $d1//w, $a1 in $b1/v
       where exists(for $b2 in $d1//w, $a2 in $b2/v
                    where contains($a2, "a") and $b1 = $b2
                    return $b2)
       return <e>{ $a1 }</e>''', {
        "semijoin": "", "nested": "",
        "grouping": "<e><v>NaN</v></e><e><v>NaN</v></e><e><v>nan</v></e>"}),
}


@pytest.mark.parametrize("name", NAN_QUERIES)
def test_nan_keys_match_nothing_on_every_alternative(name):
    """``NaN = NaN`` is false: a ``<v>NaN</v>`` row (or a ``<w>`` whose
    string value is ``NaN``) that appears twice — both sides of a join,
    a semijoin of a document with itself — must not match itself, on
    the first run and once its keys sit in the arena's memo."""
    db = Database()
    db.register_text("n.xml", NAN_DOC)
    text, expected = NAN_QUERIES[name]
    plans = compile_query(text, db).plans()
    assert {alt.label for alt in plans} == set(expected)
    for _ in range(2):
        for alt in plans:
            for mode in ("vectorized", "reference"):
                assert db.execute(alt.plan, mode=mode).output \
                    == expected[alt.label], (alt.label, mode)
