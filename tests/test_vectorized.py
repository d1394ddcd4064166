"""Unit and integration tests for the vectorized engine's batch layer.

The differential suite (``test_engine_differential.py``) already pins
vectorized ≡ reference on randomized operator
trees; this file tests the batch machinery itself — ``Batch``
immutability and lazy caching, the numeric-column kernel and its
parity with ``general_compare``, the fused select-over-map pass (that it
engages on the normalizer's ``where`` shape, bails out on
non-reproducible data, and stays disabled under observation) and the
``auto`` mode dispatch.
"""

from __future__ import annotations

import pytest
from _pytest.monkeypatch import MonkeyPatch
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.vectorized as vec
from repro import Delete, Insert, Replace, plan_to_string
from repro.api import Database, compile_query, trace_query
from repro.datagen import BIDS_DTD, generate_bids
from repro.engine.batch import (
    Batch,
    BatchBuffers,
    BroadcastColumn,
    NodeColumn,
    compare_columns,
    numeric_column,
    selection_vector,
)
from repro.engine.context import EvalContext
from repro.engine.executor import DEFAULT_MODE, execute
from repro.nal import NULL, Project, Table, Tup
from repro.nal.construct import (
    Construct,
    GroupConstruct,
    Lit,
    Out,
    render_value,
)
from repro.nal.scalar import (
    AttrRef,
    Const,
    FuncCall,
    NestedPlan,
    PathApply,
)
from repro.nal.values import general_compare
from repro.optimizer.cost import preferred_mode
from repro.xmldb.arena import LazyNodes
from repro.xmldb.node import NodeSequence, element
from repro.xmldb.parser import parse_document
from repro.xpath.parser import parse_path
from tests.conftest import ledger, ledger_query
from tests.test_xml_roundtrip import trees

BIDS_QUERY = '''
let $d1 := doc("bids.xml")
for $b1 in $d1//bidtuple
where $b1/bid >= 900
return <big>{ $b1/itemno }</big>
'''


@pytest.fixture
def bids_db() -> Database:
    db = Database()
    db.register_tree("bids.xml", generate_bids(300, items=60, seed=7),
                     dtd_text=BIDS_DTD)
    return db


# ----------------------------------------------------------------------
# Batch representation
# ----------------------------------------------------------------------
def test_batch_row_column_roundtrip():
    rows = [Tup({"A": i, "B": i * 10}) for i in range(4)]
    batch = Batch.from_rows(rows)
    assert not batch.is_columnar
    assert batch.column("B") == [0, 10, 20, 30]
    again = Batch.from_columns({"A": batch.column("A"),
                                "B": batch.column("B")}, len(batch))
    assert again.is_columnar
    assert again.to_rows() == rows


def test_batch_to_rows_is_cached():
    batch = Batch.from_columns({"A": [1, 2]}, 2)
    assert batch.to_rows() is batch.to_rows()


def test_take_preserves_the_source_batch():
    batch = Batch.from_columns({"A": [0, 1, 2, 3]}, 4)
    taken = batch.take(selection_vector([3, 1]))
    assert taken.column("A") == [3, 1]
    assert len(taken) == 2
    # the source is untouched (batch immutability)
    assert batch.column("A") == [0, 1, 2, 3]
    assert len(batch) == 4


def test_with_column_appends_without_mutating():
    batch = Batch.from_columns({"A": [1, 2]}, 2)
    extended = batch.with_column("B", ["x", "y"])
    assert extended.attrs == ("A", "B")
    assert extended.to_rows() == [Tup({"A": 1, "B": "x"}),
                                  Tup({"A": 2, "B": "y"})]
    assert batch.attrs == ("A",)


def test_replicate_builds_the_unnest_shape():
    batch = Batch.from_columns({"A": [10, 20]}, 2)
    out = batch.replicate([0, 0, 1], "v", ["a", "b", "c"])
    assert out.to_rows() == [Tup({"A": 10, "v": "a"}),
                             Tup({"A": 10, "v": "b"}),
                             Tup({"A": 20, "v": "c"})]


def test_project_and_rename():
    batch = Batch.from_columns({"A": [1], "B": [2], "C": [3]}, 1)
    assert batch.project(("C", "A")).attrs == ("C", "A")
    assert batch.project_away(("B",)).attrs == ("A", "C")
    renamed = batch.rename({"A": "X"})
    assert renamed.attrs == ("X", "B", "C")
    assert renamed.column("X") == [1]


def test_batch_buffers_pool_reuses_released_buffers():
    buffers = BatchBuffers()
    first = buffers.acquire()
    first.extend([1, 2, 3])
    buffers.release(first)
    second = buffers.acquire()
    assert second is first and second == []   # cleared and reused
    assert buffers.peak == 1 and buffers.acquired == 2


# ----------------------------------------------------------------------
# Numeric kernels
# ----------------------------------------------------------------------
def test_numeric_column_edges():
    assert numeric_column([1, 2.5, "3", NULL]) == [1.0, 2.5, 3.0, None]
    # any non-numeric entry disqualifies the whole column
    assert numeric_column([1, "not a number"]) is None
    # booleans are not numbers under the comparison semantics
    assert numeric_column([1, True]) is None
    # ints beyond exact float range must not be silently rounded
    assert numeric_column([2 ** 53 + 1]) is None


def test_numeric_column_broadcast():
    broadcast = BroadcastColumn([7] * 1000)
    assert numeric_column(broadcast) == [7.0] * 1000
    assert numeric_column(BroadcastColumn(["x"] * 5)) is None


@pytest.mark.parametrize("op", ("=", "!=", "<", "<=", ">", ">="))
def test_compare_columns_matches_general_compare(op):
    left = [1, 2.0, "3", NULL, 5]
    right = [1.0, 3, 2, 4, NULL]
    mask = compare_columns(left, op, right)
    assert mask == [general_compare(l, op, r)
                    for l, r in zip(left, right)]
    assert mask[3] is False and mask[4] is False   # NULL compares false


# ----------------------------------------------------------------------
# Fused select-over-map
# ----------------------------------------------------------------------
def _spy_on_fusion(monkeypatch):
    """Wrap the fused kernel; records True per engaged batch, False per
    data-dependent bail-out."""
    import repro.engine.vectorized as vec
    outcomes: list[bool] = []
    real = vec._fused_select_map

    def spy(plan, fusion, batch, env, ctx):
        result = real(plan, fusion, batch, env, ctx)
        outcomes.append(result is not None)
        return result

    monkeypatch.setattr(vec, "_fused_select_map", spy)
    return outcomes


def test_fused_select_engages_and_matches_reference(bids_db,
                                                    monkeypatch):
    outcomes = _spy_on_fusion(monkeypatch)
    plan = compile_query(BIDS_QUERY, bids_db).best().plan
    reference = bids_db.execute(plan, mode="reference")
    vectorized = bids_db.execute(plan, mode="vectorized")
    assert outcomes == [True], "fused pass should engage on this shape"
    assert vectorized.rows == reference.rows
    assert vectorized.output == reference.output


def test_fused_select_bails_on_non_numeric_text(monkeypatch):
    db = Database()
    db.register_text(
        "vals.xml",
        "<r>" + "".join(f"<e><v>{text}</v></e>"
                        for text in ("10", "25", "oops", "40")) + "</r>",
        dtd_text="<!ELEMENT r (e*)>\n<!ELEMENT e (v)>\n"
                 "<!ELEMENT v (#PCDATA)>")
    query = '''
for $x in doc("vals.xml")//e
where $x/v >= 20
return <m>{ $x/v }</m>
'''
    outcomes = _spy_on_fusion(monkeypatch)
    plan = compile_query(query, db).best().plan
    reference = db.execute(plan, mode="reference")
    vectorized = db.execute(plan, mode="vectorized")
    assert outcomes == [False], \
        "non-numeric text must bail out of the fused pass"
    assert vectorized.rows == reference.rows
    assert vectorized.output == reference.output


def test_fusion_disabled_under_analyze(bids_db, monkeypatch):
    outcomes = _spy_on_fusion(monkeypatch)
    plan = compile_query(BIDS_QUERY, bids_db).best().plan
    plain = bids_db.execute(plan, mode="vectorized")
    analyzed = bids_db.execute(plan, mode="vectorized", analyze=True)
    assert outcomes == [True], \
        "only the un-analyzed run may use the fused pass"
    assert analyzed.rows == plain.rows
    assert analyzed.operator_counts, \
        "EXPLAIN ANALYZE must still record per-operator counts"


def test_vectorized_metrics_are_recorded(bids_db):
    _, result = trace_query(BIDS_QUERY, bids_db, mode="vectorized")
    batch_counters = [name for name in result.metrics.counters
                      if name.startswith("vectorized.")
                      and name.endswith(".batches")]
    assert batch_counters, "vectorized.* batch counters missing"
    histograms = [name for name in result.metrics.histograms
                  if name.startswith("vectorized.")
                  and name.endswith(".rows_per_batch")]
    assert histograms, "rows_per_batch histograms missing"


# ----------------------------------------------------------------------
# Mode selection
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", (None, 2))
def test_auto_mode_matches_explicit_modes(bids_db, workers):
    plan = compile_query(BIDS_QUERY, bids_db).best().plan
    mode = preferred_mode(plan, bids_db.store, workers=workers)
    assert mode == DEFAULT_MODE, \
        "no worker budget, or an input too small to pay for the pool"
    auto = bids_db.execute(plan, mode="auto", workers=workers)
    explicit = bids_db.execute(plan, mode=mode)
    assert auto.rows == explicit.rows
    assert auto.output == explicit.output


# ----------------------------------------------------------------------
# The mechanism, counted: handles only for what is returned, ⋉ on keys
# ----------------------------------------------------------------------
ITEMS_SCAN = ledger_query(ledger.ITEMS_SCAN, 450)
ITEMS_WITH_BID = ledger_query(ledger.ITEMS_WITH_BID, 900)


@pytest.fixture
def updated_auction() -> Database:
    """items=200 / bids=400, items.xml just republished by an update:
    its arena starts with empty lazy handle tables."""
    from repro import Replace
    from repro.datagen import ITEMS_DTD, generate_items
    from repro.xmldb.node import element
    db = Database()
    db.register_tree("items.xml", generate_items(200, seed=7),
                     dtd_text=ITEMS_DTD)
    db.register_tree("bids.xml", generate_bids(400, items=200, seed=7),
                     dtd_text=BIDS_DTD)
    target = db.store.get("items.xml").arena.tag_rows("itemtuple")[17]
    db.update("items.xml", Replace(target, element(
        "itemtuple", element("itemno", "N000001"),
        element("description", "refreshed"),
        element("offered_by", "U00001"),
        element("reserveprice", "470"))))
    return db


def test_scan_creates_handles_only_for_what_it_returns(updated_auction):
    db = updated_auction
    arena = db.store.get("items.xml").arena
    assert set(arena.nodes._cache) <= {0}          # just Document.root
    plan = compile_query(ITEMS_SCAN, db).best().plan
    result = db.execute(plan)
    assert 0 < result.row_count < 60               # ~10% of 200 items
    assert set(arena.nodes._cache) <= {0}, \
        "scan, σ, Ξ and the result read columns: no handle at all"
    assert not arena.child_lists._cache
    # Reading the rows is what creates handles: the $d1 / $i1 / $w1
    # bindings of the returned rows — nothing for the ~190 rows the σ
    # dropped.
    assert len(result.rows) == result.row_count
    assert len(arena.nodes._cache) <= 2 * result.row_count + 1
    assert result.output == db.execute(plan, mode="reference").output


def test_pushed_semijoin_runs_on_key_columns(updated_auction,
                                             monkeypatch):
    """⋉ with a bare-equality predicate (what the rewriter emits):
    neither input is ever turned into rows — and since Ξ renders
    columns and the result stays a batch, nothing else is either."""
    import repro.engine.vectorized as vec
    db = updated_auction
    plan = compile_query(ITEMS_WITH_BID, db).plan_named("semijoin").plan
    materialized: list[tuple] = []
    real = Batch.to_rows

    def spy(batch):
        materialized.append((batch.attrs, len(batch)))
        return real(batch)

    monkeypatch.setattr(Batch, "to_rows", spy)
    monkeypatch.setattr(vec, "semi_anti_rows", None)  # must not be needed
    result = db.execute(plan)
    assert 0 < result.row_count < 200, "the left input had 200 rows"
    assert materialized == []
    assert result.rows                  # asking is what makes rows
    assert materialized == [(("d1", "i1"), result.row_count)]
    monkeypatch.undo()
    assert result.output == db.execute(plan, mode="reference").output


def test_bailed_out_columnar_pass_leaves_no_statistics():
    """A χ whose first argument is columnar and whose second is not
    (an attribute step): the columnar attempt is rolled back, so the
    row interpreter's own recording is the only one (``node_visits`` ≡
    reference)."""
    db = Database()
    db.register_text("v.xml", "<r>" + "".join(
        f'<e k="{k}"><v>{k}</v></e>' for k in range(8)) + "</r>")
    query = '''
for $x in doc("v.xml")//e
let $s := concat($x/v, $x/@k)
return <m>{ $s }</m>
'''
    plan = compile_query(query, db).best().plan
    default = db.execute(plan)
    reference = db.execute(plan, mode="reference")
    assert default.output == reference.output != ""
    assert default.stats["node_visits"] == reference.stats["node_visits"]
    assert default.stats["document_scans"] == \
        reference.stats["document_scans"]


# ----------------------------------------------------------------------
# Columnar Ξ / ΞG: column lane ≡ row loop ≡ reference
# ----------------------------------------------------------------------
SCAN_COUNTERS = ("document_scans", "index_probes", "node_visits")


class _Lanes:
    """Runs plans on Ξ's column lane and with the row loop forced, and
    counts how often the column lane actually rendered."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.columnar = 0
        real = vec._command_columns

        def spy(*args):
            columns = real(*args)
            self.columnar += columns is not None
            return columns

        monkeypatch.setattr(vec, "_command_columns", spy)

    def forced_rows(self, plan, store):
        with self.monkeypatch.context() as patch:
            patch.setattr(vec, "_command_columns", lambda *args: None)
            return execute(plan, store)

    def check(self, plan, store, columnar: bool | None = None):
        """Byte-identical output and equal scan statistics on both
        lanes and under the reference evaluator."""
        before = self.columnar
        default = execute(plan, store)
        if columnar is not None:
            assert (self.columnar > before) is columnar
        rows = self.forced_rows(plan, store)
        reference = execute(plan, store, mode="reference")
        assert default.output == rows.output == reference.output
        for counter in SCAN_COUNTERS:
            assert default.stats[counter] == rows.stats[counter] \
                == reference.stats[counter], counter
        assert default.rows == reference.rows
        return default.output


@pytest.fixture
def lanes(monkeypatch) -> _Lanes:
    return _Lanes(monkeypatch)


#: every ``{…}`` shape the translator emits over a ``for`` variable:
#: element / text / attribute results, zero, one and several nodes per
#: row, functions over paths, a nested FLWR
CONSTRUCT_QUERIES = (
    'for $x in doc("d.xml")//a return <m>{ $x }</m>',
    'for $x in doc("d.xml")//a return <m>{ $x/b }</m>',
    'for $x in doc("d.xml")//a return <m k="1">{ $x/b//item }|{ $x/a }</m>',
    'for $x in doc("d.xml")//a return <m>{ $x/text() }</m>',
    'for $x in doc("d.xml")//a return <m>{ $x/@b }{ $x/@x1 }</m>',
    # a columnar pass that has recorded its walk, then a refusal: the
    # row loop's own recording must be the only one left
    'for $x in doc("d.xml")//a return <m>{ $x/b }{ $x/@b }</m>',
    'for $t in doc("d.xml")//a/text() return <m>{ $t }</m>',
    'for $k in doc("d.xml")//a/@b return <m>{ $k }</m>',
    'for $x in doc("d.xml")//a return <m>{ string($x) }</m>',
    'for $x in doc("d.xml")//a return <m>{ count($x//b) }</m>',
    'for $x in doc("d.xml")//a let $n := count($x/b) '
    'return <m>{ $n }{ data($x/b) }</m>',
    'for $x in doc("d.xml")//a return '
    '<m>{ for $y in $x/b return $y/a }</m>',
    'for $x in collection("d*.xml")//a return <m>{ $x/b }{ $x }</m>',
)


@settings(max_examples=40, deadline=None)
@given(trees(), trees(), st.booleans())
def test_construct_lanes_agree_on_generated_documents(tree, other,
                                                      updated):
    """Ξ over generated documents (``& < > " '`` in text and attribute
    values, mixed content, nesting tags): the column lane, the forced
    row loop and the reference evaluator write the same bytes and
    record the same scans — on a builder arena, a post-update delta
    arena and a two-arena ``collection()`` column alike."""
    db = Database()
    db.register_tree("d.xml", element("r", element("a", tree)))
    db.register_tree("d2.xml", element("r", element("a", other)))
    if updated:
        db.update("d.xml", Insert(1, 0, element(
            "b", element("a", "x<&>y"), "tail & more")))
    with MonkeyPatch.context() as patch:
        lanes = _Lanes(patch)
        for text in CONSTRUCT_QUERIES:
            for alt in compile_query(text, db).plans():
                lanes.check(alt.plan, db.store)


def test_lane_is_chosen_by_expression_type(lanes):
    db = Database()
    db.register_text("d.xml", "<r>" + "".join(
        f"<a k='{k}'><b>{k}</b><b>{k}&amp;</b></a>" for k in range(5))
        + "</r>")

    def best(text):
        return compile_query(text, db).best().plan

    for text, columnar in (
            (CONSTRUCT_QUERIES[0], True),      # {$x} over a NodeColumn
            (CONSTRUCT_QUERIES[1], True),      # {$x/b}: the step kernel
            (CONSTRUCT_QUERIES[10], False),    # data(path)
            (CONSTRUCT_QUERIES[9], False),     # count(path)
            (CONSTRUCT_QUERIES[4], True),      # attribute axis: a step
            (CONSTRUCT_QUERIES[5], True),      # … after a columnar path
            (CONSTRUCT_QUERIES[11], True)):    # {$t}: a χ's nested plan
        lanes.check(best(text), db.store, columnar=columnar)
    # observing does not change the lane
    before = lanes.columnar
    _, traced = trace_query(CONSTRUCT_QUERIES[1], db)
    analyzed = db.execute(best(CONSTRUCT_QUERIES[1]), analyze=True)
    assert lanes.columnar == before + 2
    assert traced.output == analyzed.output
    assert analyzed.operator_counts[()] == (1, 5)
    counters = traced.metrics.snapshot()["counters"]
    assert counters["operator.Construct.invocations"] == 1
    assert counters["operator.Construct.rows_out"] == 5


def test_nested_construct_keeps_the_row_loop(lanes):
    """A ``{…}`` holding a Ξ-bearing plan writes to the output stream
    while it is evaluated, so its host must emit row by row."""
    inner = Construct(Table("U", ["j"], [{"j": "a"}, {"j": "b"}]), [
        Lit("<i>"), Out(AttrRef("i")), Out(AttrRef("j")), Lit("</i>")])
    plan = Construct(Table("T", ["i"], [{"i": 1}, {"i": 2}]), [
        Lit("<o>"), Out(NestedPlan(Project(inner, ["j"]))),
        Lit("</o>")])
    output = lanes.check(plan, Database().store, columnar=False)
    assert output == "<o><i>1a</i><i>1b</i>ab</o>" \
                     "<o><i>2a</i><i>2b</i>ab</o>"


RENDERED_VALUES = (
    2.0, 2.5, -0.0, 10 ** 20, 7, True, False, "", "a&b<c>d", "x",
    NULL, NodeSequence(), [1, "<", 2.0], Tup({"v": "t&t"}),
    [Tup({"v": 1}), Tup({"v": NULL})],
    element("b", "built & <not> frozen", k="q\"<"),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(range(len(RENDERED_VALUES))),
                max_size=6))
def test_construct_renders_every_value_kind_alike(picks):
    """Floats, booleans, NULL, empty and nested sequences, tuples,
    strings holding markup and builder-tree nodes, as batch columns
    and as outer bindings (Ξ inside a nested plan sees them in
    ``env``)."""
    rows = [{"a": RENDERED_VALUES[i], "i": n}
            for n, i in enumerate(picks)]
    plan = Construct(Table("T", ["a", "i"], rows), [
        Lit("<m>"), Out(AttrRef("a")), Lit("|"), Out(Const(1.0)),
        Out(FuncCall("string", [AttrRef("i")])), Out(AttrRef("o")),
        Lit("</m>")])
    store = Database().store
    for outer in RENDERED_VALUES:
        env = Tup({"o": outer})
        ctx = EvalContext(store)
        vec.run_vectorized(plan, ctx, env)
        reference = EvalContext(store)
        plan.evaluate(reference, env)
        assert ctx.output_text() == reference.output_text()
    assert ctx.output_text().count("<m>") == len(rows)


def test_path_from_an_outer_binding_renders_columnar(lanes):
    """``{ $o/b }`` with ``$o`` bound by the host of a nested plan: the
    source is a broadcast of the ``env`` value."""
    db = Database()
    arena = db.register_text(
        "d.xml", "<r><a><b>1</b><b>2&amp;</b></a><a/></r>").arena
    plan = Construct(Table("T", ["i"], [{"i": 1}, {"i": 2}]), [
        Out(PathApply(AttrRef("o"), parse_path("b"))), Lit(";")])
    for pre in arena.tag_rows("a"):
        env = Tup({"o": arena.nodes[pre]})
        ctx = EvalContext(db.store)
        vec.run_vectorized(plan, ctx, env)
        reference = EvalContext(db.store)
        plan.evaluate(reference, env)
        assert ctx.output_text() == reference.output_text()
        assert ctx.stats.snapshot() == reference.stats.snapshot()
    assert lanes.columnar == 2
    # a NULL source row (an outer join's padding) selects nothing
    nodes = [arena.nodes[pre] for pre in arena.tag_rows("a")]
    padded = Table("T", ["o"], [{"o": nodes[0]}, {"o": NULL},
                                {"o": nodes[1]}])
    output = lanes.check(Construct(padded, plan.commands), db.store,
                         columnar=True)
    assert output == "<b>1</b><b>2&amp;</b>;;;"


GROUP_KEYS = (1, "1", 1.0, 2, "a", "A", NULL, True)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(GROUP_KEYS),
                          st.sampled_from(GROUP_KEYS),
                          st.sampled_from(RENDERED_VALUES[:11])),
                max_size=8),
       st.sampled_from([(), ("k",), ("k", "j")]))
def test_group_construct_lanes_agree(rows, by_attrs):
    """ΞG finds the same group boundaries on key columns as the row
    state machine does (``1`` / ``"1"`` / ``1.0`` are one key, NULL and
    booleans their own) and runs s1 / s2 / s3 over the same rows."""
    table = Table("T", ["k", "j", "v"],
                  [{"k": k, "j": j, "v": v} for k, j, v in rows])
    plan = GroupConstruct(
        table, by_attrs,
        [Lit("<g k='"), Out(AttrRef("k")), Lit("'>")],
        [Lit("<i>"), Out(AttrRef("v")), Lit("</i>")],
        [Out(AttrRef("j")), Lit("</g>")])
    store = Database().store
    with MonkeyPatch.context() as patch:
        lanes = _Lanes(patch)
        output = lanes.check(plan, store, columnar=bool(rows))
    assert output.count("<i>") == len(rows)


def test_group_construct_evaluates_paths_on_boundary_rows_only(lanes):
    """s1 / s3 walk paths from the first / last row of each group and
    nowhere else, so both lanes (and the reference) record the same
    visits."""
    db = Database()
    arena = db.register_text("d.xml", "<r>" + "".join(
        f"<a><g>{k // 3}</g><b>{k}</b><c>c{k}</c></a>"
        for k in range(8)) + "</r>").arena
    rows = [{"x": arena.nodes[pre], "g": k // 3}
            for k, pre in enumerate(arena.tag_rows("a"))]
    plan = GroupConstruct(
        Table("T", ["x", "g"], rows), ["g"],
        [Lit("<g>"), Out(PathApply(AttrRef("x"), parse_path("b")))],
        [Out(PathApply(AttrRef("x"), parse_path("c")))],
        [Out(PathApply(AttrRef("x"), parse_path("b"))), Lit("</g>")])
    output = lanes.check(plan, db.store, columnar=True)
    assert output.startswith("<g><b>0</b><c>c0</c><c>c1</c><c>c2</c>"
                             "<b>2</b></g><g><b>3</b>")


@settings(max_examples=60, deadline=None)
@given(trees())
def test_render_value_and_its_column_form_are_one_rule(tree):
    """``render_rows`` over every row of an arena — elements, text and
    attribute rows — is ``render_value`` of the row's handle."""
    arena = Database().register_tree("t.xml", tree).arena
    pres = list(range(len(arena.kinds)))
    assert vec._render_column(NodeColumn(arena, pres)) \
        == [render_value(arena.nodes[pre]) for pre in pres]
    handles = [arena.nodes[pre] for pre in pres]
    assert vec._render_column(handles) \
        == [render_value(node) for node in handles]


@pytest.mark.parametrize("mode", (DEFAULT_MODE, "reference"))
def test_character_data_is_escaped_and_round_trips(mode):
    """Text nodes, attribute nodes and atomized strings are written as
    character data: the output re-parses and the string value is
    preserved (it used to come out raw — ``<t>AT&T <x></t>``)."""
    db = Database()
    db.register_text(
        "b.xml", '<bib><book year="1&lt;2"><title>AT&amp;T &lt;x&gt;'
                 '</title></book></bib>')
    for expr, value in (("$b/title/text()", "AT&T <x>"),
                        ("string($b/title)", "AT&T <x>"),
                        ("data($b/title)", "AT&T <x>"),
                        ("$b/title", "AT&T <x>"),
                        ("$b/@year", "1<2")):
        query = f'for $b in doc("b.xml")//book return <t>{{ {expr} }}</t>'
        output = compile_query(query, db).run(mode=mode).output
        assert "&amp;" in output or "&lt;" in output, output
        assert parse_document(output).root.string_value() == value, expr


# ----------------------------------------------------------------------
# Mechanism: no Tup, no handle between the scan and the output text
# ----------------------------------------------------------------------
@pytest.fixture
def lazy_auction() -> Database:
    """The serve-http corpus at items=80 / bids=400 (after one delete each) with the server's
    lazy index, both documents just republished by an update: their
    arenas create handles on demand, so creations can be counted."""
    from repro.datagen import ITEMS_DTD, generate_items
    db = Database(index_mode="lazy")
    db.register_tree("items.xml", generate_items(81, seed=7),
                     dtd_text=ITEMS_DTD)
    db.register_tree("bids.xml", generate_bids(401, items=80, seed=7),
                     dtd_text=BIDS_DTD)
    for name, tag in (("items.xml", "itemtuple"),
                      ("bids.xml", "bidtuple")):
        db.update(name, Delete(
            db.store.get(name).arena.tag_rows(tag)[3]))
    return db


def _constructions(db: Database, plan, monkeypatch) -> tuple[int, int]:
    """``(Tups constructed, Node handles looked up)`` by one execution
    of ``plan``.  Every document is a post-update version, whose handle
    table is a :class:`LazyNodes`: each lookup is counted, whether or
    not an index build has interned the handle before."""
    made: list[int] = []
    looked_up: list[int] = []
    new_tup, lookup = Tup.__init__, LazyNodes.__getitem__
    adopt = Tup.adopt.__func__

    def counting_tup(self, data=None):
        made.append(1)
        new_tup(self, data)

    def counting_adopt(cls, data):
        made.append(1)
        return adopt(cls, data)

    def counting_lookup(self, pre):
        looked_up.append(pre)
        return lookup(self, pre)

    assert all(type(db.store.get(name).arena.nodes) is LazyNodes
               for name in db.store.names())
    db.execute(plan)                    # builds the lazy indexes
    with monkeypatch.context() as patch:
        patch.setattr(Tup, "__init__", counting_tup)
        patch.setattr(Tup, "adopt", classmethod(counting_adopt))
        patch.setattr(LazyNodes, "__getitem__", counting_lookup)
        result = db.execute(plan)
    assert result.output == db.execute(plan, mode="reference").output \
        != ""
    return len(made), len(looked_up)


@pytest.mark.parametrize("template,constant", (
    (ledger.BIDS_SCAN, 300), (ledger.BIDS_SCAN, 990),
    (ledger.ITEMS_SCAN, 100), (ledger.ITEMS_SCAN, 480),
    (ledger.ITEMS_WITH_BID, 700)))
def test_served_templates_construct_no_tup_and_no_handle(
        lazy_auction, monkeypatch, template, constant):
    """A stray ``to_rows()`` between IndexScan and the output text
    fails here, not in a ledger round."""
    plan = compile_query(ledger_query(template, constant),
                         lazy_auction).best().plan
    assert "IdxScan" in plan_to_string(plan)
    assert _constructions(lazy_auction, plan, monkeypatch) == (0, 0)


def test_popular_items_constructs_only_gammas_rows(lazy_auction,
                                                   monkeypatch):
    """``popular-items`` groups: ``string($w3)`` reads the string
    values off the arena, Γ[count] folds group ids over the key column
    and its output is a ``take`` of first rows plus one value column —
    no ``Tup``, no handle, ×, σ, Ξ and the result included."""
    db = lazy_auction
    plan = compile_query(ledger_query(ledger.POPULAR_ITEMS, 3),
                         db).best().plan
    assert "Γ[" in plan_to_string(plan)
    assert _constructions(db, plan, monkeypatch) == (0, 0)


@pytest.fixture
def lazy_paper() -> Database:
    """The ``paper-unnested`` corpus at books=40 / bids=40 (after one
    delete each), every document republished by that update."""
    from repro.datagen import (BIB_DTD, PRICES_DTD, REVIEWS_DTD,
                               generate_bib, generate_prices,
                               generate_reviews)
    db = Database()
    for name, tree, dtd, tag in (
            ("bib.xml", generate_bib(41, 2, seed=7), BIB_DTD, "book"),
            ("prices.xml", generate_prices(41, seed=7), PRICES_DTD,
             "book"),
            ("reviews.xml", generate_reviews(21, seed=7), REVIEWS_DTD,
             "entry"),
            ("bids.xml", generate_bids(41, items=8, seed=7), BIDS_DTD,
             "bidtuple")):
        db.register_tree(name, tree, dtd_text=dtd)
        db.update(name, Delete(db.store.get(name).arena.tag_rows(tag)[3]))
    return db


@pytest.mark.parametrize("key,operators", (
    ("q1", ("µD[", "Sort[", "ΞG[")), ("q2", ("Γ[", "decimal(")),
    ("q3", ("⋉[",)), ("q4", ("ΓSelf[", "contains(")),
    ("q5", ("Γ[", "/@year")), ("q6", ("Γ[",))))
def test_unnested_paper_plans_construct_no_tup_and_no_handle(
        lazy_paper, monkeypatch, key, operators):
    """The plans the rewriter chooses for Q1–Q6 go scan → group / sort
    / unnest → output text on columns alone."""
    from repro.bench.queries import PAPER_QUERIES
    plan = compile_query(PAPER_QUERIES[key].text, lazy_paper).best().plan
    assert all(op in plan_to_string(plan) for op in operators)
    assert _constructions(lazy_paper, plan, monkeypatch) == (0, 0)


def test_update_mix_reads_construct_no_tup_and_no_handle(
        updated_auction, monkeypatch):
    """The ledger's two ``update-mix`` reads under ``Database()``'s
    defaults (no index: a columnar scan), first read after an update."""
    db = updated_auction
    db.update("bids.xml", Replace(
        db.store.get("bids.xml").arena.tag_rows("bidtuple")[3],
        element("bidtuple", element("userid", "U1"),
                element("itemno", "N000001"), element("bid", "950"),
                element("biddate", "2004-01-01"))))
    for text in (ITEMS_SCAN, ITEMS_WITH_BID):
        plan = compile_query(text, db).best().plan
        assert "IdxScan" not in plan_to_string(plan)
        assert _constructions(db, plan, monkeypatch) == (0, 0)
