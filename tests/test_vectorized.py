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

from repro.api import Database, compile_query, trace_query
from repro.datagen import BIDS_DTD, generate_bids
from repro.engine.batch import (
    Batch,
    BatchBuffers,
    BroadcastColumn,
    compare_columns,
    numeric_column,
    selection_vector,
)
from repro.engine.executor import DEFAULT_MODE
from repro.nal import NULL, Tup
from repro.nal.values import general_compare
from repro.optimizer.cost import preferred_mode
from tests.conftest import ledger, ledger_query

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
def test_auto_mode_matches_explicit_modes(bids_db):
    plan = compile_query(BIDS_QUERY, bids_db).best().plan
    mode = preferred_mode(plan, bids_db.store)
    assert mode == DEFAULT_MODE, "no worker budget: nothing to decide"
    auto = bids_db.execute(plan, mode="auto")
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
    assert 0 < len(result.rows) < 60               # ~10% of 200 items
    # Per returned row: its $i1 / $w1 bindings, and what Ξ's own
    # row-at-a-time ``$i1/itemno`` touches (the item's child list) —
    # nothing for the ~190 rows the σ dropped.
    assert len(arena.nodes._cache) <= 8 * len(result.rows) + 1
    assert set(arena.child_lists._cache) <= \
        {row["i1"].pre for row in result.rows}, \
        "path steps and serialization read columns, not child lists"
    assert result.output == db.execute(plan, mode="reference").output


def test_pushed_semijoin_runs_on_key_columns(updated_auction,
                                             monkeypatch):
    """⋉ with a bare-equality predicate (what the rewriter emits):
    neither input is ever turned into rows — only the surviving left
    rows are, for Ξ and the result."""
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
    monkeypatch.undo()
    assert result.rows
    # (the attribute-less batch is □, which χ[d1:doc(…)] extends)
    assert set(materialized) == {((), 1),
                                 (("d1", "i1"), len(result.rows))}
    assert len(result.rows) < 200, "the left input had 200 rows"
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
