"""Unit and integration tests for the vectorized engine's batch layer.

The differential suite (``test_engine_differential.py``) already pins
vectorized ≡ pipelined ≡ reference on randomized operator
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
from repro.nal import NULL, Tup
from repro.nal.values import general_compare
from repro.optimizer.cost import preferred_mode

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


def test_fused_select_engages_and_matches_pipelined(bids_db,
                                                    monkeypatch):
    outcomes = _spy_on_fusion(monkeypatch)
    plan = compile_query(BIDS_QUERY, bids_db).best().plan
    pipelined = bids_db.execute(plan, mode="pipelined")
    vectorized = bids_db.execute(plan, mode="vectorized")
    assert outcomes == [True], "fused pass should engage on this shape"
    assert vectorized.rows == pipelined.rows
    assert vectorized.output == pipelined.output


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
    pipelined = db.execute(plan, mode="pipelined")
    vectorized = db.execute(plan, mode="vectorized")
    assert outcomes == [False], \
        "non-numeric text must bail out of the fused pass"
    assert vectorized.rows == pipelined.rows
    assert vectorized.output == pipelined.output


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
    assert mode in ("pipelined", "vectorized")
    assert mode == "vectorized", \
        "a scan-filter plan over hundreds of tuples should go columnar"
    auto = bids_db.execute(plan, mode="auto")
    explicit = bids_db.execute(plan, mode=mode)
    assert auto.rows == explicit.rows
    assert auto.output == explicit.output

