"""Tests for the cost model (repro.optimizer.cost).

The unit of the model is arbitrary; what these tests pin down is the
*ranking* it induces: nested ≫ unnested, semijoin ≥ count-grouping, and
agreement with the measured ordering on every paper query.
"""

from __future__ import annotations

import pytest

from repro.api import compile_query
from repro.bench.queries import PAPER_QUERIES, make_database
from repro.errors import RewriteError
from repro.nal.unary_ops import Table
from repro.optimizer.cost import CostModel, TagStatistics, estimate
from repro.optimizer.rewriter import unnest_plan


def _db(key: str, **params):
    return make_database(key, **params)


# ---------------------------------------------------------------------------
# TagStatistics
# ---------------------------------------------------------------------------

def test_tag_statistics_counts_exactly():
    db = _db("q1", books=7, authors_per_book=3)
    stats = TagStatistics(db.store)
    assert stats.tag_count("bib.xml", "book") == 7
    assert stats.tag_count("bib.xml", "author") == 21
    assert stats.tag_count("bib.xml", "nosuchtag") == 0


def test_tag_statistics_unknown_document():
    db = _db("q1", books=3)
    stats = TagStatistics(db.store)
    assert stats.tag_count("missing.xml", "book") == 0
    assert stats.element_count("missing.xml") == 100.0  # fallback


def test_element_count_includes_all_elements():
    db = _db("q1", books=4, authors_per_book=2)
    stats = TagStatistics(db.store)
    # bib + 4*(book + title + 2*(author+last+first) + publisher + price)
    assert stats.element_count("bib.xml") == 1 + 4 * (4 + 2 * 3)


# ---------------------------------------------------------------------------
# Plan-level estimates
# ---------------------------------------------------------------------------

def test_table_cost_is_cardinality():
    db = _db("q2", books=3)
    table = Table("T", ["a"], [{"a": i} for i in range(5)])
    cost = estimate(table, db.store)
    assert cost.cardinality == 5


def test_nested_plan_costs_more_than_every_rewrite():
    for key in ("q1", "q2", "q3", "q4", "q5"):
        params = {"books": 20}
        db = _db(key, **params)
        query = compile_query(PAPER_QUERIES[key].text, db)
        model = CostModel(db.store)
        costs = {alt.label: model.estimate(alt.plan).total
                 for alt in query.plans()}
        nested = costs.pop("nested")
        assert all(nested > c for c in costs.values()), (key, costs)


def test_nested_cost_grows_superlinearly():
    costs = []
    for books in (10, 40):
        db = _db("q2", books=books)
        query = compile_query(PAPER_QUERIES["q2"].text, db)
        model = CostModel(db.store)
        costs.append(model.estimate(
            query.plan_named("nested").plan).total)
    assert costs[1] > 8 * costs[0]  # 4× size → ≫4× cost


def test_unnested_cost_grows_linearly():
    costs = []
    for books in (10, 40):
        db = _db("q2", books=books)
        query = compile_query(PAPER_QUERIES["q2"].text, db)
        model = CostModel(db.store)
        costs.append(model.estimate(
            query.plan_named("grouping").plan).total)
    assert costs[1] < 8 * costs[0]


# ---------------------------------------------------------------------------
# Cost-based ranking
# ---------------------------------------------------------------------------

def test_cost_ranking_never_picks_nested():
    """On every paper query the cost-ranked best plan is an unnested
    one — the model reproduces the paper's measured ordering at the
    decision that matters."""
    for key, spec in PAPER_QUERIES.items():
        params = {"books": 15} if key != "q6" else {"bids": 30}
        if key == "q1_dblp":
            params = {"books": 10, "articles": 20}
        db = _db(key, **params)
        query = compile_query(spec.text, db, ranking="cost")
        best = query.best()
        assert best.label != "nested", key
        assert best.cost is not None


def test_cost_ranking_prefers_one_scan_over_two():
    """§5.4: the count-grouping plan (one scan) must rank above the
    semijoin (two scans) under the cost model too."""
    db = _db("q4", books=25)
    query = compile_query(PAPER_QUERIES["q4"].text, db, ranking="cost")
    labels = [alt.label for alt in query.plans()]
    assert labels.index("grouping") < labels.index("semijoin")
    assert labels.index("semijoin") < labels.index("nested")


def test_cost_attached_to_all_alternatives():
    db = _db("q3", books=10)
    plans = unnest_plan(
        compile_query(PAPER_QUERIES["q3"].text, db).plan,
        db.store, ranking="cost")
    assert all(p.cost is not None for p in plans)
    totals = [p.cost.total for p in plans]
    assert totals == sorted(totals)


def test_heuristic_ranking_leaves_cost_unset():
    db = _db("q3", books=10)
    plans = unnest_plan(
        compile_query(PAPER_QUERIES["q3"].text, db).plan, db.store)
    assert all(p.cost is None for p in plans)


def test_unknown_ranking_rejected():
    db = _db("q3", books=5)
    plan = compile_query(PAPER_QUERIES["q3"].text, db).plan
    with pytest.raises(RewriteError, match="unknown ranking"):
        unnest_plan(plan, db.store, ranking="oracle")


def test_cost_first_tuple_ranking_is_gone():
    """``ranking="cost-first-tuple"`` was deleted with the mode it
    served: it is an unknown ranking like any other, and a
    ``PlanCost`` is a cardinality and a total."""
    import dataclasses

    from repro.optimizer.cost import PlanCost
    from repro.optimizer.rewriter import RANKINGS

    assert RANKINGS == ("heuristic", "cost")
    db = _db("q3", books=5)
    with pytest.raises(RewriteError, match="unknown ranking"):
        compile_query(PAPER_QUERIES["q3"].text, db,
                      ranking="cost-first-tuple").plans()
    assert [f.name for f in dataclasses.fields(PlanCost)] == \
        ["cardinality", "total"]


def test_cost_ranking_matches_measured_ordering():
    """End-to-end calibration: for q1 the cost-induced ordering of the
    four plans must match the measured times' ordering of nested vs the
    unnested family (the paper's headline claim)."""
    db = _db("q1", books=25, authors_per_book=2)
    query = compile_query(PAPER_QUERIES["q1"].text, db, ranking="cost")
    measured = {}
    for alt in query.plans():
        result = db.execute(alt.plan)
        measured[alt.label] = result.elapsed
    estimated = {alt.label: alt.cost.total for alt in query.plans()}
    # the model must put nested last, as the measurements do
    assert max(estimated, key=estimated.get) == "nested"
    assert max(measured, key=measured.get) == "nested"
