"""Access-path selection (`repro.optimizer.access_paths`): when does a
scan become an IndexScan, what must the pass refuse, and do indexed
plans preserve outputs, order and stats semantics."""

from __future__ import annotations

import pytest

from repro.api import Database, compile_query
from repro.bench.queries import PAPER_QUERIES
from repro.datagen import (
    BIB_DTD,
    ITEMS_DTD,
    generate_bib,
    generate_items,
)
from repro.nal.pretty import plan_to_dot
from repro.nal.unary_ops import IndexScan
from repro.optimizer.access_paths import apply_access_paths
from repro.optimizer.rewriter import unnest_plan

VALUE_QUERY = """
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple
where $i1/reserveprice > 400
return <expensive> { $i1/itemno } </expensive>
"""

STRUCTURAL_QUERY = """
let $d1 := doc("items.xml")
for $n1 in $d1//itemno
return <i> { $n1 } </i>
"""


def items_db(mode: str = "lazy", items: int = 150,
             seed: int = 3) -> Database:
    db = Database(index_mode=mode)
    db.register_tree("items.xml", generate_items(items, seed=seed),
                     dtd_text=ITEMS_DTD)
    return db


def index_scans(plan) -> list[IndexScan]:
    return [op for op in plan.walk() if isinstance(op, IndexScan)]


# ----------------------------------------------------------------------
# Plan enumeration
# ----------------------------------------------------------------------
def test_indexed_variant_offered_and_ranked_first():
    query = compile_query(VALUE_QUERY, items_db())
    labels = [alt.label for alt in query.plans()]
    assert labels == ["nested+index", "nested"]
    assert query.plans()[0].rank < query.plans()[-1].rank
    assert "access-paths" in query.plans()[0].applied


def test_index_mode_off_yields_no_indexed_plans():
    query = compile_query(VALUE_QUERY, items_db(mode="off"))
    assert [alt.label for alt in query.plans()] == ["nested"]


def test_unnest_plan_access_paths_override():
    db = items_db(mode="off")
    query = compile_query(VALUE_QUERY, db)
    forced = unnest_plan(query.plan, db.store, access_paths=True)
    assert any(a.label.endswith("+index") for a in forced)
    db2 = items_db(mode="eager")
    suppressed = unnest_plan(compile_query(VALUE_QUERY, db2).plan,
                             db2.store, access_paths=False)
    assert not any(a.label.endswith("+index") for a in suppressed)


def test_cost_ranking_prefers_index_plan():
    db = items_db(mode="eager")
    query = compile_query(VALUE_QUERY, db, ranking="cost")
    best = query.best()
    assert best.label == "nested+index"
    assert best.cost is not None
    scan = query.plan_named("nested")
    assert best.cost.total < scan.cost.total


# ----------------------------------------------------------------------
# Rewrite shapes
# ----------------------------------------------------------------------
def test_value_predicate_becomes_value_probe():
    query = compile_query(VALUE_QUERY, items_db())
    scans = index_scans(query.plans()[0].plan)
    assert len(scans) == 1
    probe = scans[0].probe
    assert probe.kind == "value"
    assert probe.op == ">" and probe.value == 400 and probe.lift == 1
    assert probe.steps == (("descendant", "itemtuple"),
                           ("child", "reserveprice"))
    # the matched conjunct is consumed: no Select survives
    text = query.explain("nested+index")
    assert "σ" not in text and "IdxScan" in text


def test_structural_path_becomes_element_probe():
    query = compile_query(STRUCTURAL_QUERY, items_db())
    scans = index_scans(query.plans()[0].plan)
    assert len(scans) == 1
    assert scans[0].probe.kind == "element"


def test_correlated_predicate_keeps_structural_probe_only():
    # $t1 is a query variable, not a constant: the value index cannot
    # answer it, but the structural scan is still replaced.
    db = Database(index_mode="lazy")
    db.register_tree("bib.xml", generate_bib(20, 2, seed=3),
                     dtd_text=BIB_DTD)
    query = compile_query("""
let $d1 := doc("bib.xml")
for $t1 in distinct-values($d1//title)
for $b2 in $d1//book
where $b2/title = $t1
return <t> { $t1 } </t>
""", db)
    indexed = query.plan_named("nested+index").plan
    kinds = [s.probe.kind for s in index_scans(indexed)]
    assert kinds == ["element"]
    scan_out = db.execute(query.plan_named("nested").plan)
    idx_out = db.execute(indexed)
    assert idx_out.output == scan_out.output


def test_rewrite_descends_into_nested_subscript_plans():
    spec = PAPER_QUERIES["q1"]
    db = spec.build_db(books=12)
    db.store.indexes.mode = "lazy"
    query = compile_query(spec.text, db)
    nested_indexed = query.plan_named("nested+index").plan
    # the site sits inside the χ subscript: top-level walk() sees no
    # IndexScan, but the plan text shows it beneath the ⟨nested⟩ marker
    assert index_scans(nested_indexed) == []
    assert "IdxScan" in query.explain("nested+index")


def test_apply_access_paths_returns_none_without_sites():
    db = items_db()
    from repro.nal.unary_ops import Singleton
    assert apply_access_paths(Singleton(), db.store) is None


def test_unknown_document_is_not_rewritten():
    db = items_db()
    query = compile_query(VALUE_QUERY, db)
    other = Database(index_mode="lazy")   # no items.xml registered
    assert apply_access_paths(query.plan, other.store) is None


def test_plan_to_dot_renders_index_scan():
    query = compile_query(VALUE_QUERY, items_db())
    dot = plan_to_dot(query.plans()[0].plan)
    assert "IdxScan" in dot and "digraph" in dot


# ----------------------------------------------------------------------
# Execution semantics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("text, items, seed, exact", [
    (VALUE_QUERY, 150, 3, None),
    # the selective predicate of the retired bench_q7_index.py at its
    # CI size: (matches, scan-leg visits, index-leg visits)
    (VALUE_QUERY.replace("> 400", "> 480"), 2000, 7, (31, 10944, 347)),
], ids=("small", "q7"))
def test_indexed_plan_zero_scans_and_identical_output(text, items, seed,
                                                      exact):
    db = items_db(mode="eager", items=items, seed=seed)
    query = compile_query(text, db)
    scan = db.execute(query.plan_named("nested").plan)
    idx = db.execute(query.plan_named("nested+index").plan)
    assert idx.output == scan.output
    assert idx.rows == scan.rows
    assert scan.stats["total_scans"] == 1
    assert idx.stats["total_scans"] == 0
    assert idx.stats["total_probes"] == 1
    assert idx.stats["node_visits"] < scan.stats["node_visits"]
    if exact is not None:
        assert (idx.output.count("<expensive>"),
                scan.stats["node_visits"],
                idx.stats["node_visits"]) == exact


def test_indexed_plan_reference_mode_agrees():
    db = items_db()
    query = compile_query(VALUE_QUERY, db)
    plan = query.plan_named("nested+index").plan
    assert db.execute(plan, mode="reference").output == \
        db.execute(plan).output


@pytest.mark.parametrize("key", sorted(PAPER_QUERIES))
def test_paper_queries_indexed_variants_match_their_base(key):
    spec = PAPER_QUERIES[key]
    db = spec.build_db()
    db.store.indexes.mode = "lazy"
    query = compile_query(spec.text, db)
    indexed = [a for a in query.plans() if a.label.endswith("+index")]
    assert indexed, f"{key}: no indexed variant offered"
    for alt in indexed:
        base_label = alt.label[:-len("+index")]
        base = db.execute(query.plan_named(base_label).plan)
        probed = db.execute(alt.plan)
        assert probed.output == base.output, alt.label
        assert probed.rows == base.rows, alt.label
        assert probed.stats["total_probes"] > 0, alt.label


def test_empty_result_query_still_equivalent():
    db = items_db()
    query = compile_query("""
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple
where $i1/reserveprice > 99999
return <none> { $i1/itemno } </none>
""", db)
    idx = db.execute(query.plan_named("nested+index").plan)
    scan = db.execute(query.plan_named("nested").plan)
    assert idx.output == scan.output == ""
    assert idx.rows == scan.rows == []
