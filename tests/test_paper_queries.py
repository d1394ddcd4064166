"""Integration: every §5 query, every plan variant — identical results,
and the scan asymmetry the paper's tables demonstrate."""

import pytest

from repro.api import Database, compile_query
from repro.bench.queries import PAPER_QUERIES
from repro.xmldb.delta import Replace
from repro.xmldb.node import element
from tests.conftest import ledger, ledger_query, output_blocks

#: plans whose output may be a reordering of the nested plan's groups
#: (the paper notes the author order of Q1's plans is unconstrained
#: because distinct-values is unordered; the sorted group-Ξ plan uses
#: that freedom)
_ORDER_FREE = {("q1", "group-xi"), ("q1_dblp", "group-xi")}


@pytest.fixture(scope="module")
def runs():
    """Execute every plan variant of every paper query once."""
    data = {}
    for key, spec in PAPER_QUERIES.items():
        db = spec.build_db()
        q = compile_query(spec.text, db)
        executions = {}
        for alt in q.plans():
            executions[alt.label] = (alt, db.execute(alt.plan))
        data[key] = executions
    return data


@pytest.mark.parametrize("key", list(PAPER_QUERIES))
def test_all_plans_agree(runs, key):
    executions = runs[key]
    nested = executions["nested"][1]
    assert nested.output, f"{key}: nested plan produced no output"
    for label, (alt, result) in executions.items():
        if label == "nested":
            continue
        if (key, label) in _ORDER_FREE:
            assert output_blocks(result.output) == \
                output_blocks(nested.output), f"{key}/{label}"
        else:
            assert result.output == nested.output, f"{key}/{label}"


@pytest.mark.parametrize("key", list(PAPER_QUERIES))
def test_nested_plan_rescans(runs, key):
    """The nested plan scans some document once per outer tuple; every
    unnested plan scans each document O(1) times."""
    executions = runs[key]
    nested_scans = sum(
        executions["nested"][1].stats["document_scans"].values())
    for label, (alt, result) in executions.items():
        if label == "nested":
            continue
        scans = sum(result.stats["document_scans"].values())
        assert scans <= 3, f"{key}/{label} scanned {scans} times"
        assert nested_scans > 3 * scans, \
            f"{key}: nested plan did not exhibit rescanning"


def test_q1_scan_counts_match_paper(runs):
    """§5.1: outer join scans the document twice, grouping plans once,
    nested |author| + 1 times."""
    executions = runs["q1"]
    assert executions["outerjoin"][1].stats["document_scans"] == \
        {"bib.xml": 2}
    assert executions["grouping"][1].stats["document_scans"] == \
        {"bib.xml": 1}
    assert executions["group-xi"][1].stats["document_scans"] == \
        {"bib.xml": 1}
    nested = executions["nested"][1].stats["document_scans"]["bib.xml"]
    authors = executions["nested"][1].output.count("<author>")
    assert nested == authors + 1


def test_q4_grouping_saves_a_scan(runs):
    """§5.4: the counting plan avoids one of the semijoin's two scans."""
    executions = runs["q4"]
    semi = executions["semijoin"][1].stats["document_scans"]["bib.xml"]
    grouping = executions["grouping"][1].stats["document_scans"]["bib.xml"]
    assert semi == 2
    assert grouping == 1


def test_q3_semijoin_scans_each_doc_once(runs):
    stats = runs["q3"]["semijoin"][1].stats["document_scans"]
    assert stats == {"bib.xml": 1, "reviews.xml": 1}


def test_q5_results_only_post_1993_authors(runs):
    """Semantic spot check: every reported author's books are all newer
    than 1993 in the nested result too (consistency, not vacuity)."""
    output = runs["q5"]["nested"][1].output
    assert "<new-author>" in output


def test_q6_popular_items_have_three_bids(runs):
    from repro.bench.queries import PAPER_QUERIES
    import re
    spec = PAPER_QUERIES["q6"]
    db = spec.build_db()
    q = compile_query(spec.text, db)
    result = db.execute(q.plan_named("grouping").plan)
    items = re.findall(r"<popular-item>(.*?)</popular-item>",
                       result.output)
    # verify against a direct count over the generated document
    from repro.xpath.parser import parse_path
    from repro.xpath.evaluator import evaluate_path
    root = db.store.get("bids.xml").root
    for item in set(items):
        bids = [n for n in evaluate_path(root, parse_path("//bidtuple"))
                if n.child_elements("itemno")[0].string_value() == item]
        assert len(bids) >= 3


def _stops_early(plan) -> bool:
    """Whether some σ of the plan — nested subscript plans included —
    holds a nested plan in its predicate: the boolean subscripts the
    default engine decides at the first witness."""
    from repro.nal.pretty import _nested_plans
    from repro.nal.unary_ops import Select
    for op in plan.walk():
        for expr in op.scalar_exprs():
            nested = list(_nested_plans(expr))
            if nested and isinstance(op, Select):
                return True
            if any(_stops_early(inner) for inner in nested):
                return True
    return False


def _assert_scan_statistics(default, reference, plan, tag):
    """The scan-statistics contract: the default engine reports the
    definitional evaluator's ``document_scans`` on every plan — one
    scan per inner evaluation, however many slices it ran — and its
    ``node_visits`` too, except under a boolean nested subscript: there
    only the rows of the slices that ran are visited, so the count lies
    between the first-witness count and the definitional one (the
    strict cases are pinned as exact counts below, in
    ``test_pipeline_engine.py`` and ``test_subscript_slices.py``)."""
    assert default.stats["document_scans"] == \
        reference.stats["document_scans"], tag
    if _stops_early(plan):
        assert default.stats["node_visits"] <= \
            reference.stats["node_visits"], tag
    else:
        assert default.stats["node_visits"] == \
            reference.stats["node_visits"], tag


@pytest.mark.parametrize("key", ("q1", "q2", "q3", "q4", "q5", "q6"))
def test_reference_and_default_agree_on_paper_queries(key):
    """Differential testing of the default engine against the oracle on
    real query plans — results *and* the paper's "number of document
    scans" column, which the default engine's columnar scans must
    report exactly as the definitional evaluator does."""
    spec = PAPER_QUERIES[key]
    db = spec.build_db()
    q = compile_query(spec.text, db)
    for alt in q.plans():
        default = db.execute(alt.plan)
        reference = db.execute(alt.plan, mode="reference")
        assert default.output == reference.output, f"{key}/{alt.label}"
        assert default.rows == reference.rows
        _assert_scan_statistics(default, reference, alt.plan,
                                f"{key}/{alt.label}")


def test_nan_group_key_has_an_empty_group_in_every_plan():
    """``NaN = NaN`` is false, so under Q6's shape an item numbered
    ``NaN`` has no bids — whichever alternative answers, on either
    engine.  (The default engine's Γ used to empty only NULL-keyed
    groups, so its ``grouping`` plan let each NaN count itself.)"""
    from repro.datagen import BIDS_DTD
    db = Database()
    db.register_text("bids.xml", "<bids>" + "".join(
        f"<bidtuple><userid>u</userid><itemno>{no}</itemno>"
        f"<bid>1</bid><biddate>d</biddate></bidtuple>"
        for no in ("NaN", "7", "NaN", "x", "7")) + "</bids>",
        dtd_text=BIDS_DTD)
    q = compile_query(PAPER_QUERIES["q6"].text.replace(">= 3", ">= 1"),
                      db)
    assert {alt.label for alt in q.plans()} \
        == {"nested", "grouping", "outerjoin", "nestjoin"}
    for alt in q.plans():
        for mode in ("vectorized", "reference"):
            assert output_blocks(db.execute(alt.plan, mode=mode).output) \
                == ["<popular-item>7</popular-item>",
                    "<popular-item>x</popular-item>"], (alt.label, mode)


@pytest.mark.parametrize("key,first_witness,all_tuples", (
    ("q3", 2240, 2240), ("q4", 11996, 12480), ("q5", 9724, 11968)))
def test_first_witness_node_visits_are_exact(key, first_witness,
                                             all_tuples):
    """The quantifier queries' ``nested`` plans at books=32 (the
    ``paper-nested`` ledger size), exact and machine-independent:
    ``first_witness`` is what pulling the inner plan one row at a time
    visits (the ∃ of Q4 and the ∀ of Q5 stop at the first witness /
    counter-example), ``all_tuples`` what the definition visits.  The
    default engine pulls slices of 46 driving rows; one slice covers
    all 32 books, so it visits exactly what the definition does —
    the contract's upper bound."""
    spec = PAPER_QUERIES[key]
    db = spec.build_db(books=32)
    plan = compile_query(spec.text, db).plan_named("nested").plan
    assert _stops_early(plan)
    visits = db.execute(plan).stats["node_visits"]
    assert first_witness <= visits == all_tuples
    assert db.execute(plan, mode="reference").stats["node_visits"] == \
        all_tuples


def test_q5_stops_at_the_slice_with_the_counter_example():
    """Where stopping saves visits on the paper's own shape: Q5's
    ``nested`` plan at books=400, where most authors' ∀ meets a book of
    1993 or older early in the 400-book scan — the default engine runs
    only the slices up to it.  Exact counts, between the row-at-a-time
    first-witness count (771 845) and the definition's (1 143 200 —
    measured under ``mode="reference"``, which takes seconds here; the
    output is checked against the best unnested plan instead)."""
    spec = PAPER_QUERIES["q5"]
    db = spec.build_db(books=400)
    query = compile_query(spec.text, db)
    default = db.execute(query.plan_named("nested").plan)
    assert default.output == db.execute(query.plans()[0].plan).output
    assert default.stats["document_scans"] == {"bib.xml": 477}
    assert default.stats["node_visits"] == 879680


#: ``nested`` plans at size 40 under the default engine: the scans of
#: the document the inner plan re-reads, and the node visits — equal
#: ``mode="reference"``'s everywhere: q1, q2, q6 have nothing to stop
#: for, and the first slice (46 driving rows) of q3–q5's boolean
#: subscripts covers the 40 books / entries
NESTED_AT_40 = {
    "q1": (("bib.xml", 78), 33960, 33960),
    "q2": (("prices.xml", 41), 21584, 21584),
    "q3": (("reviews.xml", 40), 3440, 3440),
    "q4": (("bib.xml", 81), 19440, 19440),
    "q5": (("bib.xml", 78), 18560, 18560),
    "q6": (("bids.xml", 9), 1640, 1640),
}


@pytest.mark.parametrize("key", sorted(NESTED_AT_40))
def test_nested_plans_read_what_they_always_read(key, monkeypatch):
    """Running a value subscript on the column engine changes what an
    inner-plan run costs, not how many there are or what they read:
    scans and visits of all six ``nested`` plans at books=40 / bids=40
    are the oracle's.  The oracle stays independent —
    ``mode="reference"`` never enters ``run_vectorized`` — while the
    default enters it once per outer tuple for Q1/Q2/Q6's χ, pulls
    Q3–Q5's boolean subscripts slice by slice (never whole), and
    evaluates no inner plan by its definition."""
    from repro.bench.queries import make_database, size_keyword
    from repro.engine import vectorized
    from repro.nal.pretty import _nested_plans
    (document, scans), visits, all_tuples = NESTED_AT_40[key]
    db = make_database(key, **{size_keyword(key): 40})
    plan = compile_query(PAPER_QUERIES[key].text, db) \
        .plan_named("nested").plan
    (inner,) = [nested for op in plan.walk()
                for expr in op.scalar_exprs()
                for nested in _nested_plans(expr)]
    entered, defined = [], []
    real = vectorized.run_vectorized
    monkeypatch.setattr(
        vectorized, "run_vectorized",
        lambda plan, *args, **kw: entered.append(plan)
        or real(plan, *args, **kw))
    monkeypatch.setattr(
        type(inner), "evaluate",
        lambda self, ctx, env, original=type(inner).evaluate:
        defined.append(self) or original(self, ctx, env))

    reference = db.execute(plan, mode="reference")
    assert not entered and inner in defined
    assert reference.stats["document_scans"][document] == scans
    assert reference.stats["node_visits"] == all_tuples

    del defined[:]
    default = db.execute(plan)
    assert default.output == reference.output
    assert default.stats["document_scans"] \
        == reference.stats["document_scans"]
    assert default.stats["node_visits"] == visits
    if key in ("q1", "q2", "q6"):     # value contexts
        outer_tuples = scans - 1      # one scan is the outer plan's
        assert entered.count(inner) == outer_tuples and not defined
    else:                             # boolean: pulled slice by slice
        assert inner not in entered and inner not in defined


LEDGER_SHAPES = {
    "items-scan": ledger_query(ledger.ITEMS_SCAN, 250),
    "bids-scan": ledger_query(ledger.BIDS_SCAN, 500),
    "items-with-bid": ledger_query(ledger.ITEMS_WITH_BID, 600),
    "popular-items": ledger_query(ledger.POPULAR_ITEMS, 3),
}


def _ledger_db() -> Database:
    db = Database()
    corpus = ledger.corpus({"items": 40, "bids": 120}, seed=7)
    for name, text in sorted(corpus.items()):
        db.register_text(name, text)
    return db


def _assert_counts_match_reference(db, where=""):
    """Every alternative of every ledger shape: the default engine's
    output and scan statistics against the definitional evaluator's
    (see :func:`_assert_scan_statistics`) — the columnar kernels count
    the children a child step scans and the hits of a descendant step
    without ever building a child list."""
    for shape, text in LEDGER_SHAPES.items():
        for alt in compile_query(text, db).plans():
            default = db.execute(alt.plan)
            reference = db.execute(alt.plan, mode="reference")
            tag = f"{where}{shape}/{alt.label}"
            assert default.output == reference.output, tag
            _assert_scan_statistics(default, reference, alt.plan, tag)


def test_scan_statistics_exact_on_ledger_shapes():
    """Fresh corpus, then versions published by ``Database.update``
    (lazy handle tables, spliced ``child_counts``)."""
    db = _ledger_db()
    _assert_counts_match_reference(db, where="fresh:")
    items = db.store.get("items.xml").arena.tag_rows("itemtuple")
    db.update("items.xml", Replace(items[3], element(
        "itemtuple", element("itemno", "N000001"),
        element("description", "refreshed"),
        element("offered_by", "U00001"),
        element("reserveprice", "470"))))
    bids = db.store.get("bids.xml").arena.tag_rows("bidtuple")
    db.update("bids.xml", Replace(bids[5], element(
        "bidtuple", element("userid", "U00001"),
        element("itemno", "I00003"), element("bid", "990"),
        element("biddate", "2000-01-01"))))
    _assert_counts_match_reference(db, where="updated:")
