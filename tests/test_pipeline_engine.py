"""Subscripts that stop early: edge cases the differential tests
must pin, run in the default mode against ``mode="reference"``.

Covers the corners named in the engine's contract: empty inputs,
all-NULL join keys, quantifier subplans whose first witness is the last
tuple, short-circuiting actually stopping the inner scan (and never
swallowing a Ξ's output), and the per-outer-tuple deadline.
"""

from __future__ import annotations

import pytest

from repro import Database, compile_query
from repro.datagen import BIB_DTD, REVIEWS_DTD, generate_bib, \
    generate_reviews
from repro.engine.context import EvalContext
from repro.engine.executor import execute
from repro.errors import DeadlineExceededError
from repro.nal import (
    NULL,
    AntiJoin,
    Join,
    OuterJoin,
    Select,
    SemiJoin,
    Table,
    Tup,
)
from repro.nal.scalar import (
    AttrRef,
    Comparison,
    Const,
    Exists,
    FuncCall,
    NestedPlan,
)
from repro.xmldb.document import DocumentStore


def _run(plan):
    return execute(plan, DocumentStore()).rows


def _outputs(plan):
    """(default, reference) constructed output of ``plan``."""
    return (execute(plan, DocumentStore()).output,
            execute(plan, DocumentStore(), mode="reference").output)


JOIN_PRED = Comparison(AttrRef("A"), "=", AttrRef("C"))
EMPTY_LEFT = Table("L", ["A"], [])
EMPTY_RIGHT = Table("R", ["C"], [])
SOME_LEFT = Table("L", ["A"], [{"A": 1}, {"A": 2}])
SOME_RIGHT = Table("R", ["C"], [{"C": 2}, {"C": 3}])


# ----------------------------------------------------------------------
# Empty inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make", [
    lambda l, r: Join(l, r, JOIN_PRED),
    lambda l, r: SemiJoin(l, r, JOIN_PRED),
    lambda l, r: AntiJoin(l, r, JOIN_PRED),
    lambda l, r: OuterJoin(l, r, JOIN_PRED, "g", Const(0)),
])
def test_empty_inputs(make):
    assert _run(make(EMPTY_LEFT, EMPTY_RIGHT)) == []
    assert _run(make(EMPTY_LEFT, SOME_RIGHT)) == []
    reference = make(SOME_LEFT, EMPTY_RIGHT).evaluate(
        EvalContext(DocumentStore()))
    assert _run(make(SOME_LEFT, EMPTY_RIGHT)) == reference


# ----------------------------------------------------------------------
# All-NULL join keys
# ----------------------------------------------------------------------
def test_all_null_join_keys():
    """NULL keys hash together but must join nothing: NULL = NULL is
    false in the comparison semantics."""
    null_left = Table("L", ["A"], [{"A": NULL}, {"A": NULL}])
    null_right = Table("R", ["C"], [{"C": NULL}, {"C": NULL}])
    ctx = EvalContext(DocumentStore())
    for make in (lambda: Join(null_left, null_right, JOIN_PRED),
                 lambda: SemiJoin(null_left, null_right, JOIN_PRED),
                 lambda: AntiJoin(null_left, null_right, JOIN_PRED),
                 lambda: OuterJoin(null_left, null_right, JOIN_PRED,
                                   "g", Const(0))):
        plan = make()
        assert _run(plan) == plan.evaluate(ctx)
    assert _run(SemiJoin(null_left, null_right, JOIN_PRED)) == []
    assert _run(AntiJoin(null_left, null_right, JOIN_PRED)) == \
        [Tup({"A": NULL}), Tup({"A": NULL})]


# ----------------------------------------------------------------------
# Quantifier short-circuiting
# ----------------------------------------------------------------------
def _exists_plan(rows, witness_value):
    """σ[∃x ∈ ⟨Table⟩ : x = witness] over a single-tuple input."""
    inner = Table("I", ["x"], [{"x": v} for v in rows])
    pred = Comparison(AttrRef("q"), "=", Const(witness_value))
    return Select(Table("O", ["A"], [{"A": 1}]),
                  Exists("q", NestedPlan(inner), pred))


def test_first_witness_is_last_tuple():
    """The witness sitting at the very end of the inner input must still
    be found (off-by-one territory for any early-exit logic)."""
    plan = _exists_plan([1, 2, 3, 4, 5], witness_value=5)
    assert _run(plan) == [Tup({"A": 1})]
    plan = _exists_plan([1, 2, 3, 4, 5], witness_value=9)
    assert _run(plan) == []


def test_exists_short_circuit_stops_inner_scan():
    """A selective exists over a document: the default mode stops
    walking the inner document at the first witness, so it visits
    strictly fewer nodes than the definitional evaluation while
    producing identical output."""
    db = Database()
    db.register_tree("bib.xml", generate_bib(60, 2, seed=5),
                     dtd_text=BIB_DTD)
    db.register_tree("reviews.xml", generate_reviews(30, seed=5),
                     dtd_text=REVIEWS_DTD)
    query = compile_query('''
let $d1 := document("bib.xml")
for $t1 in $d1//book/title
where some $t2 in document("reviews.xml")//entry
      satisfies $t2/title = $t1
return <reviewed> { $t1 } </reviewed>
''', db)
    plan = query.plan_named("nested").plan
    full = db.execute(plan, mode="reference")
    early = db.execute(plan)
    assert early.output == full.output
    assert early.rows == full.rows
    assert early.stats["document_scans"] == full.stats["document_scans"]
    assert early.stats["node_visits"] < full.stats["node_visits"]


def test_construct_inside_deeper_nested_plan_is_drained():
    """The Ξ guard must see through nested plans *inside subscript
    expressions* (Operator.walk() alone does not descend into them): a
    Construct two nesting levels down still forces a full drain."""
    from repro.nal import Construct, Lit, Map

    inner = Construct(Table("C", ["c"], [{"c": 1}]), [Lit("<x/>")])
    middle = Map(Table("M", ["m"], [{"m": i} for i in range(3)]),
                 "v", NestedPlan(inner))
    plan = Select(Table("O", ["A"], [{"A": 1}]),
                  FuncCall("exists", [NestedPlan(middle)]))
    default, reference = _outputs(plan)
    assert default == reference == "<x/>" * 3


def test_right_operand_always_fires_construct_side_effects():
    """An empty left input must not skip a Ξ sitting in the right
    subtree of a binary operator: both operands are evaluated
    unconditionally, as the definitional semantics do."""
    from repro.nal import Construct, Cross, Lit

    empty = Table("L", ["A"], [])
    emitting = Construct(Table("R", ["C"], [{"C": 1}]), [Lit("<r/>")])
    for plan in (Cross(empty, emitting),
                 Join(empty, emitting, JOIN_PRED),
                 SemiJoin(empty, emitting, JOIN_PRED),
                 AntiJoin(empty, emitting, JOIN_PRED),
                 OuterJoin(empty, emitting, JOIN_PRED, "g", Const(0)),
                 SemiJoin(empty, emitting, Const(True))):
        assert _run(plan) == []
        default, reference = _outputs(plan)
        assert default == reference == "<r/>", type(plan).__name__


def test_construct_bearing_nested_plans_are_drained():
    """Short-circuiting must never swallow Ξ side effects: a nested plan
    containing a Construct runs to completion even under exists()."""
    from repro.nal import Construct, Lit
    inner = Construct(Table("I", ["x"], [{"x": 1}, {"x": 2}]),
                      [Lit("*")])
    plan = Select(Table("O", ["A"], [{"A": 1}]),
                  Exists("q", NestedPlan(inner),
                         Comparison(AttrRef("q"), "=", Const(1))))
    assert _run(plan) == [Tup({"A": 1})]
    default, reference = _outputs(plan)
    assert default == reference == "**"   # both inner tuples emitted


# ----------------------------------------------------------------------
# Mode plumbing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ("volcano2000", "physical", "pipelined"))
def test_unknown_mode_rejected(mode):
    """``"physical"`` and ``"pipelined"`` were deleted without an
    alias: each is an unknown mode like any other."""
    with pytest.raises(ValueError, match="unknown execution mode"):
        execute(SOME_LEFT, DocumentStore(), mode=mode)


def test_reference_mode_rejects_analyze():
    with pytest.raises(ValueError, match="vectorized"):
        execute(SOME_LEFT, DocumentStore(), mode="reference",
                analyze=True)


# ----------------------------------------------------------------------
# The per-outer-tuple deadline
# ----------------------------------------------------------------------
Q8_EXISTS = '''
let $d1 := doc("items.xml")
for $i1 in $d1/items/itemtuple
where exists(
  for $b2 in doc("bids.xml")/bids/bidtuple
  where $b2/itemno = $i1/itemno
  return $b2)
return <hot-item> { $i1/itemno } </hot-item>
'''


def _auction_db(items: int, bids: int, witnesses: bool) -> Database:
    """Items × bids; with ``witnesses`` off every bid names item 1, so
    no other item's exists() finds one and nothing stops early."""
    from repro.datagen import BIDS_DTD, ITEMS_DTD, generate_bids, \
        generate_items
    db = Database()
    db.register_tree("bids.xml",
                     generate_bids(bids, items=items if witnesses else 1,
                                   seed=7), dtd_text=BIDS_DTD)
    db.register_tree("items.xml", generate_items(items, seed=7),
                     dtd_text=ITEMS_DTD)
    return db


def test_q8_visits_first_witness_only():
    """The q8 shape at items=20/bids=1000: Eqvs. 6/7 cannot fire
    through Υ[w3:i1/itemno], so ``nested`` is the best plan and the
    default engine answers it at first-witness cost — an exact,
    machine-independent count."""
    db = _auction_db(20, 1000, witnesses=True)
    plan = compile_query(Q8_EXISTS, db).plan_named("nested").plan
    early = db.execute(plan)
    full = db.execute(plan, mode="reference")
    assert early.output == full.output
    assert early.stats["document_scans"] == full.stats["document_scans"]
    assert early.stats["node_visits"] == 3565
    assert full.stats["node_visits"] == 187107


def _no_witness_q8():
    return _auction_db(20, 800, witnesses=False), Q8_EXISTS


def _no_counter_example_q5():
    """Q5 (``every … satisfies @year > 1993``) over books that are all
    newer: no ∀ ever meets its counter-example."""
    from repro.bench.queries import PAPER_QUERIES
    db = Database()
    db.register_tree("bib.xml",
                     generate_bib(64, 2, seed=7, year_range=(1994, 2003)),
                     dtd_text=BIB_DTD)
    return db, PAPER_QUERIES["q5"].text


def _value_subscript_q2():
    """Q2 (``min`` over a correlated inner plan): a value subscript,
    run on the column engine once per title."""
    from repro.bench.queries import PAPER_QUERIES, make_database
    return make_database("q2", books=128), PAPER_QUERIES["q2"].text


@pytest.mark.parametrize("build", (_no_witness_q8, _no_counter_example_q5,
                                   _value_subscript_q2))
def test_deadline_fires_inside_nested_subscripts(build):
    """First-witness evaluation bypasses ``NestedPlan.evaluate``, where
    nested-loop plans check the cooperative deadline; the streamer
    checks it once per outer tuple instead, and a value subscript
    still goes through ``NestedPlan.evaluate`` whichever engine then
    runs its plan.  On a corpus where no subscript stops early, a 5 ms
    budget ends the request long before the ≥100 ms the oracle needs,
    and database and session stay usable."""
    import time

    db, text = build()
    plan = compile_query(text, db).plan_named("nested").plan
    start = time.perf_counter()
    expected = db.execute(plan, mode="reference")
    assert time.perf_counter() - start >= 0.1
    session = db.session()
    for run in (lambda: session.execute(text, label="nested",
                                        timeout=0.005),
                lambda: db.execute(plan, timeout=0.005)):
        start = time.perf_counter()
        with pytest.raises(DeadlineExceededError):
            run()
        assert time.perf_counter() - start < 0.05
    assert session.execute(text, label="nested").output == expected.output
    assert db.execute(plan).output == expected.output


def test_value_subscript_checks_the_deadline_per_outer_tuple():
    """Exactly: one check per operator invocation, and one more per
    outer tuple where ``NestedPlan.evaluate`` hands the inner plan to
    the column engine."""
    from repro.engine.vectorized import run_vectorized
    from repro.nal import Map
    outer = Table("O", ["o"], [{"o": 1}, {"o": 2}, {"o": 3}])
    host = Map(outer, "g", NestedPlan(Select(SOME_LEFT, Comparison(
        AttrRef("A"), "<", AttrRef("o")))))
    ctx = EvalContext(DocumentStore(), deadline=float("inf"))
    checks = []
    ctx.check_deadline = lambda: checks.append(1)
    rows = run_vectorized(host, ctx).to_rows()
    assert [len(row["g"]) for row in rows] == [0, 1, 2]
    # χ and its Table; per outer tuple: NestedPlan, σ, Table
    assert len(checks) == 2 + 3 * 3
