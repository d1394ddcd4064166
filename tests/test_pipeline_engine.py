"""Pipelined engine: edge cases the differential tests must pin.

Covers the corners named in the engine's contract: empty inputs (lazy
hash builds mean an empty probe side must not run the build side),
all-NULL join keys, quantifier subplans whose first witness is the last
tuple, and short-circuiting actually stopping the inner scan.
"""

from __future__ import annotations

import pytest

from repro import Database, compile_query
from repro.datagen import BIB_DTD, REVIEWS_DTD, generate_bib, \
    generate_reviews
from repro.engine.context import EvalContext
from repro.engine.executor import execute
from repro.engine.pipeline import run_pipelined
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


def _run(plan, **kwargs):
    return list(run_pipelined(plan, EvalContext(DocumentStore()),
                              **kwargs))


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


def test_empty_probe_side_never_builds_hash_table():
    """The hash join builds its table on the first probe-side pull, so
    an empty left input leaves the right child entirely unpulled — it
    has no EXPLAIN ANALYZE entry at all."""
    plan = Join(EMPTY_LEFT, SOME_RIGHT, JOIN_PRED)
    result = execute(plan, DocumentStore(), mode="pipelined",
                     analyze=True)
    assert result.rows == []
    assert () in result.operator_counts          # the join ran
    assert (0,) in result.operator_counts        # the left was pulled
    assert (1,) not in result.operator_counts    # the right never was


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
    """A selective exists over a document: pipelined mode stops walking
    the inner document at the first witness, so it visits strictly
    fewer nodes than the materializing default mode while producing
    identical output."""
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
    full = db.execute(plan)
    pipe = db.execute(plan, mode="pipelined")
    assert pipe.output == full.output
    assert pipe.rows == full.rows
    assert pipe.stats["node_visits"] < full.stats["node_visits"]


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
    expected_ctx = EvalContext(DocumentStore())
    plan.evaluate(expected_ctx)
    ctx = EvalContext(DocumentStore())
    list(run_pipelined(plan, ctx))
    assert ctx.output_text() == expected_ctx.output_text() == "<x/>" * 3


def test_lazy_right_side_still_fires_construct_side_effects():
    """An empty left input must not skip a Ξ sitting in the right
    subtree of a binary operator: vectorized/reference mode evaluate
    both operands unconditionally, so the lazy engine must too."""
    from repro.nal import Construct, Cross, Lit

    empty = Table("L", ["A"], [])
    emitting = Construct(Table("R", ["C"], [{"C": 1}]), [Lit("<r/>")])
    for plan in (Cross(empty, emitting),
                 Join(empty, emitting, JOIN_PRED),
                 SemiJoin(empty, emitting, JOIN_PRED),
                 AntiJoin(empty, emitting, JOIN_PRED),
                 OuterJoin(empty, emitting, JOIN_PRED, "g", Const(0)),
                 SemiJoin(empty, emitting, Const(True))):
        ctx = EvalContext(DocumentStore())
        assert list(run_pipelined(plan, ctx)) == []
        assert ctx.output_text() == "<r/>", type(plan).__name__


def test_construct_bearing_nested_plans_are_drained():
    """Short-circuiting must never swallow Ξ side effects: a nested plan
    containing a Construct runs to completion even under exists()."""
    from repro.nal import Construct, Lit
    inner = Construct(Table("I", ["x"], [{"x": 1}, {"x": 2}]),
                      [Lit("*")])
    plan = Select(Table("O", ["A"], [{"A": 1}]),
                  Exists("q", NestedPlan(inner),
                         Comparison(AttrRef("q"), "=", Const(1))))
    ctx = EvalContext(DocumentStore())
    rows = list(run_pipelined(plan, ctx))
    assert rows == [Tup({"A": 1})]
    assert ctx.output_text() == "**"   # both inner tuples emitted


# ----------------------------------------------------------------------
# Mode plumbing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ("volcano2000", "physical"))
def test_unknown_mode_rejected(mode):
    """``"physical"`` was deleted without an alias: it is an unknown
    mode like any other."""
    with pytest.raises(ValueError, match="unknown execution mode"):
        execute(SOME_LEFT, DocumentStore(), mode=mode)


def test_reference_mode_rejects_analyze():
    with pytest.raises(ValueError, match="vectorized"):
        execute(SOME_LEFT, DocumentStore(), mode="reference",
                analyze=True)


def test_pipelined_output_matches_default_on_paper_queries():
    """End-to-end: the paper's Q3 (exists) under all three modes, all
    plan variants, byte-identical output."""
    from repro.bench.queries import PAPER_QUERIES
    spec = PAPER_QUERIES["q3"]
    db = spec.build_db(books=30)
    query = compile_query(spec.text, db)
    for alt in query.plans():
        outputs = {mode: db.execute(alt.plan, mode=mode).output
                   for mode in ("vectorized", "pipelined", "reference")}
        assert outputs["pipelined"] == outputs["vectorized"] == \
            outputs["reference"]
