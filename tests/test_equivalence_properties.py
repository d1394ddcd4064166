"""Property-based tests mechanizing Appendix A.

For every unnesting equivalence we generate random relations (and random
parameters satisfying the side conditions) and check that the left- and
right-hand sides produce identical sequences — order included, since the
paper's whole point is order preservation.  We additionally check
reference ≡ vectorized on every generated plan.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.context import EvalContext
from repro.engine.vectorized import run_vectorized
from repro.nal import (
    AggSpec,
    AntiJoin,
    GroupBinary,
    GroupUnary,
    Map,
    OuterJoin,
    Project,
    ProjectAway,
    Rename,
    Select,
    SelfGroup,
    SemiJoin,
    Table,
    Tup,
    Unnest,
)
from repro.nal.scalar import (
    AttrRef,
    Comparison,
    Const,
    Exists,
    Forall,
    FuncCall,
    In,
    NestedPlan,
    TRUE,
)
from repro.xmldb.document import DocumentStore

THETAS = ["=", "!=", "<", "<=", ">", ">="]

values = st.integers(min_value=0, max_value=5)


@st.composite
def r1_tables(draw):
    rows = draw(st.lists(values, max_size=6))
    return Table("E1", ["A1"], [{"A1": v} for v in rows])


@st.composite
def r2_tables(draw):
    rows = draw(st.lists(st.tuples(values, values), max_size=6))
    return Table("E2", ["A2", "B"],
                 [{"A2": a, "B": b} for a, b in rows])


@st.composite
def nested_r2_tables(draw):
    """e2 with a sequence-valued attribute a2 of tuples [v: int]."""
    rows = draw(st.lists(st.lists(values, max_size=3), max_size=5))
    return Table("E2", ["a2", "B"], [
        {"a2": [Tup({"v": v}) for v in seq], "B": i}
        for i, seq in enumerate(rows)])


aggs = st.sampled_from([
    AggSpec("count"),
    AggSpec("id"),
    AggSpec("sum", "B"),
    AggSpec("min", "B"),
    AggSpec("project", "B"),
])

thetas = st.sampled_from(THETAS)


def evaluate(plan):
    ctx = EvalContext(DocumentStore())
    reference = plan.evaluate(ctx)
    vectorized = run_vectorized(plan, ctx).to_rows()
    assert vectorized == reference, \
        "vectorized engine diverged from reference"
    return reference


def agg_as_scalar(agg: AggSpec, inner_plan) -> object:
    """Rebuild the χ subscript f(σ...(e2)) for a given AggSpec."""
    if agg.kind == "id":
        return NestedPlan(inner_plan)
    if agg.kind == "project":
        return NestedPlan(Project(inner_plan, [agg.attr]))
    if agg.kind == "count":
        return FuncCall("count", [NestedPlan(inner_plan)])
    return FuncCall(agg.kind, [NestedPlan(Project(inner_plan,
                                                  [agg.attr]))])


# ----------------------------------------------------------------------
# Eqv. 1: χ_{g:f(σ_{A1θA2}(e2))}(e1) = e1 Γ_{g;A1θA2;f} e2
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(e1=r1_tables(), e2=r2_tables(), theta=thetas, agg=aggs)
def test_eqv1(e1, e2, theta, agg):
    corr = Comparison(AttrRef("A1"), theta, AttrRef("A2"))
    lhs = Map(e1, "g", agg_as_scalar(agg, Select(e2, corr)))
    rhs = GroupBinary(e1, e2, "g", ["A1"], theta, ["A2"], agg)
    assert evaluate(lhs) == evaluate(rhs)


@settings(max_examples=120, deadline=None)
@given(e1=r1_tables(), e2=nested_r2_tables(),
       theta=st.sampled_from(["!=", "<", ">="]),
       agg=st.sampled_from([AggSpec("count"), AggSpec("id"),
                            AggSpec("sum", "B")]))
def test_eqv1_theta_is_existential_over_a_sequence(e1, e2, theta, agg):
    """Γ is defined through σ_{A1 θ A2}, so over a sequence-valued A2
    (the ``path[a]`` binding of a child without a DTD fact) its θ is
    the σ's existential comparison, not an atomization error."""
    corr = Comparison(AttrRef("A1"), theta, AttrRef("a2"))
    lhs = Map(e1, "g", agg_as_scalar(agg, Select(e2, corr)))
    rhs = GroupBinary(e1, e2, "g", ["A1"], theta, ["a2"], agg)
    assert evaluate(lhs) == evaluate(rhs)


THETA_COUNT = '''
let $d1 := doc("d.xml")
for $k1 in distinct-values($d1//v)
let $c1 := count(for $x2 in $d1//x where $x2/v %s $k1 return $x2)
return <o>{$k1}:{$c1}</o>
'''


@pytest.mark.parametrize("theta", ("!=", "<", ">="))
@pytest.mark.parametrize("multi", (False, True))
def test_theta_correlation_from_both_sides_of_the_dtd_fact(theta, multi):
    """The θ form of Eqvs. 1/3 on a child the DTD makes single-valued
    (``zero-or-one``) and on one nothing is known about (a tupled
    sequence, compared existentially): every alternative on both
    engines — and so the default ``execute``, which used to raise on
    the best-ranked ``nestjoin`` — gives the ``nested`` plan's answer
    under the definitional evaluator."""
    from repro import Database, compile_query
    db = Database()
    if multi:
        db.register_text(
            "d.xml", '<r><x k="1"><v>1</v><v>1.0</v></x><x k="2">'
            '<v>NaN</v></x><x k="3"><v>a</v><v>2</v></x><x k="4"/>'
            '<x k="5"><v>2</v></x></r>')
    else:
        db.register_text(
            "d.xml", "<r><x><v>1</v></x><x><v>NaN</v></x><x><v>a</v></x>"
            "<x><v>1.0</v></x><x><v>2</v></x></r>",
            dtd_text="<!ELEMENT r (x*)><!ELEMENT x (v)>"
                     "<!ELEMENT v (#PCDATA)>")
    query = compile_query(THETA_COUNT % theta, db)
    labels = [alt.label for alt in query.plans()]
    assert "nestjoin" in labels and ("grouping" in labels) != multi
    expected = db.execute(query.plan_named("nested").plan,
                          mode="reference").output
    assert expected.count("<o>") == 4
    for alt in query.plans():
        for mode in ("vectorized", "reference"):
            assert db.execute(alt.plan, mode=mode).output == expected, \
                (alt.label, mode)
    assert query.run().output == expected


# ----------------------------------------------------------------------
# Eqv. 2: equality case via outer join + unary Γ
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(e1=r1_tables(), e2=r2_tables(), agg=aggs)
def test_eqv2(e1, e2, agg):
    corr = Comparison(AttrRef("A1"), "=", AttrRef("A2"))
    lhs = Map(e1, "g", agg_as_scalar(agg, Select(e2, corr)))
    grouped = GroupUnary(e2, "g", ["A2"], "=", agg)
    rhs = ProjectAway(
        OuterJoin(e1, grouped, corr, "g", Const(agg.empty_value())),
        ["A2"])
    assert evaluate(lhs) == evaluate(rhs)


# ----------------------------------------------------------------------
# Eqv. 3: e1 = ΠD_{A1:A2}(Π_{A2}(e2)) — we *construct* e1 that way
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(e2=r2_tables(), theta=thetas, agg=aggs)
def test_eqv3(e2, theta, agg):
    e1 = DistinctOf(e2)
    corr = Comparison(AttrRef("A1"), theta, AttrRef("A2"))
    lhs = Map(e1, "g", agg_as_scalar(agg, Select(e2, corr)))
    rhs = Rename(GroupUnary(e2, "g", ["A2"], theta, agg), {"A2": "A1"})
    assert evaluate(lhs) == evaluate(rhs)


def DistinctOf(e2: Table) -> Table:
    """Materialized ΠD_{A1:A2}(Π_{A2}(e2)) with deterministic
    first-occurrence order (what the condition of Eqv. 3 requires)."""
    seen, rows = set(), []
    for row in e2.rows:
        if row["A2"] not in seen:
            seen.add(row["A2"])
            rows.append({"A1": row["A2"]})
    return Table("E1", ["A1"], rows)


# ----------------------------------------------------------------------
# Eqv. 4: membership correlation via µD + outer join
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(e1=r1_tables(), e2=nested_r2_tables(),
       agg=st.sampled_from([AggSpec("count"), AggSpec("sum", "B"),
                            AggSpec("project", "B"), AggSpec("min", "B")]))
def test_eqv4(e1, e2, agg):
    lhs = Map(e1, "g", agg_as_scalar(
        agg, Select(e2, In(AttrRef("A1"), AttrRef("a2")))))
    unnested = Unnest(e2, "a2", ["v"], dedup=True)
    grouped = GroupUnary(unnested, "g", ["v"], "=", agg)
    rhs = ProjectAway(
        OuterJoin(e1, grouped,
                  Comparison(AttrRef("A1"), "=", AttrRef("v")), "g",
                  Const(agg.empty_value())),
        ["v"])
    assert evaluate(lhs) == evaluate(rhs)


# ----------------------------------------------------------------------
# Eqv. 5: membership + the distinct-projection condition
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(e2=nested_r2_tables(),
       agg=st.sampled_from([AggSpec("count"), AggSpec("sum", "B"),
                            AggSpec("project", "B")]))
def test_eqv5(e2, agg):
    e1 = DistinctOfUnnested(e2)
    lhs = Map(e1, "g", agg_as_scalar(
        agg, Select(e2, In(AttrRef("A1"), AttrRef("a2")))))
    unnested = Unnest(e2, "a2", ["v"], dedup=True)
    rhs = Rename(GroupUnary(unnested, "g", ["v"], "=", agg),
                 {"v": "A1"})
    assert evaluate(lhs) == evaluate(rhs)


def DistinctOfUnnested(e2: Table) -> Table:
    """ΠD_{A1:A2}(Π_{A2}(µ_{a2}(e2)))."""
    seen, rows = set(), []
    for row in e2.rows:
        for item in row["a2"]:
            if item["v"] not in seen:
                seen.add(item["v"])
                rows.append({"A1": item["v"]})
    return Table("E1", ["A1"], rows)


# ----------------------------------------------------------------------
# Eqvs. 6/7: quantifiers to semijoin / antijoin
# ----------------------------------------------------------------------
quant_preds = st.sampled_from([
    TRUE,
    Comparison(AttrRef("x"), ">", Const(2)),
    Comparison(AttrRef("x"), "=", Const(3)),
])


@settings(max_examples=120, deadline=None)
@given(e1=r1_tables(), e2=r2_tables(), pred=quant_preds)
def test_eqv6(e1, e2, pred):
    corr = Comparison(AttrRef("A1"), "=", AttrRef("A2"))
    lhs = Select(e1, Exists(
        "x", NestedPlan(Project(Select(e2, corr), ["B"])), pred))
    from repro.nal.scalar import make_conjunction, rename_attrs
    p_prime = rename_attrs(pred, {"x": "B"})
    parts = [corr] if p_prime == TRUE else [corr, p_prime]
    rhs = SemiJoin(e1, e2, make_conjunction(parts))
    assert evaluate(lhs) == evaluate(rhs)


@settings(max_examples=120, deadline=None)
@given(e1=r1_tables(), e2=r2_tables(), pred=quant_preds)
def test_eqv7(e1, e2, pred):
    corr = Comparison(AttrRef("A1"), "=", AttrRef("A2"))
    lhs = Select(e1, Forall(
        "x", NestedPlan(Project(Select(e2, corr), ["B"])), pred))
    from repro.nal.scalar import make_conjunction, negate, rename_attrs
    rhs = AntiJoin(e1, e2, make_conjunction(
        [corr, negate(rename_attrs(pred, {"x": "B"}))]))
    assert evaluate(lhs) == evaluate(rhs)


# ----------------------------------------------------------------------
# Eqvs. 8/9: semijoin/antijoin to counting grouping
# ----------------------------------------------------------------------
filters = st.sampled_from([
    None,
    Comparison(AttrRef("B"), ">", Const(2)),
    Comparison(AttrRef("B"), "=", Const(4)),
])


@settings(max_examples=120, deadline=None)
@given(e2=r2_tables(), filter_pred=filters)
def test_eqv8(e2, filter_pred):
    e1 = DistinctOf(e2)
    corr = Comparison(AttrRef("A1"), "=", AttrRef("A2"))
    right = e2 if filter_pred is None else Select(e2, filter_pred)
    lhs = SemiJoin(e1, right, corr)
    grouped = GroupUnary(e2, "c", ["A2"], "=",
                         AggSpec("count", filter_pred=filter_pred))
    rhs = Select(Rename(grouped, {"A2": "A1"}),
                 Comparison(AttrRef("c"), ">", Const(0)))
    assert evaluate(lhs) == [t.project(["A1"])
                             for t in evaluate(rhs)]


@settings(max_examples=120, deadline=None)
@given(e2=r2_tables(), filter_pred=filters)
def test_eqv9(e2, filter_pred):
    e1 = DistinctOf(e2)
    corr = Comparison(AttrRef("A1"), "=", AttrRef("A2"))
    right = e2 if filter_pred is None else Select(e2, filter_pred)
    lhs = AntiJoin(e1, right, corr)
    grouped = GroupUnary(e2, "c", ["A2"], "=",
                         AggSpec("count", filter_pred=filter_pred))
    rhs = Select(Rename(grouped, {"A2": "A1"}),
                 Comparison(AttrRef("c"), "=", Const(0)))
    assert evaluate(lhs) == [t.project(["A1"])
                             for t in evaluate(rhs)]


# ----------------------------------------------------------------------
# The §5.4 self-grouping rewrite
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(e2=r2_tables(), filter_pred=filters)
def test_self_group_equiv(e2, filter_pred):
    e1 = Table("E1", ["A1", "C"],
               [{"A1": r["A2"], "C": r["B"]} for r in e2.rows])
    corr = Comparison(AttrRef("A1"), "=", AttrRef("A2"))
    right = e2 if filter_pred is None else Select(e2, filter_pred)
    lhs = SemiJoin(e1, right, corr)
    from repro.nal.scalar import rename_attrs
    renamed = None if filter_pred is None else \
        rename_attrs(filter_pred, {"A2": "A1", "B": "C"})
    rhs = Select(SelfGroup(e1, "n", ["A1"],
                           AggSpec("count", filter_pred=renamed)),
                 Comparison(AttrRef("n"), ">", Const(0)))
    assert evaluate(lhs) == [t.project(["A1", "C"])
                             for t in evaluate(rhs)]
