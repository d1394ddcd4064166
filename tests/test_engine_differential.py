"""Differential testing of the engine and its subscript streamer.

Generates random operator trees (over random base tables) and checks
that the batch-at-a-time engine and the subscript streamer — driven
directly, and as ``σ[exists(⟨plan⟩)]`` under the default mode, so both
its generator handlers and its batch-engine arm run — produce exactly
the sequence the definitional (reference) semantics produces — order
included.  This generalizes the per-operator tests: operator
*compositions* are where order-preservation bugs hide (e.g. a hash
join that emits probe matches in build order).  The same trees are
also hosted in value contexts — ``χ[g:⟨plan⟩]``, ``χ[c:count(⟨plan⟩)]``,
``χ[m:min(⟨Π[a]…⟩)]`` — where the default mode runs them on the column
engine, once per outer tuple, against ``mode="reference"``: rows
exactly, ``document_scans`` and ``node_visits`` equal.

Key attributes draw from a mix of integers, booleans, numeric strings
and NULL: booleans pin the ``compare_atomic`` ⇔ ``canonical_key``
coercion invariant (a boolean equals only a boolean), and NULLs pin the
hash engines' NULL guards (NULL keys hash together but join nothing).

Also includes the lemma of Appendix A.4:
``Π_{A'}(σ_{c∈a}(e)) = Π_{A'}(σ_{c=A}(µD_a(e)))``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.engine.context import EvalContext
from repro.engine.executor import execute
from repro.errors import EvaluationError
from repro.engine.pipeline import stream_plan
from repro.engine.vectorized import run_vectorized
from repro.nal import (
    NULL,
    AggSpec,
    AntiJoin,
    Cross,
    DistinctProject,
    GroupBinary,
    GroupUnary,
    Join,
    Map,
    OuterJoin,
    Project,
    ProjectAway,
    Rename,
    Select,
    SelfGroup,
    SemiJoin,
    Sort,
    Table,
    Tup,
    Unnest,
)
from repro.nal.scalar import AttrRef, Comparison, Const, FuncCall, In, \
    NestedPlan
from repro.xmldb.document import DocumentStore
from tests.conftest import exact

OUTER = Table("O", ["o"], [{"o": 1}])

values = st.integers(min_value=0, max_value=4)

#: join/grouping-key values exercising every coercion corner: numbers
#: vs. numeric strings (equal), booleans (equal only to themselves) and
#: NULL (equal to nothing, itself included)
key_values = st.one_of(
    st.integers(min_value=0, max_value=2),
    st.booleans(),
    st.sampled_from(["0", "1", "true", "x"]),
    st.just(NULL),
)


def run_both(plan, store=None):
    """Evaluate on the engine and through the subscript streamer;
    assert they agree with the reference; return the rows."""
    store = store if store is not None else DocumentStore()
    ctx = EvalContext(store)
    reference = plan.evaluate(ctx)
    vectorized = run_vectorized(plan, ctx).to_rows()
    assert list(stream_plan(plan, ctx)) == reference
    assert vectorized == reference
    # The same plan as a boolean subscript of the default engine: the
    # outer tuple survives exactly when the plan yields something.
    probe = Select(OUTER, FuncCall("exists", [NestedPlan(plan)]))
    assert execute(probe, store).rows == (OUTER.rows if reference else [])
    assert_value_hosts(plan, store)
    return reference, vectorized


def outcome(plan, store, mode):
    """Everything one execution shows: rows, constructed output, scans
    and visits — or the error type."""
    try:
        result = execute(plan, store, mode=mode)
    except EvaluationError as error:
        return type(error)
    return (exact(result.rows), result.output,
            result.stats["document_scans"], result.stats["node_visits"])


def assert_value_hosts(plan, store, outer=OUTER):
    """``plan`` as the value of a χ subscript of every ``outer`` tuple
    — bound whole, counted, and its first attribute minimized — under
    the default mode and under the oracle: a value context has nothing
    to stop for, so even the visits are equal."""
    first = sorted(plan.attrs())[0]
    for expr in (NestedPlan(plan),
                 FuncCall("count", [NestedPlan(plan)]),
                 FuncCall("min", [NestedPlan(Project(plan, [first]))])):
        host = Map(outer, "host", expr)
        assert outcome(host, store, "vectorized") \
            == outcome(host, store, "reference"), expr


@st.composite
def base_tables(draw):
    n_rows = draw(st.integers(min_value=0, max_value=6))
    rows = [{"A": draw(values), "B": draw(values)} for _ in range(n_rows)]
    return Table("T", ["A", "B"], rows)


@st.composite
def right_tables(draw):
    n_rows = draw(st.integers(min_value=0, max_value=6))
    rows = [{"C": draw(values), "D": draw(values)} for _ in range(n_rows)]
    return Table("R", ["C", "D"], rows)


@st.composite
def mixed_tables(draw):
    """Left tables whose key attribute A draws from the full coercion
    minefield (bools, numeric strings, NULL); B stays numeric so
    aggregates keep working."""
    n_rows = draw(st.integers(min_value=0, max_value=6))
    rows = [{"A": draw(key_values), "B": draw(values)}
            for _ in range(n_rows)]
    return Table("T", ["A", "B"], rows)


@st.composite
def mixed_right_tables(draw):
    n_rows = draw(st.integers(min_value=0, max_value=6))
    rows = [{"C": draw(key_values), "D": draw(values)}
            for _ in range(n_rows)]
    return Table("R", ["C", "D"], rows)


def _wrap_unary(draw, plan, attrs):
    """One random unary operator over ``plan`` (attrs unchanged)."""
    choice = draw(st.integers(min_value=0, max_value=4))
    a = attrs[0]
    if choice == 0:
        return Select(plan, Comparison(AttrRef(a), ">", Const(1)))
    if choice == 1:
        return Select(plan, Comparison(AttrRef(a), "<=", Const(3)))
    if choice == 2:
        return Sort(plan, [a])
    if choice == 3:
        return Sort(plan, [a], [True])
    return plan


@st.composite
def unary_stacks(draw):
    plan = draw(base_tables())
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        plan = _wrap_unary(draw, plan, ("A", "B"))
    return plan


@settings(max_examples=150, deadline=None)
@given(plan=unary_stacks())
def test_unary_compositions(plan):
    run_both(plan)


JOIN_PRED = Comparison(AttrRef("A"), "=", AttrRef("C"))
THETA_PRED = Comparison(AttrRef("A"), "<", AttrRef("C"))


@settings(max_examples=150, deadline=None)
@given(left=unary_stacks(), right=right_tables(),
       kind=st.integers(min_value=0, max_value=5),
       theta=st.booleans())
def test_binary_over_random_left(left, right, kind, theta):
    pred = THETA_PRED if theta else JOIN_PRED
    if kind == 0:
        plan = Join(left, right, pred)
    elif kind == 1:
        plan = SemiJoin(left, right, pred)
    elif kind == 2:
        plan = AntiJoin(left, right, pred)
    elif kind == 3:
        plan = OuterJoin(left, right, pred, "g", Const(0))
    elif kind == 4:
        plan = Cross(left, right)
    else:
        plan = Join(left, Select(right, Comparison(
            AttrRef("D"), ">", Const(1))), pred)
    run_both(plan)


@settings(max_examples=200, deadline=None)
@given(left=mixed_tables(), right=mixed_right_tables(),
       kind=st.integers(min_value=0, max_value=5))
def test_equality_operators_over_mixed_keys(left, right, kind):
    """Equality joins and key-based operators over boolean / numeric /
    string / NULL keys: the hash probes must agree with the reference
    nested-loop comparisons in every coercion corner."""
    if kind == 0:
        plan = Join(left, right, JOIN_PRED)
    elif kind == 1:
        plan = SemiJoin(left, right, JOIN_PRED)
    elif kind == 2:
        plan = AntiJoin(left, right, JOIN_PRED)
    elif kind == 3:
        plan = OuterJoin(left, right, JOIN_PRED, "g", Const(0))
    elif kind == 4:
        plan = GroupBinary(left, right, "g", ["A"], "=", ["C"],
                           AggSpec("count"))
    else:
        plan = DistinctProject(Join(left, right, JOIN_PRED), ["A", "D"])
    run_both(plan)


@settings(max_examples=150, deadline=None)
@given(table=mixed_tables(), desc=st.booleans(), stack=st.booleans())
def test_sort_over_mixed_keys(table, desc, stack):
    """Mixed-type sort keys (ints, booleans, strings, NULL in one
    column) must order identically in all four engines — ``sort_key``'s
    documented type ranks, "empty least" and stable ties."""
    plan = Sort(table, ["A"], [desc])
    if stack:
        plan = Sort(plan, ["B"], [not desc])
    run_both(plan)


@settings(max_examples=150, deadline=None)
@given(table=mixed_tables(),
       agg=st.sampled_from([AggSpec("count"), AggSpec("sum", "B"),
                            AggSpec("id")]),
       self_group=st.booleans())
def test_grouping_over_mixed_keys(table, agg, self_group):
    if self_group:
        plan = SelfGroup(table, "g", ["A"], agg)
    else:
        plan = GroupUnary(table, "g", ["A"], "=", agg)
    run_both(plan)


@settings(max_examples=150, deadline=None)
@given(left=base_tables(), right=right_tables(),
       agg=st.sampled_from([AggSpec("count"), AggSpec("sum", "D"),
                            AggSpec("id"), AggSpec("project", "D")]),
       wrap=st.booleans())
def test_grouping_over_joins(left, right, agg, wrap):
    joined = Join(left, right, JOIN_PRED)
    plan = GroupUnary(joined, "g", ["C"], "=", agg)
    if wrap:
        plan = Project(Sort(plan, ["C"]), ["C", "g"])
    run_both(plan)


@settings(max_examples=150, deadline=None)
@given(left=base_tables(), right=right_tables())
def test_projection_stack(left, right):
    plan = Rename(
        ProjectAway(
            DistinctProject(Join(left, right, JOIN_PRED), ["A", "D"]),
            ["D"]),
        {"A": "X"})
    run_both(plan)


# ---------------------------------------------------------------------------
# Appendix A.4 lemma
# ---------------------------------------------------------------------------

@st.composite
def nested_tables(draw):
    n_rows = draw(st.integers(min_value=0, max_value=5))
    rows = []
    for i in range(n_rows):
        seq = draw(st.lists(values, max_size=4))
        rows.append({"a": [Tup({"v": x}) for x in seq], "B": i})
    return Table("N", ["a", "B"], rows)


@settings(max_examples=150, deadline=None)
@given(e=nested_tables(), c=values)
def test_lemma_a4(e, c):
    """Π_{A'}(σ_{c∈a}(e)) = Π_{A'}(σ_{c=v}(µD_a(e))) — selecting tuples
    whose nested attribute contains c equals selecting on the
    duplicate-eliminating unnest, projected back to the host attributes.
    """
    lhs = Project(Select(e, In(Const(c), AttrRef("a"))), ["B"])
    unnested = Unnest(e, "a", ["v"], dedup=True)
    rhs = Project(Select(unnested,
                         Comparison(Const(c), "=", AttrRef("v"))), ["B"])
    ref_l, vec_l = run_both(lhs)
    ref_r, vec_r = run_both(rhs)
    assert ref_l == ref_r
    assert vec_l == ref_l and vec_r == ref_r


@settings(max_examples=150, deadline=None)
@given(e=nested_tables())
def test_dedup_unnest_is_order_preserving_on_tuples(e):
    """µD gives up order only *within* one tuple's nested sequence; the
    host-tuple order survives (used in the A.4 induction)."""
    unnested_b = [t["B"] for t in run_both(
        Unnest(e, "a", ["v"], dedup=True))[0]]
    assert unnested_b == sorted(unnested_b)


# ---------------------------------------------------------------------------
# Every operator type, deterministically
# ---------------------------------------------------------------------------

def test_every_operator_type_streams_like_evaluate():
    """One small plan per operator type — the random trees above never
    draw □, IndexScan, χ, Υ, an elided Sort or the two Ξ — through the
    streamer directly and as an ``exists()`` subscript of the default
    mode: rows *and* constructed output equal the reference's."""
    from repro.engine import vectorized
    from repro.index import IndexProbe
    from repro.nal import Construct, GroupConstruct, IndexScan, Lit, Map, \
        Out, Singleton, UnnestMap
    from repro.nal.scalar import DocAccess, PathApply
    from repro.nal.unary_ops import ElidedSort
    from repro.xmldb.node import element
    from repro.xpath.parser import parse_path

    store = DocumentStore(index_mode="lazy")
    store.register_tree("t.xml", element(
        "r", element("it", element("v", "2")),
        element("it", element("v", "x"), element("v", "1"))))
    left = Table("T", ["A", "B"], [{"A": 1, "B": 2}, {"A": 2, "B": 2},
                                   {"A": NULL, "B": 3}])
    right = Table("R", ["C", "D"], [{"C": 2, "D": 0}, {"C": 1, "D": 5},
                                    {"C": 1, "D": 6}])
    nested = Table("N", ["a", "B"], [{"a": [Tup({"v": 1}), Tup({"v": 1})],
                                      "B": 0}])
    items = UnnestMap(Singleton(), "i", PathApply(
        DocAccess("t.xml"), parse_path("//it")))
    plans = [
        items,
        UnnestMap(items, "v", PathApply(AttrRef("i"), parse_path("v"))),
        IndexScan("x", IndexProbe("t.xml", "element",
                                  (("descendant", "v"),))),
        Map(left, "m", Comparison(AttrRef("A"), "=", AttrRef("B"))),
        Select(left, Comparison(AttrRef("A"), ">", Const(1))),
        Project(left, ["B"]), ProjectAway(left, ["B"]),
        Rename(left, {"A": "X"}), DistinctProject(left, ["B"]),
        Unnest(nested, "a", ["v"], dedup=True),
        Sort(left, ["B"], [True]), ElidedSort(left, ["A"]),
        Cross(left, right), Join(left, right, JOIN_PRED),
        SemiJoin(left, right, THETA_PRED), AntiJoin(left, right, JOIN_PRED),
        OuterJoin(left, right, JOIN_PRED, "g", Const(0)),
        GroupUnary(left, "g", ["B"], "=", AggSpec("count")),
        GroupBinary(left, right, "g", ["A"], "=", ["C"], AggSpec("id")),
        SelfGroup(left, "g", ["B"], AggSpec("sum", "A")),
        Construct(Join(left, right, JOIN_PRED),
                  [Lit("<a>"), Out(AttrRef("D")), Lit("</a>")]),
        GroupConstruct(Sort(left, ["B"]), ["B"], [Lit("<g>")],
                       [Out(AttrRef("A"))], [Lit("</g>")]),
    ]
    assert {type(op) for plan in plans for op in plan.walk()} == \
        set(vectorized._DISPATCH)
    for plan in plans:
        reference, streamed = EvalContext(store), EvalContext(store)
        rows = plan.evaluate(reference)
        assert rows, plan.label()   # no vacuous comparison
        assert list(stream_plan(plan, streamed)) == rows, plan.label()
        assert streamed.output_text() == reference.output_text()
        probe = Select(OUTER, FuncCall("exists", [NestedPlan(plan)]))
        default = execute(probe, store)
        oracle = execute(probe, store, mode="reference")
        assert default.rows == oracle.rows == OUTER.rows
        assert default.output == oracle.output == reference.output_text()


def test_correlated_value_subscripts_over_a_document(monkeypatch):
    """Correlated inner plans over a document, hosted as χ values of
    every outer tuple: the ``=`` and ``∈`` correlation lanes, blocking
    operators inside the inner plan, a second level of nesting (the
    innermost plan reads the outer tuple through a non-empty enclosing
    environment) and an inner plan holding a Ξ — which is drained by
    its definition, so the constructed output keeps its order.  Scans
    and visits equal the oracle's; and no inner plan without a Ξ is
    evaluated through ``Operator.evaluate`` under the default mode."""
    from repro.nal import Construct, Lit, Out, Singleton, UnnestMap
    from repro.nal.scalar import DocAccess, PathApply, TupledSeq
    from repro.xmldb.node import element
    from repro.xpath.parser import parse_path

    store = DocumentStore()
    store.register_tree("t.xml", element(
        "r", *(element("it", element("k", key),
                       *(element("v", v) for v in vs))
               for key, vs in (("1", ["2", "x"]), ("x", []), ("1.0", ["1"]),
                               ("NaN", ["NaN", "01"]), ("2", ["2", "2"])))))

    def scan(item, key, seq):
        def one(path):
            return FuncCall("zero-or-one", [PathApply(
                AttrRef(item), parse_path(path))])
        plan = UnnestMap(Singleton(), item, PathApply(
            DocAccess("t.xml"), parse_path("//it")))
        return Map(Map(plan, key, one("k")), seq, TupledSeq(
            PathApply(AttrRef(item), parse_path("v")), seq + "_i"))

    outer = Map(scan("i", "k", "w"), "s", FuncCall("string",
                                                   [AttrRef("k")]))
    inner = scan("j", "k2", "w2")
    equal = Select(inner, Comparison(AttrRef("k2"), "=", AttrRef("s")))
    member = Select(inner, In(AttrRef("k"), AttrRef("w2")))
    innermost = Project(Select(scan("h", "k3", "w3"), In(
        AttrRef("s"), AttrRef("w3"))), ["k3"])       # s: two levels up
    plans = {
        "=": Project(equal, ["k2"]),
        "∈": Project(member, ["j"]),
        "blocking": Sort(GroupUnary(member, "g", ["k2"], "=",
                                    AggSpec("count")), ["k2"], [True]),
        "join": Project(Join(equal, Table("R", ["C"], [{"C": 1}, {"C": 1}]),
                             Comparison(AttrRef("k2"), "=", AttrRef("C"))),
                        ["k2", "C"]),
        "two levels": Project(Map(equal, "n", FuncCall(
            "count", [NestedPlan(innermost)])), ["k2", "n"]),
        "Ξ": Construct(Project(equal, ["k2"]),
                       [Lit("<in>"), Out(AttrRef("k2")), Lit("</in>")]),
    }
    for name, plan in plans.items():
        assert_value_hosts(plan, store, outer)
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(
                type(plan), "evaluate",
                lambda self, ctx, env, original=type(plan).evaluate:
                calls.append(self) or original(self, ctx, env))
            rows = execute(Map(outer, "host", NestedPlan(plan)), store).rows
        assert any(row["host"] for row in rows), name   # not vacuous
        assert len(calls) == (len(rows) if name == "Ξ" else 0), name
    wrapped = Construct(outer, [Lit("<o>"), Out(NestedPlan(plans["Ξ"])),
                                Lit("</o>")])
    ones = "<o><in><k>1</k></in><in><k>1.0</k></in><k>1</k><k>1.0</k></o>"
    assert execute(wrapped, store).output \
        == execute(wrapped, store, mode="reference").output \
        == ones + "<o><in><k>x</k></in><k>x</k></o>" + ones \
        + "<o></o><o><in><k>2</k></in><k>2</k></o>"
