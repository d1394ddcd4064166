"""The hash kernels (row kernels for the joins, column kernels for
grouping and ΠD — all run through the vectorized engine) must agree
with the reference semantics, and their hash paths must engage for
equality predicates."""

import pytest

from repro.engine.context import EvalContext
from repro.engine.executor import execute
from repro.engine.kernels import split_equi_conjuncts
from repro.engine.vectorized import run_vectorized
from repro.nal import (
    AggSpec,
    AntiJoin,
    DistinctProject,
    GroupBinary,
    GroupUnary,
    Join,
    OuterJoin,
    SelfGroup,
    SemiJoin,
    Table,
)
from repro.nal.scalar import (
    And,
    AttrRef,
    Comparison,
    Const,
    FuncCall,
)
from repro.xmldb.document import DocumentStore


@pytest.fixture
def ctx():
    return EvalContext(DocumentStore())


def both(plan, ctx):
    reference = plan.evaluate(ctx)
    hashed = run_vectorized(plan, ctx).to_rows()
    assert hashed == reference
    return hashed


EQ = Comparison(AttrRef("A1"), "=", AttrRef("A2"))
LT = Comparison(AttrRef("A1"), "<", AttrRef("A2"))


def test_split_equi_conjuncts():
    pred = And([EQ, Comparison(AttrRef("B"), ">", Const(2))])
    pairs, residual = split_equi_conjuncts(
        pred, frozenset({"A1"}), frozenset({"A2", "B"}))
    assert pairs == [("A1", "A2")]
    assert len(residual) == 1


def test_split_flipped_equality():
    pred = Comparison(AttrRef("A2"), "=", AttrRef("A1"))
    pairs, residual = split_equi_conjuncts(
        pred, frozenset({"A1"}), frozenset({"A2"}))
    assert pairs == [("A1", "A2")]
    assert residual == []


def test_hash_join_agrees(ctx, r1, r2):
    both(Join(r1, r2, EQ), ctx)


def test_theta_join_fallback_agrees(ctx, r1, r2):
    both(Join(r1, r2, LT), ctx)


def test_join_with_residual(ctx, r1, r2):
    pred = And([EQ, Comparison(AttrRef("B"), ">", Const(2))])
    out = both(Join(r1, r2, pred), ctx)
    assert [(t["A1"], t["B"]) for t in out] == [(1, 3), (2, 4), (2, 5)]


def test_semijoin_agrees(ctx, r1, r2):
    both(SemiJoin(r1, r2, EQ), ctx)
    both(SemiJoin(r1, r2, LT), ctx)


def test_antijoin_agrees(ctx, r1, r2):
    both(AntiJoin(r1, r2, EQ), ctx)
    both(AntiJoin(r1, r2, LT), ctx)


def test_semijoin_with_right_only_residual(ctx, r1, r2):
    pred = And([EQ, Comparison(AttrRef("B"), ">", Const(4))])
    out = both(SemiJoin(r1, r2, pred), ctx)
    assert [t["A1"] for t in out] == [2]


def test_outer_join_agrees(ctx, r1, r2):
    grouped = GroupUnary(r2, "g", ["A2"], "=", AggSpec("count"))
    both(OuterJoin(r1, grouped, EQ, "g", Const(0)), ctx)


def test_outer_join_theta_fallback(ctx, r1, r2):
    grouped = GroupUnary(r2, "g", ["A2"], "=", AggSpec("count"))
    both(OuterJoin(r1, grouped, LT, "g", Const(-1)), ctx)


def test_group_unary_hash_agrees(ctx, r2):
    both(GroupUnary(r2, "g", ["A2"], "=", AggSpec("count")), ctx)
    both(GroupUnary(r2, "m", ["A2"], "=", AggSpec("min", "B")), ctx)


def test_group_unary_theta_agrees(ctx, r2):
    both(GroupUnary(r2, "g", ["A2"], "<=", AggSpec("count")), ctx)


def test_group_binary_agrees(ctx, r1, r2):
    both(GroupBinary(r1, r2, "g", ["A1"], "=", ["A2"], AggSpec("id")),
         ctx)
    both(GroupBinary(r1, r2, "g", ["A1"], "<", ["A2"],
                     AggSpec("count")), ctx)


def test_self_group_agrees(ctx, r2):
    both(SelfGroup(r2, "n", ["A2"], AggSpec("count")), ctx)


def test_distinct_project_agrees(ctx, r2):
    out = both(DistinctProject(r2, ["A2"], {"A2": "A"}), ctx)
    assert [t["A"] for t in out] == [1, 2]


def test_string_number_key_coercion_in_hash_join(ctx):
    left = Table("L", ["k"], [{"k": "1"}, {"k": "2"}, {"k": "x"}])
    right = Table("R", ["j"], [{"j": 1}, {"j": 3}])
    pred = Comparison(AttrRef("k"), "=", AttrRef("j"))
    out = both(Join(left, right, pred), ctx)
    assert [t["k"] for t in out] == ["1"]


def test_executor_modes_agree(r1, r2):
    store = DocumentStore()
    plan = Join(r1, r2, EQ)
    default = execute(plan, store)
    reference = execute(plan, store, mode="reference")
    assert default.rows == reference.rows


def test_executor_rejects_unknown_mode(r1):
    with pytest.raises(ValueError):
        execute(r1, DocumentStore(), mode="quantum")


def test_unknown_function_in_plan_raises(ctx, r1):
    from repro.nal import Select
    from repro.errors import EvaluationError
    plan = Select(r1, FuncCall("no-such-fn", [AttrRef("A1")]))
    with pytest.raises(EvaluationError):
        run_vectorized(plan, ctx)
