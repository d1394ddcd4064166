"""E7 — the paper's worked examples, asserted tuple-for-tuple.

Fig. 1: the map operator χ_{a:σ_{A1=A2}(R2)}(R1).
Fig. 2: unary Γ with count and id, binary Γ (nest-join) with the empty
group for A1=3, and µ_g(R2^g) = R2.
"""

from __future__ import annotations

import pytest

from repro.engine.context import EvalContext
from repro.engine.vectorized import run_vectorized
from repro.nal import (
    AggSpec,
    GroupBinary,
    GroupUnary,
    Map,
    Table,
    Tup,
    Unnest,
)
from repro.nal.scalar import AttrRef, Comparison, NestedPlan
from repro.nal.unary_ops import Select
from repro.xmldb.document import DocumentStore


@pytest.fixture
def r1() -> Table:
    return Table("R1", ["A1"], [{"A1": 1}, {"A1": 2}, {"A1": 3}])


@pytest.fixture
def r2() -> Table:
    return Table("R2", ["A2", "B"], [
        {"A2": 1, "B": 2},
        {"A2": 1, "B": 3},
        {"A2": 2, "B": 4},
        {"A2": 2, "B": 5},
    ])


def rows(plan) -> list[Tup]:
    ctx = EvalContext(DocumentStore())
    reference = plan.evaluate(ctx)
    assert run_vectorized(plan, ctx).to_rows() == reference
    return reference


def tup(**attrs) -> Tup:
    return Tup(attrs)


def test_fig1_map_operator(r1, r2):
    """χ_{a:σ_{A1=A2}(R2)}(R1) — three tuples, the third with an empty
    sequence."""
    corr = Comparison(AttrRef("A1"), "=", AttrRef("A2"))
    plan = Map(r1, "a", NestedPlan(Select(r2, corr)))
    result = rows(plan)
    assert len(result) == 3
    assert result[0]["A1"] == 1
    assert result[0]["a"] == [tup(A2=1, B=2), tup(A2=1, B=3)]
    assert result[1]["a"] == [tup(A2=2, B=4), tup(A2=2, B=5)]
    assert result[2]["A1"] == 3
    assert result[2]["a"] == []


def test_fig2_unary_gamma_count(r2):
    """Γ_{g;=A2;count}(R2) = {(1,2), (2,2)}."""
    plan = GroupUnary(r2, "g", ["A2"], "=", AggSpec("count"))
    assert rows(plan) == [tup(A2=1, g=2), tup(A2=2, g=2)]


def test_fig2_unary_gamma_id(r2):
    """Γ_{g;=A2;id}(R2): the groups as sequence-valued attributes."""
    plan = GroupUnary(r2, "g", ["A2"], "=", AggSpec("id"))
    result = rows(plan)
    assert [t["A2"] for t in result] == [1, 2]
    assert result[0]["g"] == [tup(A2=1, B=2), tup(A2=1, B=3)]
    assert result[1]["g"] == [tup(A2=2, B=4), tup(A2=2, B=5)]


def test_fig2_binary_gamma_keeps_empty_group(r1, r2):
    """R1 Γ_{g;A1=A2;id} R2: A1=3 keeps an empty group — the fact that
    makes the binary operator (not the unary one) the correct rewrite
    when the outer sequence has unmatched values."""
    plan = GroupBinary(r1, r2, "g", ["A1"], "=", ["A2"], AggSpec("id"))
    result = rows(plan)
    assert len(result) == 3
    assert result[0]["g"] == [tup(A2=1, B=2), tup(A2=1, B=3)]
    assert result[1]["g"] == [tup(A2=2, B=4), tup(A2=2, B=5)]
    assert result[2]["A1"] == 3
    assert result[2]["g"] == []


def test_fig2_unnest_inverts_grouping(r2):
    """µ_g(Γ_{g;=A2;id}(R2)) = R2 (the paper's µ_g(R2^g) = R2)."""
    grouped = GroupUnary(r2, "g", ["A2"], "=", AggSpec("id"))
    unnested = Unnest(grouped, "g", ["A2", "B"])
    result = [t.project(["A2", "B"]) for t in rows(unnested)]
    assert result == [tup(A2=1, B=2), tup(A2=1, B=3),
                      tup(A2=2, B=4), tup(A2=2, B=5)]


def test_fig2_rcount_join_fig_caption(r1, r2):
    """The Fig. 2 caption's motivation: joining R1 via left outer join
    to R2^count must give count 0 for A1=3 — replayed through Eqv. 2's
    right-hand side."""
    from repro.nal import OuterJoin, ProjectAway
    from repro.nal.scalar import Const
    grouped = GroupUnary(r2, "g", ["A2"], "=", AggSpec("count"))
    corr = Comparison(AttrRef("A1"), "=", AttrRef("A2"))
    plan = ProjectAway(
        OuterJoin(r1, grouped, corr, "g", Const(0)), ["A2"])
    assert rows(plan) == [tup(A1=1, g=2), tup(A1=2, g=2), tup(A1=3, g=0)]
