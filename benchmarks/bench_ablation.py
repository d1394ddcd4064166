"""E8 — ablation benchmarks for the design choices DESIGN.md calls out.

Not a paper table; these isolate *why* the unnested plans win:

1. default (hash-based, order-preserving) vs reference (definitional,
   nested-loop) execution of the same unnested plan — the engine
   substrate matters even after unnesting;
2. grouping plan vs group-Ξ plan for q1 — the paper's §5.1 point that
   the group-detecting Ξ saves the Γ's sequence-valued intermediate;
3. semijoin (two scans) vs count-grouping (one scan) for the
   self-correlated q4 — the paper's §5.4 point about Eqv. 8.
"""

from __future__ import annotations

import pytest

from conftest import compiled_plan
from repro.engine.executor import DEFAULT_MODE, execute

BOOKS = 100


@pytest.mark.parametrize("mode", (DEFAULT_MODE, "reference"))
@pytest.mark.parametrize("plan", ("grouping", "outerjoin"))
def test_engine_mode(benchmark, plan, mode):
    db, compiled = compiled_plan("q1", plan, books=BOOKS,
                                 authors_per_book=2)
    benchmark.group = f"ablation: engine mode, q1 {plan}"
    benchmark(execute, compiled, db.store, mode)


@pytest.mark.parametrize("plan", ("grouping", "group-xi"))
def test_group_xi(benchmark, plan):
    db, compiled = compiled_plan("q1", plan, books=300,
                                 authors_per_book=5)
    benchmark.group = "ablation: grouping vs group-Ξ (q1, 300×5)"
    benchmark(execute, compiled, db.store)


@pytest.mark.parametrize("plan", ("semijoin", "grouping"))
def test_scan_saving(benchmark, plan):
    db, compiled = compiled_plan("q4", plan, books=300)
    benchmark.group = "ablation: Eqv. 6 vs Eqv. 8 (q4, 300 books)"
    benchmark(execute, compiled, db.store)


@pytest.mark.parametrize("ranking", ("heuristic", "cost"))
def test_ranking_overhead(benchmark, ranking):
    """Optimization-time cost of the two ranking strategies: the cost
    model walks every alternative plan and the documents' tag counts,
    so it is slower to *plan* — this quantifies by how much."""
    from repro.api import compile_query
    from repro.bench.queries import PAPER_QUERIES

    spec = PAPER_QUERIES["q1"]
    db = spec.build_db(books=100, authors_per_book=2)

    def plan_once():
        return compile_query(spec.text, db, ranking=ranking).plans()

    benchmark.group = "ablation: plan-ranking strategy (q1, 100 books)"
    benchmark(plan_once)
