"""Tests for the benchmark harness (repro.bench) at tiny scales."""

from __future__ import annotations

import pytest

from repro.bench import PAPER_QUERIES, make_database, measure_query
from repro.bench.tables import (
    PAPER_RESULTS,
    all_tables,
    dblp_table,
    document_size_table,
    paper_table_string,
    query_table,
)


def test_every_query_compiles_and_all_plans_agree():
    """For every §5 experiment the plan set includes the paper's labels
    and every plan produces the same rows (up to group order)."""
    from tests.conftest import output_blocks
    for key, spec in PAPER_QUERIES.items():
        params = {"books": 12} if key != "q6" else {"bids": 20}
        if key == "q1_dblp":
            params = {"books": 8, "articles": 16}
        measured = measure_query(key, **params)
        labels = [m.label for m in measured]
        assert list(spec.plan_labels) == labels, key
        outputs = {m.label: output_blocks(m.output) for m in measured}
        reference = outputs[labels[0]]
        for label, blocks in outputs.items():
            assert blocks == reference, f"{key}: {label} differs"


def test_nested_plan_scans_grow_with_input():
    small = measure_query("q3", labels=("nested",), books=10)[0]
    large = measure_query("q3", labels=("nested",), books=30)[0]
    assert large.total_scans > small.total_scans


def test_unnested_plan_scans_constant():
    small = measure_query("q3", labels=("semijoin",), books=10)[0]
    large = measure_query("q3", labels=("semijoin",), books=30)[0]
    assert small.total_scans == large.total_scans == 2


def test_measured_plan_records_applied_rules():
    plan = measure_query("q5", labels=("grouping",), books=10)[0]
    assert "eqv9" in plan.applied


def test_make_database_registers_expected_documents():
    db = make_database("q3", books=5)
    assert "bib.xml" in db.store and "reviews.xml" in db.store
    db6 = make_database("q6", bids=10)
    assert "bids.xml" in db6.store


# ---------------------------------------------------------------------------
# Table formatting
# ---------------------------------------------------------------------------

def test_document_size_table_mentions_all_documents():
    table = document_size_table(sizes=(20,))
    for name in ("bib", "prices", "reviews", "bids", "items", "users"):
        assert name in table
    assert "KB" in table


def test_query_table_has_row_per_plan():
    table = query_table("q2", sizes=(10, 20))
    assert len(table.rows) == len(PAPER_QUERIES["q2"].plan_labels)
    text = table.to_string()
    assert "nested" in text and "grouping" in text
    assert "§5.2" in text


def test_query_table_q1_varies_authors():
    table = query_table("q1", sizes=(8,))
    # 4 plans × 3 authors-per-book values
    assert len(table.rows) == 12
    assert table.extra_param == "authors"


def test_paper_table_string_covers_all_plans():
    for key, ref in PAPER_RESULTS.items():
        text = paper_table_string(key)
        for label in ref["plans"]:
            assert label in text, (key, label)


def test_dblp_table_mentions_refusal():
    text = dblp_table(books=8, articles=16)
    assert "outerjoin" in text
    assert "Eqv. 5" in text


@pytest.mark.slow
def test_all_tables_smoke():
    report = all_tables(sizes=(8, 16), keys=("q2", "q6"))
    assert "Fig. 6" in report
    assert "§5.2" in report and "§5.6" in report


# ---------------------------------------------------------------------------
# Machine-readable (JSON) results
# ---------------------------------------------------------------------------

def test_measurements_to_json_roundtrips(tmp_path):
    import json

    from repro.bench.harness import measurements_to_json, write_json
    measured = {"q3": query_table("q3", sizes=(8,)).to_measurements()}
    payload = measurements_to_json(measured, meta={"sizes": [8]})
    assert payload["schema"] == "repro-bench/1"
    records = payload["queries"]["q3"]
    assert {r["label"] for r in records} == {"nested", "semijoin"}
    for record in records:
        assert record["seconds"] > 0
        assert record["params"] == "books=8"
        assert "total_scans" in record and "total_probes" in record
        assert "output_chars" in record and "output" not in record
    out = tmp_path / "bench.json"
    write_json(str(out), payload)
    assert json.loads(out.read_text()) == json.loads(
        json.dumps(payload))


def test_bench_cli_writes_json(tmp_path):
    from repro.bench.__main__ import main
    out = tmp_path / "out.json"
    code = main(["--sizes", "8", "--query", "q3", "--no-paper",
                 "--json", str(out)])
    assert code == 0
    import json
    payload = json.loads(out.read_text())
    assert payload["meta"]["sizes"] == [8]
    assert "q3" in payload["queries"]
