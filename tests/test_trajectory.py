"""Tests for the perf-trajectory gate (repro.bench.trajectory)."""

from __future__ import annotations

import json

import pytest

from repro.bench.trajectory import (
    GATE_RULES,
    check,
    load_baseline,
    record_key,
    write_baselines,
)


def q7_record(**overrides) -> dict:
    record = {
        "items": 2000, "matches": 31,
        "scan_seconds": 0.052, "index_seconds": 0.001,
        "speedup": 52.0,
        "scan_node_visits": 10944,
        "index_node_visits": 347, "index_probes": 1,
    }
    record.update(overrides)
    return record


def artifact(tmp_path, name: str, queries: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps({"schema": "repro-bench/1",
                                "queries": queries}))
    return str(path)


@pytest.fixture
def baselined(tmp_path):
    """A baseline dir seeded from one q7 artifact."""
    art = artifact(tmp_path, "q7.json", {"q7_index": [q7_record()]})
    write_baselines([art], tmp_path)
    return tmp_path


def test_write_baselines_produces_tracked_files(tmp_path):
    art = artifact(tmp_path, "q7.json", {"q7_index": [q7_record()]})
    (written,) = write_baselines([art], tmp_path)
    assert written.name == "BENCH_q7_index.json"
    baseline = load_baseline(written)
    assert record_key(q7_record()) in baseline
    payload = json.loads(written.read_text())
    assert payload["schema"] == "repro-bench-baseline/1"
    assert payload["gated_metrics"] == GATE_RULES["q7_index"]


def test_gate_passes_on_unchanged_results(tmp_path, baselined):
    fresh = artifact(tmp_path, "fresh.json",
                     {"q7_index": [q7_record()]})
    assert check([fresh], baselined) == []


def test_gate_tolerates_drift_within_threshold(tmp_path, baselined):
    fresh = artifact(tmp_path, "fresh.json",
                     {"q7_index": [q7_record(speedup=52.0 * 0.85)]})
    assert check([fresh], baselined) == []


def test_gate_fails_on_speedup_regression(tmp_path, baselined):
    fresh = artifact(tmp_path, "fresh.json",
                     {"q7_index": [q7_record(speedup=52.0 * 0.7)]})
    issues = check([fresh], baselined)
    assert len(issues) == 1
    assert "speedup dropped" in issues[0]


def test_gate_fails_on_counter_regression(tmp_path, baselined):
    fresh = artifact(tmp_path, "fresh.json", {"q7_index": [
        q7_record(index_node_visits=int(347 * 1.5))]})
    issues = check([fresh], baselined)
    assert len(issues) == 1
    assert "index_node_visits rose" in issues[0]


def test_counter_improvement_never_fails(tmp_path, baselined):
    fresh = artifact(tmp_path, "fresh.json", {"q7_index": [
        q7_record(index_node_visits=100, speedup=500.0)]})
    assert check([fresh], baselined) == []


def test_params_mismatch_is_an_error_not_a_pass(tmp_path, baselined):
    fresh = artifact(tmp_path, "fresh.json", {"q7_index": [
        q7_record(items=4000)]})
    issues = check([fresh], baselined)
    assert len(issues) == 1
    assert "no record" in issues[0]
    assert "bench-update" in issues[0]


def test_missing_baseline_file_is_an_error(tmp_path):
    fresh = artifact(tmp_path, "fresh.json",
                     {"q7_index": [q7_record()]})
    issues = check([fresh], tmp_path)      # nothing written here
    assert len(issues) == 1
    assert "no baseline" in issues[0]


def test_ungated_queries_are_ignored(tmp_path):
    fresh = artifact(tmp_path, "fresh.json",
                     {"q3": [{"label": "nested", "seconds": 0.1}]})
    assert check([fresh], tmp_path) == []


def test_near_unity_speedups_are_not_gated(tmp_path):
    # A 1.2x baseline ratio is timing noise; a ±20% band around it
    # would flake, so the gate skips it (counters are still gated).
    base = artifact(tmp_path, "base.json", {"q10_order": [
        {"query": "q10_orderonly", "items": 600, "bids": 3000,
         "speedup": 1.2}]})
    write_baselines([base], tmp_path)
    fresh = artifact(tmp_path, "fresh.json", {"q10_order": [
        {"query": "q10_orderonly", "items": 600, "bids": 3000,
         "speedup": 0.8}]})
    assert check([fresh], tmp_path) == []


def test_later_artifacts_replace_earlier_records(tmp_path):
    first = artifact(tmp_path, "first.json",
                     {"q7_index": [q7_record(speedup=10.0)]})
    second = artifact(tmp_path, "second.json",
                      {"q7_index": [q7_record(speedup=50.0)]})
    write_baselines([first, second], tmp_path)
    baseline = load_baseline(tmp_path / "BENCH_q7_index.json")
    assert baseline[record_key(q7_record())]["speedup"] == 50.0


def test_repo_baselines_cover_the_ci_sizes():
    """The committed BENCH_*.json files must match what CI measures,
    or the gate would fail every build with a params mismatch."""
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent
    expectations = {
        "BENCH_q7_index.json": [(("items", 2000),)],
        "BENCH_q9_storage.json": [
            (("query", "q9_digest"), ("items", 2000), ("bids", 10000)),
            (("query", "q9_filter"), ("items", 2000), ("bids", 10000))],
        "BENCH_q10_order.json": [
            (("query", "q10_report"), ("items", 600), ("bids", 3000)),
            (("query", "q10_orderonly"), ("items", 600),
             ("bids", 3000))],
    }
    for name, keys in expectations.items():
        baseline = load_baseline(root / name)
        for key in keys:
            assert key in baseline, f"{name} lacks record for {key}"
