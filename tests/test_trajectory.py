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


def q14_record(**overrides) -> dict:
    record = {
        "query": "replace-item", "items": 4000, "updates": 20,
        "rows": 59, "rereg_seconds": 0.52, "update_seconds": 0.01,
        "update_speedup": 52.0,
        "incremental_applies": 20, "full_builds": 4,
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
    """A baseline dir seeded from one q14 artifact."""
    art = artifact(tmp_path, "q14.json", {"q14_updates": [q14_record()]})
    write_baselines([art], tmp_path)
    return tmp_path


def test_write_baselines_produces_tracked_files(tmp_path):
    art = artifact(tmp_path, "q14.json", {"q14_updates": [q14_record()]})
    (written,) = write_baselines([art], tmp_path)
    assert written.name == "BENCH_q14_updates.json"
    baseline = load_baseline(written)
    assert record_key(q14_record()) in baseline
    payload = json.loads(written.read_text())
    assert payload["schema"] == "repro-bench-baseline/1"
    assert payload["gated_metrics"] == GATE_RULES["q14_updates"]


def test_gate_passes_on_unchanged_results(tmp_path, baselined):
    fresh = artifact(tmp_path, "fresh.json",
                     {"q14_updates": [q14_record()]})
    assert check([fresh], baselined) == []


def test_gate_tolerates_drift_within_threshold(tmp_path, baselined):
    fresh = artifact(tmp_path, "fresh.json", {"q14_updates": [
        q14_record(update_speedup=52.0 * 0.85)]})
    assert check([fresh], baselined) == []


def test_gate_fails_on_speedup_regression(tmp_path, baselined):
    fresh = artifact(tmp_path, "fresh.json", {"q14_updates": [
        q14_record(update_speedup=52.0 * 0.7)]})
    issues = check([fresh], baselined)
    assert len(issues) == 1
    assert "update_speedup dropped" in issues[0]


def test_gate_fails_on_counter_regression(tmp_path, baselined):
    fresh = artifact(tmp_path, "fresh.json", {"q14_updates": [
        q14_record(incremental_applies=30)]})
    issues = check([fresh], baselined)
    assert len(issues) == 1
    assert "incremental_applies rose" in issues[0]


def test_counter_improvement_never_fails(tmp_path, baselined):
    fresh = artifact(tmp_path, "fresh.json", {"q14_updates": [
        q14_record(incremental_applies=10, update_speedup=500.0)]})
    assert check([fresh], baselined) == []


def test_params_mismatch_is_an_error_not_a_pass(tmp_path, baselined):
    fresh = artifact(tmp_path, "fresh.json", {"q14_updates": [
        q14_record(items=2000)]})
    issues = check([fresh], baselined)
    # ... and the baseline's own sizes were not measured either
    assert len(issues) == 2
    assert "no record" in issues[0] and "items=2000" in issues[0]
    assert "bench-update" in issues[0]
    assert "no fresh run" in issues[1] and "items=4000" in issues[1]


def test_missing_baseline_file_is_an_error(tmp_path):
    fresh = artifact(tmp_path, "fresh.json",
                     {"q14_updates": [q14_record()]})
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
    base = artifact(tmp_path, "base.json", {"q14_updates": [
        q14_record(update_speedup=1.2)]})
    write_baselines([base], tmp_path)
    fresh = artifact(tmp_path, "fresh.json", {"q14_updates": [
        q14_record(update_speedup=0.8)]})
    assert check([fresh], tmp_path) == []
    slower = artifact(tmp_path, "slower.json", {"q14_updates": [
        q14_record(update_speedup=1.2, incremental_applies=40)]})
    assert len(check([slower], tmp_path)) == 1


def test_later_artifacts_replace_earlier_records(tmp_path):
    first = artifact(tmp_path, "first.json",
                     {"q14_updates": [q14_record(update_speedup=10.0)]})
    second = artifact(tmp_path, "second.json",
                      {"q14_updates": [q14_record(update_speedup=50.0)]})
    write_baselines([first, second], tmp_path)
    baseline = load_baseline(tmp_path / "BENCH_q14_updates.json")
    assert baseline[record_key(q14_record())]["update_speedup"] == 50.0


# ----------------------------------------------------------------------
# A gated thing that disappears is a problem, never a pass
# ----------------------------------------------------------------------
def test_baseline_record_without_a_fresh_record_is_reported(
        tmp_path, baselined):
    renamed = artifact(tmp_path, "fresh.json", {"q14_updates": [
        q14_record(query="replace-item-v2")]})
    issues = check([renamed], baselined)
    assert any("no fresh run" in issue and "query=replace-item," in issue
               for issue in issues), issues


def test_gated_query_with_no_fresh_artifact_is_reported(
        tmp_path, baselined):
    """The bench step was dropped: its baseline is still tracked and
    still gated, but nothing measured it."""
    other = artifact(tmp_path, "fresh.json",
                     {"q3": [{"label": "nested", "seconds": 0.1}]})
    issues = check([other], baselined)
    assert len(issues) == 1
    assert "q14_updates" in issues[0] and "no fresh run" in issues[0]


def test_gated_metric_missing_from_fresh_record_is_reported(
        tmp_path, baselined):
    record = q14_record()
    del record["incremental_applies"]
    fresh = artifact(tmp_path, "fresh.json", {"q14_updates": [record]})
    issues = check([fresh], baselined)
    assert len(issues) == 1
    assert "incremental_applies" in issues[0]
    assert "missing from the fresh record" in issues[0]


def test_baseline_file_without_a_gate_rule_is_reported(
        tmp_path, baselined):
    stale = artifact(tmp_path, "q7.json", {"q7_index": [
        {"items": 2000, "speedup": 6.8, "index_probes": 1}]})
    write_baselines([stale], baselined)   # BENCH_q7_index.json, no rule
    fresh = artifact(tmp_path, "fresh.json",
                     {"q14_updates": [q14_record()]})
    issues = check([fresh], baselined)
    assert len(issues) == 1
    assert "BENCH_q7_index.json" in issues[0]
    assert "stale baseline" in issues[0]


def test_repo_baselines_are_exactly_the_gated_ci_runs():
    """The committed BENCH_*.json files must be the gated queries — no
    dead baseline of a retired bench, none missing — and must match the
    sizes ``benchmarks/trajectory.py`` runs, or the gate would fail
    every build with a params mismatch."""
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent
    assert {path.name for path in root.glob("BENCH_*.json")} \
        == {f"BENCH_{query}.json" for query in GATE_RULES}
    expectations = {
        "BENCH_q14_updates.json": [
            (("query", "replace-item"), ("items", 4000),
             ("updates", 20))],
    }
    for name, keys in expectations.items():
        assert sorted(load_baseline(root / name)) == sorted(keys), name
