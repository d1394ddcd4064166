"""Perf-trajectory gate: tracked baselines vs. fresh benchmark runs.

Each standalone benchmark (``benchmarks/bench_q14_updates.py``) writes
a ``repro-bench/1`` JSON artifact.  This module consolidates those
artifacts into one tracked baseline file per query at the repository
root — ``BENCH_q14_updates.json`` — and compares fresh artifacts
against them, failing on a >20% regression.

Timings on shared CI runners are noisy, so the gate never compares raw
seconds across runs.  It gates on

* **dimensionless speedup ratios** (re-registration/update) — both
  legs of a ratio ride the same machine, so the ratio is
  machine-independent, and
* **deterministic counters** (incremental index applies) — the
  documents are seeded, so these are exact and any drift is a real
  plan- or engine-level change.

Baseline records are matched to fresh records by their identifying
parameters (query label, document sizes).  A fresh artifact measured at
*different* sizes than the baseline is an error, not a pass: the gate
refuses to compare apples to oranges and asks for ``make bench-update``.
The same holds in the other direction — a gated thing that *disappears*
is a problem, never a pass: a baseline record no fresh run reproduced,
a gated metric the fresh record stopped emitting, and a
``BENCH_<query>.json`` whose query has no entry in :data:`GATE_RULES`
(a retired benchmark's dead baseline) are all reported.

Used by ``benchmarks/trajectory.py`` (the CI entry point; it also holds
the one list of bench invocations and sizes).
"""

from __future__ import annotations

import json
import pathlib

#: fractional change beyond which a gated metric counts as regressed
THRESHOLD = 0.20

#: identifying (non-metric) fields of a benchmark record, in key order
PARAM_KEYS = ("query", "items", "updates")

#: per-query gated metrics and their good direction.  Only
#: machine-independent metrics appear here — see the module docstring.
GATE_RULES: dict[str, dict[str, str]] = {
    # q14 gates the incremental-update path: the update-vs-full-
    # re-registration ratio (same-machine, so machine-independent)
    # and the exact incremental-apply counter — one index apply per
    # update, or the path silently fell back to rebuilding.
    "q14_updates": {"update_speedup": "higher",
                    "incremental_applies": "lower"},
}

#: speedup ratios whose baseline is below this are not gated: a
#: near-1× ratio is dominated by timing noise (both legs take about the
#: same time), so a ±20% band around it would flake on shared runners.
#: Counters are exact and are always gated.
SPEEDUP_NOISE_FLOOR = 2.0

BASELINE_SCHEMA = "repro-bench-baseline/1"


def record_key(record: dict) -> tuple:
    """The identifying parameters of one measurement record."""
    return tuple((k, record[k]) for k in PARAM_KEYS if k in record)


def baseline_path(baseline_dir: str | pathlib.Path,
                  query_key: str) -> pathlib.Path:
    return pathlib.Path(baseline_dir) / f"BENCH_{query_key}.json"


def load_artifacts(paths: list[str | pathlib.Path]) -> dict[str, list]:
    """Merge benchmark artifacts into ``{query_key: [records]}``.

    Accepts both raw bench artifacts (``repro-bench/1``) and baseline
    files (``repro-bench-baseline/1``).  Later records with the same
    identifying parameters replace earlier ones."""
    merged: dict[str, dict[tuple, dict]] = {}
    for path in paths:
        payload = json.loads(pathlib.Path(path).read_text())
        queries = payload.get("queries", {})
        for query_key, records in queries.items():
            bucket = merged.setdefault(query_key, {})
            for record in records:
                bucket[record_key(record)] = record
    return {key: list(bucket.values()) for key, bucket in merged.items()}


def write_baselines(artifact_paths: list[str | pathlib.Path],
                    baseline_dir: str | pathlib.Path
                    ) -> list[pathlib.Path]:
    """Consolidate artifacts into one ``BENCH_<query>.json`` per query
    under ``baseline_dir``; returns the files written."""
    merged = load_artifacts(artifact_paths)
    written: list[pathlib.Path] = []
    for query_key in sorted(merged):
        path = baseline_path(baseline_dir, query_key)
        payload = {
            "schema": BASELINE_SCHEMA,
            "query": query_key,
            "gated_metrics": GATE_RULES.get(query_key, {}),
            "records": sorted(merged[query_key],
                              key=lambda r: repr(record_key(r))),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                        + "\n")
        written.append(path)
    return written


def load_baseline(path: str | pathlib.Path) -> dict[tuple, dict]:
    payload = json.loads(pathlib.Path(path).read_text())
    if payload.get("schema") != BASELINE_SCHEMA:
        raise ValueError(f"{path}: expected schema {BASELINE_SCHEMA!r}, "
                         f"got {payload.get('schema')!r}")
    return {record_key(r): r for r in payload["records"]}


def _params(key: tuple) -> str:
    return ", ".join(f"{k}={v}" for k, v in key)


def compare_records(query_key: str, base: dict, fresh: dict,
                    threshold: float = THRESHOLD) -> list[str]:
    """Regression messages for one (baseline, fresh) record pair."""
    issues: list[str] = []
    params = _params(record_key(base))
    for metric, direction in GATE_RULES.get(query_key, {}).items():
        if metric not in base:
            continue
        if metric not in fresh:
            issues.append(
                f"{query_key} ({params}): gated metric {metric} is in "
                "the baseline but missing from the fresh record")
            continue
        b, f = float(base[metric]), float(fresh[metric])
        if (metric == "speedup" or metric.endswith("_speedup")) \
                and b < SPEEDUP_NOISE_FLOOR:
            continue
        if direction == "higher":
            regressed = f < b * (1.0 - threshold)
        else:
            regressed = f > b * (1.0 + threshold)
        if regressed:
            arrow = "dropped" if direction == "higher" else "rose"
            issues.append(
                f"{query_key} ({params}): {metric} {arrow} beyond "
                f"{threshold:.0%} — baseline {b:g}, fresh {f:g}")
    return issues


def check(artifact_paths: list[str | pathlib.Path],
          baseline_dir: str | pathlib.Path,
          threshold: float = THRESHOLD) -> list[str]:
    """Compare fresh artifacts against the tracked baselines.

    Returns a list of problems (empty = gate passes).  Problems are
    regressions beyond ``threshold``; fresh measurements whose
    parameters have no baseline record (sizes changed without
    refreshing baselines); gated queries with no baseline file; and
    whatever is tracked but no longer measured — a baseline record
    without a fresh record, a gated metric missing from the fresh
    record, a ``BENCH_<query>.json`` for a query no rule gates."""
    fresh_by_query = load_artifacts(artifact_paths)
    baseline_dir = pathlib.Path(baseline_dir)
    tracked = {path.stem.removeprefix("BENCH_")
               for path in baseline_dir.glob("BENCH_*.json")}
    issues: list[str] = []
    for query_key in sorted(tracked - GATE_RULES.keys()):
        issues.append(
            f"{query_key}: stale baseline "
            f"{baseline_path(baseline_dir, query_key).name} — no "
            "GATE_RULES entry gates it; delete the file or restore "
            "the rule")
    for query_key in sorted(GATE_RULES.keys()
                            & (fresh_by_query.keys() | tracked)):
        path = baseline_path(baseline_dir, query_key)
        if query_key not in tracked:
            issues.append(f"{query_key}: no baseline {path.name} — "
                          "run `make bench-update` and commit it")
            continue
        baseline = load_baseline(path)
        fresh_records = {record_key(record): record for record
                         in fresh_by_query.get(query_key, ())}
        for key in sorted(fresh_records.keys() - baseline.keys(),
                          key=repr):
            issues.append(
                f"{query_key}: baseline {path.name} has no record "
                f"for ({_params(key)}) — sizes changed? run "
                "`make bench-update` and commit the new baseline")
        for key, base in baseline.items():
            fresh = fresh_records.get(key)
            if fresh is None:
                issues.append(
                    f"{query_key}: baseline {path.name} records "
                    f"({_params(key)}) but no fresh run measured it — "
                    "bench step dropped or record renamed? run "
                    "`make bench-update` or delete the baseline")
                continue
            issues.extend(compare_records(query_key, base, fresh,
                                          threshold))
    return issues
