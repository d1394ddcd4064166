"""Perf-trajectory gate: tracked baselines vs. fresh benchmark runs.

Each standalone benchmark (``benchmarks/bench_q7_index.py`` …
``bench_q10_order.py``) writes a ``repro-bench/1`` JSON artifact.  This
module consolidates those artifacts into one tracked baseline file per
query at the repository root — ``BENCH_q7_index.json``,
``BENCH_q9_storage.json``, ``BENCH_q10_order.json`` … — and compares fresh artifacts against them,
failing on a >20% regression.

Timings on shared CI runners are noisy, so the gate never compares raw
seconds across runs.  It gates on

* **dimensionless speedup ratios** (scan/index, walk/arena,
  forced/elided) — both legs of a ratio ride the same
  machine, so the ratio is machine-independent, and
* **deterministic counters** (node visits, index probes) — the
  documents are seeded, so these are exact and any drift is a real
  plan- or engine-level change.

Baseline records are matched to fresh records by their identifying
parameters (query label, document sizes).  A fresh artifact measured at
*different* sizes than the baseline is an error, not a pass: the gate
refuses to compare apples to oranges and asks for ``make bench-update``.

Used by ``benchmarks/trajectory.py`` (the CI entry point) and
``python -m repro.bench --update-baselines`` (regenerating baselines).
"""

from __future__ import annotations

import json
import pathlib

#: fractional change beyond which a gated metric counts as regressed
THRESHOLD = 0.20

#: identifying (non-metric) fields of a benchmark record, in key order
PARAM_KEYS = ("query", "items", "bids", "updates")

#: per-query gated metrics and their good direction.  Only
#: machine-independent metrics appear here — see the module docstring.
GATE_RULES: dict[str, dict[str, str]] = {
    "q7_index": {"speedup": "higher",
                 "index_node_visits": "lower",
                 "index_probes": "lower"},
    "q9_storage": {"speedup": "higher",
                   "arena_node_visits": "lower"},
    "q10_order": {"speedup": "higher"},
    # q12 gates the serving path: prepared (plan-cache warm) vs cold
    # per-request optimization, result-cache hits vs prepared
    # execution (both same-machine ratios), and the deterministic
    # plan-cache hit rate of the concurrent serving run (each shape is
    # warmed serially, so exactly one miss per shape).  p50/p99/QPS
    # ride along ungated — raw latency never crosses machines.
    "q12_serve": {"prepared_speedup": "higher",
                  "result_cache_speedup": "higher",
                  "plan_cache_hit_rate": "higher"},
    # q13 gates the scatter width (deterministic: one task per pool
    # worker); the parallel-vs-serial speedup rides along and only
    # starts gating once a baseline from a >=4-CPU runner clears the
    # noise floor — 1-CPU hosts measure ~1x by construction.
    "q13_parallel": {"speedup": "higher",
                     "parallel_tasks": "lower"},
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


def compare_records(query_key: str, base: dict, fresh: dict,
                    threshold: float = THRESHOLD) -> list[str]:
    """Regression messages for one (baseline, fresh) record pair."""
    issues: list[str] = []
    params = ", ".join(f"{k}={v}" for k, v in record_key(base))
    for metric, direction in GATE_RULES.get(query_key, {}).items():
        if metric not in base or metric not in fresh:
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
    regressions beyond ``threshold``, fresh measurements whose
    parameters have no baseline record (sizes changed without
    refreshing baselines), and gated queries with no baseline file."""
    fresh_by_query = load_artifacts(artifact_paths)
    issues: list[str] = []
    for query_key, fresh_records in sorted(fresh_by_query.items()):
        if query_key not in GATE_RULES:
            continue
        path = baseline_path(baseline_dir, query_key)
        if not path.exists():
            issues.append(f"{query_key}: no baseline {path.name} — "
                          "run `make bench-update` and commit it")
            continue
        baseline = load_baseline(path)
        for fresh in fresh_records:
            key = record_key(fresh)
            base = baseline.get(key)
            if base is None:
                params = ", ".join(f"{k}={v}" for k, v in key)
                issues.append(
                    f"{query_key}: baseline {path.name} has no record "
                    f"for ({params}) — sizes changed? run "
                    "`make bench-update` and commit the new baseline")
                continue
            issues.extend(compare_records(query_key, base, fresh,
                                          threshold))
    return issues
