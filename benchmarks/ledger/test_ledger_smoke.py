"""Smoke test of the latency ledger (collected by the tier-1 run).

Runs all five workloads at ``--scale smoke`` — timed and traced, each
through the real ``run.py`` command line in its own process — and
checks the contract ``BENCHMARK.json`` records: every workload and
metric name appears with a finite value, no op failed, exact counters
repeat across two runs, and a corrupted expected output is counted as a
failed op.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: counters that must repeat exactly from run to run on one client
EXACT = ("xpath.node_visits", "xpath.document_scans",
         "xpath.visits_per_row", "index.probes", "xquery.plan_ops",
         "optimizer.alternatives")


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Every workload's smoke records, plus a second traced run of
    paper-nested; the processes run side by side (nothing is measured
    here, only checked)."""
    out_dir = tmp_path_factory.mktemp("ledger")
    jobs = {name: ["--workload", name] for name in WORKLOADS}
    jobs["repeat"] = ["--workload", "paper-nested", "--trace", "1"]
    running = {
        key: subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--scale", "smoke",
             "--seed", "11", "--out", str(out_dir / f"{key}.json"),
             "--trace-out", str(out_dir / f"{key}-trace.json"), *extra],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        for key, extra in jobs.items()}
    loaded = {}
    for key, process in running.items():
        output, _ = process.communicate(timeout=120)
        assert process.returncode == 0, output
        loaded[key] = json.loads(
            (out_dir / f"{key}.json").read_text())["runs"]
    return loaded


def test_contract_names_are_well_formed():
    names = WORKLOADS + [m["name"] for kind in ("end_to_end", "per_layer")
                         for m in CONTRACT[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 for w in CONTRACT["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert CONTRACT["paths"] == ["benchmarks/ledger"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported(records, workload):
    timed, traced = records[workload]
    assert (timed["trace"], traced["trace"]) == (0, 1)
    for record, kind in ((timed, "end_to_end"), (traced, "per_layer")):
        assert record["workload"] == workload
        assert record["failed"] == 0, record["problems"]
        assert record["correct"] and record["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in CONTRACT[kind]}
        assert set(record["metrics"]) == set(expected)
        for name, metric in record["metrics"].items():
            assert metric["unit"] == expected[name]
            assert math.isfinite(metric["value"]), name
    assert all(m["value"] > 0 for m in timed["metrics"].values())


def test_exact_counters_repeat(records):
    first = records["paper-nested"][1]["metrics"]
    second = records["repeat"][0]["metrics"]
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name


def test_corrupted_expected_output_is_a_failed_op(tmp_path):
    import oracle
    import workloads as wl
    from targets import SessionTarget

    workload = wl.WORKLOADS["cold-compile"]
    sizes, seed = workload.sizes["smoke"], 3
    docs = wl.corpus(sizes, seed)
    docs_dir = tmp_path / "docs"
    docs_dir.mkdir()
    for name, text in docs.items():
        (docs_dir / name).write_text(text)
    target = SessionTarget(docs_dir, workload.session_kwargs)
    run = {"checkpoints": [], "outputs": {
        text: target.query(text, shape.label)
        for shape, text, _, _ in wl.oracle_texts(workload, seed)}}
    target.close()
    assert oracle.verify(workload, sizes, seed, docs, run, tmp_path) == []
    victim = next(iter(run["outputs"]))
    run["outputs"][victim] += "<forged/>"
    failures = oracle.verify(workload, sizes, seed, docs, run, tmp_path)
    assert len(failures) == 1 and "full-size" in failures[0]
