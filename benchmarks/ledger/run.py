"""The latency ledger: one command that generates the inputs from a
seed, runs each workload in a fresh subprocess, checks every output and
prints every metric by name with its unit.

    python3 benchmarks/ledger/run.py                       # everything
    python3 benchmarks/ledger/run.py --workload serve-http --seed 7 \\
        --seconds 10 --trace 0                             # one timed run
    python3 benchmarks/ledger/run.py --runs 10 --trace 0 --out A.json

``--trace 0`` is the timed run (end-to-end metrics), ``--trace 1`` the
traced run (per-layer metrics, ``ledger-trace.json``); without
``--trace`` both run.  With exactly one workload and one trace setting
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — the contract
recorded in ``BENCHMARK.json``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"error: {SRC} not found - the ledger measures the repro "
             f"package of the checkout it sits in")
sys.path.insert(0, str(SRC))

import oracle  # noqa: E402  (needs SRC on the path)
import workloads as wl  # noqa: E402
from summary import (  # noqa: E402
    end_to_end_metrics,
    load_contract,
    shape_rows,
)

#: builds of the target per timed run; ``setup_s`` is their median
SETUPS = {"full": 3, "smoke": 1}
SMOKE_SECONDS = 0.15
#: a worker that has not finished by then is killed and the run fails
WORKER_TIMEOUT_S = 170


def run_worker(job: dict, work_dir: pathlib.Path) -> dict:
    """Run ``worker.py`` on ``job`` in a fresh interpreter (own process
    group, so a timeout also stops a server it started) and return its
    result."""
    job_path = work_dir / "job.json"
    job["result"] = str(work_dir / "result.json")
    job_path.write_text(json.dumps(job))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(job_path)],
        env=env, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = process.wait(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    with open(job["result"]) as handle:
        return json.load(handle)


def run_once(workload: wl.Workload, scale: str, seed: int,
             seconds: float, trace: bool, work_dir: pathlib.Path,
             trace_out: pathlib.Path | None = None) -> dict:
    """Inputs → worker → oracle for one workload; the record that goes
    into ``--out`` and, in contract form, onto the last line."""
    contract = load_contract()
    sizes = workload.sizes[scale]
    docs = wl.corpus(sizes, seed)
    docs_dir = work_dir / "docs"
    docs_dir.mkdir(parents=True)
    for name, text in docs.items():
        (docs_dir / name).write_text(text)
    job = {"workload": workload.name, "seed": seed, "seconds": seconds,
           "trace": trace, "docs": str(docs_dir),
           "setups": SETUPS[scale],
           "trace_out": str(trace_out) if trace_out else None}
    run = run_worker(job, work_dir)
    mismatches = oracle.verify(workload, sizes, seed, docs, run, work_dir)
    failed = run["failed"] + len(mismatches)
    record = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "sizes": sizes, "clients": workload.clients,
        "attempted": run["attempted"], "failed": failed,
        "correct": failed == 0,
        "problems": run["errors"] + mismatches[:5],
        "oracle_texts": len(wl.oracle_texts(workload, seed)),
        "checkpoints": len(run["checkpoints"]),
    }
    if trace:
        values = dict.fromkeys(
            (m["name"] for m in contract["per_layer"]), 0.0)
        unknown = set(run["layer_metrics"]) - set(values)
        if unknown:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: "
                               f"{sorted(unknown)}")
        values.update(run["layer_metrics"])
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        record["extras"] = run["extras"]
    else:
        values = end_to_end_metrics(run)
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
        record["window_s"] = run["window_s"]
        record["shapes"] = shape_rows(run)
        record["caches"] = run["caches"]
    record["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in values.items()}
    return record


def contract_line(record: dict) -> str:
    return json.dumps({key: record[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args) -> dict:
    return {"commit": commit(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "scale": args.scale,
            "seed": args.seed, "seconds": args.seconds,
            "runs": args.runs}


def print_record(record: dict) -> None:
    kind = "traced" if record["trace"] else "timed"
    sizes = " ".join(f"{k}={v}" for k, v in record["sizes"].items())
    print(f"\n== {record['workload']} ({kind}, seed {record['seed']}, "
          f"{sizes}, clients={record['clients']}) ==")
    print(f"  ops_attempted {record['attempted']}  ops_failed "
          f"{record['failed']}  oracle texts {record['oracle_texts']}"
          f"  checkpoints {record['checkpoints']}")
    for problem in record["problems"]:
        print(f"  ! {problem}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<28} {metric['value']:>14.4f} {metric['unit']}")
    for name, count, mid, p95 in record.get("shapes", ()):
        print(f"    shape {name:<18} n={count:<6} median "
              f"{mid:10.3f} ms  p95 {p95:10.3f} ms")
    extras = record.get("extras") or {}
    for name, value in extras.items():
        if name == "shares":
            shares = "  ".join(f"{layer} {share:.1%}"
                               for layer, share in value.items())
            print(f"  share of the session request: {shares}")
        elif isinstance(value, float):
            print(f"  {name:<28} {value:>14.4f} ms")
        else:
            print(f"  {name:<28} {value!s:>14}")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS),
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=7,
                        help="drives corpus, schedule and Zipf draws")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured window (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: timed run only, 1: traced run only "
                             "(default: both)")
    parser.add_argument("--scale", choices=wl.SCALES, default="full",
                        help="smoke: tiny corpora and windows, for "
                             "the smoke test")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat with seeds SEED..SEED+RUNS-1 (a "
                             "set compare.py can judge needs >= 4)")
    parser.add_argument("--out", help="write every record as JSON")
    parser.add_argument("--trace-out", type=pathlib.Path,
                        default=ROOT / "ledger-trace.json",
                        help="where the traced run writes its Chrome "
                             "trace (default: ledger-trace.json at the "
                             "root of the checkout)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.scale == "smoke" \
            else load_contract()["run_seconds"]
    if args.seconds <= 0 or not math.isfinite(args.seconds):
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    traces = [bool(args.trace)] if args.trace is not None \
        else [False, True]
    info = environment(args)
    print("# ledger " + " ".join(f"{k}={v}" for k, v in info.items()))
    work_root = HERE / ".work" / str(os.getpid())
    records = []
    try:
        for seed in range(args.seed, args.seed + args.runs):
            for name in names:
                for trace in traces:
                    work_dir = work_root / f"{name}-{seed}-{int(trace)}"
                    work_dir.mkdir(parents=True)
                    record = run_once(
                        wl.WORKLOADS[name], args.scale, seed,
                        args.seconds, trace, work_dir,
                        args.trace_out if trace else None)
                    shutil.rmtree(work_dir)
                    print_record(record)
                    records.append(record)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()    # unless another run is using it
        except OSError:
            pass
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"info": info, "runs": records}, handle, indent=1)
        print(f"\nwrote {args.out}")
    if len(records) == 1:
        print(contract_line(records[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
