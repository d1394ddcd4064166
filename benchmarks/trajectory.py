"""Perf-trajectory gate CLI — compare fresh bench artifacts against the
tracked ``BENCH_<query>.json`` baselines at the repository root.

The standalone benchmarks and the sizes they are gated at are listed
once, in :data:`CI_RUNS`.  CI and ``make bench-check`` run them and gate
the result in one step::

    PYTHONPATH=src python benchmarks/trajectory.py run-check

which exits 1 if any gated metric regressed by more than 20% against
its baseline, if a record was measured at sizes the baseline does not
cover, if a gated query has no baseline file — or if something tracked
is no longer measured (a baseline record or gated metric with no fresh
counterpart, a ``BENCH_*.json`` no rule gates).  Only
machine-independent metrics are gated (speedup ratios and deterministic
counters) — raw seconds never cross machines; see
:mod:`repro.bench.trajectory` for the rules.  ``check ART…`` gates
artifacts that already exist.

To refresh the baselines (after an intentional perf change or a size
bump), either consolidate existing artifacts::

    PYTHONPATH=src python benchmarks/trajectory.py update bench-*.json

or re-run the benchmarks at the CI sizes and rewrite the baselines in
one step (this is what ``make bench-update`` does)::

    PYTHONPATH=src python benchmarks/trajectory.py run-update
"""

from __future__ import annotations

import argparse
import importlib.util
import pathlib
import sys
import tempfile

from repro.bench.trajectory import THRESHOLD, check, write_baselines

BENCHMARKS_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCHMARKS_DIR.parent

#: the gated invocation of each standalone benchmark: (script, sizes)
CI_RUNS = (
    ("bench_q14_updates.py", ("4000",)),
)


def _run_bench(script: str, argv: list[str]) -> int:
    """Import a sibling benchmark by path and call its ``main``."""
    path = BENCHMARKS_DIR / script
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(argv)


def _run_all(out_dir: str) -> list[str]:
    """Run every benchmark of :data:`CI_RUNS` at its sizes; returns the
    artifacts written under ``out_dir``."""
    artifacts: list[str] = []
    for script, sizes in CI_RUNS:
        out = str(pathlib.Path(out_dir)
                  / f"{pathlib.Path(script).stem}.json")
        print(f"== {script} {' '.join(sizes)} ==")
        status = _run_bench(script, [*sizes, out])
        if status:
            raise SystemExit(f"error: {script} exited {status}")
        artifacts.append(out)
    return artifacts


def _gate(artifacts: list[str], baseline_dir: str) -> int:
    issues = check(artifacts, baseline_dir)
    if issues:
        print("perf-trajectory gate FAILED:", file=sys.stderr)
        for issue in issues:
            print(f"  - {issue}", file=sys.stderr)
        return 1
    print(f"perf-trajectory gate passed ({len(artifacts)} artifact(s), "
          f"threshold {THRESHOLD:.0%})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/trajectory.py",
        description="Gate benchmark artifacts against the tracked "
                    "BENCH_<query>.json perf-trajectory baselines "
                    f"(fail on >{THRESHOLD:.0%} regression).")
    parser.add_argument("command", choices=("check", "update",
                                            "run-check", "run-update"))
    parser.add_argument("artifacts", nargs="*",
                        help="bench JSON artifacts (check/update)")
    parser.add_argument("--baseline-dir", default=str(REPO_ROOT),
                        help="directory holding BENCH_<query>.json "
                             "(default: the repository root)")
    args = parser.parse_args(argv)

    if args.command in ("check", "update") and not args.artifacts:
        parser.error(f"{args.command} needs at least one artifact")

    if args.command == "check":
        return _gate(args.artifacts, args.baseline_dir)
    if args.command == "update":
        written = write_baselines(args.artifacts, args.baseline_dir)
    else:
        # run-check / run-update: re-run every benchmark at the CI
        # sizes, then gate (or rewrite the baselines from) the fresh
        # artifacts.
        with tempfile.TemporaryDirectory() as tmp:
            artifacts = _run_all(tmp)
            if args.command == "run-check":
                return _gate(artifacts, args.baseline_dir)
            written = write_baselines(artifacts, args.baseline_dir)
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
