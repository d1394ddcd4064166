# Convenience targets; everything also runs as plain commands with
# PYTHONPATH=src (no packaging step, no dependencies beyond pytest).

PYTHON ?= python

.PHONY: test bench bench-update bench-check docs-check ledger ledger-smoke

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

bench:
	PYTHONPATH=src $(PYTHON) -m repro.bench

# Re-run the standalone benchmark (Q14 updates) at the CI size and
# rewrite the tracked BENCH_q14_updates.json perf-trajectory baseline at
# the repo root.  Run this (and commit the result) after an intentional perf
# change or a benchmark size bump; CI's trajectory gate fails on >20%
# regression against these files.
bench-update:
	PYTHONPATH=src $(PYTHON) benchmarks/trajectory.py run-update

# Run the same benchmark and gate it against the committed baseline
# without updating anything (what CI does).  The script and its size
# are listed once, in benchmarks/trajectory.py (CI_RUNS).
bench-check:
	PYTHONPATH=src $(PYTHON) benchmarks/trajectory.py run-check

# The latency ledger (BENCHMARK.json; what PRs are judged by): all five
# workloads through the public surface with its defaults, timed only.
# `python3 benchmarks/ledger/compare.py A.json B.json` judges two sets.
ledger:
	python3 benchmarks/ledger/run.py --trace 0

# The same five workloads on tiny corpora and short windows (~10 s):
# every metric present, no failed op, oracle agrees; then the ledger's
# own smoke tests (kept out of tier-1 by pytest.ini's testpaths).
ledger-smoke:
	python3 benchmarks/ledger/run.py --scale smoke
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/ledger

# Fail when a module under src/repro/ lacks a module docstring or a
# docs/*.md intra-repo link points at a missing file/anchor.
docs-check:
	$(PYTHON) tools/docs_check.py
