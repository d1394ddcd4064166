# Convenience targets; everything also runs as plain commands with
# PYTHONPATH=src (no packaging step, no dependencies beyond pytest).

PYTHON ?= python
# where bench-check writes its per-benchmark JSON records (default: a
# fresh `mktemp -d`, made when the target runs)
BENCH_OUT ?=

.PHONY: test bench bench-update bench-check docs-check ledger ledger-smoke

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

bench:
	PYTHONPATH=src $(PYTHON) -m repro.bench

# Re-run the standalone benchmarks at the CI sizes and rewrite the
# tracked BENCH_<query>.json perf-trajectory baselines at the repo
# root.  Run this (and commit the result) after an intentional perf
# change or a benchmark size bump; CI's trajectory gate fails on >20%
# regression against these files.
bench-update:
	PYTHONPATH=src $(PYTHON) benchmarks/trajectory.py run-update

# Run the same benchmarks and gate them against the committed
# baselines without updating anything (what CI does).
bench-check:
	@set -e; out="$(BENCH_OUT)"; [ -n "$$out" ] || out="$$(mktemp -d)"; \
	mkdir -p "$$out"; echo "bench-check: records in $$out"; \
	run() { echo "+ $$*"; PYTHONPATH=src $(PYTHON) "$$@"; }; \
	run benchmarks/bench_q7_index.py 2000 "$$out/bench-q7.json"; \
	run benchmarks/bench_q9_storage.py 2000 10000 "$$out/bench-q9.json"; \
	run benchmarks/bench_q10_order.py 600 3000 "$$out/bench-q10.json"; \
	run benchmarks/bench_q12_serve.py 100 500 "$$out/bench-q12.json"; \
	run benchmarks/bench_q13_parallel.py 1200 19200 "$$out/bench-q13.json"; \
	run benchmarks/bench_q14_updates.py 4000 "$$out/bench-q14.json"; \
	run benchmarks/trajectory.py check \
		"$$out/bench-q7.json" "$$out/bench-q9.json" \
		"$$out/bench-q10.json" "$$out/bench-q12.json" \
		"$$out/bench-q13.json" "$$out/bench-q14.json"

# The latency ledger (BENCHMARK.json; what PRs are judged by): all five
# workloads through the public surface with its defaults, timed only.
# `python3 benchmarks/ledger/compare.py A.json B.json` judges two sets.
ledger:
	python3 benchmarks/ledger/run.py --trace 0

# The same five workloads on tiny corpora and short windows (~10 s):
# every metric present, no failed op, oracle agrees.
ledger-smoke:
	python3 benchmarks/ledger/run.py --scale smoke

# Fail when a module under src/repro/ lacks a module docstring or a
# docs/*.md intra-repo link points at a missing file/anchor.
docs-check:
	$(PYTHON) tools/docs_check.py
