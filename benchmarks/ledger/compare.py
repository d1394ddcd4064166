"""Judge two sets of ledger runs against the benchmark's own bounds.

    python3 benchmarks/ledger/compare.py A.json B.json

``A.json`` / ``B.json`` are ``run.py --trace 0 --runs N --out FILE``
outputs (N >= 4 gives quartiles).  One row per workload x end-to-end
metric: both medians, the ratio B/A (base: A), how much worse B is in
the metric's own direction, the larger quartile spread of the two sets,
the bound from ``BENCHMARK.json`` and a verdict:

- ``worse``      B's median is worse than A's by more than the bound;
- ``unresolved`` the run-to-run spread is wider than the bound, so the
                 medians cannot be told apart (``setup_s`` is exempt, as
                 in the acceptance rule: it is judged on medians only);
- ``ok``         otherwise.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from summary import load_contract, spread


def load(path: str) -> dict[str, list[dict]]:
    """Workload → its timed records."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    grouped: dict[str, list[dict]] = defaultdict(list)
    for record in runs:
        if not record["trace"]:
            grouped[record["workload"]].append(record)
    return grouped


def judge(a: list[float], b: list[float], better: str, bound: float,
          exempt_from_spread: bool) -> dict:
    base, other = statistics.median(a), statistics.median(b)
    worse_by = (other - base) / base if better == "lower" \
        else (base - other) / base
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    widest = max(spreads) if spreads else None
    if worse_by > bound:
        verdict = "worse"
    elif widest is not None and widest > bound \
            and not exempt_from_spread:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"a": base, "b": other, "ratio": other / base,
            "worse_by": worse_by, "spread": widest, "verdict": verdict}


def failed_share(records: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted \
        if attempted else 0.0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    set_a, set_b = load(argv[0]), load(argv[1])
    contract = load_contract()
    print(f"{'workload':<16}{'metric':<20}{'A':>12}{'B':>12}"
          f"{'B/A':>8}{'worse by':>10}{'spread':>9}{'bound':>7}  verdict")
    verdicts = []
    for workload in (w["name"] for w in contract["workloads"]):
        if workload not in set_a or workload not in set_b:
            print(f"{workload:<16}missing from one of the sets")
            verdicts.append("worse")
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            row = judge(
                [r["metrics"][name]["value"] for r in set_a[workload]],
                [r["metrics"][name]["value"] for r in set_b[workload]],
                metric["better"], metric["bound"], name == "setup_s")
            shown = "   n/a" if row["spread"] is None \
                else f"{row['spread']:8.1%}"
            print(f"{workload:<16}{name:<20}{row['a']:>12.4f}"
                  f"{row['b']:>12.4f}{row['ratio']:>8.3f}"
                  f"{row['worse_by']:>+10.1%}{shown:>9}"
                  f"{metric['bound']:>7.0%}  {row['verdict']}")
            verdicts.append(row["verdict"])
        print(f"{workload:<16}{'ops_failed share':<20}"
              f"{failed_share(set_a[workload]):>12.4%}"
              f"{failed_share(set_b[workload]):>12.4%}")
    print(f"\n{verdicts.count('ok')} ok, "
          f"{verdicts.count('unresolved')} unresolved, "
          f"{verdicts.count('worse')} worse "
          f"(runs per workload: A {len(next(iter(set_a.values()), []))}, "
          f"B {len(next(iter(set_b.values()), []))})")
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
