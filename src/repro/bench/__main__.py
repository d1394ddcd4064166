"""Command line entry point: ``python -m repro.bench``.

Regenerates the paper's evaluation tables on generated documents.

Examples::

    python -m repro.bench                     # all tables, small scale
    python -m repro.bench --sizes 50 200      # custom size axis
    python -m repro.bench --query q3 q5       # a subset of §5
    python -m repro.bench --no-paper          # omit the paper's numbers
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.queries import PAPER_QUERIES
from repro.bench.tables import SMALL_SIZES, all_tables


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the evaluation tables of May, Helmer, "
                    "Moerkotte: 'Nested Queries and Quantifiers in an "
                    "Ordered Context'.")
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=list(SMALL_SIZES),
                        help="document sizes (number of books/bids); "
                             f"default {list(SMALL_SIZES)}")
    parser.add_argument("--query", nargs="+", choices=sorted(PAPER_QUERIES),
                        default=None,
                        help="restrict to these experiments")
    parser.add_argument("--repeat", type=int, default=1,
                        help="executions per cell (minimum is reported)")
    parser.add_argument("--seed", type=int, default=7,
                        help="document generator seed")
    parser.add_argument("--no-paper", action="store_true",
                        help="omit the paper-reported reference numbers")
    parser.add_argument("--json", metavar="OUT",
                        help="additionally measure every cell and write "
                             "machine-readable JSON results to OUT")
    args = parser.parse_args(argv)

    if args.json:
        # Fail before measuring, not after: a bad output path should
        # not cost a full benchmark run.  The probe must not leave an
        # empty file behind if the run is later interrupted.
        import os
        try:
            existed = os.path.exists(args.json)
            with open(args.json, "a", encoding="utf-8"):
                pass
            if not existed:
                os.unlink(args.json)
        except OSError as exc:
            parser.error(f"cannot write --json output: {exc}")

    keys = tuple(args.query) if args.query else None
    collected: dict | None = {} if args.json else None
    report = all_tables(sizes=tuple(args.sizes), repeat=args.repeat,
                        keys=keys, include_paper=not args.no_paper,
                        seed=args.seed, collect=collected)
    print(report)
    if args.json:
        # The JSON payload reuses the measurement pass that produced
        # the printed tables — nothing is measured twice.
        from repro.bench.harness import measurements_to_json, write_json
        payload = measurements_to_json(collected, meta={
            "sizes": list(args.sizes), "repeat": args.repeat,
            "seed": args.seed})
        write_json(args.json, payload)
        print(f"JSON results written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
