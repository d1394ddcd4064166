"""Small statistics shared by the runner, the worker and ``compare.py``:
nearest-rank percentiles, geometric means, the quartile spread the
acceptance rule uses, and the metric tables of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load_contract() -> dict:
    """``BENCHMARK.json`` — the single place metric names, units,
    directions and bounds are written down."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile, ``p`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def spread(values: list[float]) -> float | None:
    """Distance between the first and third quartile as a share of the
    median (None with fewer than two values)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


#: requests per block (rounded up to whole cycles of the schedule)
BLOCK_REQUESTS = 48


def block_statistics(cycles: list, sequence: list,
                     failed_ms: float) -> tuple[list, list]:
    """One client's timed requests cut into consecutive blocks of
    whole cycles holding at least ``BLOCK_REQUESTS`` requests: per
    block its rate (requests per second) and its nearest-rank p95 (ms).
    A trailing partial block is dropped — unless it is the only one."""
    rates, p95s = [], []
    seconds, first, count = 0.0, 0, 0
    for cycle_s, requests in cycles:
        seconds += cycle_s
        count += requests
        if count >= BLOCK_REQUESTS:
            latencies = [failed_ms if v is None else v
                         for v in sequence[first:first + count]]
            rates.append(count / seconds)
            p95s.append(percentile(latencies, 95))
            seconds, first, count = 0.0, first + count, 0
    if not rates and count:
        latencies = [failed_ms if v is None else v for v in sequence]
        rates.append(count / seconds)
        p95s.append(percentile(latencies, 95))
    return rates, p95s


def lower_quartile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[0]


def end_to_end_metrics(run: dict) -> dict[str, float]:
    """The five end-to-end numbers of one timed worker result.

    The dev VM suffers CPU-steal bursts that would otherwise dominate
    both, so ``throughput_rps`` and ``latency_ms_p95`` are block
    statistics: the sum over clients of each client's *median* block
    rate (scaled by the share of ops that did not fail), and the *lower
    quartile* of all block p95s — the tail under undisturbed
    conditions, which still moves when a change shifts the tail of
    every block.  A failed op counts as missing every latency: it is
    ranked as if it had taken the whole timed window."""
    window_ms = run["window_s"] * 1e3
    rate, p95s = 0.0, []
    for client in run["clients"]:
        rates, block_p95s = block_statistics(
            client["cycles"], client["sequence"], window_ms)
        rate += statistics.median(rates)
        p95s.extend(block_p95s)
    per_shape = [[window_ms if v is None else v for v in values]
                 for values in run["latency_ms"].values()]
    return {
        "setup_s": statistics.median(run["setup_s_samples"]),
        "throughput_rps": rate * (run["attempted"] - run["failed"])
        / run["attempted"],
        "latency_ms_geomean": geomean(
            [statistics.median(values) for values in per_shape]),
        "latency_ms_p95": lower_quartile(p95s),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def shape_rows(run: dict) -> list[tuple[str, int, float, float]]:
    """Informational ``(shape, samples, median ms, p95 ms)`` rows."""
    rows = []
    for name, values in sorted(run["latency_ms"].items()):
        good = [v for v in values if v is not None]
        if good:
            rows.append((name, len(values), statistics.median(good),
                         percentile(good, 95)))
    return rows
