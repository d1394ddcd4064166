"""One workload, one fresh process: set the target up (several times,
for a steady ``setup_s``), warm it, drive the closed-loop schedule for
the requested seconds and write the raw samples as JSON.

Run by ``run.py`` as ``python worker.py JOB.json`` with
``PYTHONHASHSEED=0``; never the source of a verdict — the parent checks
every recorded output against the oracle afterwards, outside this
process, so neither the timed window nor ``peak_rss_mb`` contains
verification work.
"""

from __future__ import annotations

import gc
import itertools
import json
import pathlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import workloads as wl
from targets import make_target

#: update-mix serializes the live document for the oracle every this
#: many cycles (twice the store's compaction period) and at the end
CHECKPOINT_EVERY = 32


@dataclass
class Step:
    """One request of a schedule: ``perform()`` returns the reply's
    output text; ``key`` identifies replies that must be byte-identical
    to the first one recorded under it (None: an update, no output)."""

    shape: wl.Shape
    text: str | None
    perform: Callable[[], str]
    key: object = None
    #: set by ``perform`` when the reply says it came from a cache;
    #: such replies are timed as a shape of their own
    cached: bool = False
    #: HTTP only: the decoded reply and the exchange's five instants
    exchange: tuple | None = None

    @property
    def name(self) -> str:
        return self.shape.name + ("/cached" if self.cached else "")


class Client:
    """A closed-loop client: its next request goes out only after the
    previous one completed.  Exceptions, non-200 replies and replies
    that differ from the first for their key are failed ops."""

    def __init__(self, first: dict):
        self.first = first
        self.latency_ms: dict[str, list] = defaultdict(list)
        #: every latency in request order, and per cycle its seconds
        #: and request count — what block rates and block p95s are
        #: computed from (see summary.block_statistics)
        self.sequence: list = []
        self.cycles: list[tuple[float, int]] = []
        self.last_output: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: seconds spent between cycles on work that is not load
        #: (checkpoint serialization) — taken out of the window
        self.excluded = 0.0

    def send(self, step: Step) -> None:
        start = time.perf_counter()
        try:
            output = step.perform()
        except Exception as exc:  # a failed op, recorded and counted
            output = None
            if len(self.errors) < 5:
                self.errors.append(f"{step.name}: {exc!r}"[:400])
        elapsed_ms = (time.perf_counter() - start) * 1e3
        self.attempted += 1
        if output is not None and step.key is not None:
            digest = hash(output)
            if self.first.setdefault(step.key, digest) != digest:
                output = None
                if len(self.errors) < 5:
                    self.errors.append(
                        f"{step.name}: reply differs from the first "
                        f"reply for the same request")
        if output is None:
            self.failed += 1
            elapsed_ms = None
        else:
            self.last_output[step.shape.name] = output
        self.latency_ms[step.name].append(elapsed_ms)
        self.sequence.append(elapsed_ms)

    def drive(self, cycles, seconds: float) -> float:
        """Run whole cycles until ``seconds`` have passed; returns the
        timed window in seconds."""
        start = time.perf_counter()
        deadline = start + seconds
        for cycle in cycles:
            began = time.perf_counter()
            sent = self.attempted
            for step in cycle:
                self.send(step)
            now = time.perf_counter()
            self.cycles.append((now - began, self.attempted - sent))
            if now >= deadline:
                break
        return time.perf_counter() - start - self.excluded


# ----------------------------------------------------------------------
# Schedules per workload kind
# ----------------------------------------------------------------------
def query_step(target, shape: wl.Shape, text: str, key=None) -> Step:
    return Step(shape, text, lambda: target.query(text, shape.label),
                text if key is None else key)


def http_step(target, shape: wl.Shape, text: str) -> Step:
    step = Step(shape, text, None, text)

    def perform() -> str:
        step.exchange = target.request(text, shape.label)
        reply = step.exchange[0]
        step.cached = reply["cached"]
        return reply["output"]

    step.perform = perform
    return step


def session_cycles(workload, target, seed):
    cycle = [query_step(target, shape, shape.text())
             for shape in wl.cycle_order(workload, seed)]
    return itertools.repeat(cycle)


class SharedRequests:
    """The HTTP clients' common schedule: each client takes the next
    request when its previous one completed."""

    def __init__(self, workload, seed):
        self._stream = wl.http_requests(workload, seed)
        self._lock = threading.Lock()

    def take(self):
        with self._lock:
            return next(self._stream)

    def cycles(self, target):
        """One client's view: single-request cycles."""
        while True:
            shape, text = self.take()
            yield [http_step(target, shape, text)]


class UpdateMix:
    """update-mix's cycle: one update, the scan read, the scan read
    again, the semijoin read — plus the checkpoints the oracle replays
    against a database registered from scratch."""

    def __init__(self, workload, target, seed):
        from repro import Delete, Insert, Replace
        self.ops = {"insert": Insert, "delete": Delete,
                    "replace": Replace}
        self.target = target
        self.document = target.documents["items.xml"]
        self.stream = wl.update_stream(seed)
        self.shapes = {s.name: s for s in workload.shapes}
        self.version = 0
        self.checkpoints: list[dict] = []

    def _next_op(self):
        kind, position, tree = next(self.stream)
        root = self.document.root
        children = root.children
        index = int(position * len(children))
        if kind == "insert":
            return self.ops[kind](root, index, tree)
        if kind == "delete":
            return self.ops[kind](children[index])
        return self.ops[kind](children[index], tree)

    def _apply(self, op) -> str:
        self.document = self.target.db.update("items.xml", op)
        self.version += 1
        return "ack"

    def read(self, name: str) -> Step:
        shape = self.shapes[name]
        return query_step(self.target, shape, shape.text(),
                          key=(shape.text(), self.version))

    def cycle(self):
        op = self._next_op()
        yield Step(self.shapes["update"], None, lambda: self._apply(op))
        yield self.read("read-scan")
        yield self.read("read-scan-repeat")
        yield self.read("read-semijoin")

    def checkpoint(self, client: Client) -> None:
        from repro.xmldb.serialize import serialize
        start = time.perf_counter()
        self.checkpoints.append({
            "version": self.version,
            "items.xml": serialize(self.document.root),
            "reads": {name: client.last_output.get(name)
                      for name in ("read-scan", "read-semijoin")}})
        client.excluded += time.perf_counter() - start

    def final_checkpoint(self, client: Client) -> None:
        if not self.checkpoints or \
                self.checkpoints[-1]["version"] != self.version:
            self.checkpoint(client)

    def cycles(self, client: Client):
        for number in itertools.count(1):
            yield self.cycle()
            if number % CHECKPOINT_EVERY == 0:
                self.checkpoint(client)


# ----------------------------------------------------------------------
# Set-up, warm-up, the timed run
# ----------------------------------------------------------------------
def set_up(workload, docs_dir: pathlib.Path, repeats: int):
    """Build the target ``repeats`` times, keeping the last; each
    build is one ``setup_s`` sample (input files exist → first request
    can be sent)."""
    samples = []
    target = None
    for _ in range(repeats):
        if target is not None:
            target.close()
            target = None
            gc.collect()
        start = time.perf_counter()
        target = make_target(workload.kind, docs_dir,
                             workload.session_kwargs)
        samples.append(time.perf_counter() - start)
    return samples, target


def warm_up(workload, target, seed, first: dict, mix) -> dict[str, str]:
    """Untimed requests: every text the oracle will verify (their
    replies are the recorded outputs), then one full cycle.  A failure
    here propagates — a target that cannot warm up is not measured."""
    outputs: dict[str, str] = {}
    for shape, text, _full, _tenth in wl.oracle_texts(workload, seed):
        outputs[text] = target.query(text, shape.label)
        key = text if mix is None else (text, mix.version)
        first.setdefault(key, hash(outputs[text]))
    if mix is not None:
        for step in mix.cycle():
            step.perform()
    return outputs


def in_threads(count: int, function) -> list:
    """``[function(0), …, function(count - 1)]``, one thread each."""
    results = [None] * count

    def run(index: int) -> None:
        results[index] = function(index)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def drive(workload, target, seed, seconds, first, mix):
    """The timed window: ``(clients, window seconds)``."""
    if workload.kind == "http":
        clients = [Client(first) for _ in range(workload.clients)]
        requests = SharedRequests(workload, seed)
        windows = in_threads(len(clients), lambda i: clients[i].drive(
            requests.cycles(target), seconds))
        return clients, max(windows)
    client = Client(first)
    if mix is not None:
        window = client.drive(mix.cycles(client), seconds)
        mix.final_checkpoint(client)
        return [client], window
    return [client], client.drive(
        session_cycles(workload, target, seed), seconds)


def merge(clients: list[Client]) -> dict:
    latency: dict[str, list] = defaultdict(list)
    for client in clients:
        for name, values in client.latency_ms.items():
            latency[name].extend(values)
    return {
        "attempted": sum(c.attempted for c in clients),
        "failed": sum(c.failed for c in clients),
        "errors": [e for c in clients for e in c.errors][:5],
        "latency_ms": dict(latency),
        "clients": [{"cycles": c.cycles, "sequence": c.sequence}
                    for c in clients],
    }


def run_timed(job: dict) -> dict:
    workload = wl.WORKLOADS[job["workload"]]
    seed = job["seed"]
    samples, target = set_up(workload, pathlib.Path(job["docs"]),
                             job["setups"])
    try:
        first: dict = {}
        mix = UpdateMix(workload, target, seed) \
            if workload.kind == "update" else None
        outputs = warm_up(workload, target, seed, first, mix)
        clients, window = drive(workload, target, seed, job["seconds"],
                                first, mix)
        result = merge(clients)
        result.update({
            "setup_s_samples": samples,
            "window_s": window,
            "outputs": outputs,
            "checkpoints": [] if mix is None else mix.checkpoints,
            "caches": target.stats(),
            "peak_rss_mb": target.peak_rss_mb(),
        })
    finally:
        target.close()
    return result


def main(argv: list[str]) -> int:
    with open(argv[0]) as handle:
        job = json.load(handle)
    if job["trace"]:
        from layers import run_traced
        result = run_traced(job)
    else:
        result = run_timed(job)
    with open(job["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
