"""The ledger's own span list: name, start, end, the span that caused
it and the request it belongs to — kept in memory, written out as a
Chrome trace when the traced run ends.

The traced run records these around its calls into each layer's public
functions; ``repro.obs`` recordings (optimizer passes, operator
invocations) are adopted underneath them afterwards, so one tree holds
both and a layer's self time is its span minus what its children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """Append-only spans of one thread of control."""

    def __init__(self, lane: int = 1):
        self.spans: list[Span] = []
        self.lane = lane
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: int | None = None, **args):
        """Time a block; yields the span's index (its children's
        ``parent``)."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), 0.0, parent, request, args)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield index
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, request: int | None = None,
            **args) -> int:
        """Record an interval measured elsewhere (client instants)."""
        self.spans.append(Span(name, start, end, parent, request, args))
        return len(self.spans) - 1

    def adopt(self, tracer, parent: int, request: int | None,
              annotate=None) -> None:
        """File a ``repro.obs.Tracer``'s spans under ``parent``, nesting
        by interval containment as the tracer itself renders them.
        ``annotate(span)`` may return extra args for the adopted span."""
        chain: list[int] = []
        for depth, span in tracer.nested():
            del chain[depth:]
            end = span.start if span.end is None else span.end
            args = dict(span.args or {}, cat=span.cat)
            if annotate is not None:
                args.update(annotate(span))
            index = self.add(
                "obs:" + span.name, span.start, end,
                parent=chain[-1] if chain else parent, request=request,
                **args)
            chain.append(index)

    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [max(0.0, span.duration - covered[i])
                for i, span in enumerate(self.spans)]

    def chrome_events(self, origin: float,
                      max_requests: int | None = None) -> list[dict]:
        """Chrome ``trace_event`` records; with ``max_requests`` only
        the spans of the first that many requests (and those of none)."""
        requests = sorted({s.request for s in self.spans
                           if s.request is not None})
        dropped = set(requests[max_requests:]) \
            if max_requests is not None else set()
        events = []
        for span in self.spans:
            if span.request in dropped:
                continue
            args = dict(span.args)
            if span.request is not None:
                args["request"] = span.request
            events.append({
                "name": span.name, "cat": "ledger", "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1, "tid": self.lane, "args": args})
        return events


def write_chrome_trace(path, logs: list[SpanLog],
                       max_requests: int | None = None) -> None:
    starts = [s.start for log in logs for s in log.spans]
    origin = min(starts) if starts else 0.0
    events = [e for log in logs
              for e in log.chrome_events(origin, max_requests)]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                  handle, default=str)
