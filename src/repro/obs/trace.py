"""Structured tracing: a zero-dependency span API.

A :class:`Tracer` collects :class:`Span` records — named, categorized
wall-clock intervals with optional key/value arguments.  Spans are
cheap append-only records; nesting is *derived from containment* at
render time rather than maintained with a stack, so a span never
holds a parent pointer that an early exit could leave dangling.

Exports:

- :meth:`Tracer.to_chrome_trace` — the Chrome ``trace_event`` format
  (open in ``chrome://tracing`` or https://ui.perfetto.dev): complete
  ``"X"`` events with microsecond timestamps, one thread lane.
- :meth:`Tracer.to_pretty` — an indented tree with durations, the
  rendering behind ``python -m repro ... --timing``.

The tracer is *opt-in*: engine hot paths hold a ``tracer`` slot that is
``None`` unless the caller attached one, so the disabled cost is one
attribute load and ``is None`` test per operator invocation.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Iterator


class Span:
    """One traced interval.  ``start``/``end`` are ``perf_counter``
    seconds; ``end`` is ``None`` while the span is open (an unfinished
    span is clamped to the trace's end at export time)."""

    __slots__ = ("name", "cat", "start", "end", "args")

    def __init__(self, name: str, cat: str = "",
                 args: dict | None = None,
                 start: float | None = None):
        self.name = name
        self.cat = cat
        self.args = args
        self.start = time.perf_counter() if start is None else start
        self.end: float | None = None

    def finish(self, end: float | None = None) -> None:
        self.end = time.perf_counter() if end is None else end

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end is None \
            else f"{self.duration * 1e3:.3f}ms"
        return f"<Span {self.name!r} [{self.cat}] {state}>"


class Tracer:
    """An append-only collection of spans sharing one time origin."""

    def __init__(self):
        self.spans: list[Span] = []
        #: perf_counter value all exported timestamps are relative to
        self.origin = time.perf_counter()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str, cat: str = "", **args) -> Span:
        """Open a span; the caller must :meth:`Span.finish` it."""
        span = Span(name, cat, args or None)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, cat: str = "", **args) -> Iterator[Span]:
        """``with tracer.span("normalize", "compile"): ...``"""
        span = self.begin(name, cat, **args)
        try:
            yield span
        finally:
            span.finish()

    def instant(self, name: str, cat: str = "", **args) -> Span:
        """A zero-duration marker (e.g. an optimizer decision)."""
        span = self.begin(name, cat, **args)
        span.finish(span.start)
        return span

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _trace_end(self) -> float:
        end = self.origin
        for span in self.spans:
            end = max(end, span.start if span.end is None else span.end)
        return end

    def to_chrome_trace(self) -> dict:
        """The trace as a Chrome ``trace_event`` payload (a dict ready
        for ``json.dump``).  Every span becomes a complete ``"X"``
        event; still-open spans are clamped to the trace end so the
        payload is always well-formed."""
        clamp = self._trace_end()
        events = []
        for span in self.spans:
            end = clamp if span.end is None else span.end
            event = {
                "name": span.name,
                "cat": span.cat or "default",
                "ph": "X",
                "ts": (span.start - self.origin) * 1e6,
                "dur": (end - span.start) * 1e6,
                "pid": 1,
                "tid": 1,
            }
            if span.args:
                event["args"] = span.args
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def chrome_json(self) -> str:
        """:meth:`to_chrome_trace` serialized (round-trips through
        ``json.loads``)."""
        return json.dumps(self.to_chrome_trace(), indent=2,
                          sort_keys=True)

    def nested(self) -> list[tuple[int, Span]]:
        """``(depth, span)`` pairs in start order, depth derived from
        interval containment: a span is a child of the innermost span
        that started earlier and had not ended when it started."""
        clamp = self._trace_end()

        def bounds(span: Span) -> tuple[float, float]:
            return span.start, clamp if span.end is None else span.end

        ordered = sorted(self.spans,
                         key=lambda s: (bounds(s)[0], -bounds(s)[1]))
        out: list[tuple[int, Span]] = []
        stack: list[float] = []   # end times of open ancestors
        for span in ordered:
            start, end = bounds(span)
            while stack and start >= stack[-1]:
                stack.pop()
            out.append((len(stack), span))
            stack.append(max(end, start))
        return out

    def to_pretty(self, min_duration: float = 0.0) -> str:
        """Indented span tree with durations and args, e.g.::

            lex/parse                 0.41ms
            normalize                 0.08ms
            ...
            execute[vectorized]      12.90ms
              Ξ[...]                 12.71ms  {...}

        ``min_duration`` (seconds) hides finished spans shorter than
        the cutoff (instants are always shown)."""
        lines: list[str] = []
        for depth, span in self.nested():
            is_instant = span.end is not None and span.end == span.start
            if not is_instant and span.end is not None \
                    and span.duration < min_duration:
                continue
            pad = "  " * depth
            name = f"{pad}{span.name}"
            if is_instant:
                timing = "·"
            elif span.end is None:
                timing = "(open)"
            else:
                timing = f"{span.duration * 1e3:.2f}ms"
            args = ""
            if span.args:
                parts = ", ".join(f"{k}={v}" for k, v in
                                  span.args.items())
                args = f"  {{{parts}}}"
            lines.append(f"{name:<48} {timing:>10}{args}")
        return "\n".join(lines)


def maybe_span(tracer: Tracer | None, name: str, cat: str = "", **args):
    """A span context manager, or a no-op when ``tracer`` is None —
    the pattern instrumented call sites use so the disabled path stays
    branch-cheap."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, cat, **args)
