"""Evaluation context shared by the reference and vectorized
evaluators.

Invariant: an :class:`EvalContext` is **request-scoped** — one instance
per ``execute()`` call, never shared between concurrent executions.
Everything mutable that evaluation touches (scan statistics, the Ξ
output stream, EXPLAIN ANALYZE counters, the vectorized engine's batch
scratch buffers) hangs off this object, so two interleaved requests
against the same immutable :class:`~repro.xmldb.document.DocumentStore`
cannot observe each other.  The store itself only ever receives a
cumulative tally *after* a request completes.
"""

from __future__ import annotations

import time

from repro.engine.batch import BatchBuffers
from repro.errors import DeadlineExceededError
from repro.xmldb.document import DocumentStore, ScanStats


class EvalContext:
    """Carries everything operator evaluation needs:

    - ``store`` — what ``doc("...")`` resolves against: the
      :class:`~repro.xmldb.document.StoreSnapshot` the executor pinned
      at entry, so every lookup during this request sees one consistent
      set of document versions regardless of concurrent updates;
    - ``stats`` — scan statistics for *this* evaluation.
      :func:`~repro.engine.executor.execute` passes a fresh
      request-scoped :class:`~repro.xmldb.document.ScanStats` so two
      interleaved executions cannot cross-contaminate counters; the
      store's shared instance is only a process-wide cumulative tally.
    - ``tracer`` — a :class:`~repro.obs.trace.Tracer` or ``None``; when
      set, the engines open one span per operator invocation.
    - ``metrics`` — a :class:`~repro.obs.metrics.MetricsRegistry` or
      ``None``; when set, the engines record per-operator rows/time and
      the executor folds the scan statistics in at the end.
    - ``batch_buffers`` — the request-scoped scratch-buffer pool the
      vectorized engine draws selection vectors from (see
      :class:`~repro.engine.batch.BatchBuffers`); owned by this context,
      so batch scratch state is never shared across requests.
    - ``deadline`` — an absolute :func:`time.monotonic` instant (or
      ``None``) past which the engines abandon the execution with
      :class:`~repro.errors.DeadlineExceededError`.  Checks are
      *cooperative*: the engine tests it once per operator invocation
      and once per outer tuple of a nested subscript plan — when no
      deadline is set the cost is one attribute test, matching the
      tracer/metrics hook discipline.
    - ``nested_engine`` — how the value of a nested subscript plan is
      computed: the running engine's entry point
      (:func:`~repro.engine.vectorized.run_vectorized` sets it for as
      long as it runs), or ``None`` — the definitional ``evaluate``,
      which is all the reference evaluator ever sees.
    - the Ξ output stream, appended to via :meth:`emit`.
    """

    def __init__(self, store: DocumentStore,
                 stats: ScanStats | None = None,
                 tracer=None, metrics=None,
                 deadline: float | None = None,
                 deadline_budget: float | None = None):
        self.store = store
        self.stats = stats if stats is not None else ScanStats()
        self.tracer = tracer
        self.metrics = metrics
        self.deadline = deadline
        #: the original per-request budget in seconds (for the error
        #: message; the absolute ``deadline`` is what gets compared)
        self.deadline_budget = deadline_budget
        self.batch_buffers = BatchBuffers()
        self.nested_engine = None
        self._output: list[str] = []
        #: when not None, the engine records per-operator (invocations,
        #: output rows) keyed by tree position (the pre-order path of
        #: child indices from the plan root) — the data behind EXPLAIN
        #: ANALYZE (see executor.execute(analyze=True))
        self.analyze_counts: dict[tuple, tuple[int, int]] | None = None

    def check_deadline(self) -> None:
        """Raise :class:`~repro.errors.DeadlineExceededError` if the
        request's deadline has passed.  Callers guard with
        ``if ctx.deadline is not None`` so the common no-deadline path
        never pays for a clock read."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise DeadlineExceededError(
                self.deadline_budget if self.deadline_budget is not None
                else 0.0)

    def emit(self, text: str) -> None:
        """Append a fragment to the constructed query result."""
        self._output.append(text)

    def emit_all(self, fragments) -> None:
        """Append a run of fragments, in order."""
        self._output.extend(fragments)

    def output_text(self) -> str:
        return "".join(self._output)

    def clear_output(self) -> None:
        self._output.clear()
