"""High-level public API.

::

    from repro import Database, compile_query
    from repro.datagen import generate_bib, BIB_DTD

    db = Database()
    db.register_tree("bib.xml", generate_bib(1000, 2), dtd_text=BIB_DTD)
    q = compile_query(QUERY, db)
    print(q.explain())                      # nested plan
    for alt in q.plans():                   # ranked alternatives
        result = db.execute(alt.plan)
        print(alt.label, result.stats["document_scans"])
"""

from __future__ import annotations

from repro.engine.executor import DEFAULT_MODE, ExecutionResult, execute
from repro.nal.algebra import Operator
from repro.nal.pretty import plan_to_string
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, maybe_span
from repro.optimizer.rewriter import RewriteResult, unnest_plan
from repro.xmldb.document import Document, DocumentStore
from repro.xmldb.dtd import parse_dtd
from repro.xmldb.node import Node
from repro.xquery.normalize import normalize
from repro.xquery.parser import parse_xquery
from repro.xquery.translate import Translation, translate


class Database:
    """A document store plus execution entry points.

    ``index_mode`` selects the physical design (see :mod:`repro.index`):
    ``"off"`` (default) answers every query with document scans, exactly
    as the paper's experiments do; ``"lazy"`` builds element/path/value
    indexes on first probe and lets the optimizer plan ``IndexScan``
    access paths; ``"eager"`` builds them at registration time.
    """

    def __init__(self, index_mode: str = "off",
                 compact_every: int = 16):
        self.store = DocumentStore(index_mode=index_mode,
                                   compact_every=compact_every)

    @property
    def index_mode(self) -> str:
        return self.store.indexes.mode

    def session(self, **kwargs) -> "Session":
        """A long-lived :class:`~repro.session.Session` over this
        database: plan cache (query shape → optimized alternatives),
        result cache keyed by ``(plan digest, document versions)``,
        per-request timeouts — the request-lifecycle layer the query
        server (:mod:`repro.server`) and repeated-execution callers go
        through.  Keyword arguments: ``plan_cache_size``,
        ``result_cache_size``, ``default_mode``, ``default_timeout``,
        ``ranking``."""
        from repro.session import Session
        return Session(self, **kwargs)

    # ------------------------------------------------------------------
    def register_text(self, name: str, text: str,
                      dtd_text: str | None = None) -> Document:
        """Parse and register an XML document (DTD from the DOCTYPE or
        the ``dtd_text`` argument becomes the optimizer's schema)."""
        return self.store.register_text(name, text, dtd_text)

    def register_tree(self, name: str, root: Node,
                      dtd_text: str | None = None) -> Document:
        """Register an already-built tree (e.g. from
        :mod:`repro.datagen`)."""
        dtd = parse_dtd(dtd_text) if dtd_text else None
        return self.store.register_tree(name, root, dtd)

    def list_documents(self) -> list[str]:
        """Names of all registered documents, sorted."""
        return self.store.names()

    def unregister(self, name: str) -> None:
        """Remove a document and its indexes from the store (so
        long-lived processes can rotate documents without leaking
        memory).  Plans compiled against the document become invalid."""
        self.store.unregister(name)

    def update(self, name: str, ops) -> Document:
        """Apply delta operations (:class:`~repro.xmldb.delta.Insert`,
        :class:`~repro.xmldb.delta.Delete`,
        :class:`~repro.xmldb.delta.Replace`, or a list of them) to a
        registered document and publish the result as a new immutable
        version.  Readers holding the old version — or a
        :meth:`snapshot` — keep seeing the pre-update state; indexes
        are maintained incrementally from the splice records.  Returns
        the new current :class:`~repro.xmldb.document.Document`."""
        return self.store.update(name, ops)

    def snapshot(self):
        """Pin the current version of every document: the returned
        :class:`~repro.xmldb.document.StoreSnapshot` keeps resolving
        names to the versions current *now*, regardless of later
        :meth:`update` calls.  Pass it as ``snapshot=`` to
        :meth:`~repro.session.Session.execute` (or execute plans
        against it directly) for repeatable reads across queries."""
        return self.store.snapshot()

    # ------------------------------------------------------------------
    def execute(self, plan: Operator, mode: str = DEFAULT_MODE,
                analyze: bool = False,
                tracer=None, metrics=None,
                timeout: float | None = None,
                workers: int | None = None) -> ExecutionResult:
        """Run a plan; returns rows, constructed output and scan stats.

        ``mode`` is one of :data:`~repro.engine.executor.MODES`
        (default :data:`~repro.engine.executor.DEFAULT_MODE`) — see
        ``docs/execution-modes.md`` for the decision table.
        ``analyze=True`` records per-operator invocation/row counts
        keyed by tree position (EXPLAIN ANALYZE; any mode but
        reference/parallel).  ``tracer``/``metrics`` attach a
        :class:`~repro.obs.trace.Tracer` and a request-scoped
        :class:`~repro.obs.metrics.MetricsRegistry` (see
        :mod:`repro.obs`).  ``timeout`` sets a cooperative per-request
        deadline in seconds (:class:`~repro.errors.
        DeadlineExceededError` past it).  ``workers`` sizes the
        parallel worker pool (default: the ``REPRO_WORKERS``
        environment override, then the machine's cores)."""
        return execute(plan, self.store, mode=mode, analyze=analyze,
                       tracer=tracer, metrics=metrics, timeout=timeout,
                       workers=workers)

    def close(self) -> None:
        """Deterministic resource teardown: stop the parallel worker
        pool (if one was spawned for this database) and unlink its
        shared-memory segments.  Idempotent; an unclosed database is
        cleaned up by the pool's ``atexit`` hook instead."""
        from repro.engine.parallel import close_pool
        close_pool(self.store)


class CompiledQuery:
    """A query taken through parse → normalize → translate, with lazy
    access to the optimizer's plan alternatives.

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`) records one span
    per compilation stage — lex/parse, normalize, translate — plus the
    optimizer-pass spans of :func:`~repro.optimizer.rewriter.
    unnest_plan` when :meth:`plans` is first evaluated, so the whole
    query lifecycle lands in one trace."""

    def __init__(self, text: str, db: Database,
                 ranking: str = "heuristic", tracer=None):
        self.text = text
        self.db = db
        self.ranking = ranking
        self.tracer = tracer
        with maybe_span(tracer, "lex/parse", "compile", chars=len(text)):
            self.ast = parse_xquery(text)
        with maybe_span(tracer, "normalize", "compile"):
            self.normalized = normalize(self.ast)
        with maybe_span(tracer, "translate", "compile"):
            self.translation: Translation = translate(self.normalized,
                                                      db.store)
        self._plans: list[RewriteResult] | None = None

    @property
    def plan(self) -> Operator:
        """The nested (unoptimized) plan."""
        return self.translation.plan

    def plans(self) -> list[RewriteResult]:
        """All plan alternatives, best first ('nested' last under the
        default heuristic ranking; under ranking="cost" the order is by
        estimated cost)."""
        if self._plans is None:
            self._plans = unnest_plan(self.plan, self.db.store,
                                      ranking=self.ranking,
                                      tracer=self.tracer)
        return self._plans

    def plan_named(self, label: str) -> RewriteResult:
        """The first alternative with the given label ('nested',
        'grouping', 'outerjoin', 'semijoin', 'antijoin', 'group-xi',
        'nestjoin')."""
        for alt in self.plans():
            if alt.label == label:
                return alt
        known = sorted({a.label for a in self.plans()})
        raise KeyError(f"no plan labelled {label!r}; available: {known}")

    def best(self) -> RewriteResult:
        return self.plans()[0]

    def run(self, label: str | None = None,
            mode: str = DEFAULT_MODE) -> ExecutionResult:
        """Execute the best plan (or the one with the given label)."""
        alt = self.best() if label is None else self.plan_named(label)
        return self.db.execute(alt.plan, mode=mode)

    def explain(self, label: str | None = None) -> str:
        plan = self.plan if label is None else self.plan_named(label).plan
        return plan_to_string(plan)


def compile_query(text: str, db: Database,
                  ranking: str = "heuristic",
                  tracer=None) -> CompiledQuery:
    """Parse, normalize and translate an XQuery against a database.

    ``ranking`` selects how plan alternatives are ordered:
    ``"heuristic"`` (the paper's measured plan hierarchy) or ``"cost"``
    (the estimator of :mod:`repro.optimizer.cost`).  ``tracer`` threads a
    :class:`~repro.obs.trace.Tracer` through every compilation and
    optimization stage.
    """
    return CompiledQuery(text, db, ranking=ranking, tracer=tracer)


def trace_query(text: str, db: Database, mode: str = DEFAULT_MODE,
                label: str | None = None, ranking: str = "heuristic",
                analyze: bool = False
                ) -> tuple[RewriteResult, ExecutionResult]:
    """Run ``text`` with full query-lifecycle observability.

    Compiles with a fresh :class:`~repro.obs.trace.Tracer` (spans for
    lex/parse, normalize, translate, every optimizer pass, execution
    and every operator invocation) and a request-scoped
    :class:`~repro.obs.metrics.MetricsRegistry`, then executes the
    best plan (or the alternative named ``label``).  Returns
    ``(alternative, result)``; ``result.trace`` and ``result.metrics``
    carry the recordings — export with ``result.trace.chrome_json()``
    or render with ``result.trace.to_pretty()``.  This is what the CLI
    ``trace`` subcommand and ``--timing`` flag are built on.
    """
    tracer = Tracer()
    metrics = MetricsRegistry()
    query = compile_query(text, db, ranking=ranking, tracer=tracer)
    alt = query.best() if label is None else query.plan_named(label)
    result = execute(alt.plan, db.store, mode=mode, analyze=analyze,
                     tracer=tracer, metrics=metrics)
    return alt, result
