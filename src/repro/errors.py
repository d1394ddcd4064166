"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch a single type.  Sub-hierarchies mirror the pipeline stages:
parsing XML documents, parsing DTDs, parsing XPath or XQuery text,
normalization/translation, algebraic evaluation, and plan rewriting.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class XMLParseError(ReproError):
    """Raised when an XML document cannot be parsed.

    Carries the character ``position`` of the failure when known.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at character {position})"
        super().__init__(message)
        self.position = position


class DTDParseError(ReproError):
    """Raised when a DTD declaration cannot be parsed."""


class XPathError(ReproError):
    """Raised for syntactically or semantically invalid XPath expressions."""


class XQueryParseError(ReproError):
    """Raised when XQuery text cannot be tokenized or parsed.

    Carries the 1-based ``line`` and ``column`` of the failure when known.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class TranslationError(ReproError):
    """Raised when a (normalized) XQuery AST cannot be translated to NAL."""


class EvaluationError(ReproError):
    """Raised when an algebraic plan cannot be evaluated.

    Typical causes: an attribute reference that no tuple binds, a type
    mismatch inside a comparison, or an aggregate applied to values it does
    not support.
    """


class UnknownDocumentError(EvaluationError):
    """Raised when a plan references a document name not in the store."""

    def __init__(self, name: str, known: list[str]):
        known_text = ", ".join(sorted(known)) if known else "<none>"
        super().__init__(
            f"unknown document {name!r}; registered documents: {known_text}")
        self.name = name


class FrozenDocumentError(ReproError):
    """Raised on in-place mutation of a document finalized into an
    arena.

    Registration freezes a document version's tree: the string-value
    cache, the interval encoding and the optimizer's schema facts all
    assume the text and structure of *that version* never change.  Live
    data is still supported — ``DocumentStore.update(name, ops)``
    splices insert/delete/replace-subtree operations into a brand-new
    version while readers keep the old one (see ``docs/updates.md``).
    """

    def __init__(self, document_name: str):
        super().__init__(
            f"document {document_name!r} is finalized; versions are "
            f"immutable once registered — apply changes through "
            f"DocumentStore.update(name, ops), which publishes a new "
            f"copy-on-write version instead of mutating this one")
        self.document_name = document_name


class DuplicateDocumentError(ReproError):
    """Raised when a document name is registered twice in one store."""

    def __init__(self, name: str):
        super().__init__(
            f"document {name!r} is already registered; stores are "
            f"append-only (use a fresh store to replace documents)")
        self.name = name


class UnsupportedModeError(ReproError, ValueError):
    """Raised when an execution option is not supported by the selected
    engine mode — e.g. ``analyze=True`` under ``mode="reference"``: the
    definitional evaluator has no per-operator measurement hooks, so
    silently returning an unmeasured result would misreport rather than
    measure.  (Also a :class:`ValueError` so pre-existing callers that
    caught the old generic error keep working.)"""


class DeadlineExceededError(ReproError, TimeoutError):
    """Raised when an execution runs past its per-request deadline.

    Deadlines are *cooperative*: the engines check the request's
    :class:`~repro.engine.context.EvalContext` deadline at operator
    boundaries (and once per outer tuple of a nested plan), so an
    execution is abandoned at the next check after the deadline passes
    — a best-effort bound, not a preemptive one.  (Also a
    :class:`TimeoutError` so generic timeout handling catches it.)
    """

    def __init__(self, budget: float):
        super().__init__(
            f"execution exceeded its {budget:.3f}s deadline "
            f"(cooperative check at an operator boundary)")
        self.budget = budget


class ServerSaturatedError(ReproError):
    """Raised when the query server's admission controller rejects a
    request because every worker is busy and the wait queue is full.

    The server maps this to a fast 503 response rather than letting
    requests pile up unboundedly; the CLI maps it to its own exit code
    (see ``python -m repro --help``)."""

    def __init__(self, active: int, queued: int):
        super().__init__(
            f"server saturated: {active} request(s) executing and "
            f"{queued} queued — retry later")
        self.active = active
        self.queued = queued


class ParallelExecutionError(ReproError):
    """Raised when the multi-process engine loses a worker mid-query
    (crash, kill, broken pipe).  The pool discards and respawns its
    workers, so the *next* ``mode="parallel"`` execution runs on a
    healthy pool — callers see one clean error, not a hang."""


class RewriteError(ReproError):
    """Raised when the optimizer is asked to apply an inapplicable rewrite."""


class ConditionViolation(RewriteError):
    """Raised when an equivalence's side condition is provably violated."""
