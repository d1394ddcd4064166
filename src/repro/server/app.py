"""The query server's protocol and lifecycle.

:class:`QueryServer` is a deliberately dependency-free asyncio server
speaking enough HTTP/1.1 for real clients (``curl``, ``urllib``, load
generators): request-line + headers + ``Content-Length`` body in,
JSON out, ``Connection: close`` per exchange.  Three endpoints:

- ``POST /query`` — body ``{"query": "...", "mode": ..., "plan": ...,
  "timeout": ...}`` (only ``query`` required); executes through the
  shared :class:`~repro.session.Session` and returns ``{"output",
  "rows", "elapsed", "cached", "plan", "mode", "stats"}``.
- ``POST /update`` — body ``{"document": "...", "ops": [...]}`` where
  each op is ``{"op": "insert", "parent": pre, "index": i, "xml":
  "<fragment/>"}``, ``{"op": "delete", "target": pre}`` or ``{"op":
  "replace", "target": pre, "xml": "<fragment/>"}``; applies the delta
  through :meth:`~repro.xmldb.document.DocumentStore.update` and
  returns the new version's chain stats.  Queries already executing
  keep their pinned snapshot; queries admitted afterwards see the new
  version.
- ``GET /healthz`` — liveness.
- ``GET /stats`` — session cache counters (``plan_cache.bindings``:
  plan hits bound to constants other than the template's), server
  admission counters (requests, admissions, rejections, timeouts,
  coalesced requests), update
  counters, and per-document version info (current ``seq``,
  ``version``, rows, chain length) plus the store's live snapshot
  count.

**Threading model.**  The asyncio loop parses protocol and answers
result-cache hits: :meth:`~repro.session.Session.lookup` is one dict
lookup per cache (it never compiles, binds or executes), so a hit
leaves the loop zero times and is served *before* admission — a
saturated server still answers it.  Everything else is CPU-bound
Python and makes exactly one hop onto a
:class:`~concurrent.futures.ThreadPoolExecutor` sized to
``max_concurrency``: compile if the plan cache missed, coalesce, bind
the plan to the query's constants, execute.  That is safe because
everything requests share — frozen arenas, immutable plans, the
session caches, the in-flight map — is either immutable or
lock-guarded (see :mod:`repro.session` and the
:class:`~repro.xmldb.document.DocumentStore` concurrency contract).
Each request counts exactly one plan-cache and one result-cache lookup
(none for a request rejected before its lookup), so ``/stats`` hit
rates are shares of requests.

**Single-flight coalescing.**  On the worker, before executing, a
request's *work identity* is formed: the result key the lookup built
(canonical plan digest + the query's constants + the referenced
documents' versions) + mode/plan/timeout.  If an identical
key is already in flight (a lock-guarded map of
:class:`concurrent.futures.Future`), the request becomes a *follower*:
the hop hands the leader's future back, the loop releases the
follower's admission slot and awaits it (``asyncio.wrap_future``)
instead of re-executing — a thundering herd of identical dashboard
queries occupies one worker thread, not ``max_concurrency`` of them.
Followers share the leader's outcome, errors included;
``coalesced_total`` in ``/stats`` counts them.

**Admission control.**  :class:`AdmissionController` admits at most
``max_concurrency`` executing requests (result-cache hits execute
nothing and are not admitted, so ``admitted_total`` in ``/stats``
counts executing requests and updates only — never a loop hit) and
``queue_depth`` waiters;
anything beyond that is rejected *immediately* with
:class:`~repro.errors.ServerSaturatedError` (HTTP 503 +
``Retry-After``), which keeps tail latency bounded under overload
instead of letting the queue grow without limit.

**Deadlines.**  Each request gets a cooperative deadline
(``timeout`` field: a positive, finite number of seconds, capped by
the server's ``max_timeout``): the
engines abandon evaluation at the next operator/tuple boundary past it
and the request returns HTTP 504.

Error mapping (mirrored by the CLI's exit codes, see
``python -m repro --help``):

==========================================  ======  ================
error                                       status  kind
==========================================  ======  ================
unparsable body / unknown field or mode /   400     ``bad-query``
XQuery parse, translation or rewrite errors
unknown/duplicate/unparsable document       404     ``bad-document``
admission queue full                        503     ``saturated``
per-request deadline exceeded               504     ``deadline``
anything else                               500     ``internal``
==========================================  ======  ================
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from repro.engine.executor import DEFAULT_MODE
from repro.errors import (
    DeadlineExceededError,
    DTDParseError,
    DuplicateDocumentError,
    EvaluationError,
    FrozenDocumentError,
    ReproError,
    RewriteError,
    ServerSaturatedError,
    TranslationError,
    UnknownDocumentError,
    UnsupportedModeError,
    XMLParseError,
    XPathError,
    XQueryParseError,
)
from repro.xmldb.delta import Delete, DeltaError, Insert, Replace
from repro.xmldb.parser import parse_document

#: errors that mean "the request's query text is at fault" (HTTP 400) —
#: checked *after* the document errors below, which subclass some of
#: these
BAD_QUERY_ERRORS = (XQueryParseError, XPathError, TranslationError,
                    RewriteError, EvaluationError, UnsupportedModeError)

#: errors that mean "a document is at fault" (HTTP 404)
BAD_DOCUMENT_ERRORS = (UnknownDocumentError, DuplicateDocumentError,
                       FrozenDocumentError, XMLParseError, DTDParseError)

_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = 4 * 1024 * 1024


@dataclass
class ServerConfig:
    """Tunables of one :class:`QueryServer`."""

    host: str = "127.0.0.1"
    port: int = 8399
    #: simultaneous executing requests (thread-pool size)
    max_concurrency: int = 4
    #: admitted waiters beyond the executing ones; 0 = reject as soon
    #: as every worker is busy
    queue_depth: int = 16
    #: seconds granted to a request that names no timeout (None = no
    #: deadline by default)
    default_timeout: float | None = 30.0
    #: hard cap on client-requested timeouts
    max_timeout: float = 300.0
    default_mode: str = DEFAULT_MODE


class AdmissionController:
    """Bounded concurrency + bounded wait queue with fast rejection.

    ``acquire()`` either admits the caller (possibly after waiting in
    the bounded queue) or raises
    :class:`~repro.errors.ServerSaturatedError` immediately; it never
    blocks behind more than ``queue_depth`` earlier waiters.  All state
    transitions happen on the event loop, so plain counters suffice.
    """

    def __init__(self, max_concurrency: int, queue_depth: int):
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        self.max_concurrency = max_concurrency
        self.queue_depth = queue_depth
        self._semaphore = asyncio.Semaphore(max_concurrency)
        self.active = 0
        self.queued = 0
        self.rejected_total = 0
        self.admitted_total = 0

    async def acquire(self) -> None:
        if self.active >= self.max_concurrency \
                and self.queued >= self.queue_depth:
            self.rejected_total += 1
            raise ServerSaturatedError(self.active, self.queued)
        self.queued += 1
        try:
            await self._semaphore.acquire()
        finally:
            self.queued -= 1
        self.active += 1
        self.admitted_total += 1

    def release(self) -> None:
        self.active -= 1
        self._semaphore.release()


class QueryServer:
    """One serving process: a session, an admission controller, a
    thread pool and the HTTP protocol glue.  See the module docstring
    for the endpoint and error contract."""

    def __init__(self, session, config: ServerConfig | None = None):
        self.session = session
        self.config = config or ServerConfig()
        self.admission = AdmissionController(self.config.max_concurrency,
                                             self.config.queue_depth)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency,
            thread_name_prefix="repro-query")
        self._server: asyncio.AbstractServer | None = None
        self.requests_total = 0
        self.timeouts_total = 0
        self.updates_total = 0
        self.update_errors_total = 0
        #: single-flight coalescing: semantically identical requests
        #: (same plan digest, document versions, mode, label, timeout)
        #: in flight at the same time execute once; followers await the
        #: leader's thread-safe future.  Read and written on the worker
        #: threads, under the lock.
        self._inflight: dict[tuple, Future] = {}
        self._inflight_lock = threading.Lock()
        self.coalesced_total = 0
        #: optional test/diagnostics hook run on the worker thread
        #: right before a leader executes (used to hold workers busy
        #: deterministically in the saturation tests)
        self.before_execute = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (returns immediately;
        combine with :meth:`serve_forever` or run inside an existing
        loop).  With ``port=0`` the kernel picks a free port —
        :attr:`address` reports the actual one."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False, cancel_futures=True)

    def stats(self) -> dict:
        store = self.session.database.store
        documents = {}
        for name in store.names():
            doc = store.get(name)
            documents[name] = {
                "seq": doc.seq,
                "version": doc.version,
                "rows": len(doc.arena.kinds),
                "chain_length": len(doc.delta_chain),
                "compaction_watermark": doc.compaction_watermark,
            }
        return {
            "server": {
                "requests_total": self.requests_total,
                "rejected_total": self.admission.rejected_total,
                "admitted_total": self.admission.admitted_total,
                "timeouts_total": self.timeouts_total,
                "coalesced_total": self.coalesced_total,
                "updates_total": self.updates_total,
                "update_errors_total": self.update_errors_total,
                "active": self.admission.active,
                "queued": self.admission.queued,
                "max_concurrency": self.admission.max_concurrency,
                "queue_depth": self.admission.queue_depth,
            },
            "documents": documents,
            "live_snapshots": store.live_snapshot_count(),
            **self.session.cache_stats(),
        }

    # ------------------------------------------------------------------
    # HTTP protocol
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await asyncio.wait_for(
                    self._read_request(reader), timeout=10.0)
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ConnectionError):
                return
            except ValueError as exc:
                await self._respond(writer, 400, {
                    "error": str(exc), "kind": "bad-request"})
                return
            status, payload = await self._route(method, path, body)
            await self._respond(writer, status, payload)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - client gone
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> tuple[str, str, bytes]:
        request_line = await reader.readline()
        if not request_line:
            raise asyncio.IncompleteReadError(b"", None)
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise ValueError("malformed request line")
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        header_bytes = 0
        while True:
            line = await reader.readline()
            header_bytes += len(line)
            if header_bytes > _MAX_HEADER_BYTES:
                raise ValueError("headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise ValueError("bad Content-Length") from None
        if content_length > _MAX_BODY_BYTES:
            raise ValueError("body too large")
        body = await reader.readexactly(content_length) \
            if content_length else b""
        return method, path, body

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: dict) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed",
                   503: "Service Unavailable", 504: "Gateway Timeout",
                   500: "Internal Server Error"}
        body = json.dumps(payload).encode("utf-8")
        headers = [f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
                   "Content-Type: application/json",
                   f"Content-Length: {len(body)}",
                   "Connection: close"]
        if status == 503:
            headers.append("Retry-After: 1")
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing and execution
    # ------------------------------------------------------------------
    async def _route(self, method: str, path: str,
                     body: bytes) -> tuple[int, dict]:
        path = path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            return 200, {"status": "ok"}
        if path == "/stats" and method == "GET":
            return 200, self.stats()
        if path == "/query":
            if method != "POST":
                return 405, {"error": "use POST /query",
                             "kind": "bad-request"}
            return await self._handle_query(body)
        if path == "/update":
            if method != "POST":
                return 405, {"error": "use POST /update",
                             "kind": "bad-request"}
            return await self._handle_update(body)
        return 404, {"error": f"no route {method} {path}",
                     "kind": "bad-request"}

    async def _handle_query(self, body: bytes) -> tuple[int, dict]:
        self.requests_total += 1
        try:
            request = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"body is not JSON: {exc}",
                         "kind": "bad-query"}
        if not isinstance(request, dict) or \
                not isinstance(request.get("query"), str):
            return 400, {"error": 'body must be {"query": "..."} JSON',
                         "kind": "bad-query"}
        timeout = self.config.default_timeout
        if request.get("timeout") is not None:
            timeout = _positive_seconds(request["timeout"])
            if timeout is None:
                return 400, {"error": "timeout must be a positive, "
                                      "finite number of seconds",
                             "kind": "bad-query"}
            timeout = min(timeout, self.config.max_timeout)
        mode = request.get("mode") or self.config.default_mode
        label = request.get("plan")
        text = request["query"]
        try:
            # On the loop: a dict lookup per cache, no compile, no
            # execution — a hit is answered here, before admission.
            prepared, key, result = self.session.lookup(text, mode,
                                                        label)
            if result is not None:
                plan_label = prepared.template.alternative(label).label
            else:
                result, plan_label = await self._execute_missed(
                    text, mode, label, timeout, prepared, key)
        except ServerSaturatedError as exc:
            return 503, {"error": str(exc), "kind": "saturated"}
        except DeadlineExceededError as exc:
            self.timeouts_total += 1
            return 504, {"error": str(exc), "kind": "deadline"}
        except BAD_DOCUMENT_ERRORS as exc:
            return 404, {"error": str(exc), "kind": "bad-document"}
        except BAD_QUERY_ERRORS as exc:
            return 400, {"error": str(exc), "kind": "bad-query"}
        except KeyError as exc:  # unknown plan label
            return 400, {"error": str(exc), "kind": "bad-query"}
        except ValueError as exc:
            return 400, {"error": str(exc), "kind": "bad-query"}
        except ReproError as exc:  # pragma: no cover - defensive
            return 500, {"error": str(exc), "kind": "internal"}
        return 200, {
            "output": result.output,
            "rows": result.row_count,
            "elapsed": result.elapsed,
            "cached": result.cached,
            "plan": plan_label,
            "mode": mode,
            "stats": result.stats,
        }

    async def _handle_update(self, body: bytes) -> tuple[int, dict]:
        self.requests_total += 1
        try:
            request = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"body is not JSON: {exc}",
                         "kind": "bad-update"}
        if not isinstance(request, dict) or \
                not isinstance(request.get("document"), str) or \
                not isinstance(request.get("ops"), list) or \
                not request["ops"]:
            return 400, {"error": 'body must be {"document": "...", '
                                  '"ops": [...]} JSON with at least '
                                  'one op', "kind": "bad-update"}
        try:
            ops = [self._decode_op(raw) for raw in request["ops"]]
        except ValueError as exc:
            return 400, {"error": str(exc), "kind": "bad-update"}
        except XMLParseError as exc:
            return 400, {"error": f"bad XML fragment: {exc}",
                         "kind": "bad-update"}
        try:
            await self.admission.acquire()
        except ServerSaturatedError as exc:
            return 503, {"error": str(exc), "kind": "saturated"}
        try:
            loop = asyncio.get_running_loop()
            document = await loop.run_in_executor(
                self._executor, self.session.database.store.update,
                request["document"], ops)
        except UnknownDocumentError as exc:
            self.update_errors_total += 1
            return 404, {"error": str(exc), "kind": "bad-document"}
        except DeltaError as exc:
            self.update_errors_total += 1
            return 400, {"error": str(exc), "kind": "bad-update"}
        except ReproError as exc:  # pragma: no cover - defensive
            self.update_errors_total += 1
            return 500, {"error": str(exc), "kind": "internal"}
        finally:
            self.admission.release()
        self.updates_total += 1
        return 200, {
            "document": document.name,
            "applied": len(ops),
            **document.version_stats(),
        }

    @staticmethod
    def _decode_op(raw):
        """One JSON op object → a delta op (raises ``ValueError`` on a
        malformed object, ``XMLParseError`` on a bad fragment)."""
        if not isinstance(raw, dict):
            raise ValueError("each op must be a JSON object")
        kind = raw.get("op")
        if kind == "insert":
            parent, index = raw.get("parent"), raw.get("index")
            if not isinstance(parent, int) or not isinstance(index, int):
                raise ValueError(
                    'insert needs integer "parent" and "index"')
            return Insert(parent, index, QueryServer._decode_tree(raw))
        if kind == "delete":
            target = raw.get("target")
            if not isinstance(target, int):
                raise ValueError('delete needs an integer "target"')
            return Delete(target)
        if kind == "replace":
            target = raw.get("target")
            if not isinstance(target, int):
                raise ValueError('replace needs an integer "target"')
            return Replace(target, QueryServer._decode_tree(raw))
        raise ValueError(f'unknown op {kind!r} (expected "insert", '
                         f'"delete" or "replace")')

    @staticmethod
    def _decode_tree(raw):
        """The op's ``"xml"`` fragment, parsed: the root handle of its
        arena, whose columns the update splices as they are."""
        xml = raw.get("xml")
        if not isinstance(xml, str):
            raise ValueError(f'{raw["op"]} needs an "xml" fragment '
                             f'string')
        return parse_document(xml).root

    async def _execute_missed(self, text: str, mode: str,
                              label: str | None, timeout: float | None,
                              prepared, key: tuple | None):
        """A request the caches could not answer: admission, then
        exactly one worker hop (:meth:`_compile_and_execute`).  A
        follower frees its slot as soon as the hop returns and awaits
        the leader's outcome without occupying a worker."""
        await self.admission.acquire()
        try:
            outcome = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._compile_and_execute,
                text, mode, label, timeout, prepared, key)
        finally:
            self.admission.release()
        if isinstance(outcome, Future):
            self.coalesced_total += 1
            return await asyncio.wrap_future(outcome)
        return outcome

    def _compile_and_execute(self, text: str, mode: str,
                             label: str | None, timeout: float | None,
                             prepared, key: tuple | None):
        """Runs on a worker thread — the request's only hop.  Compiles
        after a plan miss (then makes the result lookup the loop could
        not make, which builds the result key), computes the request's
        *work* identity — the result key (plan digest, constants,
        referenced documents' versions) plus everything that changes
        execution semantics — and either joins an identical request in
        flight (returns its :class:`~concurrent.futures.Future`) or
        leads: binds and executes, publishes the outcome to the
        followers and returns ``(result, plan label)``."""
        if prepared is None:
            prepared = self.session.compile(text)
            key, result = prepared.lookup(mode, label)
            if result is not None:
                return result, prepared.alternative(label).label
        elif key is None:
            # A label the template lacks: re-pricing the binding (here,
            # off the loop) tells whether its compile has it.
            key = self.session.result_key(prepared,
                                          prepared.alternative(label))
        work = (key, mode, label, timeout)
        with self._inflight_lock:
            leader = self._inflight.get(work)
            if leader is not None:
                return leader
            future = Future()
            # Running: a follower whose task is cancelled cannot
            # cancel it under the leader.
            future.set_running_or_notify_cancel()
            self._inflight[work] = future
        try:
            if self.before_execute is not None:
                self.before_execute()
            result = prepared.execute(mode=mode, label=label,
                                      timeout=timeout, key=key)
            outcome = (result, prepared.alternative(label).label)
        except BaseException as exc:
            future.set_exception(exc)
            raise
        else:
            future.set_result(outcome)
        finally:
            with self._inflight_lock:
                del self._inflight[work]
        return outcome


def _positive_seconds(value) -> float | None:
    """``value`` as a positive, finite number of seconds, or None —
    ``json.loads`` accepts ``NaN`` and ``Infinity``, and a NaN
    deadline would never fire."""
    if isinstance(value, bool):
        return None
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if math.isfinite(seconds) and seconds > 0 else None
