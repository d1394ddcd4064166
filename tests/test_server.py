"""Tests for the query server (:mod:`repro.server`): HTTP contract,
error → status mapping, the request path (hits on the loop, one worker
hop otherwise, one lookup per cache), admission control, coalescing,
and the CLI's ``--server`` client mode with its exit codes."""

from __future__ import annotations

import asyncio
import contextlib
import gc
import itertools
import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.__main__ import (
    EXIT_BAD_DOCUMENT,
    EXIT_BAD_QUERY,
    EXIT_SERVER_SATURATED,
    main,
)
from repro.api import Database, compile_query
from repro.datagen import BIB_DTD, generate_bib
from repro.engine.executor import DEFAULT_MODE, execute
from repro.errors import UnsupportedModeError
from repro.server.app import AdmissionController, QueryServer, \
    ServerConfig

#: the futures of a coalesced request cross threads: a leaked or
#: unretrieved one must fail the suite, not print to stderr
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning",
    "error::pytest.PytestUnraisableExceptionWarning")

TITLES_QUERY = 'for $t in doc("bib.xml")//title return $t'

_cold = itertools.count()


def cold_query() -> str:
    """A query no earlier request has run: its element name makes the
    plan digest — and so the result-cache key — unique."""
    tag = f"cold{next(_cold)}"
    return f'for $t in doc("bib.xml")//title return <{tag}>{{$t}}</{tag}>'


class ServerHandle:
    """A QueryServer running on its own event-loop thread (port 0).
    Every context the loop's exception handler sees ("Future exception
    was never retrieved", a destroyed pending task, a failing
    callback) is recorded in :attr:`loop_errors`."""

    def __init__(self, **config):
        self.db = Database(index_mode="lazy")
        self.db.register_tree("bib.xml", generate_bib(10, 2, seed=5),
                              dtd_text=BIB_DTD)
        self.session = self.db.session(default_timeout=30.0)
        self.server = QueryServer(self.session,
                                  ServerConfig(port=0, **config))
        self.loop = asyncio.new_event_loop()
        self.loop_errors: list[dict] = []
        self.loop.set_exception_handler(
            lambda loop, context: self.loop_errors.append(context))
        ready = threading.Event()

        async def run() -> None:
            await self.server.start()
            ready.set()
            await self.server.serve_forever()

        def runner() -> None:
            try:
                self.loop.run_until_complete(run())
            except asyncio.CancelledError:
                pass

        self.thread = threading.Thread(target=runner, daemon=True)
        self.thread.start()
        assert ready.wait(10), "server did not start"
        host, port = self.server.address
        self.base = f"http://{host}:{port}"

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self._drain(), self.loop).result(timeout=10)
        self.loop.call_soon_threadsafe(
            lambda: [task.cancel()
                     for task in asyncio.all_tasks(self.loop)])
        self.thread.join(timeout=5)
        assert not self.thread.is_alive(), "server loop did not stop"
        self.loop.run_until_complete(self.server.stop())
        self.loop.close()
        self.session.close()

    @staticmethod
    async def _drain() -> None:
        """Waits for open connections: a client has its reply before
        the server finishes closing the socket, and Python 3.11's
        stream callback reports the ``CancelledError`` of a connection
        task cancelled that late."""
        connections = [task for task in asyncio.all_tasks()
                       if task.get_coro().__name__ == "_handle_connection"]
        if connections:
            await asyncio.wait(connections, timeout=5)

    def assert_no_loop_errors(self) -> None:
        # An unretrieved future sits in a cycle with its traceback's
        # frame: it reports only when the collector frees it.
        gc.collect()
        assert self.loop_errors == [], \
            "the server loop swallowed errors: " \
            + "; ".join(str(context.get("message"))
                        for context in self.loop_errors)

    # -- tiny HTTP client ------------------------------------------------
    def get(self, path: str) -> tuple[int, dict]:
        try:
            with urllib.request.urlopen(self.base + path,
                                        timeout=10) as reply:
                return reply.status, json.loads(reply.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def post(self, payload, path: str = "/query",
             raw: bytes | None = None) -> tuple[int, dict, dict]:
        body = raw if raw is not None \
            else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.base + path, data=body,
            headers={"Content-Type": "application/json"},
            method="POST")
        try:
            with urllib.request.urlopen(request, timeout=10) as reply:
                return (reply.status, json.loads(reply.read()),
                        dict(reply.headers))
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read()), dict(exc.headers)


@pytest.fixture(scope="module")
def server():
    handle = ServerHandle(max_concurrency=2, queue_depth=0)
    yield handle
    handle.stop()
    handle.assert_no_loop_errors()


@contextlib.contextmanager
def saturated(server):
    """Both workers held in ``before_execute`` by result-cache-cold
    requests; with ``queue_depth=0`` the next miss is rejected.  Yields
    the list the occupiers' replies land in once the gate opens."""
    gate = threading.Event()
    server.server.before_execute = lambda: gate.wait(15)
    results: list[tuple] = []

    def occupy(query: str) -> None:
        results.append(server.post({"query": query, "timeout": None}))

    # Structurally distinct and cold: identical plans would coalesce
    # instead of occupying two workers, and a hit never reaches a
    # worker at all.
    workers = [threading.Thread(target=occupy, args=(cold_query(),))
               for _ in range(2)]
    try:
        for worker in workers:
            worker.start()
        deadline = time.monotonic() + 10
        while server.server.admission.active < 2:
            assert time.monotonic() < deadline, \
                "workers never became busy"
            time.sleep(0.01)
        yield results
    finally:
        gate.set()
        for worker in workers:
            worker.join(timeout=15)
        server.server.before_execute = None


# ----------------------------------------------------------------------
# Endpoints
# ----------------------------------------------------------------------
def test_healthz(server):
    assert server.get("/healthz") == (200, {"status": "ok"})


def test_query_roundtrip_and_result_cache(server):
    status, first, _ = server.post({"query": TITLES_QUERY})
    assert status == 200
    assert first["rows"] == 10
    assert "<title>" in first["output"]
    assert first["mode"] == DEFAULT_MODE
    status, second, _ = server.post({"query": TITLES_QUERY})
    assert status == 200
    assert second["cached"] is True
    assert second["output"] == first["output"]


def test_stats_endpoint(server):
    status, stats = server.get("/stats")
    assert status == 200
    assert stats["server"]["requests_total"] >= 1
    assert stats["server"]["max_concurrency"] == 2
    assert "plan_cache" in stats and "result_cache" in stats


def test_unknown_route_and_wrong_method(server):
    assert server.get("/nope")[0] == 404
    assert server.get("/query")[0] == 405


# ----------------------------------------------------------------------
# Error mapping
# ----------------------------------------------------------------------
def test_malformed_body_is_bad_query(server):
    status, payload, _ = server.post(None, raw=b"not json")
    assert (status, payload["kind"]) == (400, "bad-query")
    status, payload, _ = server.post({"mode": "vectorized"})
    assert (status, payload["kind"]) == (400, "bad-query")
    status, payload, _ = server.post({"query": TITLES_QUERY,
                                      "mode": "pipelined"})
    assert (status, payload["kind"]) == (400, "bad-query")
    assert "unknown execution mode" in payload["error"]
    status, payload, _ = server.post({"query": TITLES_QUERY,
                                      "timeout": "soon"})
    assert (status, payload["kind"]) == (400, "bad-query")


@pytest.mark.parametrize("timeout", [float("nan"), float("inf"), -5, 0,
                                     True])
def test_timeout_must_be_positive_and_finite(server, timeout):
    """``json.loads`` accepts ``NaN``: a NaN deadline never fires and
    ``min(nan, max_timeout)`` is NaN, so it must be refused."""
    status, payload, _ = server.post({"query": TITLES_QUERY,
                                      "timeout": timeout})
    assert (status, payload["kind"]) == (400, "bad-query")
    assert "timeout" in payload["error"]


def test_parse_error_is_bad_query(server):
    status, payload, _ = server.post({"query": "for $x in ("})
    assert (status, payload["kind"]) == (400, "bad-query")


def test_unknown_document_is_bad_document(server):
    status, payload, _ = server.post(
        {"query": 'for $x in doc("no.xml")//a return $x'})
    assert (status, payload["kind"]) == (404, "bad-document")
    assert "unknown document" in payload["error"]


def test_unknown_mode_and_plan_are_bad_query(server):
    status, payload, _ = server.post({"query": TITLES_QUERY,
                                      "mode": "bogus"})
    assert (status, payload["kind"]) == (400, "bad-query")
    status, payload, _ = server.post({"query": TITLES_QUERY,
                                      "plan": "hashjoin"})
    assert (status, payload["kind"]) == (400, "bad-query")


def _run_execute(server, mode):
    plan = compile_query(TITLES_QUERY, server.db).best().plan
    execute(plan, server.db.store, mode=mode)


def _run_session(server, mode):
    server.session.execute(TITLES_QUERY, mode=mode)


def _run_prepared_lookup(server, mode):
    server.session.prepare(TITLES_QUERY).lookup(mode)


#: library entry points that take a mode, each run with one mode
_MODE_ENTRY_POINTS = {"execute": _run_execute, "session": _run_session,
                      "prepared-lookup": _run_prepared_lookup}


@pytest.mark.parametrize("entry", (*_MODE_ENTRY_POINTS, "http", "cli"))
def test_removed_and_unknown_modes_are_typed_errors(server, capsys,
                                                    entry):
    """``auto`` and ``parallel`` are gone: like any unknown mode they
    are an :class:`UnsupportedModeError` in the library, a 400
    ``bad-query`` over HTTP and an argparse refusal in the CLI."""
    for mode in ("auto", "parallel", "turbo"):
        if entry == "http":
            status, payload, _ = server.post({"query": TITLES_QUERY,
                                              "mode": mode})
            assert (status, payload["kind"]) == (400, "bad-query")
            assert "unknown execution mode" in payload["error"]
        elif entry == "cli":
            with pytest.raises(SystemExit) as exc:
                main(["--query", TITLES_QUERY, "--mode", mode])
            assert exc.value.code == EXIT_BAD_QUERY
            assert "invalid choice" in capsys.readouterr().err
        else:
            with pytest.raises(UnsupportedModeError,
                               match="unknown execution mode"):
                _MODE_ENTRY_POINTS[entry](server, mode)


def test_deadline_is_gateway_timeout(server):
    nested = '''
    let $d1 := doc("bib.xml")
    for $a1 in distinct-values($d1//author)
    return <a>{ let $d2 := doc("bib.xml")
                for $b2 in $d2/book[$a1 = author]
                return $b2/title }</a>
    '''
    status, payload, _ = server.post({"query": nested,
                                      "timeout": 1e-9})
    assert (status, payload["kind"]) == (504, "deadline")
    _, stats = server.get("/stats")
    assert stats["server"]["timeouts_total"] >= 1


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_saturation_rejects_with_503_and_retry_after(server):
    with saturated(server) as results:
        status, payload, headers = server.post({"query": cold_query()})
        assert (status, payload["kind"]) == (503, "saturated")
        assert headers.get("Retry-After") == "1"
        assert "saturated" in payload["error"]
    assert len(results) == 2
    assert all(result[0] == 200 for result in results), \
        "occupying requests must complete once the gate opens"
    _, stats = server.get("/stats")
    assert stats["server"]["rejected_total"] >= 1


def test_saturated_server_still_answers_cache_hits(server):
    """A hit executes nothing, so it is answered on the loop before
    admission: it never waits behind misses for a worker slot."""
    warm = cold_query()
    assert server.post({"query": warm})[0] == 200
    with saturated(server):
        status, payload, _ = server.post({"query": warm})
        assert (status, payload["cached"]) == (200, True)
        status, payload, _ = server.post({"query": cold_query()})
        assert (status, payload["kind"]) == (503, "saturated")


def test_single_flight_coalescing(server):
    """Identical in-flight requests (same plan digest + document
    versions) execute once: followers share the leader's outcome and
    show up in the ``coalesced_total`` counter."""
    gate = threading.Event()
    entered = threading.Event()

    def hold() -> None:
        entered.set()
        gate.wait(15)

    server.server.before_execute = hold
    # Result-cache-cold shape; trailing comment makes the *text*
    # differ per follower while the plan digest stays identical —
    # coalescing keys on the work, not the bytes.
    query = ('for $t in doc("bib.xml")//title '
             'return <coalesce>{$t}</coalesce>')
    base = server.server.coalesced_total
    results: list[tuple] = []
    threads = [threading.Thread(
        target=lambda q=q: results.append(server.post({"query": q})))
        for q in (query, query, query + " (: follower :)")]
    try:
        threads[0].start()
        assert entered.wait(10), "leader never reached execution"
        # Fire followers one at a time so the short acquire→coalesce→
        # release window never overlaps (queue_depth=0 would 503).
        for count, thread in enumerate(threads[1:], start=1):
            thread.start()
            deadline = time.monotonic() + 10
            while server.server.coalesced_total < base + count:
                assert time.monotonic() < deadline, \
                    "request did not coalesce"
                time.sleep(0.01)
        gate.set()
        for thread in threads:
            thread.join(timeout=15)
    finally:
        gate.set()
        server.server.before_execute = None
    assert len(results) == 3
    assert all(status == 200 for status, _, _ in results)
    assert len({payload["output"] for _, payload, _ in results}) == 1
    _, stats = server.get("/stats")
    assert stats["server"]["coalesced_total"] >= base + 2


@contextlib.contextmanager
def leader_held(server, request: dict):
    """Posts ``request`` and holds it in ``before_execute`` as the
    leader of its work.  Yields ``(follow, replies)``: ``follow()``
    posts the same request from another thread and returns once it has
    joined the leader.  On exit the leader runs, and every reply —
    leader's and followers' — lands in ``replies``."""
    gate, entered = threading.Event(), threading.Event()

    def hold() -> None:
        entered.set()
        gate.wait(15)

    results: list[tuple] = []
    threads: list[threading.Thread] = []

    def post() -> None:
        results.append(server.post(request))

    def follow() -> None:
        joined = server.server.coalesced_total + 1
        threads.append(threading.Thread(target=post))
        threads[-1].start()
        deadline = time.monotonic() + 10
        while server.server.coalesced_total < joined:
            assert time.monotonic() < deadline, "request did not coalesce"
            time.sleep(0.01)

    server.server.before_execute = hold
    threads.append(threading.Thread(target=post))
    threads[0].start()
    try:
        assert entered.wait(10), "leader never reached execution"
        yield follow, results
    finally:
        gate.set()
        for thread in threads:
            thread.join(timeout=15)
        server.server.before_execute = None


def test_concurrent_identical_requests_are_each_answered_once():
    """More client threads than cores on a few cold shapes, with a
    short switch interval: every request is exactly one of result hit,
    leader or follower, and the in-flight map drains."""
    handle = ServerHandle(max_concurrency=8, queue_depth=64)
    leaders = itertools.count()
    handle.server.before_execute = lambda: next(leaders)
    queries = [cold_query() for _ in range(3)]
    replies: list[tuple] = []

    def client() -> None:
        for query in queries:
            replies.append(handle.post({"query": query}))

    threads = [threading.Thread(target=client) for _ in range(12)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _, before = handle.get("/stats")
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        _, after = handle.get("/stats")
    finally:
        sys.setswitchinterval(interval)
        handle.stop()
    assert len(replies) == 36
    assert all(status == 200 for status, _, _ in replies)
    assert len({payload["output"] for _, payload, _ in replies}) == 3
    hits = after["result_cache"]["hits"] - before["result_cache"]["hits"]
    followers = after["server"]["coalesced_total"] \
        - before["server"]["coalesced_total"]
    assert next(leaders) + followers + hits == 36
    assert handle.server._inflight == {}
    handle.assert_no_loop_errors()


def test_followers_share_the_leaders_error(server):
    # The deadline is checked as execution starts, after the gate.
    with leader_held(server, {"query": cold_query(),
                              "timeout": 1e-9}) as (follow, replies):
        follow()
        follow()
    assert [(status, payload["kind"]) for status, payload, _
            in replies] == [(504, "deadline")] * 3


# ----------------------------------------------------------------------
# The request path: hits on the loop, one hop otherwise, one lookup
# per cache
# ----------------------------------------------------------------------
def test_a_hit_stays_on_the_loop_and_a_miss_makes_one_hop(server,
                                                         monkeypatch):
    executor = server.server._executor
    submitted = []
    submit = executor.submit

    def spy(fn, *args, **kwargs):
        submitted.append(fn)
        return submit(fn, *args, **kwargs)

    monkeypatch.setattr(executor, "submit", spy)

    def hops(query: str) -> tuple[int, bool]:
        before = len(submitted)
        status, payload, _ = server.post({"query": query})
        assert status == 200
        return len(submitted) - before, payload["cached"]

    plan_miss = cold_query()
    assert hops(plan_miss) == (1, False)
    assert hops(plan_miss) == (0, True)
    result_miss = cold_query()
    server.session.prepare(result_miss)
    assert hops(result_miss) == (1, False)


def test_each_request_counts_one_lookup_per_cache(server):
    """``/stats`` hit rates are shares of requests: each request counts
    one plan-cache and one result-cache lookup — none when it fails
    before its lookup, only its plan miss when its text does not
    compile (a result key needs a plan)."""
    def lookups(send) -> dict:
        _, before = server.get("/stats")
        send()
        _, after = server.get("/stats")
        return {cache: tuple(after[cache][field] - before[cache][field]
                             for field in ("hits", "misses"))
                for cache in ("plan_cache", "result_cache")}

    def post(request: dict, status: int = 200):
        def send() -> None:
            assert server.post(request)[0] == status
        return send

    query = cold_query()
    assert lookups(post({"query": query})) == \
        {"plan_cache": (0, 1), "result_cache": (0, 1)}  # plan miss
    assert lookups(post({"query": query})) == \
        {"plan_cache": (1, 0), "result_cache": (1, 0)}  # result hit
    query = cold_query()
    server.session.prepare(query)
    assert lookups(post({"query": query})) == \
        {"plan_cache": (1, 0), "result_cache": (0, 1)}  # result miss
    with leader_held(server, {"query": cold_query()}) as (follow, _):
        assert lookups(follow) == \
            {"plan_cache": (1, 0), "result_cache": (0, 1)}  # follower
    assert lookups(post({"query": query, "timeout": float("nan")},
                        400)) == \
        {"plan_cache": (0, 0), "result_cache": (0, 0)}
    assert lookups(post({"query": "for $x in ("}, 400)) == \
        {"plan_cache": (0, 1), "result_cache": (0, 0)}


def test_each_request_walks_its_documents_once(server, monkeypatch):
    """The result key the lookup builds is the one the coalescing map
    and the result store use: ``Session.doc_versions`` runs once per
    request for a result hit, a result miss, a plan miss and a
    follower."""
    from repro.session import Session
    walks = []
    doc_versions = Session.doc_versions

    def spy(self, *args, **kwargs):
        walks.append(1)
        return doc_versions(self, *args, **kwargs)

    monkeypatch.setattr(Session, "doc_versions", spy)

    def count(send) -> int:
        before = len(walks)
        send()
        return len(walks) - before

    def post(query: str):
        return lambda: server.post({"query": query})

    query = cold_query()
    assert count(post(query)) == 1                     # plan miss
    assert count(post(query)) == 1                     # result hit
    query = cold_query()
    server.session.prepare(query)
    assert count(post(query)) == 1                     # result miss
    with leader_held(server, {"query": cold_query()}) as (follow, _):
        assert count(follow) == 1                      # follower


def test_texts_of_one_shape_share_a_plan_not_a_result(server):
    """A text that differs from a cached one only in a constant is a
    plan hit that binds (``plan_cache.bindings``) and a result miss,
    and its answer is its own."""
    template = ('for $b in doc("bib.xml")//book where $b/@year > {} '
                'return <shape-test>{{ $b/title }}</shape-test>')
    _, before = server.get("/stats")
    replies = [server.post({"query": template.format(year)})
               for year in (1990, 2000, 1990)]
    _, after = server.get("/stats")
    assert [status for status, _, _ in replies] == [200] * 3
    assert [payload["cached"] for _, payload, _ in replies] == \
        [False, False, True]
    delta = {field: after["plan_cache"][field] - before["plan_cache"][field]
             for field in ("hits", "misses", "bindings")}
    assert delta == {"hits": 2, "misses": 1, "bindings": 1}
    for (_, payload, _), year in zip(replies, (1990, 2000)):
        with server.db.session() as fresh:
            assert payload["output"] == \
                fresh.execute(template.format(year)).output


def test_a_label_only_a_repriced_binding_has_is_served(server,
                                                       monkeypatch):
    """The template did not take the value probe, so it has no
    ``+index`` plan; a text whose constant makes the probe win does,
    and naming that plan is a 200, as it is for a fresh compile."""
    from repro.optimizer import access_paths
    tag = f"cold{next(_cold)}"
    template = ('for $b in doc("bib.xml")//book where $b/@year > {} '
                'return <TAG>{{ $b/title }}</TAG>').replace("TAG", tag)
    with monkeypatch.context() as patch:
        patch.setattr(access_paths, "_probe_wins",
                      lambda probe_cost, scan_cost: False)
        status, payload, _ = server.post({"query": template.format(1990)})
    assert (status, payload["plan"]) == (200, "nested")
    text = template.format(1995)
    status, payload, _ = server.post({"query": text,
                                      "plan": "nested+index"})
    assert (status, payload["plan"]) == (200, "nested+index")
    with server.db.session() as fresh:
        assert payload["output"] == \
            fresh.execute(text, label="nested+index").output


def test_admission_controller_counts():
    from repro.errors import ServerSaturatedError

    async def scenario() -> None:
        admission = AdmissionController(max_concurrency=1,
                                        queue_depth=0)
        await admission.acquire()
        assert (admission.active, admission.queued) == (1, 0)
        with pytest.raises(ServerSaturatedError):
            await admission.acquire()
        assert admission.rejected_total == 1
        admission.release()
        await admission.acquire()
        assert admission.admitted_total == 2
        admission.release()

    asyncio.run(scenario())


def test_admission_controller_validates_arguments():
    with pytest.raises(ValueError):
        AdmissionController(0, 4)
    with pytest.raises(ValueError):
        AdmissionController(1, -1)


# ----------------------------------------------------------------------
# CLI client mode (--server) and serve wiring
# ----------------------------------------------------------------------
def test_cli_client_mode_roundtrip(server, capsys):
    code = main(["--query", TITLES_QUERY, "--server", server.base,
                 "--stats"])
    assert code == 0
    captured = capsys.readouterr()
    assert "<title>" in captured.out
    assert "# plan:" in captured.err


def test_cli_client_mode_exit_codes(server, capsys):
    assert main(["--query", "for $x in (",
                 "--server", server.base]) == EXIT_BAD_QUERY
    assert main(["--query", 'for $x in doc("no.xml")//a return $x',
                 "--server", server.base]) == EXIT_BAD_DOCUMENT
    assert "unknown document" in capsys.readouterr().err


def test_cli_client_mode_saturated_exit_code(server, capsys):
    with saturated(server):
        code = main(["--query", cold_query(), "--server", server.base])
        assert code == EXIT_SERVER_SATURATED
        assert "saturated" in capsys.readouterr().err


def test_cli_client_mode_unreachable_server(capsys):
    code = main(["--query", TITLES_QUERY,
                 "--server", "http://127.0.0.1:1"])
    assert code == 1
    assert "cannot reach" in capsys.readouterr().err


def test_build_server_from_cli_args(tmp_path):
    from repro.server.cli import build_serve_arg_parser, build_server
    from repro.xmldb.serialize import serialize
    (tmp_path / "bib.xml").write_text(
        serialize(generate_bib(5, 2, seed=4)))
    (tmp_path / "bib.dtd").write_text(BIB_DTD)
    args = build_serve_arg_parser().parse_args(
        ["--docs", str(tmp_path), "--port", "0", "--workers", "3",
         "--queue-depth", "5", "--timeout", "0", "--mode", "reference"])
    server = build_server(args)
    assert server.config.max_concurrency == 3
    assert server.config.queue_depth == 5
    assert server.config.default_timeout is None
    assert server.session.default_mode == "reference"
    assert server.session.database.list_documents() == ["bib.xml"]
