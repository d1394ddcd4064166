"""``python -m repro serve`` — run the query server.

Registers the given documents once into frozen arenas, builds one
shared :class:`~repro.session.Session` and serves until interrupted::

    python -m repro serve --docs ./data --port 8399 --workers 4

Clients POST JSON to ``/query`` (see :mod:`repro.server.app` for the
protocol) — or use the main CLI form's ``--server`` flag, which turns
``python -m repro --query ... --server http://host:port`` into a thin
HTTP client with the same exit-code contract as local execution.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.api import Database
from repro.engine.executor import DEFAULT_MODE, MODES
from repro.errors import ReproError
from repro.server.app import QueryServer, ServerConfig


def build_serve_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve XQuery over HTTP: one shared session (plan "
                    "+ result caches), bounded concurrency with fast "
                    "503 rejection, cooperative per-request deadlines.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8399,
                        help="bind port (default 8399; 0 = pick free)")
    parser.add_argument("--doc", action="append", default=[],
                        metavar="NAME=PATH",
                        help="register PATH under document NAME "
                             "(repeatable)")
    parser.add_argument("--docs", metavar="DIR",
                        help="register every *.xml file in DIR under "
                             "its file name")
    parser.add_argument("--workers", type=int, default=4,
                        help="simultaneous executing requests "
                             "(default 4)")
    parser.add_argument("--parallel-workers", type=int, default=None,
                        metavar="N",
                        help="worker processes for mode=parallel "
                             "execution (multi-process scatter/gather "
                             "over shared-memory arenas; default: the "
                             "REPRO_WORKERS environment variable, else "
                             "off for mode=auto)")
    parser.add_argument("--queue-depth", type=int, default=16,
                        help="admitted waiters beyond the executing "
                             "requests; past that, 503 (default 16)")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="default per-request deadline in seconds "
                             "(default 30; 0 disables)")
    parser.add_argument("--mode", choices=MODES, default=DEFAULT_MODE,
                        help="default execution engine for requests "
                             "that name none")
    parser.add_argument("--index-mode",
                        choices=("off", "lazy", "eager"),
                        default="lazy",
                        help="store physical design (default lazy: "
                             "indexes built on first probe)")
    parser.add_argument("--plan-cache", type=int, default=128,
                        metavar="N", help="plan-cache entries "
                        "(default 128; 0 disables)")
    parser.add_argument("--result-cache", type=int, default=256,
                        metavar="N", help="result-cache entries "
                        "(default 256; 0 disables)")
    return parser


def build_server(args: argparse.Namespace) -> QueryServer:
    """Database + session + server from parsed arguments (shared by
    ``serve_main`` and the tests, which bind ``--port 0``)."""
    from repro.__main__ import register_documents
    db = Database(index_mode=args.index_mode)
    registered = register_documents(db, args)
    if registered == 0:
        print("warning: no documents registered (use --doc or --docs)",
              file=sys.stderr)
    timeout = args.timeout if args.timeout and args.timeout > 0 else None
    session = db.session(plan_cache_size=args.plan_cache,
                         result_cache_size=args.result_cache,
                         default_mode=args.mode,
                         default_timeout=timeout,
                         default_workers=args.parallel_workers)
    config = ServerConfig(host=args.host, port=args.port,
                          max_concurrency=args.workers,
                          queue_depth=args.queue_depth,
                          default_timeout=timeout,
                          default_mode=args.mode,
                          parallel_workers=args.parallel_workers)
    return QueryServer(session, config)


async def _serve(server: QueryServer) -> None:
    await server.start()
    host, port = server.address
    print(f"# repro serve: listening on http://{host}:{port} "
          f"(workers={server.config.max_concurrency}, "
          f"queue={server.config.queue_depth}, "
          f"docs={len(server.session.database.list_documents())})",
          file=sys.stderr)
    await server.serve_forever()


def serve_main(argv: list[str]) -> int:
    args = build_serve_arg_parser().parse_args(argv)
    try:
        server = build_server(args)
    except ReproError as exc:
        from repro.__main__ import exit_code_for
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    try:
        asyncio.run(_serve(server))
    except KeyboardInterrupt:
        print("# repro serve: shutting down", file=sys.stderr)
    return 0
