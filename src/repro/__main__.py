"""Command line interface: ``python -m repro``.

Run an XQuery against XML documents and inspect the optimizer's work::

    python -m repro query.xq --doc bib.xml=path/to/bib.xml
    python -m repro query.xq --docs ./data --explain
    python -m repro --query 'for $x in doc("bib.xml")//title return $x' \\
        --docs ./data --plan grouping --stats

Documents are registered under their file name (so ``doc("bib.xml")``
finds ``data/bib.xml``); a sibling ``<name>.dtd`` file, or a DOCTYPE in
the document itself, becomes the optimizer's schema.

The ``stats`` subcommand prints a registered document's arena
statistics (row/kind counts, per-tag element counts, depth histogram —
the exact numbers the cost model plans with)::

    python -m repro stats bib.xml --docs ./data

The ``trace`` subcommand runs a query with full lifecycle tracing
(lex/parse → normalize → translate → optimizer passes → execution with
per-operator spans) and prints the span tree; ``--out trace.json``
additionally writes Chrome ``trace_event`` JSON loadable in
``chrome://tracing`` or Perfetto::

    python -m repro trace query.xq --docs ./data --out trace.json

``--timing`` on the main form does the same inline, with a pinned
stream split: the query output goes to **stdout** (so it stays
pipeable), the ``== TRACE ==`` span tree and ``== METRICS ==`` tables
go to **stderr** — ``tests/test_cli.py`` asserts this contract.

The ``serve`` subcommand (see :mod:`repro.server.cli`) starts the HTTP
query server; ``--server URL`` on the main form sends the query to a
running server instead of executing locally.

Exit codes are part of the contract (asserted in ``tests/test_cli.py``
and mirrored by the server's HTTP statuses):

====  =====================================================
code  meaning
====  =====================================================
0     success
1     any other error
2     bad query (parse/translate/rewrite/evaluation error,
      unknown plan label, unknown mode) — HTTP 400
3     bad document (unknown/duplicate/unparsable) — HTTP 404
4     server saturated (admission queue full) — HTTP 503
====  =====================================================
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import urllib.error
import urllib.request

from repro.api import Database, compile_query
from repro.engine.executor import DEFAULT_MODE, MODES
from repro.errors import (
    DTDParseError,
    DuplicateDocumentError,
    EvaluationError,
    FrozenDocumentError,
    ReproError,
    RewriteError,
    ServerSaturatedError,
    TranslationError,
    UnknownDocumentError,
    XMLParseError,
    XPathError,
    XQueryParseError,
)
from repro.optimizer.rewriter import RANKINGS

EXIT_GENERIC = 1
EXIT_BAD_QUERY = 2
EXIT_BAD_DOCUMENT = 3
EXIT_SERVER_SATURATED = 4

#: HTTP status → exit code, the client-mode half of the contract
_STATUS_EXIT_CODES = {400: EXIT_BAD_QUERY, 404: EXIT_BAD_DOCUMENT,
                      503: EXIT_SERVER_SATURATED}


def exit_code_for(exc: BaseException) -> int:
    """The CLI exit code for an error — bad-document checked first
    because :class:`~repro.errors.UnknownDocumentError` subclasses
    :class:`~repro.errors.EvaluationError` (a bad-query error)."""
    if isinstance(exc, (UnknownDocumentError, DuplicateDocumentError,
                        FrozenDocumentError, XMLParseError,
                        DTDParseError)):
        return EXIT_BAD_DOCUMENT
    if isinstance(exc, (XQueryParseError, XPathError, TranslationError,
                        RewriteError, EvaluationError, KeyError)):
        return EXIT_BAD_QUERY
    if isinstance(exc, ServerSaturatedError):
        return EXIT_SERVER_SATURATED
    return EXIT_GENERIC


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Order-preserving unnesting of nested XQuery "
                    "queries (May/Helmer/Moerkotte, ICDE 2004).")
    parser.add_argument("query_file", nargs="?",
                        help="file containing the XQuery text")
    parser.add_argument("--query", "-q",
                        help="query text given inline instead of a file")
    parser.add_argument("--doc", action="append", default=[],
                        metavar="NAME=PATH",
                        help="register PATH under document NAME "
                             "(repeatable)")
    parser.add_argument("--docs", metavar="DIR",
                        help="register every *.xml file in DIR under "
                             "its file name")
    parser.add_argument("--plan", default=None,
                        help="execute this plan alternative (default: "
                             "best; use 'nested' for the unoptimized "
                             "plan)")
    parser.add_argument("--ranking", choices=RANKINGS,
                        default="heuristic",
                        help="plan ranking strategy")
    parser.add_argument("--explain", action="store_true",
                        help="print plans instead of executing")
    parser.add_argument("--properties", action="store_true",
                        help="with --explain (or alone): annotate every "
                             "plan operator with its inferred order "
                             "properties (sorted_on, document order, "
                             "duplicate freeness) and show elided sorts")
    parser.add_argument("--stats", action="store_true",
                        help="print document-scan statistics")
    parser.add_argument("--analyze", action="store_true",
                        help="print the plan annotated with per-operator "
                             "invocation and row counts (EXPLAIN ANALYZE)")
    parser.add_argument("--mode", choices=MODES, default=DEFAULT_MODE,
                        help="execution engine ('auto' picks parallel "
                             "when --workers is set and the cost gate "
                             "opens; see docs/execution-modes.md)")
    parser.add_argument("--workers", type=int, default=None,
                        metavar="N",
                        help="worker processes for --mode parallel "
                             "(multi-process scatter/gather over "
                             "shared-memory arenas; default: "
                             "REPRO_WORKERS, else the machine's cores)")
    parser.add_argument("--timing", action="store_true",
                        help="trace the query lifecycle and print the "
                             "span tree plus per-operator metrics to "
                             "stderr; the query output stays on stdout "
                             "(any mode but reference)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="cooperative per-request deadline (local "
                             "execution and --server client mode)")
    parser.add_argument("--server", metavar="URL",
                        help="send the query to a running 'repro serve' "
                             "instance (e.g. http://127.0.0.1:8399) "
                             "instead of executing locally; --doc/--docs "
                             "are ignored, exit codes stay the same")
    return parser


def load_query_text(args: argparse.Namespace) -> str:
    if args.query is not None:
        return args.query
    if args.query_file is None:
        raise SystemExit("error: give a query file or --query TEXT")
    return pathlib.Path(args.query_file).read_text()


def register_documents(db: Database, args: argparse.Namespace) -> int:
    count = 0
    if args.docs:
        directory = pathlib.Path(args.docs)
        if not directory.is_dir():
            raise SystemExit(f"error: {directory} is not a directory")
        for xml_path in sorted(directory.glob("*.xml")):
            dtd_path = xml_path.with_suffix(".dtd")
            dtd_text = dtd_path.read_text() if dtd_path.exists() else None
            db.register_text(xml_path.name, xml_path.read_text(),
                             dtd_text=dtd_text)
            count += 1
    for spec in args.doc:
        name, _, path_text = spec.partition("=")
        if not path_text:
            raise SystemExit(
                f"error: --doc expects NAME=PATH, got {spec!r}")
        path = pathlib.Path(path_text)
        dtd_path = path.with_suffix(".dtd")
        dtd_text = dtd_path.read_text() if dtd_path.exists() else None
        db.register_text(name, path.read_text(), dtd_text=dtd_text)
        count += 1
    return count


def build_stats_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro stats",
        description="Print a document's arena statistics (node counts "
                    "per tag, depth histogram).")
    parser.add_argument("document",
                        help="registered name of the document to "
                             "inspect (e.g. bib.xml)")
    parser.add_argument("--doc", action="append", default=[],
                        metavar="NAME=PATH",
                        help="register PATH under document NAME "
                             "(repeatable)")
    parser.add_argument("--docs", metavar="DIR",
                        help="register every *.xml file in DIR under "
                             "its file name")
    return parser


def stats_main(argv: list[str]) -> int:
    args = build_stats_arg_parser().parse_args(argv)
    try:
        db = Database()
        register_documents(db, args)
        document = db.store.get(args.document)
        stats = document.arena.stats()
        kinds = stats["kinds"]
        print(f"arena statistics for {args.document!r}")
        print(f"  rows            : {stats['rows']} "
              f"(elements {kinds['element']}, text {kinds['text']}, "
              f"attributes {kinds['attribute']})")
        print(f"  distinct names  : {stats['distinct_names']}")
        print(f"  max depth       : {stats['max_depth']}")
        print(f"  average fanout  : {stats['average_fanout']}")
        print("  tag counts:")
        for tag, count in stats["tag_counts"].items():
            print(f"    {tag:<24} {count}")
        print("  depth histogram (elements per level):")
        for level, count in stats["depth_histogram"].items():
            print(f"    level {level:<3} {count}")
        version = document.version_stats()
        counts = version["delta_counts"]
        print("  version chain:")
        print(f"    version             : {version['version']} "
              f"(seq {version['seq']})")
        print(f"    base rows           : {version['base_rows']} "
              f"(current {version['rows']})")
        print(f"    delta ops           : "
              f"insert {counts['insert']}, "
              f"delete {counts['delete']}, "
              f"replace {counts['replace']}")
        print(f"    chain length        : {version['chain_length']}")
        print(f"    compaction watermark: "
              f"{version['compaction_watermark']}")
        for entry in version["delta_chain"]:
            ops = entry["ops"]
            print(f"      v{entry['version']:<4} "
                  f"rows {entry['rows']:<8} "
                  f"+{ops['insert']} ins "
                  f"-{ops['delete']} del "
                  f"~{ops['replace']} rep")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


def build_trace_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run a query with full lifecycle tracing and print "
                    "the span tree (compile stages, optimizer passes, "
                    "execution, per-operator spans) plus request-scoped "
                    "metrics.")
    parser.add_argument("query_file", nargs="?",
                        help="file containing the XQuery text")
    parser.add_argument("--query", "-q",
                        help="query text given inline instead of a file")
    parser.add_argument("--doc", action="append", default=[],
                        metavar="NAME=PATH",
                        help="register PATH under document NAME "
                             "(repeatable)")
    parser.add_argument("--docs", metavar="DIR",
                        help="register every *.xml file in DIR under "
                             "its file name")
    parser.add_argument("--plan", default=None,
                        help="trace this plan alternative (default: best)")
    parser.add_argument("--ranking", choices=RANKINGS,
                        default="heuristic", help="plan ranking strategy")
    parser.add_argument("--mode", choices=MODES,
                        default=DEFAULT_MODE, help="execution engine")
    parser.add_argument("--out", metavar="PATH",
                        help="also write Chrome trace_event JSON to PATH "
                             "(open in chrome://tracing or Perfetto)")
    return parser


def trace_main(argv: list[str]) -> int:
    args = build_trace_arg_parser().parse_args(argv)
    try:
        from repro.api import trace_query
        text = load_query_text(args)
        db = Database()
        registered = register_documents(db, args)
        if registered == 0:
            print("warning: no documents registered "
                  "(use --doc or --docs)", file=sys.stderr)
        alt, result = trace_query(text, db, mode=args.mode,
                                  label=args.plan, ranking=args.ranking)
        rules = "+".join(alt.applied) if alt.applied else "nested"
        print(f"# plan: {alt.label} ({rules})  mode: {args.mode}")
        print(result.trace.to_pretty())
        print()
        print(result.metrics.to_pretty())
        if args.out:
            pathlib.Path(args.out).write_text(result.trace.chrome_json())
            print(f"# wrote {args.out} "
                  "(chrome://tracing / Perfetto)", file=sys.stderr)
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


def remote_main(args: argparse.Namespace) -> int:
    """``--server`` client mode: POST the query to a running server and
    translate its HTTP status back into the local exit-code contract
    (400 → 2, 404 → 3, 503 → 4)."""
    text = load_query_text(args)
    request = {"query": text, "mode": args.mode}
    if args.plan is not None:
        request["plan"] = args.plan
    if args.timeout is not None:
        request["timeout"] = args.timeout
    url = args.server.rstrip("/") + "/query"
    try:
        http_request = urllib.request.Request(
            url, data=json.dumps(request).encode("utf-8"),
            headers={"Content-Type": "application/json"}, method="POST")
        with urllib.request.urlopen(http_request, timeout=60) as reply:
            payload = json.loads(reply.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        try:
            detail = json.loads(exc.read().decode("utf-8"))
            message = detail.get("error", str(exc))
        except (ValueError, UnicodeDecodeError):
            message = str(exc)
        print(f"error: {message}", file=sys.stderr)
        return _STATUS_EXIT_CODES.get(exc.code, EXIT_GENERIC)
    except (urllib.error.URLError, OSError) as exc:
        print(f"error: cannot reach {url}: {exc}", file=sys.stderr)
        return EXIT_GENERIC
    print(payload["output"])
    if args.stats:
        print(f"# plan: {payload['plan']}  mode: {payload['mode']}"
              f"{'  (result cache hit)' if payload['cached'] else ''}",
              file=sys.stderr)
        print(f"# document scans: "
              f"{payload['stats'].get('document_scans')}",
              file=sys.stderr)
        print(f"# elapsed: {payload['elapsed']:.4f}s", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else argv
    if argv and argv[0] == "stats":
        return stats_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.server.cli import serve_main
        return serve_main(argv[1:])
    args = build_arg_parser().parse_args(argv)
    if args.server:
        return remote_main(args)
    try:
        text = load_query_text(args)
        db = Database()
        registered = register_documents(db, args)
        if registered == 0:
            print("warning: no documents registered "
                  "(use --doc or --docs)", file=sys.stderr)
        tracer = metrics = None
        if args.timing:
            from repro.obs import MetricsRegistry, Tracer
            tracer = Tracer()
            metrics = MetricsRegistry()
        query = compile_query(text, db, ranking=args.ranking,
                              tracer=tracer)

        if args.explain or args.properties:
            if args.properties:
                from repro.optimizer.properties import \
                    properties_to_string

                def render(label):
                    return properties_to_string(
                        query.plan_named(label).plan, db.store)

                header = properties_to_string(query.plan, db.store)
            else:
                render = query.explain
                header = query.explain()
            print("== nested (translated) plan ==")
            print(header)
            print("== alternatives, best first ==")
            for alt in query.plans():
                rules = "+".join(alt.applied) if alt.applied else "-"
                cost = "" if alt.cost is None \
                    else f"  cost≈{alt.cost.total:.0f}"
                print(f"-- {alt.label} [{rules}]{cost}")
                print(render(alt.label))
            return 0

        alt = query.best() if args.plan is None \
            else query.plan_named(args.plan)
        result = db.execute(alt.plan, mode=args.mode,
                            analyze=args.analyze,
                            tracer=tracer, metrics=metrics,
                            timeout=args.timeout,
                            workers=args.workers)
        print(result.output)
        if args.timing:
            print("== TRACE ==", file=sys.stderr)
            print(tracer.to_pretty(), file=sys.stderr)
            print("== METRICS ==", file=sys.stderr)
            print(metrics.to_pretty(), file=sys.stderr)
        if args.analyze:
            from repro.engine.executor import analyze_to_string
            print("== EXPLAIN ANALYZE ==", file=sys.stderr)
            print(analyze_to_string(alt.plan, result), file=sys.stderr)
        if args.stats:
            scans = result.stats["document_scans"]
            print(f"# plan: {alt.label} "
                  f"({'+'.join(alt.applied) if alt.applied else 'nested'})",
                  file=sys.stderr)
            print(f"# document scans: {scans}", file=sys.stderr)
            print(f"# elapsed: {result.elapsed:.4f}s", file=sys.stderr)
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
