"""Integration tests for query-lifecycle tracing and request-scoped
metrics: span-tree shape across engines, Chrome JSON export, metrics
reconciliation with EXPLAIN ANALYZE, elision health counters,
request-scoped stats isolation, and the CLI surfaces."""

from __future__ import annotations

import json
import pathlib
from collections import Counter as TallyCounter

import pytest

from repro.__main__ import main
from repro.api import Database, compile_query, trace_query
from repro.datagen import BIB_DTD, ITEMS_DTD, generate_bib, \
    generate_items
from repro.engine.executor import DEFAULT_MODE, operators_by_path
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.optimizer.elide_order import elided_sorts
from repro.xmldb.serialize import serialize

# A query whose operators are all fully drained (no quantifier, no
# short-circuit), so both engines must produce the same span tree.
SIMPLE = '''
for $b in document("bib.xml")//book
return <r>{ $b/title }</r>
'''

ORDERED = '''
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple
let $n1 := zero-or-one($i1/itemno)
order by $n1
return <item>{ $n1 }</item>
'''


@pytest.fixture
def bib_db() -> Database:
    db = Database()
    db.register_tree("bib.xml", generate_bib(10, 2, seed=3),
                     dtd_text=BIB_DTD)
    return db


# ----------------------------------------------------------------------
# Lifecycle spans
# ----------------------------------------------------------------------
def test_trace_query_records_the_full_lifecycle(bib_db):
    alt, result = trace_query(SIMPLE, bib_db)
    names = [s.name for s in result.trace.spans]
    for stage in ("lex/parse", "normalize", "translate",
                  "rewrite/unnest", f"execute[{DEFAULT_MODE}]"):
        assert stage in names, f"missing lifecycle span {stage!r}"
    # Compile stages precede optimization, which precedes execution.
    assert names.index("lex/parse") < names.index("rewrite/unnest") \
        < names.index(f"execute[{DEFAULT_MODE}]")
    # Operator spans carry their tree position.
    operator_spans = [s for s in result.trace.spans
                      if s.cat == "operator"]
    assert operator_spans and all("path" in s.args
                                  for s in operator_spans)
    assert result.output == bib_db.execute(alt.plan).output


def test_optimizer_spans_report_alternative_counts(bib_db):
    tracer = Tracer()
    query = compile_query(SIMPLE, bib_db, tracer=tracer)
    query.plans()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["rewrite/unnest"].args["alternatives"] >= 1
    assert "labels" in by_name["rewrite/unnest"].args
    assert "plans_with_elisions" in by_name["sort-elision"].args


def _operator_shape(result) -> TallyCounter:
    """(name, depth) multiset of the execution span subtree."""
    shape: TallyCounter = TallyCounter()
    base_depth = None
    for depth, span in result.trace.nested():
        if span.name.startswith("execute["):
            base_depth = depth
        elif span.cat == "operator":
            assert base_depth is not None
            shape[(span.name, depth - base_depth)] += 1
    return shape


def test_span_tree_mirrors_the_plan_tree(bib_db):
    """Nesting is derived from containment: every operator's span sits
    inside its parent operator's, one level down."""
    alt, result = trace_query(SIMPLE, bib_db)
    expected: TallyCounter = TallyCounter()

    def walk(op, depth):
        expected[(op.label(), depth)] += 1
        for child in op.children:
            walk(child, depth + 1)

    walk(alt.plan, 1)
    assert _operator_shape(result) == expected


def test_chrome_export_round_trips_and_is_well_formed(bib_db):
    _, result = trace_query(SIMPLE, bib_db)
    payload = json.loads(result.trace.chrome_json())
    assert payload["traceEvents"], "trace must not be empty"
    for event in payload["traceEvents"]:
        assert event["ph"] == "X"
        assert event["dur"] >= 0.0
        assert isinstance(event["ts"], float)


# ----------------------------------------------------------------------
# Metrics ↔ EXPLAIN ANALYZE reconciliation
# ----------------------------------------------------------------------
def test_metrics_reconcile_with_analyze_counts(bib_db):
    query = compile_query(SIMPLE, bib_db)
    plan = query.best().plan
    metrics = MetricsRegistry()
    result = bib_db.execute(plan, analyze=True, metrics=metrics)
    operators = operators_by_path(plan)
    expected_calls: TallyCounter = TallyCounter()
    expected_rows: TallyCounter = TallyCounter()
    for path, (calls, rows) in result.operator_counts.items():
        name = type(operators[path]).__name__
        expected_calls[name] += calls
        expected_rows[name] += rows
    counters = metrics.snapshot()["counters"]
    for name in expected_calls:
        assert counters[f"operator.{name}.invocations"] == \
            expected_calls[name]
        assert counters[f"operator.{name}.rows_out"] == \
            expected_rows[name]
    assert metrics.snapshot()["gauges"]["execution.rows"] == \
        len(result.rows)


def test_scan_stats_land_in_metrics(bib_db):
    metrics = MetricsRegistry()
    plan = compile_query(SIMPLE, bib_db).best().plan
    result = bib_db.execute(plan, metrics=metrics)
    counters = metrics.snapshot()["counters"]
    assert counters["scan.node_visits"] == result.stats["node_visits"]
    assert counters["scan.document_scans"] == result.stats["total_scans"]
    # //book then b/title: the order fast path serves these evaluations.
    assert counters["xpath.order_fastpath_hits"] > 0


# ----------------------------------------------------------------------
# Elision health counters: taken vs forced
# ----------------------------------------------------------------------
def test_elision_counters_taken_and_forced():
    db = Database()
    db.register_tree("items.xml", generate_items(30, seed=5),
                     dtd_text=ITEMS_DTD)
    plan = compile_query(ORDERED, db).plan_named("nested").plan
    assert elided_sorts(plan), "order-by Sort should be elided"

    metrics = MetricsRegistry()
    baseline = db.execute(plan, metrics=metrics)
    counters = metrics.snapshot()["counters"]
    assert counters.get("elision.sorts_taken", 0) >= 1
    assert counters.get("elision.sorts_forced", 0) == 0

    # Rotate the proof document: same name, new registration — the
    # data-derived sortedness guarantee no longer applies, so the
    # elided Sort must fall back to a real sort (and say so).
    db.unregister("items.xml")
    db.register_tree("items.xml", generate_items(30, seed=5),
                     dtd_text=ITEMS_DTD)
    metrics = MetricsRegistry()
    rotated = db.execute(plan, metrics=metrics)
    counters = metrics.snapshot()["counters"]
    assert counters.get("elision.sorts_forced", 0) >= 1
    assert rotated.output == baseline.output


# ----------------------------------------------------------------------
# Request-scoped statistics
# ----------------------------------------------------------------------
def test_stats_are_request_scoped_and_store_keeps_the_tally(bib_db):
    plan = compile_query(SIMPLE, bib_db).best().plan
    before = bib_db.store.stats.node_visits
    first = bib_db.execute(plan)
    second = bib_db.execute(plan)
    # Each result describes exactly its own execution...
    assert first.stats["node_visits"] == second.stats["node_visits"]
    assert first.stats["node_visits"] > 0
    # ...while the store's shared counters accumulate the process total.
    assert bib_db.store.stats.node_visits == \
        before + 2 * first.stats["node_visits"]


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
@pytest.fixture
def data_dir(tmp_path: pathlib.Path) -> pathlib.Path:
    (tmp_path / "bib.xml").write_text(
        serialize(generate_bib(6, 2, seed=4)))
    (tmp_path / "bib.dtd").write_text(BIB_DTD)
    return tmp_path


@pytest.mark.parametrize("workers", (None, "2"))
def test_cli_trace_subcommand(data_dir, tmp_path, capsys, monkeypatch,
                              workers):
    """``trace --mode`` takes every member of ``MODES`` (``auto`` here,
    which it used to reject) and nothing else; with a worker budget in
    the environment the cost gate still keeps this small input on the
    serial engine."""
    if workers is not None:
        monkeypatch.setenv("REPRO_WORKERS", workers)
    out_json = tmp_path / "trace.json"
    status = main(["trace", "--query", SIMPLE, "--docs", str(data_dir),
                   "--mode", "auto", "--out", str(out_json)])
    assert status == 0
    out = capsys.readouterr().out
    assert f"execute[{DEFAULT_MODE}]" in out
    assert "lex/parse" in out
    assert "operator.Construct.invocations" in out
    payload = json.loads(out_json.read_text())
    assert any(e["name"] == f"execute[{DEFAULT_MODE}]"
               for e in payload["traceEvents"])
    with pytest.raises(SystemExit) as exit_info:
        main(["trace", "--query", SIMPLE, "--docs", str(data_dir),
              "--mode", "pipelined"])
    assert exit_info.value.code == 2


def test_cli_timing_flag(data_dir, capsys):
    status = main(["--query", SIMPLE, "--docs", str(data_dir),
                   "--timing"])
    assert status == 0
    captured = capsys.readouterr()
    assert "<r>" in captured.out               # query output on stdout
    assert "== TRACE ==" in captured.err
    assert f"execute[{DEFAULT_MODE}]" in captured.err
    assert "== METRICS ==" in captured.err
    assert "scan.node_visits" in captured.err
