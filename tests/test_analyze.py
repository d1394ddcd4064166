"""Tests for EXPLAIN ANALYZE (per-operator invocation/row counts)."""

from __future__ import annotations

import pytest

from repro import Database, compile_query
from repro.datagen import BIB_DTD, generate_bib
from repro.engine.executor import analyze_to_string

NESTED_QUERY = '''
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
return
  <author><name> { $a1 } </name>
  { let $d2 := doc("bib.xml")
    for $b2 in $d2/book[$a1 = author]
    return $b2/title }
  </author>
'''


@pytest.fixture
def db() -> Database:
    database = Database()
    database.register_tree("bib.xml", generate_bib(6, 2, seed=8),
                           dtd_text=BIB_DTD)
    return database


def test_analyze_collects_counts(db):
    query = compile_query(NESTED_QUERY, db)
    result = db.execute(query.best().plan, analyze=True)
    assert result.operator_counts
    # Every top-level operator was invoked exactly once.
    assert all(calls == 1
               for calls, _ in result.operator_counts.values())


def test_analyze_off_by_default(db):
    query = compile_query(NESTED_QUERY, db)
    result = db.execute(query.best().plan)
    assert result.operator_counts is None


def test_analyze_requires_a_measuring_mode(db):
    from repro.errors import ReproError, UnsupportedModeError
    query = compile_query(NESTED_QUERY, db)
    with pytest.raises(UnsupportedModeError, match="vectorized"):
        db.execute(query.plan, mode="reference", analyze=True)
    # The error stays catchable both as the library's base error and as
    # the ValueError older callers matched on.
    assert issubclass(UnsupportedModeError, ReproError)
    assert issubclass(UnsupportedModeError, ValueError)


def test_analyze_string_annotates_operators(db):
    query = compile_query(NESTED_QUERY, db)
    plan = query.best().plan
    result = db.execute(plan, analyze=True)
    text = analyze_to_string(plan, result)
    assert "[calls=1 rows=" in text
    assert "Ξ" in text


def test_analyze_string_marks_nested_plans(db):
    query = compile_query(NESTED_QUERY, db)
    plan = query.plan_named("nested").plan
    result = db.execute(plan, analyze=True)
    text = analyze_to_string(plan, result)
    assert "⟨nested⟩" in text
    assert "(not measured)" in text


def test_analyze_string_requires_analyzed_result(db):
    query = compile_query(NESTED_QUERY, db)
    result = db.execute(query.plan)
    with pytest.raises(ValueError, match="analyze=True"):
        analyze_to_string(query.plan, result)


def test_analyze_row_counts_are_plausible(db):
    """The Ξ at the root emits one tuple per distinct author; its row
    count must equal the number of <author> elements constructed.
    Counters are keyed by tree position — ``()`` is the root."""
    query = compile_query(NESTED_QUERY, db)
    plan = query.best().plan
    result = db.execute(plan, analyze=True)
    calls, rows = result.operator_counts[()]
    assert calls == 1
    assert rows == result.output.count("<author>")


def test_analyze_counts_shared_subtree_per_position():
    """An operator *instance* occurring at two tree positions must get
    two separate counter entries (id-keyed counters used to merge them
    into one, doubling the call count and misreporting rows)."""
    from repro.engine.executor import execute
    from repro.nal import Cross, Project, Rename, Table
    from repro.xmldb.document import DocumentStore

    shared = Table("T", ["A"], [{"A": 1}, {"A": 2}, {"A": 3}])
    plan = Cross(Project(shared, ["A"]),
                 Rename(shared, {"A": "B"}))
    assert plan.children[0].children[0] is plan.children[1].children[0]
    store = DocumentStore()
    result = execute(plan, store, analyze=True)
    assert len(result.rows) == 9
    assert result.operator_counts[(0, 0)] == (1, 3)
    assert result.operator_counts[(1, 0)] == (1, 3)
    assert result.operator_counts[()] == (1, 9)
    text = analyze_to_string(plan, result)
    assert text.count("Table(T)  [calls=1 rows=3]") == 2


def test_analyze_does_not_change_output(db):
    query = compile_query(NESTED_QUERY, db)
    plan = query.best().plan
    plain = db.execute(plan).output
    analyzed = db.execute(plan, analyze=True).output
    assert plain == analyzed


def test_cli_analyze_flag(db, tmp_path, capsys):
    from repro.__main__ import main
    from repro.xmldb.serialize import serialize
    (tmp_path / "bib.xml").write_text(
        serialize(generate_bib(4, 2, seed=8)))
    (tmp_path / "bib.dtd").write_text(BIB_DTD)
    query_file = tmp_path / "q.xq"
    query_file.write_text(NESTED_QUERY)
    code = main([str(query_file), "--docs", str(tmp_path), "--analyze"])
    assert code == 0
    captured = capsys.readouterr()
    assert "EXPLAIN ANALYZE" in captured.err
    assert "[calls=" in captured.err
