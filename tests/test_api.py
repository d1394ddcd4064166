"""Tests for the high-level public API (`repro.api`)."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro import Database, compile_query
from repro.datagen import BIB_DTD, generate_bib
from repro.engine.executor import MODES, ExecutionResult

SIMPLE = """
let $d1 := doc("bib.xml")
for $t1 in $d1//book/title
return <t> { $t1 } </t>
"""

NESTED = """
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
return
  <author><name> { $a1 } </name>
  { let $d2 := doc("bib.xml")
    for $b2 in $d2/book[$a1 = author]
    return $b2/title }
  </author>
"""


@pytest.fixture
def db() -> Database:
    database = Database()
    database.register_tree("bib.xml", generate_bib(8, 2, seed=2),
                           dtd_text=BIB_DTD)
    return database


def test_register_text_with_doctype_dtd():
    db = Database()
    doc = db.register_text("tiny.xml", """
<!DOCTYPE r [
<!ELEMENT r (x*)>
<!ELEMENT x (#PCDATA)>
]>
<r><x>1</x><x>2</x></r>
""")
    assert doc.dtd is not None
    assert "x" in doc.dtd.elements


def test_register_text_explicit_dtd_overrides_none():
    db = Database()
    doc = db.register_text("tiny.xml", "<r><x>1</x></r>",
                           dtd_text="<!ELEMENT r (x*)>\n"
                                    "<!ELEMENT x (#PCDATA)>")
    assert doc.dtd is not None


def test_compile_and_run_best(db):
    query = compile_query(NESTED, db)
    result = query.run()
    assert isinstance(result, ExecutionResult)
    assert "<author>" in result.output
    assert result.stats["document_scans"]["bib.xml"] <= 2


def test_run_specific_label(db):
    query = compile_query(NESTED, db)
    nested = query.run("nested")
    best = query.run()
    # nested rescans once per distinct author; best does not
    assert nested.stats["document_scans"]["bib.xml"] > \
        best.stats["document_scans"]["bib.xml"]


def test_plans_order_and_nested_last(db):
    query = compile_query(NESTED, db)
    plans = query.plans()
    assert plans[-1].label == "nested"
    assert plans[0].rank <= plans[-1].rank
    assert all(p.applied == () for p in plans if p.label == "nested")


def test_plans_are_cached(db):
    query = compile_query(NESTED, db)
    assert query.plans() is query.plans()


def test_plan_named_unknown_label_raises(db):
    query = compile_query(NESTED, db)
    with pytest.raises(KeyError, match="available"):
        query.plan_named("hashjoin")


def test_explain_mentions_operators(db):
    query = compile_query(NESTED, db)
    text = query.explain()
    assert "Ξ" in text and "χ" in text
    best_text = query.explain(query.best().label)
    assert best_text != text


def test_unnestable_query_still_has_nested_plan(db):
    query = compile_query(SIMPLE, db)
    labels = [p.label for p in query.plans()]
    assert "nested" in labels


def test_execute_rejects_unknown_mode(db):
    query = compile_query(SIMPLE, db)
    with pytest.raises(ValueError, match="unknown execution mode"):
        db.execute(query.plan, mode="turbo")


def test_reference_and_default_agree(db):
    query = compile_query(NESTED, db)
    for alt in query.plans():
        default = db.execute(alt.plan)
        reference = db.execute(alt.plan, mode="reference")
        assert default.output == reference.output, alt.label


def test_execution_result_repr(db):
    query = compile_query(SIMPLE, db)
    result = query.run()
    text = repr(result)
    assert "rows=" in text and "elapsed=" in text


# ---------------------------------------------------------------------------
# Store management: list_documents / unregister / index_mode
# ---------------------------------------------------------------------------

def test_list_documents(db):
    assert db.list_documents() == ["bib.xml"]
    db.register_text("a.xml", "<a/>")
    assert db.list_documents() == ["a.xml", "bib.xml"]


def test_unregister_removes_document(db):
    db.unregister("bib.xml")
    assert db.list_documents() == []
    # the name is free again: stores stay append-only per name in use
    db.register_tree("bib.xml", generate_bib(2, 1, seed=5),
                     dtd_text=BIB_DTD)
    assert db.list_documents() == ["bib.xml"]


def test_unregister_unknown_raises(db):
    from repro.errors import UnknownDocumentError
    with pytest.raises(UnknownDocumentError, match="nope.xml"):
        db.unregister("nope.xml")


def test_unregister_drops_indexes_and_stats():
    db = Database(index_mode="eager")
    db.register_tree("bib.xml", generate_bib(4, 2, seed=2),
                     dtd_text=BIB_DTD)
    assert db.store.indexes.built("bib.xml")
    compile_query(SIMPLE, db).run()
    db.unregister("bib.xml")
    assert not db.store.indexes.built("bib.xml")
    assert "bib.xml" not in db.store.stats.document_scans
    assert "bib.xml" not in db.store.stats.index_probes


def test_default_index_mode_is_off(db):
    assert db.index_mode == "off"
    assert not db.store.indexes.enabled
    labels = [p.label for p in compile_query(SIMPLE, db).plans()]
    assert all(not label.endswith("+index") for label in labels)


def test_indexed_database_runs_index_plan():
    db = Database(index_mode="lazy")
    db.register_tree("bib.xml", generate_bib(8, 2, seed=2),
                     dtd_text=BIB_DTD)
    query = compile_query(SIMPLE, db)
    assert query.best().label == "nested+index"
    result = query.run()
    assert result.stats["total_probes"] >= 1
    assert result.stats["document_scans"] == {}
    scan_db = Database()
    scan_db.register_tree("bib.xml", generate_bib(8, 2, seed=2),
                          dtd_text=BIB_DTD)
    assert result.output == compile_query(SIMPLE, scan_db).run().output


# ----------------------------------------------------------------------
# The one default execution mode
# ----------------------------------------------------------------------
def test_every_entry_point_defaults_to_default_mode():
    import inspect

    from repro.__main__ import build_arg_parser, build_trace_arg_parser
    from repro.api import CompiledQuery, trace_query
    from repro.engine.executor import DEFAULT_MODE, MODES, execute
    from repro.server.app import ServerConfig
    from repro.server.cli import build_serve_arg_parser

    assert MODES == ("vectorized", "reference")
    assert DEFAULT_MODE in MODES
    for parser in (build_arg_parser(), build_trace_arg_parser(),
                   build_serve_arg_parser()):
        assert parser.get_default("mode") == DEFAULT_MODE
    for func in (execute, Database.execute, CompiledQuery.run,
                 trace_query):
        assert inspect.signature(func).parameters["mode"].default == \
            DEFAULT_MODE, func.__qualname__
    assert Database().session().default_mode == DEFAULT_MODE
    assert ServerConfig().default_mode == DEFAULT_MODE


@pytest.mark.parametrize("key", ("q1", "q2", "q3", "q4", "q5", "q6"))
def test_default_request_matches_reference_on_paper_queries(key):
    """A session request that names no mode is byte-identical to the
    definitional evaluator, on the best plan and on the nested one."""
    from repro.bench.queries import PAPER_QUERIES

    spec = PAPER_QUERIES[key]
    session = spec.build_db().session()
    for label in (None, "nested"):
        default = session.execute(spec.text, label=label)
        reference = session.execute(spec.text, label=label,
                                    mode="reference",
                                    use_result_cache=False)
        assert not reference.cached
        assert default.output == reference.output, (key, label)
        assert default.rows == reference.rows, (key, label)


def test_a_session_query_imports_no_multiprocessing():
    """Execution is one process: neither compiling nor running a
    session request loads :mod:`multiprocessing` (checked in a fresh
    interpreter, since the test runner's own imports would mask it)."""
    script = textwrap.dedent("""
        import sys
        from repro import Database
        db = Database()
        db.register_text("a.xml", "<a><b>1</b><b>2</b></a>")
        with db.session() as session:
            result = session.execute('for $b in doc("a.xml")//b return $b')
        assert result.output == "<b>1</b><b>2</b>", result.output
        print(sorted(name for name in sys.modules
                     if name.split(".")[0] == "multiprocessing"))
    """)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# collection() surface
# ----------------------------------------------------------------------
def shard_xml(shard: int, items: int) -> str:
    rows = "".join(
        f"<item id='i{shard}-{j}'><name>n{shard}-{j}</name>"
        f"<price>{(j * 7 + shard) % 13}</price></item>"
        for j in range(items))
    return f"<items>{rows}</items>"


@pytest.fixture(scope="module")
def shards() -> Database:
    database = Database()
    for shard in range(8):
        database.register_text(f"shard-{shard}.xml", shard_xml(shard, 30))
    return database


#: one FLWOR shape over every shard, and the same over one document
SHARD_QUERIES = {
    "scan": 'for $i in {src}//item return $i/name',
    "where": 'for $i in {src}//item where $i/price > 6 return $i/name',
    "sorted": ('for $i in {src}//item '
               'order by $i/price return <r>{{$i/name}}</r>'),
}


def best_plan(db: Database, query: str):
    return compile_query(query, db).best().plan


@pytest.mark.parametrize("source", ('collection("shard-*.xml")',
                                    'doc("shard-0.xml")'),
                         ids=("collection", "doc"))
@pytest.mark.parametrize("name", sorted(SHARD_QUERIES))
def test_shard_queries_match_reference(shards, name, source):
    plan = best_plan(shards, SHARD_QUERIES[name].format(src=source))
    default = shards.execute(plan)
    reference = shards.execute(plan, mode="reference")
    assert default.output == reference.output
    assert default.rows == reference.rows


def test_collection_matches_in_registration_order():
    db = Database()
    db.register_text("b.xml", "<d><v>2</v></d>")
    db.register_text("a.xml", "<d><v>1</v></d>")
    query = 'for $v in collection("*.xml")//v return $v'
    result = db.execute(best_plan(db, query))
    assert result.output == "<v>2</v><v>1</v>", \
        "collection order is registration (seq) order, not name order"


def test_collection_unmatched_pattern_is_empty(shards):
    query = 'for $i in collection("nope-*.xml")//item return $i'
    result = shards.execute(best_plan(shards, query))
    assert result.rows == []
    assert result.output == ""


def test_collection_differential_across_engines(shards):
    query = ('for $i in collection("shard-*.xml")//item '
             'where $i/price = 7 return <hit>{$i/name}</hit>')
    plan = best_plan(shards, query)
    outputs = {mode: shards.execute(plan, mode=mode).output
               for mode in MODES}
    assert len(set(outputs.values())) == 1, outputs


def test_collection_in_nested_flwor(shards):
    query = ('for $i in collection("shard-[0-3]*.xml")//item '
             'where $i/price > 9 return <r>{$i/name}</r>')
    plan = best_plan(shards, query)
    outputs = {mode: shards.execute(plan, mode=mode).output
               for mode in MODES}
    assert len(set(outputs.values())) == 1, outputs


def test_result_cache_invalidates_on_membership_change():
    db = Database()
    db.register_text("shard-0.xml", shard_xml(0, 5))
    session = db.session()
    query = 'for $i in collection("shard-*.xml")//item return $i/name'
    first = session.execute(query)
    assert session.execute(query).cached
    db.register_text("shard-1.xml", shard_xml(1, 5))
    fresh = session.execute(query)
    assert not fresh.cached
    assert len(fresh.rows) == len(first.rows) * 2
    session.close()
