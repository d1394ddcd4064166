"""Tests for the ``python -m repro`` command line interface."""

from __future__ import annotations

import pathlib

import pytest

from repro.__main__ import (
    EXIT_BAD_DOCUMENT,
    EXIT_BAD_QUERY,
    EXIT_SERVER_SATURATED,
    exit_code_for,
    main,
)
from repro.datagen import BIB_DTD, generate_bib
from repro.xmldb.serialize import serialize

QUERY = '''
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
def data_dir(tmp_path: pathlib.Path) -> pathlib.Path:
    (tmp_path / "bib.xml").write_text(
        serialize(generate_bib(6, 2, seed=4)))
    (tmp_path / "bib.dtd").write_text(BIB_DTD)
    return tmp_path


@pytest.fixture
def query_file(tmp_path: pathlib.Path) -> pathlib.Path:
    path = tmp_path / "query.xq"
    path.write_text(QUERY)
    return path


def test_run_query_file(data_dir, query_file, capsys):
    code = main([str(query_file), "--docs", str(data_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "<author>" in out and "<title>" in out


def test_inline_query(data_dir, capsys):
    code = main(["--query",
                 'for $t in doc("bib.xml")//title return $t',
                 "--docs", str(data_dir)])
    assert code == 0
    assert "<title>" in capsys.readouterr().out


def test_doc_flag_registers_named_document(data_dir, capsys):
    code = main(["--query",
                 'for $t in doc("books.xml")//title return $t',
                 "--doc", f"books.xml={data_dir / 'bib.xml'}"])
    assert code == 0
    assert "<title>" in capsys.readouterr().out


def test_explain_lists_alternatives(data_dir, query_file, capsys):
    code = main([str(query_file), "--docs", str(data_dir), "--explain"])
    assert code == 0
    out = capsys.readouterr().out
    assert "alternatives" in out
    assert "nested" in out
    assert "Ξ" in out


def test_plan_selection_and_stats(data_dir, query_file, capsys):
    code = main([str(query_file), "--docs", str(data_dir),
                 "--plan", "nested", "--stats"])
    assert code == 0
    captured = capsys.readouterr()
    assert "document scans" in captured.err
    assert "plan: nested" in captured.err


def test_properties_flag_annotates_plans(data_dir, capsys):
    code = main(["--query",
                 'for $t in doc("bib.xml")//title return $t',
                 "--docs", str(data_dir), "--properties"])
    assert code == 0
    out = capsys.readouterr().out
    assert "alternatives" in out
    # the Υ over //title is provably in document order + duplicate-free
    assert "doc-order(t)" in out
    assert "dup-free" in out


def test_properties_flag_shows_elided_sorts(tmp_path, capsys):
    """An order-by key that is sorted in document order (the auction's
    itemno) must render as an elided sort with its inferred facts."""
    from repro.datagen import ITEMS_DTD
    from repro.datagen.auction import generate_items
    (tmp_path / "items.xml").write_text(
        serialize(generate_items(12, seed=6)))
    (tmp_path / "items.dtd").write_text(ITEMS_DTD)
    code = main(["--query",
                 'let $d1 := doc("items.xml") '
                 'for $i1 in $d1//itemtuple '
                 'let $n1 := zero-or-one($i1/itemno) '
                 'order by $n1 return <i>{ $n1 }</i>',
                 "--docs", str(tmp_path), "--properties", "--explain"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Sort[elided: __ord1]" in out
    assert "sorted_on=[n1]" in out
    assert "doc-order(i1)" in out


def test_cost_ranking_flag(data_dir, query_file, capsys):
    code = main([str(query_file), "--docs", str(data_dir),
                 "--ranking", "cost", "--explain"])
    assert code == 0
    assert "cost≈" in capsys.readouterr().out


@pytest.mark.parametrize("flag,value", (("--mode", "pipelined"),
                                        ("--ranking", "cost-first-tuple")))
def test_deleted_option_values_are_argparse_errors(data_dir, query_file,
                                                   flag, value):
    with pytest.raises(SystemExit) as exit_info:
        main([str(query_file), "--docs", str(data_dir), flag, value])
    assert exit_info.value.code == 2


def test_reference_mode(data_dir, query_file, capsys):
    code = main([str(query_file), "--docs", str(data_dir),
                 "--mode", "reference"])
    assert code == 0
    assert "<author>" in capsys.readouterr().out


def test_vectorized_mode(data_dir, query_file, capsys):
    code = main([str(query_file), "--docs", str(data_dir),
                 "--mode", "vectorized"])
    assert code == 0
    assert "<author>" in capsys.readouterr().out


def test_timing_flag_stream_split(data_dir, query_file, capsys):
    """The --timing contract: query output on stdout (pipeable),
    trace and metrics on stderr — never interleaved into the result."""
    code = main([str(query_file), "--docs", str(data_dir), "--timing"])
    assert code == 0
    captured = capsys.readouterr()
    assert "<author>" in captured.out
    assert "== TRACE ==" not in captured.out
    assert "== METRICS ==" not in captured.out
    assert "== TRACE ==" in captured.err
    assert "== METRICS ==" in captured.err
    assert "<author>" not in captured.err


def test_timing_flag_vectorized_mode(data_dir, query_file, capsys):
    """--timing records vectorized batch counters on stderr."""
    code = main([str(query_file), "--docs", str(data_dir), "--timing",
                 "--mode", "vectorized"])
    assert code == 0
    captured = capsys.readouterr()
    assert "<author>" in captured.out
    assert "vectorized." in captured.err


def test_unknown_plan_label_fails_cleanly(data_dir, query_file, capsys):
    code = main([str(query_file), "--docs", str(data_dir),
                 "--plan", "hashjoin"])
    assert code == EXIT_BAD_QUERY
    assert "error" in capsys.readouterr().err


def test_parse_error_fails_cleanly(data_dir, capsys):
    code = main(["--query", "for $x in", "--docs", str(data_dir)])
    assert code == EXIT_BAD_QUERY
    assert "error" in capsys.readouterr().err


def test_malformed_number_fails_cleanly(data_dir, capsys):
    code = main(["--query", 'for $x in doc("a.xml")//b '
                            'where $x/c = 1.2.3 return $x',
                 "--docs", str(data_dir)])
    assert code == EXIT_BAD_QUERY
    assert "malformed number '1.2.3'" in capsys.readouterr().err


def test_bad_doc_spec_rejected(data_dir):
    with pytest.raises(SystemExit):
        main(["--query", "for $x in doc('a')//b return $x",
              "--doc", "no-equals-sign"])


def test_missing_query_rejected():
    with pytest.raises(SystemExit):
        main(["--docs", "."])


def test_warns_without_documents(tmp_path, capsys):
    query = tmp_path / "q.xq"
    query.write_text('for $x in doc("a.xml")//b return $x')
    code = main([str(query), "--explain"])
    assert code == 0  # explain works without documents
    assert "no documents" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The `stats` subcommand (arena statistics)
# ----------------------------------------------------------------------
def test_stats_subcommand_prints_arena_statistics(data_dir, capsys):
    code = main(["stats", "bib.xml", "--docs", str(data_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "arena statistics for 'bib.xml'" in out
    assert "tag counts" in out
    assert "book" in out and "author" in out
    assert "depth histogram" in out
    assert "level 0" in out


def test_stats_subcommand_counts_match_document(data_dir, capsys):
    from repro.api import Database
    db = Database()
    db.register_text("bib.xml",
                     (data_dir / "bib.xml").read_text())
    expected = db.store.get("bib.xml").arena.tag_count("book")
    code = main(["stats", "bib.xml",
                 "--doc", f"bib.xml={data_dir / 'bib.xml'}"])
    assert code == 0
    out = capsys.readouterr().out
    assert f"book                     {expected}" in out


def test_stats_unknown_document_fails_cleanly(data_dir, capsys):
    code = main(["stats", "missing.xml", "--docs", str(data_dir)])
    assert code == EXIT_BAD_DOCUMENT
    assert "unknown document" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Exit codes: bad-query vs bad-document vs server-saturated
# ----------------------------------------------------------------------
def test_unknown_document_exit_code(data_dir, capsys):
    code = main(["--query",
                 'for $t in doc("missing.xml")//title return $t',
                 "--docs", str(data_dir)])
    assert code == EXIT_BAD_DOCUMENT
    assert "unknown document" in capsys.readouterr().err


def test_bad_document_xml_exit_code(tmp_path, capsys):
    (tmp_path / "broken.xml").write_text("<a><b></a>")
    code = main(["--query",
                 'for $t in doc("broken.xml")//t return $t',
                 "--docs", str(tmp_path)])
    assert code == EXIT_BAD_DOCUMENT
    assert "error" in capsys.readouterr().err


def test_bad_character_reference_exit_code(tmp_path, capsys):
    (tmp_path / "broken.xml").write_text("<a><t>&#xZZ;</t></a>")
    code = main(["--query",
                 'for $t in doc("broken.xml")//t return $t',
                 "--docs", str(tmp_path)])
    assert code == EXIT_BAD_DOCUMENT
    assert "character reference &#xZZ;" in capsys.readouterr().err


def test_exit_codes_are_distinct_and_stable():
    """The code ↔ error-class mapping is a contract (mirrored by the
    server's HTTP statuses); UnknownDocumentError must map to the
    document code even though it subclasses EvaluationError."""
    from repro.errors import (
        EvaluationError,
        ServerSaturatedError,
        UnknownDocumentError,
        XMLParseError,
        XQueryParseError,
    )
    assert (EXIT_BAD_QUERY, EXIT_BAD_DOCUMENT,
            EXIT_SERVER_SATURATED) == (2, 3, 4)
    assert exit_code_for(XQueryParseError("x")) == EXIT_BAD_QUERY
    assert exit_code_for(EvaluationError("x")) == EXIT_BAD_QUERY
    assert exit_code_for(UnknownDocumentError("x", [])) \
        == EXIT_BAD_DOCUMENT
    assert exit_code_for(XMLParseError("x")) == EXIT_BAD_DOCUMENT
    assert exit_code_for(ServerSaturatedError(4, 16)) \
        == EXIT_SERVER_SATURATED
    assert exit_code_for(RuntimeError("x")) == 1
