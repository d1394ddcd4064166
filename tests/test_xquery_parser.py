"""XQuery parser unit tests."""

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, compile_query
from repro.engine.executor import MODES
from repro.errors import XQueryParseError
from repro.xquery import ast
from repro.xquery.lexer import query_shape
from repro.xquery.parser import parse_query, parse_xquery

#: ``repr(ast)`` and the slots of every XQuery text in
#: ``repro.bench.queries``, the ledger's templates, ``examples/``, the
#: docs and the tests, and ``(type, line, column)`` of every malformed
#: one — recorded from the character-cursor parser the token stream
#: replaced, plus hand-written inputs for the error paths
GOLDEN = json.loads((pathlib.Path(__file__).parent / "data"
                     / "xquery_golden.json").read_text(encoding="utf-8"))


def test_let_for_return():
    q = parse_xquery('let $d := doc("b.xml") for $x in $d//a return $x')
    assert isinstance(q, ast.FLWR)
    assert isinstance(q.clauses[0], ast.LetClause)
    assert isinstance(q.clauses[0].expr, ast.DocCall)
    assert isinstance(q.clauses[1], ast.ForClause)
    assert q.where is None
    assert q.ret == ast.VarRef("x")


def test_multiple_for_bindings():
    q = parse_xquery("for $a in $x//p, $b in $a/q return $b")
    assert len(q.clauses) == 2
    assert q.clauses[1].var == "b"


def test_where_comparison():
    q = parse_xquery("for $a in $x//p where $a = 3 return $a")
    assert isinstance(q.where, ast.Comparison)
    assert q.where.op == "="
    assert q.where.right == ast.Literal(3)


def test_boolean_ops_precedence():
    q = parse_xquery(
        "for $a in $x//p where $a = 1 and $a = 2 or $a = 3 return $a")
    assert isinstance(q.where, ast.BoolOp)
    assert q.where.op == "or"
    assert q.where.terms[0].op == "and"


def test_quantifier_some():
    q = parse_xquery(
        "for $a in $x//p where some $t in $y//q satisfies $a = $t "
        "return $a")
    quant = q.where
    assert isinstance(quant, ast.Quantified)
    assert quant.kind == "some"
    assert quant.var == "t"


def test_quantifier_every():
    q = parse_xquery(
        'for $a in $x//p where every $b in doc("b.xml")//c '
        "satisfies $b/@y > 1993 return $a")
    assert q.where.kind == "every"
    pred = q.where.pred
    assert isinstance(pred, ast.Comparison)
    assert pred.left.path.steps[0].axis == "attribute"


def test_function_calls():
    q = parse_xquery("for $a in distinct-values($x//p) "
                     "where count($a) >= 3 return $a")
    assert q.clauses[0].source.name == "distinct-values"
    assert q.where.left == ast.FuncCall("count", (ast.VarRef("a"),))
    assert q.where.op == ">="


def test_doc_and_document_aliases():
    q1 = parse_xquery('for $x in doc("a.xml")//p return $x')
    q2 = parse_xquery('for $x in document("a.xml")//p return $x')
    assert q1.clauses[0].source.source == ast.DocCall("a.xml")
    assert q2.clauses[0].source.source == ast.DocCall("a.xml")


def test_doc_requires_string_literal():
    with pytest.raises(XQueryParseError):
        parse_xquery("for $x in doc($v)//p return $x")


def test_path_predicate_with_variable_is_opaque():
    from repro.xpath.ast import OpaquePredicate
    q = parse_xquery("for $b in $d/book[$a = author] return $b")
    pred = q.clauses[0].source.path.steps[0].predicates[0]
    assert isinstance(pred, OpaquePredicate)


def test_path_predicate_selfcontained_is_classified():
    from repro.xpath.ast import ComparisonPredicate
    q = parse_xquery("for $b in $d/book[@year > 1993] return $b")
    pred = q.clauses[0].source.path.steps[0].predicates[0]
    assert isinstance(pred, ComparisonPredicate)


def test_element_constructor():
    q = parse_xquery("for $a in $x//p return <r><v> { $a } </v></r>")
    ctor = q.ret
    assert isinstance(ctor, ast.ElementCtor)
    assert ctor.name == "r"
    inner = ctor.content[0]
    assert isinstance(inner, ast.ElementCtor)
    assert isinstance(inner.content[0], ast.ExprPart)


def test_constructor_attribute_with_embedded_expr():
    q = parse_xquery(
        'for $t in $x//t return <m title="{ $t }"><p>y</p></m>')
    name, parts = q.ret.attributes[0]
    assert name == "title"
    assert isinstance(parts[0], ast.ExprPart)


def test_empty_element_constructor():
    q = parse_xquery("for $a in $x//p return <done/>")
    assert q.ret == ast.ElementCtor("done", (), ())


def test_comments_are_skipped():
    q = parse_xquery(
        "(: header :) for $a in $x//p (: mid :) return $a")
    assert isinstance(q, ast.FLWR)


def test_nested_flwr_in_let():
    q = parse_xquery(
        "let $t := (for $b in $x//b return $b) for $a in $x//a return $a")
    assert isinstance(q.clauses[0].expr, ast.FLWR)


def test_parse_error_has_location():
    with pytest.raises(XQueryParseError) as exc_info:
        parse_xquery("for $a in return $a")
    assert exc_info.value.line is not None


def test_trailing_garbage_rejected():
    with pytest.raises(XQueryParseError):
        parse_xquery("for $a in $x//p return $a extra")


def test_mismatched_constructor_rejected():
    with pytest.raises(XQueryParseError):
        parse_xquery("for $a in $x//p return <r></s>")


def test_exists_call_in_where():
    q = parse_xquery(
        "for $a in $x//p where exists(for $b in $x//q where $a = $b "
        "return $b) return $a")
    assert q.where.name == "exists"
    assert isinstance(q.where.args[0], ast.FLWR)


def test_string_roundtrip_smoke():
    text = 'for $a in distinct-values($d//author) return <r>{ $a }</r>'
    q = parse_xquery(text)
    assert "distinct-values" in str(q)
    assert "<r>" in str(q)


def test_golden_asts_slots_and_error_positions():
    wrong = []
    for record in GOLDEN:
        try:
            tree, slots = parse_query(record["text"])
            got = {"ast": repr(tree),
                   "slots": [[slot.start, slot.end, repr(slot.value)]
                             for slot in slots]}
        except XQueryParseError as exc:
            got = {"error": [type(exc).__name__, exc.line, exc.column]}
        want = {key: record[key] for key in ("ast", "slots", "error")
                if key in record}
        if got != want:
            wrong.append((record["source"], record["text"]))
    assert len(GOLDEN) > 300 and not wrong


def test_query_shape_spans_are_the_parser_slot_spans():
    """The pre-scan finds exactly the literals the parser reads as
    values: none in comments, constructor content or attribute values,
    nor a document name, on every recorded text that parses."""
    parsed = [record for record in GOLDEN if "error" not in record]
    for record in parsed:
        spans = tuple((start, end) for start, end, _ in record["slots"])
        assert query_shape(record["text"]).spans == spans, record["text"]
    assert len(parsed) > 250


# ----------------------------------------------------------------------
# Whitespace and comments between tokens
# ----------------------------------------------------------------------
#: queries as token lists; a piece holding raw constructor text (or
#: ``text()``) takes no separator inside it
TOKENIZED = [
    ["let", "$d", ":=", "doc", "(", '"bib.xml"', ")", "for", "$", "b",
     "in", "$d", "//", "book", "[", "@", "year", ">=", "1990", "]", ",",
     "$a", "in", "$b", "/", "author", "where", "some", "$t", "in",
     "$b", "/", "title", "/", "text()", "satisfies", "$t", "=", "$a",
     "and", "(", "$b", "/", "@", "*", "!=", "5.", "or", "not", "(",
     "$a", "<", "'x''y'", ")", ")", "order", "by", "$a", "descending",
     ",", "$b", "return", '<r n="{', "$a", '}">{', "$b", "/", "title",
     "}</r>"],
    ["every", "$x", "in", "collection", "(", "'s-*.xml'", ")", "//",
     "item", "[", "price", "<=", "10", "]", "satisfies", "count", "(",
     "$x", "//", "bid", ")", ">", "2", "and", "exists", "(", "for",
     "$y", "in", "$x", "/", "bid", "let", "$z", ":=", '"a&amp;b"',
     "where", "$y", "=", "$z", "stable", "order", "by", "$y",
     "ascending", "return", "<e><f>{", "$y", "}</f>{{<![CDATA[<>]]>}}</e>",
     ")"],
]
SEPARATORS = [" ", "\n", "\t", "\r\n  ", "(: c :)", " (: a (: b :) :) ",
              "(::)"]


@pytest.mark.parametrize("pieces", TOKENIZED)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_whitespace_and_comments_between_tokens_change_nothing(pieces,
                                                                data):
    separators = data.draw(st.lists(st.sampled_from(SEPARATORS),
                                    min_size=len(pieces) + 1,
                                    max_size=len(pieces) + 1))
    text = "".join(sep + piece for sep, piece in zip(separators, pieces))
    expected, expected_slots = parse_query(" ".join(pieces))
    tree, slots = parse_query(text + separators[-1])
    assert repr(tree) == repr(expected)
    assert [slot.value for slot in slots] == \
        [slot.value for slot in expected_slots]
    for slot in slots:
        assert text[slot.start] in "\"'0123456789"


# ----------------------------------------------------------------------
# Escapes: string literals (XQuery 1.0 §A.2.1) and direct constructors
# (§3.7.1.3)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("literal, value", [
    ('"it""s"', 'it"s'), ("'it''s'", "it's"), ("\"it''s\"", "it''s"),
    ('"a&amp;b"', "a&b"), ('"&lt;&gt;&quot;&apos;"', "<>\"'"),
    ('"&#65;&#x42;&#x1F600;"', "AB\U0001F600"), ('""""', '"'),
    ('"&amp;amp;"', "&amp;"), ('"&quot;&quot;"', '""'),
])
def test_string_literals_decode_their_escapes(literal, value):
    tree, slots = parse_query(f"for $x in $d//b where $x = {literal} "
                              f"return $x")
    assert tree.where.right.value == value
    assert [slot.value for slot in slots] == [value]


@pytest.mark.parametrize("text, column", [
    ('"a&b"', 3), ('"a&foo;"', 3), ('"x&#0;"', 3), ('"&#xD800;"', 2),
    ('"a""b""c&;"', 9), ("<r>}</r>", 4), ('<r a="x}"/>', 8),
    ("<r><![CDATA[x</r>", 4),
])
def test_malformed_escapes_are_positioned_errors(text, column):
    with pytest.raises(XQueryParseError) as info:
        parse_query(text)
    assert (info.value.line, info.value.column) == (1, column)


def test_constructor_braces_and_cdata_are_text():
    ctor = parse_xquery('<r a="{{x}}">{{ y }}<![CDATA[<x>&]]>{ 1 }</r>')
    assert ctor.attributes == (("a", (ast.TextPart("{x}"),)),)
    assert ctor.content[0] == ast.TextPart("{ y }&lt;x&gt;&amp;")
    assert isinstance(ctor.content[1], ast.ExprPart)


def _escapes_db() -> Database:
    db = Database()
    db.register_text("e.xml", "<r><x><c>a&amp;b</c></x><x><c>it's</c>"
                     "</x><x><c>q\"q</c></x></r>")
    return db


@pytest.mark.parametrize("text, output", [
    ('for $x in doc("e.xml")//x where $x/c = "a&amp;b" return $x/c',
     "<c>a&amp;b</c>"),
    ("for $x in doc('e.xml')//x where $x/c = 'it''s' return $x/c",
     "<c>it's</c>"),
    ('for $x in doc("e.xml")//x where $x/c = "q""q" return $x/c',
     '<c>q"q</c>'),
    ('for $x in doc("e.xml")//x where $x/c = "a&#x26;b" '
     'return <r a="{{{ $x/c/text() }}}">{{ {$x/c/text()} }}'
     '<![CDATA[<y>&]]></r>',
     '<r a="{a&amp;b}">{ a&amp;b }&lt;y&gt;&amp;</r>'),
])
def test_escaped_queries_run_on_every_engine(text, output):
    db = _escapes_db()
    plan = compile_query(text, db).best().plan
    assert db.execute(plan).output == output
    assert db.execute(plan, mode="reference").output == output


@pytest.mark.parametrize("body, output", [
    ("{$d//x/text()} and {$d//x/text()}", "<r>12 and 12</r>"),
    ("<![CDATA[   ]]>{$d//x/text()}", "<r>   12</r>"),
    ("  {$d//c}  ", "<r><c>a&amp;b</c></r>"),
    ("\n  <c/>\n  ", "<r><c></c></r>"),
    ("\n  text\n", "<r>\n  text\n</r>"),
    ('<s a=" x {$d//c/text()} y "/>', '<r><s a=" x a&amp;b y "></s></r>'),
], ids=("between-expressions", "cdata", "boundary", "boundary-newlines",
        "text-with-newlines", "attribute"))
@pytest.mark.parametrize("mode", MODES)
def test_constructor_text_keeps_its_non_boundary_whitespace(body, output,
                                                            mode):
    """Only a run of whitespace alone between constructor boundaries is
    dropped (XQuery 1.0 §3.7.1.4): spaces next to other text, inside an
    attribute value or in a CDATA section are content."""
    db = Database()
    db.register_text("d.xml", "<r><x>1</x><x>2</x><c>a&amp;b</c></r>")
    query = f'let $d := doc("d.xml") return <r>{body}</r>'
    plan = compile_query(query, db).best().plan
    assert db.execute(plan, mode=mode).output == output
