"""Failure injection: every malformed input raises the library's error
types (all deriving from ReproError) with messages a user can act on."""

from __future__ import annotations

import pytest

from repro import Database, compile_query
from repro.errors import (
    DTDParseError,
    EvaluationError,
    ReproError,
    TranslationError,
    UnknownDocumentError,
    XMLParseError,
    XPathError,
    XQueryParseError,
)
from repro.xmldb.dtd import parse_dtd
from repro.xmldb.parser import parse_document
from repro.xpath.parser import parse_path
from repro.xquery.parser import parse_xquery


# ---------------------------------------------------------------------------
# XML parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "<a><b></a>",           # mismatched close tag
    "<a>",                  # unterminated
    "text only",            # no root element
    "<a b=novalue></a>",    # unquoted attribute
    "<a><a2/></a><b/>",     # two roots
    "",                     # empty input
])
def test_malformed_xml_raises(text):
    with pytest.raises(XMLParseError):
        parse_document(text)


def test_xml_error_carries_position():
    with pytest.raises(XMLParseError) as info:
        parse_document("<a><b></a>")
    assert "character" in str(info.value)


def test_xml_error_is_repro_error():
    with pytest.raises(ReproError):
        parse_document("<a>")


# ---------------------------------------------------------------------------
# DTD parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "<!ELEMENT a>",                 # missing content model
    "<!ELEMENT a (b,  >",           # unterminated group
    "<!ELEMENT a (b | c, d)>",      # mixed separators
    "<!NOTATION x SYSTEM 'y'>",     # unsupported declaration
    "<!ATTLIST a>",                 # truncated attlist
])
def test_malformed_dtd_raises(text):
    with pytest.raises(DTDParseError):
        parse_dtd(text)


# ---------------------------------------------------------------------------
# XPath parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "//",            # dangling descendant step
    "book/",         # trailing slash
    "book[",         # unterminated predicate
    "",              # empty
    "book@year",     # @ without step separator
    "//b[c = 5-3]",  # arithmetic is not a literal
    "//b[c = +]",    # a sign alone
    "//b[c = -]",
    "//b[c = 1.2.3]",  # two dots
    "//b[c = ٣]",    # a digit of another script
])
def test_malformed_xpath_raises(text):
    with pytest.raises((XPathError, ReproError)):
        parse_path(text)


# ---------------------------------------------------------------------------
# XQuery parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "for $x in",                          # truncated FLWR
    "let $x := 1",                        # let without return
    "for x in doc('a') return x",         # variable without $
    "some $x in (1,2) return $x",         # quantifier without satisfies
    "for $x in doc('a.xml') return <a>",  # unterminated constructor
    "",                                   # empty query
    "1.2.3",                              # two dots in a number
    "²",                                  # a superscript is no digit
    "٣",                                  # nor an Arabic-Indic digit
    "for $x in doc('a.xml')//b where $x/c = 1..2 return $x",
])
def test_malformed_xquery_raises(text):
    with pytest.raises(XQueryParseError):
        parse_xquery(text)


@pytest.mark.parametrize("text", ["1.2.3", "²"])
def test_malformed_number_error_carries_location(text):
    with pytest.raises(XQueryParseError) as info:
        parse_xquery(text)
    assert "column 1" in str(info.value)


@pytest.mark.parametrize("text, value", [
    ("5", 5), ("5.", 5.0), ("5.25", 5.25), ("007", 7)])
def test_numeric_literals_are_ascii_digits_with_one_dot(text, value):
    literal = parse_xquery(text)
    assert literal.value == value
    assert type(literal.value) is type(value)


def test_malformed_number_in_xpath_names_its_position():
    with pytest.raises(XPathError) as info:
        parse_path("//b[c = 1.2.3]")
    assert "position 8" in str(info.value)


def test_xquery_error_carries_location():
    with pytest.raises(XQueryParseError) as info:
        parse_xquery("for $x in\nreturn $x")
    assert "line" in str(info.value)


# ---------------------------------------------------------------------------
# Translation & evaluation
# ---------------------------------------------------------------------------

def _tiny_db() -> Database:
    db = Database()
    db.register_text("a.xml", "<r><x>1</x><x>2</x></r>",
                     dtd_text="<!ELEMENT r (x*)>\n<!ELEMENT x (#PCDATA)>")
    return db


def test_unknown_function_raises():
    db = _tiny_db()
    with pytest.raises((TranslationError, EvaluationError)):
        query = compile_query(
            'for $x in doc("a.xml")//x return frobnicate($x)', db)
        db.execute(query.plan)


def test_unknown_document_raises():
    db = _tiny_db()
    query = compile_query('for $x in doc("missing.xml")//x return $x', db)
    with pytest.raises(UnknownDocumentError) as info:
        db.execute(query.plan)
    assert "a.xml" in str(info.value)


def test_unknown_document_error_lists_known():
    with pytest.raises(UnknownDocumentError) as info:
        raise UnknownDocumentError("b.xml", ["a.xml", "c.xml"])
    assert "a.xml, c.xml" in str(info.value)


def test_unbound_variable_raises():
    db = _tiny_db()
    with pytest.raises((XQueryParseError, TranslationError,
                        EvaluationError)):
        query = compile_query(
            'for $x in doc("a.xml")//x return $undefined', db)
        db.execute(query.plan)


def test_duplicate_document_registration_raises():
    db = _tiny_db()
    with pytest.raises(ReproError):
        db.register_text("a.xml", "<r/>")


@pytest.mark.parametrize("text", [
    "<r>&#xZZ;</r>", "<r>&#;</r>", "<r>&#99999999;</r>",
    '<r><a b="&#x110000;"/></r>', '<r><a b="1" b="2"/></r>',
])
def test_bad_reference_or_attribute_fails_registration(text):
    db = Database()
    with pytest.raises(XMLParseError) as info:
        db.register_text("bad.xml", text)
    assert 0 <= info.value.position < len(text)
    assert "bad.xml" not in db.store


def test_errors_share_base_class():
    for exc_type in (XMLParseError, DTDParseError, XPathError,
                     XQueryParseError, TranslationError,
                     EvaluationError, UnknownDocumentError):
        assert issubclass(exc_type, ReproError)
