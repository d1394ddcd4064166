"""Unit tests for the from-scratch XML parser."""

import pytest

from repro.errors import XMLParseError
from repro.xmldb.node import NodeKind
from repro.xmldb.parser import parse_document


def test_single_element():
    result = parse_document("<a/>")
    assert result.root.name == "a"
    assert list(result.root.children) == []


def test_text_content():
    root = parse_document("<a>hello</a>").root
    assert root.string_value() == "hello"


def test_nested_elements():
    root = parse_document("<a><b>x</b><c>y</c></a>").root
    assert [c.name for c in root.child_elements()] == ["b", "c"]
    assert root.string_value() == "xy"


def test_attributes_double_and_single_quotes():
    root = parse_document("""<a x="1" y='two'/>""").root
    assert root.attribute("x").text == "1"
    assert root.attribute("y").text == "two"


def test_entities_in_text():
    root = parse_document("<a>&lt;x&gt; &amp; &quot;y&quot;</a>").root
    assert root.string_value() == '<x> & "y"'


def test_character_references():
    root = parse_document("<a>&#65;&#x42;</a>").root
    assert root.string_value() == "AB"


def test_entities_in_attribute():
    root = parse_document('<a t="a&amp;b"/>').root
    assert root.attribute("t").text == "a&b"


def test_comment_skipped():
    root = parse_document("<a><!-- note -->x</a>").root
    assert root.string_value() == "x"


def test_cdata():
    root = parse_document("<a><![CDATA[<raw>&amp;]]></a>").root
    assert root.string_value() == "<raw>&amp;"


def test_xml_declaration_and_pi():
    text = '<?xml version="1.0"?><?pi data?><a/>'
    assert parse_document(text).root.name == "a"


def test_doctype_with_internal_dtd_captured():
    text = """<!DOCTYPE bib [
<!ELEMENT bib (book*)>
<!ELEMENT book (#PCDATA)>
]>
<bib><book>t</book></bib>"""
    result = parse_document(text)
    assert result.root.name == "bib"
    assert "<!ELEMENT bib (book*)>" in result.dtd_text


def test_doctype_without_internal_subset():
    result = parse_document('<!DOCTYPE a SYSTEM "a.dtd"><a/>')
    assert result.dtd_text is None


def test_document_order_keys_assigned():
    root = parse_document("<a><b/><c><d/></c></a>").root
    nodes = list(root.iter_descendants(include_self=True))
    keys = [n.order_key for n in nodes]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_whitespace_only_text_preserved_in_model():
    root = parse_document("<a> <b/> </a>").root
    kinds = [c.kind for c in root.children]
    assert NodeKind.ELEMENT in kinds


def test_mismatched_tags_rejected():
    with pytest.raises(XMLParseError):
        parse_document("<a><b></a></b>")


def test_unterminated_element_rejected():
    with pytest.raises(XMLParseError):
        parse_document("<a><b>")


def test_content_after_root_rejected():
    with pytest.raises(XMLParseError):
        parse_document("<a/><b/>")


def test_unquoted_attribute_rejected():
    with pytest.raises(XMLParseError):
        parse_document("<a x=1/>")


def test_unknown_entity_rejected():
    with pytest.raises(XMLParseError):
        parse_document("<a>&nope;</a>")


def test_error_carries_position():
    with pytest.raises(XMLParseError) as exc_info:
        parse_document("<a>&nope;</a>")
    assert exc_info.value.position is not None


def test_trailing_comment_allowed():
    assert parse_document("<a/><!-- done -->").root.name == "a"


def test_self_closing_with_attributes():
    root = parse_document('<a><b k="v"/></a>').root
    assert root.child_elements("b")[0].attribute("k").text == "v"
