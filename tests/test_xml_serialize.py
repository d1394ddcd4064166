"""Serialization round-trips and escaping."""

from hypothesis import given, settings

from repro.xmldb.document import DocumentStore
from repro.xmldb.node import element
from repro.xmldb.parser import parse_document
from repro.xmldb.serialize import serialize
from tests.test_xml_roundtrip import trees


def test_roundtrip_simple():
    text = "<a><b>x</b><c>y</c></a>"
    assert serialize(parse_document(text).root) == text


def test_roundtrip_attributes():
    text = '<a k="v"><b>x</b></a>'
    assert serialize(parse_document(text).root) == text


def test_escaping_text():
    root = element("a", "x < y & z")
    assert serialize(root) == "<a>x &lt; y &amp; z</a>"


def test_escaping_attribute():
    root = element("a", q='say "hi" & go')
    assert serialize(root) == '<a q="say &quot;hi&quot; &amp; go"/>'


def test_empty_element_self_closes():
    assert serialize(element("a")) == "<a/>"


def test_pretty_print_indents():
    root = element("a", element("b", "x"), element("c"))
    pretty = serialize(root, indent=2)
    assert "\n  <b>x</b>\n" in pretty


def test_entity_roundtrip():
    text = "<a>x &amp; y</a>"
    root = parse_document(text).root
    assert serialize(root) == text


def test_builder_helper_shapes():
    book = element("book", element("title", "T"), year="1999")
    assert book.attribute("year").text == "1999"
    assert book.child_elements("title")[0].string_value() == "T"


# ----------------------------------------------------------------------
# Frozen nodes serialize off the arena columns
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(trees())
def test_column_serializer_matches_the_pointer_walk(tree):
    """Compact serialization of a registered node reads the arena's row
    interval; it must be byte-identical to the builder-tree walk for
    every subtree — elements, attributes, text, empty elements and
    mixed content alike — and so must the pretty-printed form, whose
    compact subtrees take the same row walk."""
    walked = []
    stack = [tree]
    while stack:
        node = stack.pop()
        walked.append((node, serialize(node), serialize(node, indent=2)))
        stack.extend(node.attributes)
        stack.extend(node.children)
    document = DocumentStore().register_tree("t.xml", tree)
    for node, text, pretty in walked:
        assert node.arena is document.arena
        assert serialize(node) == text
        assert serialize(node, indent=2) == pretty
