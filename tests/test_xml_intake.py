"""XML text straight into arena columns.

- Differential: a generated builder tree, written out in varied but
  equivalent spellings (entities, character references, CDATA,
  comments, PIs, both attribute quotes, whitespace inside tags,
  whitespace-only text), parses to exactly the columns
  ``Arena.from_tree`` encodes the tree into, and serializes the same.
  Text rows follow the parser's rule: comments and PIs end a run of
  character data, a non-empty CDATA section is a row of its own, an
  empty one splits nothing.
- Fuzz: whatever text it is given, the parser returns or raises
  :class:`XMLParseError` with a position inside the text.
- Well-formedness: malformed character references, repeated
  attribute names, ``<`` in an attribute value and attributes with no
  whitespace between them are parse errors with the position; a
  DOCTYPE's brackets inside quoted literals and comments do not count.
- Normalization (XML 1.0 §2.11, §3.3.3): line ends become ``\n``, a
  literal tab or newline in an attribute value a space; written as
  character references they stay.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XMLParseError
from repro.xmldb.arena import Arena
from repro.xmldb.node import Node, NodeKind, element
from repro.xmldb.parser import parse_document
from repro.xmldb.serialize import serialize

NAMES = st.sampled_from(["a", "b", "item", "x1", "with-dash",
                         "with.dot", "_u", "n:s"])
TEXT_ALPHABET = ("abcXYZ012 &<>\"']\n\t\r"
                 "äπ—\U0001d11e")
TEXTS = st.text(alphabet=TEXT_ALPHABET, min_size=1, max_size=10)
WHITESPACE = st.text(alphabet=" \t\n", min_size=1, max_size=3)
ATTR_VALUES = st.text(alphabet=TEXT_ALPHABET, max_size=10)

COLUMNS = ("kinds", "name_ids", "names", "texts", "posts", "levels",
           "parents", "ends", "child_counts", "_tag_pres", "_elem_pres",
           "_text_pres", "_name_to_id")


@st.composite
def trees(draw, depth: int = 3) -> Node:
    """A builder tree made with :func:`element` — no empty text."""
    attrs = {name: draw(ATTR_VALUES)
             for name in draw(st.lists(NAMES, unique=True, max_size=3))}
    children = []
    if depth > 0:
        children = draw(st.lists(
            st.one_of(TEXTS, WHITESPACE, trees(depth=depth - 1)),
            max_size=4))
    node = element(draw(NAMES), *children)
    for name, value in attrs.items():
        node.set_attribute(name, value)
    return node


NAMED = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
         "'": "&apos;"}


def _escaped(draw, text: str, quote: str | None = None) -> str:
    """``text`` as character data (or as an attribute value between
    ``quote``s), each character in a spelling the draw picks.  A
    character the parser normalizes — a carriage return, and a tab or
    newline in an attribute value — is only ever a reference."""
    normalized = "\r" if quote is None else "\r\t\n"
    out = []
    for char in text:
        spellings = [f"&#{ord(char)};", f"&#x{ord(char):x};",
                     f"&#X{ord(char):04X};"]
        if char in NAMED:
            spellings.append(NAMED[char])
        if char not in "&<" and char != quote and char not in normalized:
            spellings += [char, char, char]
        out.append(draw(st.sampled_from(spellings)))
        if quote is None and draw(st.integers(0, 9)) == 0:
            out.append("<![CDATA[]]>")      # splits nothing
    return "".join(out)


def _misc(draw) -> str:
    """Markup that adds no row: a comment or a processing instruction."""
    return draw(st.sampled_from(["<!-- note -->", "<!---->",
                                 "<?pi some data?>", "<?x?>"]))


def _written(draw, node: Node) -> str:
    if node.kind is NodeKind.TEXT:
        text = node.text
        if "]]>" not in text and "\r" not in text \
                and draw(st.booleans()):
            return f"<![CDATA[{text}]]>"
        return _escaped(draw, text)
    parts = [f"<{node.name}"]
    for attr in node.attributes:
        quote = draw(st.sampled_from(["'", '"']))
        space = draw(st.sampled_from(["", " ", "\n"]))
        parts.append(f" {attr.name}{space}={space}{quote}"
                     f"{_escaped(draw, attr.text, quote)}{quote}")
    parts.append(draw(st.sampled_from(["", " ", "\t"])))
    children = list(node.children)
    if not children and draw(st.booleans()):
        parts.append("/>")
        return "".join(parts)
    parts.append(">")
    previous_escaped = False
    for child in children:
        written = _written(draw, child)
        escaped = child.kind is NodeKind.TEXT \
            and not written.startswith("<![CDATA[")
        # two escaped texts in a row would be one run: a comment or PI
        # must end the first
        if previous_escaped and escaped or draw(st.integers(0, 4)) == 0:
            parts.append(_misc(draw))
        parts.append(written)
        previous_escaped = escaped
    parts.append(f"</{node.name}{draw(st.sampled_from(['', ' ']))}>")
    return "".join(parts)


@st.composite
def spelled(draw) -> tuple[Node, str]:
    tree = draw(trees())
    prolog = draw(st.sampled_from(
        ["", '<?xml version="1.0"?>\n', "<!-- c -->",
         "<!DOCTYPE r [<!ELEMENT r ANY>]>\n"]))
    epilog = draw(st.sampled_from(["", "\n", "<!-- end -->\n", "<?pi?>"]))
    return tree, prolog + _written(draw, tree) + epilog


@settings(max_examples=150, deadline=None)
@given(spelled())
def test_parsed_columns_equal_the_encoded_builder_tree(case):
    tree, text = case
    parsed = parse_document(text).arena
    encoded = Arena.from_tree(tree)
    for column in COLUMNS:
        assert getattr(parsed, column) == getattr(encoded, column), column
    assert serialize(parsed.nodes[0]) == serialize(tree)


@pytest.mark.parametrize("text", [
    # the error inputs of test_xml_parser.py and test_errors.py
    "<a><b></a></b>", "<a><b>", "<a/><b/>", "<a x=1/>", "<a>&nope;</a>",
    "<a><b></a>", "<a>", "text only", "<a b=novalue></a>",
    "<a><a2/></a><b/>", "",
    # unterminated constructs, one each
    "<a><!-- x</a>", "<a><![CDATA[x</a>", "<a><?pi</a>", "<a x='1",
    "<!DOCTYPE a [ <a/>", "<a>&amp</a>", "<a", "</a>", "<a></a",
    # a name is required, and names keep their characters
    "<>", "<a><1/></a>", "<ab=\"1\"/>", "<a x y='1'/>", "<a x 'y'/>",
])
def test_malformed_input_raises_with_a_position(text):
    with pytest.raises(XMLParseError) as info:
        parse_document(text)
    assert 0 <= info.value.position <= len(text)


@pytest.mark.parametrize("text, at", [
    ("<a>&#xZZ;</a>", 3),
    ("<a>&#;</a>", 3),
    ("<a>&#99999999;</a>", 3),
    ("<a>x &#x110000;</a>", 5),
    ('<a b="&#x110000;"/>', 6),
    ("<r><a b='ok &#xD800;'/></r>", 12),
    ("<a>&#0;</a>", 3),
    ("<a>&#" + "9" * 5000 + ";</a>", 3),
    ("<a>&#-1;</a>", 3),
    ("<a>&#1_0;</a>", 3),
])
def test_malformed_character_reference_is_a_parse_error(text, at):
    with pytest.raises(XMLParseError, match="character reference") as info:
        parse_document(text)
    assert info.value.position == at


def test_character_references_to_the_edges_of_xml_characters():
    root = parse_document("<a>&#x10FFFF;&#xFFFD;&#9;&#x20;&#0065;</a>").root
    assert root.string_value() == "\U0010ffff\ufffd\t A"


def test_repeated_attribute_name_is_a_parse_error():
    """XML 1.0 WFC "Unique Att Spec": the arena would keep both rows,
    an ``@b`` step would see the first, serialization both."""
    text = '<r><a b="1" b="2"/></r>'
    with pytest.raises(XMLParseError, match="duplicate attribute") as info:
        parse_document(text)
    assert info.value.position == text.index('b="2"')
    assert parse_document('<r><a b="1" c="2"/><a b="3"/></r>').arena


_FUZZ_ALPHABET = "<>/!?-[]=\"'&#;xX:aAb1 \n"


@st.composite
def damaged(draw) -> str:
    """A well-formed document with a slice cut out or pasted in."""
    text = draw(spelled())[1]
    start = draw(st.integers(0, len(text)))
    stop = draw(st.integers(start, len(text)))
    paste = draw(st.text(alphabet=_FUZZ_ALPHABET, max_size=4))
    return text[:start] + paste + text[stop:]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=_FUZZ_ALPHABET), damaged()))
def test_arbitrary_text_parses_or_raises_a_positioned_parse_error(text):
    try:
        result = parse_document(text)
    except XMLParseError as exc:
        assert exc.position is not None
        assert 0 <= exc.position <= len(text)
    else:
        arena = result.arena
        assert arena.kinds[0] is NodeKind.ELEMENT
        assert arena.ends[0] == len(arena)


def test_line_ends_and_attribute_whitespace_are_normalized():
    """XML 1.0 §2.11 and §3.3.3: ``\r\n`` and a lone ``\r`` are one
    ``\n``, and a literal tab or newline in an attribute value is a
    space — written as character references, all three stay."""
    root = parse_document('<a b="x\ny\tz">\r\n<c d="1\r\n2"/>\r</a>').root
    assert root.attributes[0].text == "x y z"
    assert [node.text for node in root.children if node.text] \
        == ["\n", "\n"]
    assert root.children[1].attributes[0].text == "1 2"
    kept = parse_document('<a b="&#9;&#10;&#13;">&#13;\r\n</a>').root
    assert kept.attributes[0].text == "\t\n\r"
    assert kept.string_value() == "\r\n"
    # the serializer writes them as references, so they round-trip
    tree = element("a", "x\ry")
    tree.set_attribute("b", "\t\n\r")
    again = parse_document(serialize(tree)).root
    assert again.string_value() == "x\ry"
    assert again.attributes[0].text == "\t\n\r"


@pytest.mark.parametrize("text, problem, at", [
    ('<a b="<"/>', "'<' in an attribute value", 6),
    ("<r><a b='x<y'/></r>", "'<' in an attribute value", 10),
    ('<a c="1"d="2"/>', "whitespace before the attribute", 8),
    ("<a c='1'd='2'></a>", "whitespace before the attribute", 8),
])
def test_attribute_well_formedness(text, problem, at):
    """WFC: No < in Attribute Values, and production [40]: attributes
    are separated by whitespace."""
    with pytest.raises(XMLParseError, match=problem) as info:
        parse_document(text)
    assert info.value.position == at
    assert parse_document('<a b="&lt;" c="1"\nd="2"/>').root \
        .attributes[0].text == "<"


def test_doctype_brackets_inside_literals_and_comments_do_not_count():
    result = parse_document('<!DOCTYPE a [<!ATTLIST a b CDATA "]">]><a/>')
    assert result.dtd_text == '<!ATTLIST a b CDATA "]">'
    text = ("<!DOCTYPE a [<!-- ] [ -->\n<!ELEMENT a ANY>"
            "<!ATTLIST a b CDATA '[['>]>\n<a b='1'/>")
    result = parse_document(text)
    assert result.dtd_text == ("<!-- ] [ -->\n<!ELEMENT a ANY>"
                               "<!ATTLIST a b CDATA '[['>")
    assert result.root.name == "a"
