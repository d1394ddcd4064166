"""A small, from-scratch, non-validating XML parser that fills arena
columns.

The parser covers the XML subset the paper's documents use:

- elements with attributes (single- or double-quoted values; an
  attribute name may occur once per element),
- character data with the five predefined entities
  (``&amp; &lt; &gt; &quot; &apos;``) and decimal/hex character references
  (which must name a character XML allows),
- comments (``<!-- ... -->``), processing instructions, an XML declaration,
  and an (ignored-for-structure) internal DOCTYPE — the DTD text is captured
  so :mod:`repro.xmldb.dtd` can parse it,
- CDATA sections.

It intentionally does *not* implement namespaces or external entities; the
use-case documents need neither.  Errors raise :class:`XMLParseError` with a
character position.

Line ends are normalized first (XML 1.0 §2.11: ``\r\n`` and a lone
``\r`` become ``\n``), and so is each attribute value (§3.3.3, every
attribute read as CDATA: a literal tab or newline becomes a space; one
written as a character reference stays).  Both are C-speed ``str``
replacements; an error position counts in the line-normalized text.

One compiled alternation (:data:`_TOKEN`) matches the next token — a
start tag with its attribute run, an end tag, a comment, a CDATA
section, a PI or a run of character data — and each token is appended
straight to the row columns of an :class:`~repro.xmldb.arena.Arena`
(the pre/post interval table of the "XPath Accelerator", filled in one
pass over the tokens as MonetDB/XQuery's shredder does): no ``Node``
is built and no second walk numbers the rows.  Rows come out exactly
as :meth:`~repro.xmldb.arena.Arena.from_tree` numbers a builder tree:
an element, then its attributes, then its children.  A text row holds
the character data between two pieces of markup, entities decoded; a
non-empty CDATA section is a text row of its own, an empty one splits
nothing.
"""

from __future__ import annotations

import re
import sys

from repro.errors import XMLParseError
from repro.xmldb.arena import Arena
from repro.xmldb.node import Node, NodeKind

_PREDEFINED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

_WS = "[ \t\r\n]"
#: the lookahead keeps a name from giving characters back, so
#: ``<ab="1">`` cannot be read as ``<a b="1">``
_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*(?![A-Za-z0-9_:.\-])"
#: a quoted value holds no ``<`` (WFC: No < in Attribute Values)
_ATTRIBUTE = rf"({_NAME}){_WS}*={_WS}*(?:\"([^\"<]*)\"|'([^'<]*)')"
_ANY_ATTRIBUTE = rf"{_NAME}{_WS}*={_WS}*(?:\"[^\"<]*\"|'[^'<]*')"

#: the next token of element content; ``lastindex`` tells which:
#: 1 character data, 4 start tag (2 name, 3 attribute run, 4 ``/`` of
#: an empty-element tag), 5 end tag, 6 CDATA, None comment or PI
_TOKEN = re.compile(
    r"([^<]+)"
    rf"|<({_NAME})((?:{_WS}+{_ANY_ATTRIBUTE})*)"
    rf"{_WS}*(/?)>"
    rf"|</({_NAME}){_WS}*>"
    r"|<!--.*?-->"
    r"|<!\[CDATA\[(.*?)\]\]>"
    r"|<\?.*?\?>", re.S)
_ATTRIBUTES = re.compile(_ATTRIBUTE)
#: the well-formed beginnings :func:`_diagnose` measures a bad tag by
_START_TAG_HEAD = re.compile(
    rf"<{_NAME}(?:{_WS}+{_ANY_ATTRIBUTE})*{_WS}*")
_ATTRIBUTE_HEAD = re.compile(rf"{_NAME}{_WS}*(=?){_WS}*")
_END_TAG_HEAD = re.compile(rf"</{_NAME}{_WS}*")
#: what may surround the document element: whitespace, comments, PIs
_MISC = re.compile(rf"(?:{_WS}+|<!--.*?-->|<\?.*?\?>)*", re.S)
#: a bracket or ``>`` of the DOCTYPE — or a quoted literal, comment or
#: PI, whose brackets do not count
_DOCTYPE_MARKS = re.compile(
    r"[\[\]>]|\"[^\"]*\"|'[^']*'|<!--.*?-->|<\?.*?\?>", re.S)
_CHARACTER_REFERENCE = re.compile(r"#(?:[xX]([0-9a-fA-F]+)|([0-9]+))")


class ParseResult:
    """Outcome of :func:`parse_document`: the document's arena (owned
    by no document until a store adopts it) plus the raw internal-DTD
    text (if a DOCTYPE with an internal subset was present)."""

    __slots__ = ("arena", "dtd_text")

    def __init__(self, arena: Arena, dtd_text: str | None):
        self.arena = arena
        self.dtd_text = dtd_text

    @property
    def root(self) -> Node:
        """The document element, a frozen handle into :attr:`arena`."""
        return self.arena.nodes[0]


def parse_document(text: str) -> ParseResult:
    """Parse an XML document into arena columns.

    Raises :class:`XMLParseError` on malformed input.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    pos, dtd_text = _prolog(text)
    arena, pos = _parse_element(text, pos)
    end = _MISC.match(text, pos).end()
    if end != len(text):
        raise XMLParseError("content after document element", end)
    return ParseResult(arena, dtd_text)


def _prolog(text: str) -> tuple[int, str | None]:
    """Skip the XML declaration, comments, PIs and DOCTYPE.

    Returns where the document element should start, and the internal
    DTD subset text when a DOCTYPE with ``[...]`` is present (the
    use-case documents inline their DTDs this way in the paper's
    Fig. 5), otherwise ``None``.
    """
    pos, dtd_text = 0, None
    while True:
        pos = _MISC.match(text, pos).end()
        if not text.startswith("<!DOCTYPE", pos):
            return pos, dtd_text
        depth = 0
        internal_start = None
        dtd_text = None
        for mark in _DOCTYPE_MARKS.finditer(text, pos + 9):
            char, at = mark.group(), mark.start()
            if len(char) > 1:
                continue
            if char == "[":
                depth += 1
                if depth == 1:
                    internal_start = at + 1
            elif char == "]":
                depth -= 1
                if depth == 0 and internal_start is not None:
                    dtd_text = text[internal_start:at]
            elif depth == 0:
                pos = at + 1
                break
        else:
            raise XMLParseError("unterminated DOCTYPE", len(text))


def _parse_element(text: str, pos: int) -> tuple[Arena, int]:
    """The element starting at ``pos`` as an arena, and the position
    after its end tag."""
    match = _TOKEN.match
    element, text_kind = NodeKind.ELEMENT, NodeKind.TEXT
    kinds: list[NodeKind] = []
    name_ids: list[int] = []
    texts: list[str | None] = []
    levels: list[int] = []
    parents: list[int] = []
    ends: list[int] = []
    child_counts: list[int] = []
    names: list[str] = []
    name_to_id: dict[str, int] = {}
    #: open elements, innermost last
    stack: list[int] = []
    parent = -1
    #: character data not yet written as a row (an empty CDATA
    #: section does not end a run), and where it starts
    pending: str | None = None
    pending_at = 0

    def name_id(name: str) -> int:
        found = name_to_id.get(name)
        if found is None:
            name = sys.intern(name)
            found = name_to_id[name] = len(names)
            names.append(name)
        return found

    def text_row(value: str, parent: int) -> None:
        kinds.append(text_kind)
        name_ids.append(-1)
        texts.append(value)
        levels.append(len(stack))
        parents.append(parent)
        ends.append(len(kinds))
        child_counts.append(0)
        child_counts[parent] += 1

    token = match(text, pos)
    if token is None or token.lastindex != 4:
        raise _diagnose(text, pos, None)
    while True:
        which = token.lastindex
        if which == 1:
            if pending is None:
                pending, pending_at = token.group(1), pos
            else:
                pending += token.group(1)
        elif which != 6 or token.group(6):
            if pending is not None:
                text_row(decode_references(pending, pending_at)
                         if "&" in pending else pending, parent)
                pending = None
            if which == 4:
                pre = len(kinds)
                kinds.append(element)
                name_ids.append(name_id(token.group(2)))
                texts.append(None)
                level = len(stack)
                levels.append(level)
                parents.append(parent)
                ends.append(pre + 1)
                child_counts.append(0)
                if stack:
                    child_counts[parent] += 1
                run = token.group(3)
                if run:
                    _attributes(run, token.start(3), pre, level + 1,
                                kinds, name_ids, texts, levels, parents,
                                ends, child_counts, name_id)
                if token.group(4):
                    if not stack:
                        break
                else:
                    stack.append(pre)
                    parent = pre
            elif which == 5:
                name = token.group(5)
                if name != names[name_ids[parent]]:
                    raise XMLParseError(
                        f"mismatched end tag </{name}> for "
                        f"<{names[name_ids[parent]]}>", token.end(5))
                ends[stack.pop()] = len(kinds)
                if not stack:
                    break
                parent = stack[-1]
            elif which == 6:
                text_row(token.group(6), parent)
        pos = token.end()
        token = match(text, pos)
        if token is None:
            raise _diagnose(text, pos, names[name_ids[parent]])
    arena = Arena.from_columns(
        kinds=kinds, name_ids=name_ids, texts=texts, levels=levels,
        parents=parents, ends=ends, child_counts=child_counts,
        names=names, name_to_id=name_to_id)
    return arena, token.end()


def _attributes(run: str, at: int, owner: int, level: int, kinds,
                name_ids, texts, levels, parents, ends, child_counts,
                name_id) -> None:
    """Append the attribute rows of the start tag whose attribute run
    (``run``, starting at text position ``at``) the token matched."""
    seen: set[str] = set()
    for found in _ATTRIBUTES.finditer(run):
        name, value = found.group(1), found.group(2)
        if name in seen:
            raise XMLParseError(f"duplicate attribute {name!r}",
                                at + found.start())
        seen.add(name)
        if value is None:
            value = found.group(3)
        # (line-end normalization left no ``\r``)
        value = value.replace("\t", " ").replace("\n", " ")
        if "&" in value:
            value = decode_references(value, at + found.end() - 1
                                      - len(value))
        kinds.append(NodeKind.ATTRIBUTE)
        name_ids.append(name_id(name))
        texts.append(value)
        levels.append(level)
        parents.append(owner)
        ends.append(len(kinds))
        child_counts.append(0)
    ends[owner] = len(kinds)


def decode_references(raw: str, position: int) -> str:
    """Replace entity and character references in ``raw`` (which
    starts at text position ``position``) — XML text and attribute
    values here, XQuery string literals in :mod:`repro.xquery.lexer`."""
    parts = raw.split("&")
    out = [parts[0]]
    at = position + len(parts[0])
    for part in parts[1:]:
        end = part.find(";")
        if end < 0:
            raise XMLParseError("unterminated entity reference", at)
        name = part[:end]
        value = _PREDEFINED_ENTITIES.get(name)
        if value is None:
            value = _character(name, at)
        out.append(value)
        out.append(part[end + 1:])
        at += len(part) + 1
    return "".join(out)


def _character(name: str, position: int) -> str:
    """The character a ``&#…;`` reference names — it must be one XML
    allows (production [2] ``Char``)."""
    found = _CHARACTER_REFERENCE.fullmatch(name)
    if found is None:
        if name.startswith("#"):
            raise XMLParseError(f"malformed character reference &{name};",
                                position)
        raise XMLParseError(f"unknown entity &{name};", position)
    hex_digits, digits = found.groups()
    # seven significant decimal digits exceed every code point (and
    # keep int() inside its digit limit)
    code = int(hex_digits, 16) if hex_digits is not None \
        else int(digits) if len(digits.lstrip("0")) <= 7 else -1
    if code in (0x9, 0xA, 0xD) or 0x20 <= code <= 0xD7FF \
            or 0xE000 <= code <= 0xFFFD or 0x10000 <= code <= 0x10FFFF:
        return chr(code)
    raise XMLParseError(f"character reference &{name}; names no XML "
                        f"character", position)


def _diagnose(text: str, pos: int, open_name: str | None
              ) -> XMLParseError:
    """Why no token matches at ``pos`` (``open_name`` is the innermost
    open element, None before the document element)."""
    if open_name is None:
        if not text.startswith("<", pos) \
                or text.startswith(("</", "<!", "<?"), pos):
            return XMLParseError("expected the document element", pos)
    elif pos == len(text):
        return XMLParseError(f"unterminated element <{open_name}>", pos)
    else:
        for opener, closer in (("<!--", "-->"), ("<![CDATA[", "]]>"),
                               ("<?", "?>")):
            if text.startswith(opener, pos):
                return XMLParseError(f"unterminated construct, expected "
                                     f"{closer!r}", pos + len(opener))
        if text.startswith("</", pos):
            end = _END_TAG_HEAD.match(text, pos)
            if end is None:
                return XMLParseError("expected a name", pos + 2)
            return XMLParseError("expected '>'", end.end())
    # a start tag: its well-formed head, then the piece that is wrong
    head = _START_TAG_HEAD.match(text, pos)
    if head is None:
        return XMLParseError("expected a name", pos + 1)
    at = head.end()
    attribute = _ATTRIBUTE_HEAD.match(text, at)
    if at == len(text):
        problem = "unterminated start tag"
    elif attribute is None:
        problem = "expected '>' or an attribute name"
    elif text[at - 1] in "'\"":
        problem = "expected whitespace before the attribute"
    else:
        at = attribute.end()
        quote = text[at:at + 1]
        if not attribute.group(1):
            problem = "expected '='"
        elif quote not in ("'", '"'):
            problem = "attribute value must be quoted"
        else:
            close = text.find(quote, at + 1)
            less = text.find("<", at + 1,
                             len(text) if close < 0 else close)
            if less >= 0:
                problem, at = "'<' in an attribute value", less
            else:
                problem = "unterminated attribute value"
    return XMLParseError(problem, at)
