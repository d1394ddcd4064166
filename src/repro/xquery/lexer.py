"""Token scanner for the XQuery parser, and the literal pre-scan.

:class:`Scanner` holds one lookahead token — kind, text, start and end
— and computes it once per position: one compiled pattern skips
whitespace and matches a name, a string literal, a number, one of
``//`` ``/>`` ``:=`` ``!=`` ``<=`` ``>=`` or a single character (``$``
and the other punctuators).  Keywords are contextual: the parser
compares a name token with ``for`` / ``return`` / … only where the
grammar asks for a keyword, so ``$b/return`` is a path.  ``(: … :)``
comments, nested ones included, are skipped by a short loop that runs
only when ``(:`` is next.  Element constructor content and attribute
values are raw text: the parser matches those runs itself and seeks
the scanner back into tokens (:meth:`Scanner.seek`) where an
``{expr}`` begins.

It also holds the *literal pre-scan*, :func:`query_shape`: one regex
pass that splits a query text into its shape (the text with every
literal replaced by the literal's type) and its values.  The session's
plan cache is keyed by the shape, so texts that differ only in
constants share one compiled plan.  The pre-scan is lexical only; the
parser confirms it: it records the span of every literal it reads as a
value, and a shape whose spans differ from the pre-scan's (a digit in a
comment or in constructor text, say) is compiled per text.  Both read a
string literal's value through :func:`string_value`.
"""

from __future__ import annotations

import functools
import re
from typing import Any, Iterator, NamedTuple

from repro.errors import XMLParseError, XQueryParseError
from repro.xmldb.parser import decode_references
from repro.xpath.parser import number_value

NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
NAME_CHARS = NAME_START | set("0123456789-.")

#: whitespace, then one token; ``lastindex`` is its kind — a name, a
#: variable reference (``$`` and a name: the common case of a ``$``
#: token), a number (the digit-and-dot run of :func:`~repro.xpath.
#: parser.scan_number`), a string literal (a doubled quote is one quote
#: character), the start of a comment, or a punctuator ("" at the end)
_NAME = r"[A-Za-z_][A-Za-z0-9_.\-]*"
_STRING = r"\"[^\"]*(?:\"\"[^\"]*)*\"|'[^']*(?:''[^']*)*'"
_TOKEN = re.compile(
    rf"[ \t\r\n]*(?:({_NAME})|(\${_NAME})|([0-9][0-9.]*)|({_STRING})|(\(:)"
    r"|(//|/>|:=|!=|<=|>=|.|\Z))", re.S)
_match_token = _TOKEN.match
NAME, VARIABLE, NUMBER, STRING, _COMMENT = 1, 2, 3, 4, 5
_COMMENT_MARKS = re.compile(r"\(:|:\)")

#: where the pre-scan stops in expression text: a string literal, a
#: number token that does not start inside a name (the two literal
#: kinds), a comment, a direct constructor's ``<name`` (``<`` directly
#: before a name is never a comparison), an enclosed expression's brace
_EXPRESSION_STOPS = re.compile(
    rf"({_STRING})|([0-9](?<![A-Za-z0-9_.\-][0-9])[0-9.]*)|(\(:)"
    rf"|<({_NAME})|([{{}}])")
_LITERAL_KINDS = 2
#: the raw text of element content / of an attribute value in each
#: quote, up to the next character with a meaning there
CONTENT_RUN = re.compile(r"[^{}<]*")
ATTRIBUTE_RUNS = {'"': re.compile(r'[^{}"]*'), "'": re.compile(r"[^{}']*")}
#: one item of a start tag after its name: the end of an empty element,
#: the end of the tag, or an attribute name and its value's opening quote
_TAG_ITEM = re.compile(
    rf"[ \t\r\n]*(?:(/>)|(>)|{_NAME}[ \t\r\n]*=[ \t\r\n]*([\"']))")
_NAME_AT = re.compile(_NAME)
#: the calls whose string argument names a document
_DOCUMENT_CALLS = ("doc", "document", "collection")


def parse_error(text: str, pos: int, message: str) -> XQueryParseError:
    """An :class:`XQueryParseError` at ``text[pos]``, with its line and
    column."""
    return XQueryParseError(message, line=text.count("\n", 0, pos) + 1,
                            column=pos - text.rfind("\n", 0, pos))


def string_value(text: str, start: int, end: int) -> str:
    """The value of the string literal ``text[start:end]`` (quotes
    included): a doubled quote is one quote, and the predefined entity
    and character references are decoded (XQuery 1.0 §A.2.1)."""
    quote = text[start]
    pieces = text[start + 1:end - 1].split(quote * 2)
    at = start + 1
    for i, piece in enumerate(pieces):
        if "&" in piece:
            try:
                pieces[i] = decode_references(piece, at)
            except XMLParseError as exc:
                raise parse_error(text, exc.position, "malformed entity "
                                  "or character reference in a string "
                                  "literal") from None
        at += len(piece) + 2
    return quote.join(pieces)


def _names_a_document(text: str, start: int,
                      comments: dict[int, int]) -> bool:
    """Whether the string literal at ``start`` is a ``doc()`` /
    ``document()`` / ``collection()`` argument (part of the shape: a
    document name is not a value).  ``comments`` maps the end of each
    comment before ``start`` to its start."""
    head = _before(text, start, comments)
    if not head.endswith("("):
        return False
    head = _before(head, len(head) - 1, comments)
    return any(head.endswith(name) and
               head[-len(name) - 1:-len(name)] not in NAME_CHARS
               for name in _DOCUMENT_CALLS)


def _before(text: str, pos: int, comments: dict[int, int]) -> str:
    """``text[:pos]`` less its trailing whitespace and comments."""
    head = text[:pos].rstrip()
    while len(head) in comments:
        head = head[:comments[len(head)]].rstrip()
    return head


class QueryShape(NamedTuple):
    """A query text split by :func:`query_shape`."""

    #: the text's verbatim pieces with each literal's type between them
    key: tuple
    #: the literals' values, in text order
    values: tuple[Any, ...]
    #: the literals' ``(start, end)`` spans, quotes included
    spans: tuple[tuple[int, int], ...]


@functools.lru_cache(maxsize=256)
def query_shape(text: str) -> QueryShape:
    """Split ``text`` into its literal-free shape and its literals.

    Two texts with equal keys differ only inside literal spans of equal
    type — ``5`` and ``5.0`` are different types, and a malformed
    literal stays in the key (the parser rejects it).  Memoized per
    text: a server sees the same texts again and again, and a repeated
    text should cost a plan-cache hit no more than a dict lookup."""
    key: list = []
    values: list = []
    spans: list[tuple[int, int]] = []
    last = 0
    for match in _expression_literals(text):
        start, end = match.span()
        if text[start] not in "\"'":
            value = number_value(match.group())
            if value is None:
                continue        # malformed: the parser rejects it
        else:
            try:
                value = string_value(text, start, end)
            except XQueryParseError:
                continue
        key += (text[last:start], type(value))
        values.append(value)
        spans.append((start, end))
        last = end
    key.append(text[last:])
    return QueryShape(tuple(key), tuple(values), tuple(spans))


def comment_end(text: str, pos: int) -> int | None:
    """The end of the ``(: … :)`` comment at ``pos``, nested comments
    included; None when it is not closed."""
    depth = 0
    for mark in _COMMENT_MARKS.finditer(text, pos):
        depth += 1 if mark.group() == "(:" else -1
        if depth == 0:
            return mark.end()
    return None


def _expression_literals(text: str) -> Iterator[re.Match]:
    """The literal tokens of ``text`` that stand in expression text —
    not in a comment, nor in a direct constructor's attribute values or
    content, which are raw text up to an enclosed ``{expr}`` — less the
    document names.  Lexical only: malformed text ends in whatever
    state the scan reached (the parser rejects it)."""
    #: the constructor frames each open ``{`` returns to (None: a
    #: brace that no constructor opened)
    braces: list[list | None] = []
    #: end → start of every comment passed
    comments: dict[int, int] = {}
    pos = 0
    while True:
        match = _EXPRESSION_STOPS.search(text, pos)
        if match is None:
            return
        kind, pos = match.lastindex, match.end()
        if kind <= _LITERAL_KINDS:
            if kind == 2 or not _names_a_document(text, match.start(),
                                                  comments):
                yield match
            continue
        if kind == 3:
            pos = comment_end(text, match.start())
            if pos is None:
                return
            comments[pos] = match.start()
            continue
        if kind == 5:
            if match.group() == "{":
                braces.append(None)
                continue
            frames = braces.pop() if braces else None
            if frames is None:
                continue
        else:
            frames = ["tag"]
        pos = _constructor_text(text, pos, frames)
        if pos is None:
            return
        if frames:
            braces.append(frames)


def _constructor_text(text: str, pos: int, frames: list) -> int | None:
    """Skip direct-constructor text from ``pos``: ``frames`` is the
    stack of what encloses ``pos`` — ``"tag"`` (inside a start tag, past
    its name), ``"content"`` (element content) or a quote (an attribute
    value).  Returns where expression text resumes — after the
    outermost constructor's end (``frames`` then empty), or after the
    ``{`` of an enclosed expression (``frames`` left as its ``}``
    resumes them) — or None at the end of the text."""
    end = len(text)
    while frames:
        if pos >= end:
            return None
        frame = frames[-1]
        if frame == "tag":
            item = _TAG_ITEM.match(text, pos)
            if item is None:  # malformed: back to expression text
                frames.clear()
                return pos
            pos = item.end()
            if item.lastindex == 1:
                frames.pop()
            elif item.lastindex == 2:
                frames[-1] = "content"
            else:
                frames.append(item.group(3))
            continue
        content = frame == "content"
        pos = (CONTENT_RUN if content else ATTRIBUTE_RUNS[frame]) \
            .match(text, pos).end()
        pair = text[pos:pos + 2]
        if pair == "{{" or pair == "}}":
            pos += 2
        elif pair[:1] == "{":
            return pos + 1
        elif not content or pair[:1] == "}":
            if pair[:1] == frame:
                frames.pop()
            pos += 1
        elif pair == "</":
            close = text.find(">", pos)
            if close < 0:
                return None
            frames.pop()
            pos = close + 1
        elif text.startswith("<![CDATA[", pos):
            close = text.find("]]>", pos)
            if close < 0:
                return None
            pos = close + 3
        else:
            name = _NAME_AT.match(text, pos + 1)
            if name is None:
                pos += 1
            else:
                frames.append("tag")
                pos = name.end()
    return pos


class Scanner:
    """The token stream of a query text: the current token is ``tok``
    (its text; ``""`` at the end), of kind ``kind`` (:data:`NAME`,
    :data:`VARIABLE`, :data:`NUMBER`, :data:`STRING` or another int for
    a punctuator), at ``text[start:end]``."""

    __slots__ = ("text", "kind", "tok", "start", "end", "slots")

    def __init__(self, text: str):
        self.text = text
        #: the literals read as values so far (the parser's slots)
        self.slots: list = []
        self.seek(0)

    def seek(self, pos: int) -> None:
        """Make the token at ``pos`` (after whitespace and comments)
        the current one."""
        match = _match_token(self.text, pos)
        kind = match.lastindex
        while kind == _COMMENT:
            match = _match_token(self.text,
                                 self._comment_end(match.start(kind)))
            kind = match.lastindex
        self.kind = kind
        self.tok = tok = match[kind]
        self.end = end = match.end()
        self.start = end - len(tok)

    def _comment_end(self, pos: int) -> int:
        end = comment_end(self.text, pos)
        if end is None:
            raise self.error("unterminated comment", len(self.text))
        return end

    def error(self, message: str, pos: int | None = None
              ) -> XQueryParseError:
        """A parse error at ``pos`` (default: the current token)."""
        return parse_error(self.text, self.start if pos is None else pos,
                           message)

    def advance(self) -> str:
        """Consume the current token; return its text."""
        tok = self.tok
        self.seek(self.end)
        return tok

    def take(self, tok: str) -> bool:
        """Consume the current token if its text is ``tok``."""
        if self.tok == tok:
            self.seek(self.end)
            return True
        return False

    def check(self, tok: str) -> int:
        """Fail unless the current token's text is ``tok``; return its
        end without consuming it (raw text may follow)."""
        if self.tok != tok:
            raise self.error(f"expected {tok!r}, found "
                             f"{self.text[self.start:self.start + 12]!r}")
        return self.end

    def expect(self, tok: str) -> None:
        """Consume the current token, which must be ``tok``."""
        self.seek(self.end if self.tok == tok else self.check(tok))

    def name(self) -> str:
        """Consume the current token, which must be a name; return it."""
        if self.kind != NAME:
            raise self.error("expected a name")
        return self.advance()
