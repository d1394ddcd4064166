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
from typing import Any, NamedTuple

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

#: what the pre-scan matches: a string literal, or a number token that
#: does not start inside a name
_LITERALS = re.compile(
    rf"{_STRING}|[0-9](?<![A-Za-z0-9_.\-][0-9])[0-9.]*")
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


def _names_a_document(text: str, start: int) -> bool:
    """Whether the string literal at ``start`` is a ``doc()`` /
    ``document()`` / ``collection()`` argument (part of the shape: a
    document name is not a value)."""
    head = text[:start].rstrip()
    if not head.endswith("("):
        return False
    head = head[:-1].rstrip()
    return any(head.endswith(name) and
               head[-len(name) - 1:-len(name)] not in NAME_CHARS
               for name in _DOCUMENT_CALLS)


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
    for match in _LITERALS.finditer(text):
        start, end = match.span()
        if text[start] not in "\"'":
            value = number_value(match.group())
            if value is None:
                continue        # malformed: the parser rejects it
        elif _names_a_document(text, start):
            continue
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
        depth = 0
        for mark in _COMMENT_MARKS.finditer(self.text, pos):
            depth += 1 if mark.group() == "(:" else -1
            if depth == 0:
                return mark.end()
        raise self.error("unterminated comment", len(self.text))

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
