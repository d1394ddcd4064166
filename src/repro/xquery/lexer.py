"""Low-level scanner for the XQuery parser.

XQuery keywords are contextual and element constructors switch the lexer
into raw-text mode, so the parser drives a character cursor directly
instead of consuming a pre-tokenized stream.  This module provides that
cursor with position tracking for error messages and support for XQuery
comments ``(: ... :)``.

It also holds the *literal pre-scan*, :func:`query_shape`: one regex
pass that splits a query text into its shape (the text with every
literal replaced by the literal's type) and its values.  The session's
plan cache is keyed by the shape, so texts that differ only in
constants share one compiled plan.  The pre-scan is lexical only; the
parser confirms it: it records the span of every literal it reads as a
value, and a shape whose spans differ from the pre-scan's (a digit in a
comment or in constructor text, say) is compiled per text.
"""

from __future__ import annotations

import functools
import re
from typing import Any, NamedTuple

from repro.errors import XQueryParseError
from repro.xpath.parser import number_value, scan_number

NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
NAME_CHARS = NAME_START | set("0123456789-.")
DIGITS = set("0123456789")

#: what the pre-scan matches: a string literal, or a number token (the
#: run of digits and dots :func:`~repro.xpath.parser.scan_number`
#: reads) that does not start inside a name
_LITERALS = re.compile(
    r"""\"[^"]*"|'[^']*'|[0-9](?<![A-Za-z0-9_.\-][0-9])[0-9.]*""")
#: the calls whose string argument names a document
_DOCUMENT_CALLS = ("doc", "document", "collection")


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
    type — ``5`` and ``5.0`` are different types, and a malformed number
    stays in the key (the parser rejects it).  Memoized per text: a
    server sees the same texts again and again, and a repeated text
    should cost a plan-cache hit no more than a dict lookup."""
    key: list = []
    values: list = []
    spans: list[tuple[int, int]] = []
    last = 0
    for match in _LITERALS.finditer(text):
        start, end = match.span()
        if text[start] in DIGITS:
            value = number_value(match.group())
            if value is None:
                continue        # malformed: the parser rejects it
        elif _names_a_document(text, start):
            continue
        else:
            value = text[start + 1:end - 1]
        key += (text[last:start], type(value))
        values.append(value)
        spans.append((start, end))
        last = end
    key.append(text[last:])
    return QueryShape(tuple(key), tuple(values), tuple(spans))


class Scanner:
    """Character cursor with line/column tracking."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        #: the literals read as values so far (the parser's slots)
        self.slots: list = []

    # ------------------------------------------------------------------
    def error(self, message: str) -> XQueryParseError:
        line = self.text.count("\n", 0, self.pos) + 1
        last_newline = self.text.rfind("\n", 0, self.pos)
        column = self.pos - last_newline
        return XQueryParseError(message, line=line, column=column)

    # ------------------------------------------------------------------
    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, n: int = 1) -> str:
        return self.text[self.pos:self.pos + n]

    def advance(self, n: int = 1) -> None:
        self.pos += n

    def skip_ws(self) -> None:
        """Skip whitespace and ``(: ... :)`` comments (nestable)."""
        while not self.eof():
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif self.peek(2) == "(:":
                depth = 0
                while not self.eof():
                    if self.peek(2) == "(:":
                        depth += 1
                        self.pos += 2
                    elif self.peek(2) == ":)":
                        depth -= 1
                        self.pos += 2
                        if depth == 0:
                            break
                    else:
                        self.pos += 1
                if depth != 0:
                    raise self.error("unterminated comment")
            else:
                return

    # ------------------------------------------------------------------
    def take(self, literal: str) -> bool:
        """Consume ``literal`` if it is next (no word-boundary check)."""
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.take(literal):
            raise self.error(
                f"expected {literal!r}, found "
                f"{self.text[self.pos:self.pos + 12]!r}")

    def peek_keyword(self, word: str) -> bool:
        """True if ``word`` is next as a whole word (after whitespace)."""
        self.skip_ws()
        end = self.pos + len(word)
        if not self.text.startswith(word, self.pos):
            return False
        if end < len(self.text) and self.text[end] in NAME_CHARS:
            return False
        return True

    def take_keyword(self, word: str) -> bool:
        if self.peek_keyword(word):
            self.pos += len(word)
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.take_keyword(word):
            raise self.error(
                f"expected keyword {word!r}, found "
                f"{self.text[self.pos:self.pos + 12]!r}")

    # ------------------------------------------------------------------
    def read_name(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.eof() or self.text[self.pos] not in NAME_START:
            raise self.error("expected a name")
        self.pos += 1
        while not self.eof() and self.text[self.pos] in NAME_CHARS:
            self.pos += 1
        return self.text[start:self.pos]

    def read_variable(self) -> str:
        self.skip_ws()
        self.expect("$")
        return self.read_name()

    def read_string(self) -> str:
        self.skip_ws()
        quote = self.peek()
        if quote not in ("'", '"'):
            raise self.error("expected a string literal")
        self.advance()
        end = self.text.find(quote, self.pos)
        if end < 0:
            raise self.error("unterminated string literal")
        value = self.text[self.pos:end]
        self.pos = end + 1
        return value

    def read_number(self):
        """A numeric literal: ASCII digits with at most one "."."""
        self.skip_ws()
        value, end = scan_number(self.text, self.pos)
        if value is None:
            raise self.error(
                f"malformed number {self.text[self.pos:end]!r}")
        self.pos = end
        return value
