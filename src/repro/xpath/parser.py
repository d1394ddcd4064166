"""Parser for standalone XPath strings.

The XQuery front end builds :class:`~repro.xpath.ast.Path` objects directly
from its own token stream; this module exists so paths can also be written
as plain strings in tests, examples and the data-generation tooling::

    parse_path("//book/title")
    parse_path("book[@year > 1993]/price")
    parse_path("bid[itemno = '47']")

Predicates are restricted to the two self-contained forms the evaluator
supports (existence and comparison-with-literal).

:func:`scan_number` is the one lexical rule for numeric literals: a
run of ASCII digits and dots read by :func:`number_value`.  This parser
reads numbers through it; the XQuery scanner's token pattern and the
XQuery literal pre-scan (:func:`repro.xquery.lexer.query_shape`) match
the same run from a digit and read it with :func:`number_value`.
"""

from __future__ import annotations

import re

from repro.errors import XPathError
from repro.xpath.ast import (
    AnyTest,
    ComparisonPredicate,
    NameTest,
    Path,
    PathPredicate,
    Predicate,
    Step,
    TextTest,
)

_OPERATORS = ("!=", "<=", ">=", "=", "<", ">")

#: the characters a numeric literal's token runs over: ASCII digits and
#: dots (no sign, no exponent, no other script's digits)
_NUMBER_RUN = re.compile(r"[0-9.]*")


def scan_number(text: str, pos: int) -> tuple[int | float | None, int]:
    """The numeric literal token at ``text[pos:]``: ``(value, end)``,
    the token being the longest run of ASCII digits and dots (see
    :func:`number_value`) — the caller raises its own error, with the
    position, when the value is None."""
    end = _NUMBER_RUN.match(text, pos).end()
    return number_value(text[pos:end]), end


def number_value(token: str) -> int | float | None:
    """A run of ASCII digits and dots as a number: well-formed when it
    holds a digit and at most one "." — an ``int``, or a ``float`` when
    it holds the "." — and None otherwise."""
    if token.count(".") > 1 or not token.strip("."):
        return None
    return float(token) if "." in token else int(token)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, n: int = 1) -> str:
        return self.text[self.pos:self.pos + n]

    def skip_ws(self) -> None:
        while not self.eof() and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def take(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def read_name(self) -> str:
        start = self.pos
        while (not self.eof()
               and (self.text[self.pos].isalnum()
                    or self.text[self.pos] in "_-.")):
            self.pos += 1
        if start == self.pos:
            raise XPathError(
                f"expected a name at position {self.pos} in "
                f"{self.text!r}")
        return self.text[start:self.pos]


def parse_path(text: str) -> Path:
    """Parse an XPath string into a :class:`Path`."""
    scanner = _Scanner(text.strip())
    path = _parse_path(scanner)
    scanner.skip_ws()
    if not scanner.eof():
        raise XPathError(
            f"trailing characters {scanner.text[scanner.pos:]!r} in XPath")
    return path


def _parse_path(scanner: _Scanner) -> Path:
    steps: list[Step] = []
    absolute = False
    first = True
    while True:
        scanner.skip_ws()
        if scanner.take("//"):
            axis = "descendant"
            if first:
                absolute = True
        elif scanner.take("/"):
            axis = "child"
            if first:
                absolute = True
        elif first:
            axis = "child"
        else:
            break
        scanner.skip_ws()
        if scanner.eof():
            if first:
                raise XPathError("empty XPath expression")
            raise XPathError(f"path ends after a separator: {scanner.text!r}")
        steps.append(_parse_step(scanner, axis))
        first = False
    if not steps:
        raise XPathError("empty XPath expression")
    return Path(tuple(steps), absolute=absolute)


def _parse_step(scanner: _Scanner, axis: str) -> Step:
    if scanner.take("@"):
        axis = "attribute"
    if scanner.take("*"):
        test = AnyTest()
    elif scanner.take("text()"):
        test = TextTest()
    else:
        test = NameTest(scanner.read_name())
    predicates: list[Predicate] = []
    while scanner.take("["):
        predicates.append(_parse_predicate(scanner))
    return Step(axis, test, tuple(predicates))


def _parse_predicate(scanner: _Scanner) -> Predicate:
    scanner.skip_ws()
    inner = _parse_relative_operand(scanner)
    scanner.skip_ws()
    op = None
    for candidate in _OPERATORS:
        if scanner.take(candidate):
            op = candidate
            break
    if op is None:
        if not scanner.take("]"):
            raise XPathError("expected ']' closing predicate")
        return PathPredicate(inner)
    scanner.skip_ws()
    value = _parse_literal(scanner)
    scanner.skip_ws()
    if not scanner.take("]"):
        raise XPathError(f"expected ']' closing predicate at position "
                         f"{scanner.pos} in {scanner.text!r}")
    return ComparisonPredicate(inner, op, value)


def _parse_relative_operand(scanner: _Scanner) -> Path:
    steps: list[Step] = []
    while True:
        scanner.skip_ws()
        if scanner.take("//"):
            axis = "descendant"
        elif steps and scanner.take("/"):
            axis = "child"
        elif not steps:
            axis = "child"
        else:
            break
        steps.append(_parse_step_no_predicates(scanner, axis))
    if not steps:
        raise XPathError("empty path inside predicate")
    return Path(tuple(steps), absolute=False)


def _parse_step_no_predicates(scanner: _Scanner, axis: str) -> Step:
    if scanner.take("@"):
        axis = "attribute"
    if scanner.take("*"):
        return Step(axis, AnyTest())
    if scanner.take("text()"):
        return Step(axis, TextTest())
    return Step(axis, NameTest(scanner.read_name()))


def _parse_literal(scanner: _Scanner):
    ch = scanner.peek()
    if ch in ("'", '"'):
        scanner.pos += 1
        end = scanner.text.find(ch, scanner.pos)
        if end < 0:
            raise XPathError("unterminated string literal in predicate")
        value = scanner.text[scanner.pos:end]
        scanner.pos = end + 1
        return value
    value, end = scan_number(scanner.text, scanner.pos)
    if value is None:
        raise XPathError(
            f"expected a string or number literal at position "
            f"{scanner.pos} in {scanner.text!r}")
    scanner.pos = end
    return value
