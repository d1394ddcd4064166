"""Recursive-descent parser for the XQuery subset.

Grammar (simplified)::

    Query        := ExprSingle
    ExprSingle   := FLWR | Quantified | OrExpr
    FLWR         := (ForClause | LetClause)+ ("where" ExprSingle)?
                    "return" ExprSingle
    ForClause    := "for" "$"name "in" ExprSingle ("," "$"name "in" ...)*
    LetClause    := "let" "$"name ":=" ExprSingle ("," ...)*
    Quantified   := ("some"|"every") "$"name "in" ExprSingle
                    "satisfies" ExprSingle
    OrExpr       := AndExpr ("or" AndExpr)*
    AndExpr      := CmpExpr ("and" CmpExpr)*
    CmpExpr      := PathOrPrimary (CmpOp PathOrPrimary)?
    PathOrPrimary:= Primary (("/"|"//") Steps)?
    Primary      := "(" ExprSingle ")" | Literal | "$"name
                    | name "(" Args ")" | ElementCtor
                    | ("/"|"//") Steps                -- context-relative
    Steps        := Step (("/"|"//") Step)* ; Step := ("@")?name Pred*
    Pred         := "[" ExprSingle "]"

The parser reads the :class:`~repro.xquery.lexer.Scanner`'s token
stream, one lookahead token: each rule tests the current token's text
(a keyword is a name token compared where the grammar allows one) and
consumes it.  Element constructors read their content and attribute
values as raw text, where ``{{`` / ``}}`` are literal braces and
``<![CDATA[…]]>`` is escaped text, and hand each ``{expr}`` back to
the token rules.

``doc(...)``/``document(...)`` calls become :class:`DocCall`; bare names
in predicate position parse as context-relative paths.  Step predicates
are converted to the XPath layer's self-contained forms when possible and
kept opaque otherwise (the normalizer lifts those into ``where``).

Every literal the parser reads as a value is numbered: its *slot*
(:attr:`repro.xquery.ast.Literal.slot`, and the ``slot`` of the
:class:`~repro.xpath.ast.ComparisonPredicate` it may become), in text
order.  :func:`parse_query` also returns each slot's span and value, so
the session can check them against the pre-scan
(:func:`repro.xquery.lexer.query_shape`) before it shares a compiled
plan between texts of one shape.  A ``doc()`` name is not a value: it
gets no slot.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.xmldb.serialize import escape_text
from repro.xpath.ast import (
    AnyTest,
    ComparisonPredicate,
    NameTest,
    OpaquePredicate,
    Path,
    PathPredicate,
    Predicate,
    Step,
    TextTest,
)
from repro.xpath.parser import number_value
from repro.xquery import ast
from repro.xquery.lexer import (
    ATTRIBUTE_RUNS,
    CONTENT_RUN,
    NAME,
    NAME_START,
    NUMBER,
    STRING,
    VARIABLE,
    Scanner,
    string_value,
)

_COMPARISON_OPS = frozenset(("!=", "<=", ">=", "=", "<", ">"))


class Slot(NamedTuple):
    """One literal the parser read as a value."""

    start: int
    end: int
    value: Any


def parse_xquery(text: str) -> ast.Expr:
    """Parse an XQuery string into an AST."""
    return parse_query(text)[0]


def parse_query(text: str) -> tuple[ast.Expr, tuple[Slot, ...]]:
    """Parse an XQuery string: ``(AST, slots)``, the slots in text
    order (slot ``i`` is ``slots[i]``)."""
    s = Scanner(text)
    expr = _parse_expr_single(s)
    if s.tok:
        raise s.error(f"unexpected trailing input: "
                      f"{text[s.start:s.start + 20]!r}")
    return expr, tuple(s.slots)


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
def _parse_expr_single(s: Scanner) -> ast.Expr:
    tok = s.tok
    if tok == "for" or tok == "let":
        return _parse_flwr(s)
    if tok == "some" or tok == "every":
        return _parse_quantified(s)
    first = _parse_comparison(s)
    if s.tok == "and" or s.tok == "or":
        return _parse_or(s, first)
    return first


def _parse_flwr(s: Scanner) -> ast.FLWR:
    clauses: list[ast.ForClause | ast.LetClause] = []
    while s.tok == "for" or s.tok == "let":
        clause, bind = ((ast.ForClause, "in") if s.advance() == "for"
                        else (ast.LetClause, ":="))
        while True:
            var = _parse_variable(s)
            s.expect(bind)
            clauses.append(clause(var, _parse_expr_single(s)))
            if not s.take(","):
                break
    where = _parse_expr_single(s) if s.take("where") else None
    order_by: list[ast.OrderSpec] = []
    # "stable order by" — our Sort is stable, so it is plain order by
    if s.take("stable") or s.tok == "order":
        s.expect("order")
        s.expect("by")
        while True:
            key = _parse_expr_single(s)
            descending = s.take("descending")
            if not descending:
                s.take("ascending")
            order_by.append(ast.OrderSpec(key, descending))
            if not s.take(","):
                break
    s.expect("return")
    ret = _parse_expr_single(s)
    return ast.FLWR(tuple(clauses), where, ret, tuple(order_by))


def _parse_quantified(s: Scanner) -> ast.Quantified:
    kind = s.advance()
    var = _parse_variable(s)
    s.expect("in")
    source = _parse_expr_single(s)
    s.expect("satisfies")
    return ast.Quantified(kind, var, source, _parse_expr_single(s))


def _parse_variable(s: Scanner) -> str:
    if s.kind == VARIABLE:
        return s.advance()[1:]
    s.expect("$")
    return s.name()


def _parse_or(s: Scanner, first: ast.Expr) -> ast.Expr:
    """The ``or`` chain whose first comparison is ``first``."""
    terms = [_parse_and(s, first)]
    while s.take("or"):
        terms.append(_parse_and(s, _parse_comparison(s)))
    return terms[0] if len(terms) == 1 else ast.BoolOp("or", tuple(terms))


def _parse_and(s: Scanner, first: ast.Expr) -> ast.Expr:
    factors = [first]
    while s.take("and"):
        factors.append(_parse_comparison(s))
    if len(factors) == 1:
        return factors[0]
    return ast.BoolOp("and", tuple(factors))


def _parse_comparison(s: Scanner) -> ast.Expr:
    left = _parse_operand(s)
    op = s.tok
    # "<" directly followed by a name opens an element constructor
    if op in _COMPARISON_OPS and not (
            op == "<" and s.text[s.end:s.end + 1] in NAME_START):
        s.advance()
        return ast.Comparison(left, op, _parse_operand(s))
    return left


def _parse_operand(s: Scanner) -> ast.Expr:
    """A primary expression and the path steps after it."""
    tok, kind = s.tok, s.kind
    if kind == VARIABLE or tok == "$":
        expr: ast.Expr = ast.VarRef(_parse_variable(s))
    elif kind == NAME:
        name = s.advance()
        if s.tok != "(":
            # Bare name: a context-relative path (predicate position).
            step = Step("child", NameTest(name),
                        _parse_predicates(s) if s.tok == "[" else ())
            return ast.PathExpr(ast.ContextItem(), _parse_steps(s, [step]))
        expr = _parse_call(s, name)
    elif tok == "/" or tok == "//":
        # Context-relative path (inside step predicates).
        return ast.PathExpr(ast.ContextItem(), _parse_steps(s, []))
    elif tok == "@":
        return ast.PathExpr(ast.ContextItem(),
                            _parse_steps(s, [_parse_step(s, "child")]))
    elif tok == "(":
        s.advance()
        expr = _parse_expr_single(s)
        s.expect(")")
    elif kind == NUMBER or kind == STRING:
        value = (string_value(s.text, s.start, s.end) if kind == STRING
                 else number_value(tok))
        if value is None:
            raise s.error(f"malformed number {tok!r}")
        s.slots.append(Slot(s.start, s.end, value))
        s.advance()
        expr = ast.Literal(value, len(s.slots) - 1)
    elif tok == "<":
        expr, end = _parse_element_ctor(s)
        s.seek(end)
    elif tok == "'" or tok == '"':
        raise s.error("unterminated string literal", s.start + 1)
    else:
        raise s.error(f"unexpected character "
                      f"{s.text[s.start:s.start + 1]!r} in expression")
    if s.tok == "/" or s.tok == "//":
        return ast.PathExpr(expr, _parse_steps(s, []))
    return expr


def _parse_call(s: Scanner, name: str) -> ast.Expr:
    s.advance()
    args: list[ast.Expr] = []
    if s.tok != ")":
        args.append(_parse_expr_single(s))
        while s.take(","):
            args.append(_parse_expr_single(s))
    end = s.end
    s.expect(")")
    if name in ("doc", "document", "collection"):
        if len(args) != 1 or not isinstance(args[0], ast.Literal):
            raise s.error(f"{name}() expects one string literal", end)
        # A document name is structure, not a value: it takes no slot.
        s.slots.pop()
        return ast.DocCall(str(args[0].value),
                           collection=(name == "collection"))
    return ast.FuncCall(name, tuple(args))


# ----------------------------------------------------------------------
# Paths
# ----------------------------------------------------------------------
def _parse_steps(s: Scanner, steps: list[Step]) -> Path:
    """``steps`` followed by every further ``/`` or ``//`` step."""
    while s.tok == "/" or s.tok == "//":
        axis = "descendant" if s.advance() == "//" else "child"
        steps.append(_parse_step(s, axis))
    return Path(tuple(steps), absolute=False)


def _parse_step(s: Scanner, axis: str) -> Step:
    if s.take("@"):
        axis = "attribute"
    if s.take("*"):
        test: NameTest | AnyTest | TextTest = AnyTest()
    elif s.tok == "text" and s.text.startswith("()", s.end):
        s.seek(s.end + 2)
        test = TextTest()
    else:
        test = NameTest(s.name())
    return Step(axis, test, _parse_predicates(s) if s.tok == "[" else ())


def _parse_predicates(s: Scanner) -> tuple[Predicate, ...]:
    predicates: list[Predicate] = []
    while s.take("["):
        predicates.append(_classify_predicate(_parse_expr_single(s)))
        s.expect("]")
    return tuple(predicates)


def _classify_predicate(expr: ast.Expr) -> Predicate:
    """Convert self-contained predicates to the XPath layer's forms;
    keep variable-referencing ones opaque for the normalizer to lift."""
    if isinstance(expr, ast.PathExpr) and \
            isinstance(expr.source, ast.ContextItem) and \
            not expr.path.has_predicates():
        return PathPredicate(expr.path)
    if isinstance(expr, ast.Comparison):
        left, right = expr.left, expr.right
        op = expr.op
        if isinstance(right, ast.PathExpr) and isinstance(left, ast.Literal):
            left, right = right, left
            op = _flip(op)
        if (isinstance(left, ast.PathExpr)
                and isinstance(left.source, ast.ContextItem)
                and isinstance(right, ast.Literal)
                and not left.path.has_predicates()):
            return ComparisonPredicate(left.path, op, right.value,
                                       right.slot)
    return OpaquePredicate(expr)


def _flip(op: str) -> str:
    return {"=": "=", "!=": "!=", "<": ">", "<=": ">=",
            ">": "<", ">=": "<="}[op]


# ----------------------------------------------------------------------
# Element constructors
# ----------------------------------------------------------------------
def _parse_element_ctor(s: Scanner) -> tuple[ast.ElementCtor, int]:
    """The constructor whose ``<`` is the current token, and the text
    position after it (raw text may follow: the caller seeks)."""
    s.advance()
    name = s.name()
    attributes: list[tuple[str, tuple]] = []
    while s.tok != ">" and s.tok != "/>":
        attr_name = s.name()
        s.expect("=")
        quote = s.tok[:1]
        if quote != '"' and quote != "'":
            raise s.error("attribute value must be quoted")
        parts, end = _parse_ctor_text(s, s.start + 1, quote)
        attributes.append((attr_name, parts))
        s.seek(end)
    if s.tok == "/>":
        return ast.ElementCtor(name, tuple(attributes), ()), s.end
    content, end = _parse_ctor_text(s, s.end, "</" + name)
    return ast.ElementCtor(name, tuple(attributes), content), end


def _parse_ctor_text(s: Scanner, pos: int, close: str) -> tuple[tuple, int]:
    """Raw constructor text from ``pos`` up to ``close`` — an attribute
    value's quote, or ``</name`` (then element content, which may also
    hold constructors and CDATA sections; a run of whitespace only
    between them is boundary whitespace and dropped, unless a CDATA
    section is part of it): its parts, and the text position after it."""
    text = s.text
    content = close != '"' and close != "'"
    run = CONTENT_RUN if content else ATTRIBUTE_RUNS[close]
    parts: list = []
    buffer: list[str] = []
    cdata = False

    def flush() -> None:
        nonlocal cdata
        joined = "".join(buffer)
        if (joined.strip() or cdata) if content else joined:
            parts.append(ast.TextPart(joined))
        buffer.clear()
        cdata = False

    while True:
        end = run.match(text, pos).end()
        buffer.append(text[pos:end])
        pos = end
        if pos == len(text):
            raise s.error(f"unterminated element constructor <{close[2:]}>"
                          if content else "unterminated attribute value",
                          pos)
        pair = text[pos:pos + 2]
        if pair == "{{" or pair == "}}":
            buffer.append(pair[0])
            pos += 2
        elif pair[0] == "{":
            flush()
            s.seek(pos + 1)
            parts.append(ast.ExprPart(_parse_expr_single(s)))
            pos = s.check("}")
        elif pair[0] == "}":
            raise s.error("a '}' in constructor text is written '}}'", pos)
        elif not content:
            flush()
            return tuple(parts), pos + 1
        elif text.startswith(close, pos):
            s.seek(pos + len(close))
            flush()
            return tuple(parts), s.check(">")
        elif text.startswith("<![CDATA[", pos):
            end = text.find("]]>", pos)
            if end < 0:
                raise s.error("unterminated CDATA section", pos)
            buffer.append(escape_text(text[pos + 9:end]))
            cdata = True
            pos = end + 3
        elif pair[1:] in NAME_START:
            flush()
            s.seek(pos)
            ctor, pos = _parse_element_ctor(s)
            parts.append(ctor)
        elif pair == "</":
            raise s.error(f"mismatched end tag inside <{close[2:]}> "
                          f"constructor", pos)
        else:
            buffer.append("<")
            pos += 1
