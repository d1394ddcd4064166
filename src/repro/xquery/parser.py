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

from repro.errors import XQueryParseError
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
from repro.xquery import ast
from repro.xquery.lexer import DIGITS, NAME_START, Scanner

_COMPARISON_OPS = ("!=", "<=", ">=", "=", "<", ">")


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
    scanner = Scanner(text)
    expr = _parse_expr_single(scanner)
    scanner.skip_ws()
    if not scanner.eof():
        raise scanner.error(
            f"unexpected trailing input: "
            f"{scanner.text[scanner.pos:scanner.pos + 20]!r}")
    return expr, tuple(scanner.slots)


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
def _parse_expr_single(s: Scanner) -> ast.Expr:
    s.skip_ws()
    if s.peek_keyword("for") or s.peek_keyword("let"):
        return _parse_flwr(s)
    if s.peek_keyword("some") or s.peek_keyword("every"):
        return _parse_quantified(s)
    return _parse_or(s)


def _parse_flwr(s: Scanner) -> ast.FLWR:
    clauses: list[ast.ForClause | ast.LetClause] = []
    while True:
        if s.take_keyword("for"):
            while True:
                var = s.read_variable()
                s.expect_keyword("in")
                clauses.append(ast.ForClause(var, _parse_expr_single(s)))
                s.skip_ws()
                if not s.take(","):
                    break
        elif s.take_keyword("let"):
            while True:
                var = s.read_variable()
                s.skip_ws()
                s.expect(":=")
                clauses.append(ast.LetClause(var, _parse_expr_single(s)))
                s.skip_ws()
                if not s.take(","):
                    break
        else:
            break
    where = None
    if s.take_keyword("where"):
        where = _parse_expr_single(s)
    order_by: list[ast.OrderSpec] = []
    if s.peek_keyword("stable"):
        # "stable order by" — our Sort is stable, so it is plain order by
        s.take_keyword("stable")
        s.expect_keyword("order")
        s.expect_keyword("by")
        _parse_order_keys(s, order_by)
    elif s.take_keyword("order"):
        s.expect_keyword("by")
        _parse_order_keys(s, order_by)
    s.expect_keyword("return")
    ret = _parse_expr_single(s)
    return ast.FLWR(tuple(clauses), where, ret, tuple(order_by))


def _parse_order_keys(s: Scanner, out: list[ast.OrderSpec]) -> None:
    while True:
        key = _parse_expr_single(s)
        descending = bool(s.take_keyword("descending"))
        if not descending:
            s.take_keyword("ascending")
        out.append(ast.OrderSpec(key, descending))
        s.skip_ws()
        if not s.take(","):
            break


def _parse_quantified(s: Scanner) -> ast.Quantified:
    kind = "some" if s.take_keyword("some") else None
    if kind is None:
        s.expect_keyword("every")
        kind = "every"
    var = s.read_variable()
    s.expect_keyword("in")
    source = _parse_expr_single(s)
    s.expect_keyword("satisfies")
    pred = _parse_expr_single(s)
    return ast.Quantified(kind, var, source, pred)


def _parse_or(s: Scanner) -> ast.Expr:
    terms = [_parse_and(s)]
    while s.take_keyword("or"):
        terms.append(_parse_and(s))
    if len(terms) == 1:
        return terms[0]
    return ast.BoolOp("or", tuple(terms))


def _parse_and(s: Scanner) -> ast.Expr:
    terms = [_parse_comparison(s)]
    while s.take_keyword("and"):
        terms.append(_parse_comparison(s))
    if len(terms) == 1:
        return terms[0]
    return ast.BoolOp("and", tuple(terms))


def _parse_comparison(s: Scanner) -> ast.Expr:
    left = _parse_path_expr(s)
    s.skip_ws()
    for op in _COMPARISON_OPS:
        # Avoid consuming ":=" or "<elem" constructors.
        if op in ("<", "<=") and _looks_like_constructor(s):
            break
        if s.take(op):
            right = _parse_path_expr(s)
            return ast.Comparison(left, op, right)
    return left


def _looks_like_constructor(s: Scanner) -> bool:
    if s.peek() != "<":
        return False
    following = s.peek(2)[1:]
    return bool(following) and following in NAME_START


def _parse_path_expr(s: Scanner) -> ast.Expr:
    s.skip_ws()
    if s.peek(2) == "//" or (s.peek() == "/" and s.peek(2) != "/>"):
        # Context-relative path (inside step predicates).
        path = _parse_path(s, leading_required=True)
        return ast.PathExpr(ast.ContextItem(), path)
    primary = _parse_primary(s)
    s.skip_ws()
    if s.peek(2) == "//" or (s.peek() == "/" and s.peek(2) != "/>"):
        path = _parse_path(s, leading_required=True)
        return ast.PathExpr(primary, path)
    return primary


def _parse_primary(s: Scanner) -> ast.Expr:
    s.skip_ws()
    ch = s.peek()
    if ch == "(":
        s.advance()
        expr = _parse_expr_single(s)
        s.skip_ws()
        s.expect(")")
        return expr
    if ch == "$":
        return ast.VarRef(s.read_variable())
    if ch in ("'", '"') or ch in DIGITS:
        start = s.pos
        value = s.read_number() if ch in DIGITS else s.read_string()
        s.slots.append(Slot(start, s.pos, value))
        return ast.Literal(value, len(s.slots) - 1)
    if ch == "<":
        return _parse_element_ctor(s)
    if ch == "@":
        path = _parse_path(s, leading_required=False)
        return ast.PathExpr(ast.ContextItem(), path)
    if ch in NAME_START:
        name = s.read_name()
        s.skip_ws()
        if s.peek() == "(" and s.peek(2) != "(:":
            return _parse_call(s, name)
        # Bare name: a context-relative child path (predicate position).
        steps = [Step("child", NameTest(name),
                      tuple(_parse_predicates(s)))]
        steps.extend(_parse_more_steps(s))
        return ast.PathExpr(ast.ContextItem(),
                            Path(tuple(steps), absolute=False))
    raise s.error(f"unexpected character {ch!r} in expression")


def _parse_call(s: Scanner, name: str) -> ast.Expr:
    s.expect("(")
    args: list[ast.Expr] = []
    s.skip_ws()
    if not s.take(")"):
        while True:
            args.append(_parse_expr_single(s))
            s.skip_ws()
            if s.take(")"):
                break
            s.expect(",")
    if name in ("doc", "document", "collection"):
        if len(args) != 1 or not isinstance(args[0], ast.Literal):
            raise s.error(f"{name}() expects one string literal")
        # A document name is structure, not a value: it takes no slot.
        s.slots.pop()
        return ast.DocCall(str(args[0].value),
                           collection=(name == "collection"))
    return ast.FuncCall(name, tuple(args))


# ----------------------------------------------------------------------
# Paths
# ----------------------------------------------------------------------
def _parse_path(s: Scanner, leading_required: bool) -> Path:
    steps: list[Step] = []
    first = True
    while True:
        s.skip_ws()
        if s.take("//"):
            axis = "descendant"
        elif s.peek() == "/" and s.peek(2) not in ("/>",):
            s.advance()
            axis = "child"
        elif first and not leading_required:
            axis = "child"
        else:
            break
        steps.append(_parse_step(s, axis))
        first = False
    if not steps:
        raise s.error("empty path expression")
    return Path(tuple(steps), absolute=False)


def _parse_more_steps(s: Scanner) -> list[Step]:
    steps: list[Step] = []
    while True:
        s.skip_ws()
        if s.take("//"):
            axis = "descendant"
        elif s.peek() == "/" and s.peek(2) != "/>":
            s.advance()
            axis = "child"
        else:
            return steps
        steps.append(_parse_step(s, axis))


def _parse_step(s: Scanner, axis: str) -> Step:
    s.skip_ws()
    if s.take("@"):
        axis = "attribute"
    if s.take("*"):
        test: NameTest | AnyTest | TextTest = AnyTest()
    elif s.take("text()"):
        test = TextTest()
    else:
        test = NameTest(s.read_name())
    predicates = _parse_predicates(s)
    return Step(axis, test, tuple(predicates))


def _parse_predicates(s: Scanner) -> list[Predicate]:
    predicates: list[Predicate] = []
    while True:
        s.skip_ws()
        if not s.take("["):
            return predicates
        expr = _parse_expr_single(s)
        s.skip_ws()
        s.expect("]")
        predicates.append(_classify_predicate(expr))


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
def _parse_element_ctor(s: Scanner) -> ast.ElementCtor:
    s.expect("<")
    name = s.read_name()
    attributes: list[tuple[str, tuple]] = []
    while True:
        s.skip_ws()
        if s.take("/>"):
            return ast.ElementCtor(name, tuple(attributes), ())
        if s.take(">"):
            break
        attr_name = s.read_name()
        s.skip_ws()
        s.expect("=")
        s.skip_ws()
        quote = s.peek()
        if quote not in ("'", '"'):
            raise s.error("attribute value must be quoted")
        s.advance()
        attributes.append((attr_name, tuple(_parse_ctor_parts(s, quote))))
    content = _parse_ctor_content(s, name)
    return ast.ElementCtor(name, tuple(attributes), tuple(content))


def _parse_ctor_parts(s: Scanner, terminator: str) -> list[ast.Part]:
    """Raw text interleaved with ``{expr}`` until ``terminator``."""
    parts: list[ast.Part] = []
    buffer: list[str] = []

    def flush() -> None:
        if buffer:
            parts.append(ast.TextPart("".join(buffer)))
            buffer.clear()

    while True:
        if s.eof():
            raise s.error("unterminated attribute value")
        ch = s.peek()
        if ch == terminator:
            s.advance()
            flush()
            return parts
        if ch == "{":
            s.advance()
            flush()
            parts.append(ast.ExprPart(_parse_expr_single(s)))
            s.skip_ws()
            s.expect("}")
        else:
            buffer.append(ch)
            s.advance()


def _parse_ctor_content(s: Scanner,
                        name: str) -> list[ast.Part | ast.ElementCtor]:
    content: list[ast.Part | ast.ElementCtor] = []
    buffer: list[str] = []

    def flush() -> None:
        if buffer:
            text = "".join(buffer)
            if text.strip():
                content.append(ast.TextPart(text))
            buffer.clear()

    while True:
        if s.eof():
            raise s.error(f"unterminated element constructor <{name}>")
        if s.take(f"</{name}"):
            s.skip_ws()
            s.expect(">")
            flush()
            return content
        ch = s.peek()
        if ch == "{":
            s.advance()
            flush()
            content.append(ast.ExprPart(_parse_expr_single(s)))
            s.skip_ws()
            s.expect("}")
        elif ch == "<" and _looks_like_constructor(s):
            flush()
            content.append(_parse_element_ctor(s))
        elif s.peek(2) == "</":
            raise s.error(
                f"mismatched end tag inside <{name}> constructor")
        else:
            buffer.append(ch)
            s.advance()
