"""Normalization — Section 3 of the paper ("dependency-based
optimization"), implemented as AST passes:

1. **Predicate lifting** — XPath predicates that reference query variables
   move from path expressions into ``where`` clauses, rebased onto the
   range variable; a predicate on a non-final step splits the ``for`` into
   two (``$d2//book[p]/price`` becomes ``for $r in $d2//book where p($r)
   for $p2 in $r/price``, the paper's Q1.1.9.10 rewrite).
2. **Nested query extraction** — a FLWR embedded in a ``return``
   constructor moves into a fresh ``let``; an aggregate over a let-bound
   nested query fuses into the ``let`` (``let $m1 := min(<nested>)``);
   aggregates over nested queries in ``where`` become ``let``s as well.
   The ``let`` translates into a χ, the starting point of every unnesting
   equivalence.
3. **Quantifier preparation** — range expressions embed into fresh FLWRs;
   ``exists(E)``/``empty(E)`` become ``some`` quantifiers; for existential
   quantifiers the ``satisfies`` predicate moves into the range's
   ``where`` (valid for ∃, not ∀); when a ∀-``satisfies`` navigates from
   the quantified variable (``$b2/@year > 1993``) the range is retargeted
   to return those values (the paper's Q5 rewrite).
4. **Variable introduction** — complex operands in inner blocks get fresh
   variables so every ``where``/``return`` references variables only.
   Inside quantifier ranges multi-valued paths are bound with ``for``
   (unnesting, enabling Eqvs. 6/7); elsewhere with ``let`` (the ∈
   correlation of Eqvs. 4/5).
5. **doc() localization** — inner blocks referencing an outer document
   variable get the ``doc()`` call inlined, so the inner block's only free
   variables are genuine correlation variables (the paper's normalized
   queries re-introduce ``let $d3 := document(...)`` the same way).

Each pass states its applicability conditions inline; careless application
changes query semantics (the paper stresses this), and the test suite
checks the worked normalizations of §5.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import TranslationError
from repro.xpath.ast import (
    ComparisonPredicate,
    OpaquePredicate,
    Path,
    PathPredicate,
    Step,
)
from repro.xquery import ast

#: Functions whose single argument may be a nested query block.
_AGGREGATES = {"count", "sum", "min", "max", "avg"}


class FreshNames:
    """Fresh-variable generator (prefix + counter, avoiding collisions)."""

    def __init__(self, taken: set[str]):
        self._taken = set(taken)
        self._counter = 0

    def fresh(self, prefix: str) -> str:
        while True:
            self._counter += 1
            candidate = f"{prefix}{self._counter}"
            if candidate not in self._taken:
                self._taken.add(candidate)
                return candidate


# ----------------------------------------------------------------------
# Generic AST traversal helpers
# ----------------------------------------------------------------------
def walk_expr(node, visit: Callable) -> None:
    """Call ``visit`` on every sub-expression (pre-order)."""
    visit(node)
    if isinstance(node, ast.FLWR):
        for clause in node.clauses:
            walk_expr(clause.source if isinstance(clause, ast.ForClause)
                      else clause.expr, visit)
        if node.where is not None:
            walk_expr(node.where, visit)
        walk_expr(node.ret, visit)
    elif isinstance(node, ast.Quantified):
        walk_expr(node.source, visit)
        walk_expr(node.pred, visit)
    elif isinstance(node, ast.PathExpr):
        walk_expr(node.source, visit)
        for step in node.path.steps:
            for predicate in step.predicates:
                if isinstance(predicate, OpaquePredicate):
                    walk_expr(predicate.payload, visit)
    elif isinstance(node, ast.FuncCall):
        for arg in node.args:
            walk_expr(arg, visit)
    elif isinstance(node, ast.Comparison):
        walk_expr(node.left, visit)
        walk_expr(node.right, visit)
    elif isinstance(node, ast.BoolOp):
        for term in node.terms:
            walk_expr(term, visit)
    elif isinstance(node, ast.ElementCtor):
        for _, parts in node.attributes:
            for part in parts:
                if isinstance(part, ast.ExprPart):
                    walk_expr(part.expr, visit)
        for item in node.content:
            if isinstance(item, ast.ExprPart):
                walk_expr(item.expr, visit)
            elif isinstance(item, ast.ElementCtor):
                walk_expr(item, visit)


def collect_variables(expr) -> set[str]:
    """All variable names bound or referenced anywhere in the AST."""
    names: set[str] = set()

    def visit(node) -> None:
        if isinstance(node, ast.VarRef):
            names.add(node.name)
        elif isinstance(node, ast.FLWR):
            for clause in node.clauses:
                names.add(clause.var)
        elif isinstance(node, ast.Quantified):
            names.add(node.var)

    walk_expr(expr, visit)
    return names


def substitute_var(expr, var: str, replacement):
    """Capture-avoiding substitution of ``$var`` by ``replacement``."""
    if isinstance(expr, ast.VarRef):
        return replacement if expr.name == var else expr
    if isinstance(expr, ast.PathExpr):
        return ast.PathExpr(substitute_var(expr.source, var, replacement),
                            expr.path)
    if isinstance(expr, ast.Comparison):
        return ast.Comparison(substitute_var(expr.left, var, replacement),
                              expr.op,
                              substitute_var(expr.right, var, replacement))
    if isinstance(expr, ast.BoolOp):
        return ast.BoolOp(expr.op, tuple(
            substitute_var(t, var, replacement) for t in expr.terms))
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(expr.name, tuple(
            substitute_var(a, var, replacement) for a in expr.args))
    if isinstance(expr, ast.Quantified):
        if expr.var == var:
            return expr
        return ast.Quantified(
            expr.kind, expr.var,
            substitute_var(expr.source, var, replacement),
            substitute_var(expr.pred, var, replacement))
    if isinstance(expr, ast.FLWR):
        bound = {c.var for c in expr.clauses}
        if var in bound:
            return expr
        clauses = tuple(
            ast.ForClause(c.var,
                          substitute_var(c.source, var, replacement))
            if isinstance(c, ast.ForClause)
            else ast.LetClause(c.var,
                               substitute_var(c.expr, var, replacement))
            for c in expr.clauses)
        where = None if expr.where is None else \
            substitute_var(expr.where, var, replacement)
        return ast.FLWR(clauses, where,
                        substitute_var(expr.ret, var, replacement))
    if isinstance(expr, ast.ElementCtor):
        attributes = tuple(
            (name, tuple(
                ast.ExprPart(substitute_var(p.expr, var, replacement))
                if isinstance(p, ast.ExprPart) else p for p in parts))
            for name, parts in expr.attributes)
        content = tuple(
            substitute_var(c, var, replacement)
            if isinstance(c, ast.ElementCtor)
            else (ast.ExprPart(substitute_var(c.expr, var, replacement))
                  if isinstance(c, ast.ExprPart) else c)
            for c in expr.content)
        return ast.ElementCtor(expr.name, attributes, content)
    return expr


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def normalize(query) -> ast.FLWR:
    """Run all normalization passes; the result is a FLWR whose nested
    query blocks all sit in ``let`` clauses or quantifier ranges.

    ``order by`` (an extension; the paper leaves it untreated) is
    supported on the *outermost* FLWR only: it is detached before the
    passes — which rebuild FLWRs without it — and re-attached to the
    result.  An ``order by`` on an inner block is rejected: its
    interaction with the unnesting equivalences is exactly the open
    problem the paper defers.
    """
    if not isinstance(query, ast.FLWR):
        raise TranslationError("top-level query must be a FLWR expression")
    _reject_inner_order_by(query)
    order_by = query.order_by
    if order_by:
        query = ast.FLWR(query.clauses, query.where, query.ret)
    fresh = FreshNames(collect_variables(query))
    result = _normalize_flwr(query, fresh, top_level=True,
                             in_quantifier=False, doc_env={})
    if order_by:
        result = ast.FLWR(result.clauses, result.where, result.ret,
                          order_by)
    return result


def _reject_inner_order_by(query: ast.FLWR) -> None:
    def visit(node) -> None:
        if isinstance(node, ast.FLWR) and node is not query \
                and node.order_by:
            raise TranslationError(
                "order by is only supported on the outermost FLWR; "
                "unnesting under an inner order by is not defined by "
                "the paper's equivalences")

    walk_expr(query, visit)


def _normalize_flwr(flwr: ast.FLWR, fresh: FreshNames, top_level: bool,
                    in_quantifier: bool,
                    doc_env: dict[str, ast.DocCall]) -> ast.FLWR:
    local_env = dict(doc_env)
    for clause in flwr.clauses:
        if isinstance(clause, ast.LetClause) and \
                isinstance(clause.expr, ast.DocCall):
            local_env[clause.var] = clause.expr

    flwr = _lift_for_clause_predicates(flwr, fresh)
    flwr = _extract_nested_from_return(flwr, fresh)
    flwr = _rewrite_where(flwr, fresh, local_env)
    flwr = _introduce_variables(flwr, fresh, top_level, in_quantifier)
    flwr = _normalize_inner_lets(flwr, fresh, local_env)
    return flwr


def _localize_docs(expr, doc_env: dict[str, ast.DocCall]):
    """Inline outer document variables into an inner block so its free
    variables are genuine correlation variables only."""
    for var, doc_call in doc_env.items():
        expr = substitute_var(expr, var, doc_call)
    return expr


# ----------------------------------------------------------------------
# Pass 1: predicate lifting (and for-clause splitting)
# ----------------------------------------------------------------------
def _lift_for_clause_predicates(flwr: ast.FLWR,
                                fresh: FreshNames) -> ast.FLWR:
    changed = True
    while changed:
        changed = False
        clauses: list[ast.ForClause | ast.LetClause] = []
        conjuncts: list[ast.Expr] = []
        for clause in flwr.clauses:
            if isinstance(clause, ast.ForClause) \
                    and isinstance(clause.source, ast.PathExpr) \
                    and _has_liftable_predicates(clause.source.path):
                changed = True
                clauses.extend(_split_for_clause(clause, fresh, conjuncts))
            else:
                clauses.append(clause)
        if changed:
            where = flwr.where
            for conjunct in reversed(conjuncts):
                where = conjunct if where is None else \
                    ast.BoolOp("and", (conjunct, where))
            flwr = ast.FLWR(tuple(clauses), where, flwr.ret)
    return flwr


def _has_liftable_predicates(path: Path) -> bool:
    return any(step.predicates for step in path.steps)


def _split_for_clause(clause: ast.ForClause, fresh: FreshNames,
                      conjuncts: list[ast.Expr]) -> list[ast.ForClause]:
    """Split ``for $x in p1[q]/p2`` at the last predicated step."""
    path = clause.source.path
    last_predicated = max(i for i, s in enumerate(path.steps)
                          if s.predicates)
    head_steps = list(path.steps[:last_predicated + 1])
    predicated = head_steps[-1]
    head_steps[-1] = Step(predicated.axis, predicated.test, ())
    tail_steps = path.steps[last_predicated + 1:]

    if tail_steps:
        head_var = fresh.fresh("r")
    else:
        head_var = clause.var
    head = ast.ForClause(head_var,
                         ast.PathExpr(clause.source.source,
                                      Path(tuple(head_steps),
                                           absolute=path.absolute)))
    for predicate in predicated.predicates:
        conjuncts.append(_predicate_to_expr(predicate, head_var))
    result = [head]
    if tail_steps:
        result.append(ast.ForClause(
            clause.var,
            ast.PathExpr(ast.VarRef(head_var),
                         Path(tuple(tail_steps), absolute=False))))
    return result


def _predicate_to_expr(predicate, var: str) -> ast.Expr:
    """Rebase an XPath predicate onto the range variable ``$var``."""
    base = ast.VarRef(var)
    if isinstance(predicate, PathPredicate):
        return ast.FuncCall("exists",
                            (ast.PathExpr(base, predicate.path),))
    if isinstance(predicate, ComparisonPredicate):
        return ast.Comparison(ast.PathExpr(base, predicate.path),
                              predicate.op,
                              ast.Literal(predicate.value, predicate.slot))
    if isinstance(predicate, OpaquePredicate):
        return _rebase_context(predicate.payload, base)
    raise TranslationError(f"cannot lift predicate {predicate!r}")


def _rebase_context(expr, base):
    """Replace context-relative paths by paths from ``base``."""
    if isinstance(expr, ast.PathExpr) and \
            isinstance(expr.source, ast.ContextItem):
        return ast.PathExpr(base, expr.path)
    if isinstance(expr, ast.Comparison):
        return ast.Comparison(_rebase_context(expr.left, base), expr.op,
                              _rebase_context(expr.right, base))
    if isinstance(expr, ast.BoolOp):
        return ast.BoolOp(expr.op, tuple(
            _rebase_context(t, base) for t in expr.terms))
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(expr.name, tuple(
            _rebase_context(a, base) for a in expr.args))
    return expr


# ----------------------------------------------------------------------
# Pass 2: nested query extraction from return (and aggregate fusion)
# ----------------------------------------------------------------------
def _extract_nested_from_return(flwr: ast.FLWR,
                                fresh: FreshNames) -> ast.FLWR:
    new_lets: list[ast.LetClause] = []
    dropped_lets: set[str] = set()
    let_bindings = {c.var: c.expr for c in flwr.clauses
                    if isinstance(c, ast.LetClause)}
    uses = _count_uses_in_where_and_return(flwr)

    def extract(expr):
        if isinstance(expr, ast.FLWR):
            var = fresh.fresh("t")
            new_lets.append(ast.LetClause(var, expr))
            return ast.VarRef(var)
        if isinstance(expr, ast.FuncCall) and expr.name in _AGGREGATES \
                and len(expr.args) == 1:
            arg = expr.args[0]
            if isinstance(arg, ast.FLWR):
                var = fresh.fresh("m")
                new_lets.append(ast.LetClause(var, expr))
                return ast.VarRef(var)
            if isinstance(arg, ast.VarRef) \
                    and isinstance(let_bindings.get(arg.name), ast.FLWR) \
                    and uses.get(arg.name, 0) == 1:
                # Fuse min($p1) with `let $p1 := <nested>` into
                # `let $m := min(<nested>)` (the paper's Q2 rewrite).
                var = fresh.fresh("m")
                new_lets.append(ast.LetClause(var, ast.FuncCall(
                    expr.name, (let_bindings[arg.name],))))
                dropped_lets.add(arg.name)
                return ast.VarRef(var)
        return expr

    new_ret = _map_constructor_exprs(flwr.ret, extract)
    if not new_lets and not dropped_lets:
        return flwr
    clauses = [c for c in flwr.clauses
               if not (isinstance(c, ast.LetClause)
                       and c.var in dropped_lets)]
    clauses.extend(new_lets)
    return ast.FLWR(tuple(clauses), flwr.where, new_ret)


def _count_uses_in_where_and_return(flwr: ast.FLWR) -> dict[str, int]:
    counts: dict[str, int] = {}

    def visit(node) -> None:
        if isinstance(node, ast.VarRef):
            counts[node.name] = counts.get(node.name, 0) + 1

    if flwr.where is not None:
        walk_expr(flwr.where, visit)
    walk_expr(flwr.ret, visit)
    return counts


def _map_constructor_exprs(expr, transform: Callable):
    """Apply ``transform`` to every embedded expression of a constructor
    (recursively); a non-constructor return is transformed directly."""
    if isinstance(expr, ast.ElementCtor):
        attributes = tuple(
            (name, tuple(
                ast.ExprPart(_map_constructor_exprs(p.expr, transform))
                if isinstance(p, ast.ExprPart) else p
                for p in parts))
            for name, parts in expr.attributes)
        content = tuple(
            _map_constructor_exprs(c, transform)
            if isinstance(c, ast.ElementCtor)
            else (ast.ExprPart(_map_constructor_exprs(c.expr, transform))
                  if isinstance(c, ast.ExprPart) else c)
            for c in expr.content)
        return ast.ElementCtor(expr.name, attributes, content)
    if isinstance(expr, ast.TextPart):
        return expr
    return transform(expr)


# ----------------------------------------------------------------------
# Pass 3: where-clause rewriting (quantifiers, aggregates)
# ----------------------------------------------------------------------
def _rewrite_where(flwr: ast.FLWR, fresh: FreshNames,
                   doc_env: dict[str, ast.DocCall]) -> ast.FLWR:
    if flwr.where is None:
        return flwr
    new_lets: list[ast.LetClause] = []
    where = _rewrite_pred(flwr.where, fresh, new_lets, doc_env)
    clauses = list(flwr.clauses) + list(new_lets)
    return ast.FLWR(tuple(clauses), where, flwr.ret)


def _rewrite_pred(pred, fresh: FreshNames,
                  new_lets: list[ast.LetClause],
                  doc_env: dict[str, ast.DocCall]):
    if isinstance(pred, ast.BoolOp):
        return ast.BoolOp(pred.op, tuple(
            _rewrite_pred(t, fresh, new_lets, doc_env)
            for t in pred.terms))
    if isinstance(pred, ast.FuncCall) and pred.name == "not" \
            and len(pred.args) == 1:
        return ast.FuncCall("not", (_rewrite_pred(
            pred.args[0], fresh, new_lets, doc_env),))
    if isinstance(pred, ast.Quantified):
        return _prepare_quantifier(pred, fresh, doc_env)
    if isinstance(pred, ast.FuncCall) and pred.name == "exists" \
            and len(pred.args) == 1:
        var = fresh.fresh("q")
        quant = ast.Quantified("some", var, pred.args[0],
                               ast.FuncCall("true", ()))
        return _prepare_quantifier(quant, fresh, doc_env)
    if isinstance(pred, ast.FuncCall) and pred.name == "empty" \
            and len(pred.args) == 1:
        var = fresh.fresh("q")
        quant = ast.Quantified("some", var, pred.args[0],
                               ast.FuncCall("true", ()))
        return ast.FuncCall(
            "not", (_prepare_quantifier(quant, fresh, doc_env),))
    if isinstance(pred, ast.Comparison):
        left = _extract_where_aggregate(pred.left, fresh, new_lets,
                                        doc_env)
        right = _extract_where_aggregate(pred.right, fresh, new_lets,
                                         doc_env)
        if left is not pred.left or right is not pred.right:
            return ast.Comparison(left, pred.op, right)
    return pred


def _extract_where_aggregate(expr, fresh: FreshNames,
                             new_lets: list[ast.LetClause],
                             doc_env: dict[str, ast.DocCall]):
    """An aggregate over a nested query (or a correlated path) in a where
    comparison becomes a fresh let variable (the paper's Q1.4.4.14)."""
    if not isinstance(expr, ast.FuncCall) \
            or expr.name not in _AGGREGATES or len(expr.args) != 1:
        return expr
    arg = expr.args[0]
    if isinstance(arg, ast.FLWR):
        nested = arg
    elif _is_correlated_path(arg):
        nested = _path_to_flwr(arg, fresh)
    else:
        return expr
    nested = _localize_docs(nested, doc_env)
    var = fresh.fresh("c")
    new_lets.append(ast.LetClause(var, ast.FuncCall(expr.name, (nested,))))
    return ast.VarRef(var)


def _is_correlated_path(expr) -> bool:
    if not isinstance(expr, ast.PathExpr):
        return False
    return any(isinstance(p, OpaquePredicate)
               for step in expr.path.steps for p in step.predicates)


def _path_to_flwr(expr, fresh: FreshNames) -> ast.FLWR:
    """Embed a (possibly predicated) path expression in a FLWR."""
    var = fresh.fresh("r")
    flwr = ast.FLWR((ast.ForClause(var, expr),), None, ast.VarRef(var))
    return _lift_for_clause_predicates(flwr, fresh)


def _prepare_quantifier(quant: ast.Quantified, fresh: FreshNames,
                        doc_env: dict[str, ast.DocCall]) -> ast.Quantified:
    """Normalize a quantified predicate:

    - embed the range in a FLWR and localize document variables;
    - retarget the range when the ``satisfies`` predicate navigates from
      the quantified variable;
    - for ∃, move the ``satisfies`` predicate into the range's where
      (σ_{∃x∈Π(σ_p)} true ≡ σ_{∃x∈Π} p — valid only existentially);
    - recursively normalize the range block.
    """
    source = quant.source
    if not isinstance(source, ast.FLWR):
        source = _path_to_flwr(source, fresh)
    else:
        source = _lift_for_clause_predicates(source, fresh)
    source = _localize_docs(source, doc_env)
    pred = quant.pred

    pred, source = _retarget_range(quant.var, pred, source, fresh)

    if quant.kind == "some" and not _is_trivially_true(pred):
        inner_var = _flwr_return_var(source)
        moved = substitute_var(pred, quant.var, ast.VarRef(inner_var))
        where = moved if source.where is None else \
            ast.BoolOp("and", (source.where, moved))
        source = ast.FLWR(source.clauses, where, source.ret)
        pred = ast.FuncCall("true", ())

    source = _normalize_flwr(source, fresh, top_level=False,
                             in_quantifier=True, doc_env={})
    return ast.Quantified(quant.kind, quant.var, source, pred)


def _retarget_range(var: str, pred, source: ast.FLWR,
                    fresh: FreshNames) -> tuple:
    """If every use of the quantified variable in ``pred`` navigates the
    same path (``$b2/@year``), bind that path in the range and return it
    instead, so the quantifier ranges over the values the predicate needs
    (the paper's Q5 rewrite).  Requires the range to return a variable."""
    paths: set[str] = set()
    objects: set[Path] = set()
    bare = [False]

    def scan(node) -> None:
        if isinstance(node, ast.PathExpr):
            if isinstance(node.source, ast.VarRef) and \
                    node.source.name == var:
                paths.add(str(node.path))
                objects.add(node.path)
            else:
                scan(node.source)
            return
        if isinstance(node, ast.VarRef):
            if node.name == var:
                bare[0] = True
            return
        if isinstance(node, ast.Comparison):
            scan(node.left)
            scan(node.right)
        elif isinstance(node, ast.BoolOp):
            for term in node.terms:
                scan(term)
        elif isinstance(node, ast.FuncCall):
            for arg in node.args:
                scan(arg)

    scan(pred)
    if not paths:
        return pred, source
    if len(paths) > 1 or bare[0]:
        raise TranslationError(
            "quantifier predicate navigates multiple paths from the "
            f"quantified variable ${var}; cannot retarget the range")
    if not isinstance(source.ret, ast.VarRef):
        raise TranslationError(
            "cannot retarget a quantifier range that does not return a "
            "variable")
    the_path = next(iter(paths))

    def find_path(node):
        if isinstance(node, ast.PathExpr) and \
                isinstance(node.source, ast.VarRef) and \
                node.source.name == var and str(node.path) == the_path:
            return True
        return False

    value_var = fresh.fresh("y")
    if len(objects) == 1:
        value_path = next(iter(objects))
    else:
        # Equal text from different literals (``[a = 5]`` twice): the
        # re-read path carries no slots, so the literals' values become
        # part of the plan's cache key instead of being bound.
        from repro.xpath.parser import parse_path
        value_path = parse_path(the_path)
    let = ast.LetClause(value_var, ast.PathExpr(source.ret, value_path))
    new_source = ast.FLWR(source.clauses + (let,), source.where,
                          ast.VarRef(value_var))

    def replace(node):
        if find_path(node):
            return ast.VarRef(var)
        if isinstance(node, ast.Comparison):
            return ast.Comparison(replace(node.left), node.op,
                                  replace(node.right))
        if isinstance(node, ast.BoolOp):
            return ast.BoolOp(node.op,
                              tuple(replace(t) for t in node.terms))
        if isinstance(node, ast.FuncCall):
            return ast.FuncCall(node.name,
                                tuple(replace(a) for a in node.args))
        return node

    return replace(pred), new_source


def _is_trivially_true(pred) -> bool:
    return isinstance(pred, ast.FuncCall) and pred.name == "true"


def _flwr_return_var(flwr: ast.FLWR) -> str:
    if isinstance(flwr.ret, ast.VarRef):
        return flwr.ret.name
    if isinstance(flwr.ret, ast.PathExpr) and \
            isinstance(flwr.ret.source, ast.VarRef) and \
            not flwr.ret.path.steps:
        return flwr.ret.source.name
    raise TranslationError(
        "inner query block must return a variable; got: "
        f"{flwr.ret}")


# ----------------------------------------------------------------------
# Pass 4: variable introduction
# ----------------------------------------------------------------------
def _introduce_variables(flwr: ast.FLWR, fresh: FreshNames,
                         top_level: bool, in_quantifier: bool) -> ast.FLWR:
    """Bind complex where/return operands to fresh variables.  Inside
    quantifier ranges paths are bound with ``for`` (unnesting — the
    equality correlation of Eqvs. 6/7); elsewhere with ``let`` (the ∈
    correlation of Eqvs. 4/5, resolved to a scalar by the translator when
    the DTD guarantees single values)."""
    new_clauses: list[ast.ForClause | ast.LetClause] = []

    def bind(expr, prefix: str):
        if isinstance(expr, (ast.VarRef, ast.Literal)):
            return expr
        if isinstance(expr, ast.PathExpr) and \
                isinstance(expr.source, ast.VarRef) and \
                not expr.path.has_predicates():
            var = fresh.fresh(prefix)
            if in_quantifier:
                new_clauses.append(ast.ForClause(var, expr))
            else:
                new_clauses.append(ast.LetClause(var, expr))
            return ast.VarRef(var)
        if isinstance(expr, ast.FuncCall) and \
                expr.name in ("decimal", "number", "string"):
            args = tuple(bind(a, prefix) for a in expr.args)
            var = fresh.fresh(prefix)
            new_clauses.append(
                ast.LetClause(var, ast.FuncCall(expr.name, args)))
            return ast.VarRef(var)
        return expr

    where = flwr.where
    if where is not None:
        where = _bind_pred_operands(where, bind)

    ret = flwr.ret
    if not top_level and not isinstance(ret, ast.VarRef):
        bound = bind(ret, "v")
        if not isinstance(bound, ast.VarRef):
            raise TranslationError(
                f"cannot normalize inner return expression: {flwr.ret}")
        ret = bound

    if not new_clauses and where is flwr.where and ret is flwr.ret:
        return flwr
    clauses = list(flwr.clauses) + new_clauses
    return ast.FLWR(tuple(clauses), where, ret)


def _bind_pred_operands(pred, bind: Callable):
    if isinstance(pred, ast.BoolOp):
        return ast.BoolOp(pred.op, tuple(
            _bind_pred_operands(t, bind) for t in pred.terms))
    if isinstance(pred, ast.Comparison):
        return ast.Comparison(bind(pred.left, "w"), pred.op,
                              bind(pred.right, "w"))
    return pred


# ----------------------------------------------------------------------
# Pass 5: recurse into inner let-bound blocks
# ----------------------------------------------------------------------
def _normalize_inner_lets(flwr: ast.FLWR, fresh: FreshNames,
                          doc_env: dict[str, ast.DocCall]) -> ast.FLWR:
    clauses: list[ast.ForClause | ast.LetClause] = []
    for clause in flwr.clauses:
        if isinstance(clause, ast.LetClause):
            clauses.append(ast.LetClause(
                clause.var,
                _normalize_value(clause.expr, fresh, doc_env)))
        else:
            clauses.append(clause)
    return ast.FLWR(tuple(clauses), flwr.where, flwr.ret)


def _normalize_value(expr, fresh: FreshNames,
                     doc_env: dict[str, ast.DocCall]):
    if isinstance(expr, ast.FLWR):
        localized = _localize_docs(expr, doc_env)
        return _normalize_flwr(localized, fresh, top_level=False,
                               in_quantifier=False, doc_env={})
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(expr.name, tuple(
            _normalize_value(a, fresh, doc_env) for a in expr.args))
    return expr
