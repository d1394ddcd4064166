"""Translation of normalized XQuery into NAL — the T functions of Fig. 3.

The binary T translates FLWR clause lists against an accumulator plan
(starting from □): ``for`` becomes Υ, ``let`` becomes χ, ``where`` becomes
σ, a top-level ``return`` becomes Ξ and an inner ``return $v`` becomes
Π_v.  The unary T translates the remaining expression forms; quantifiers
become the ∃/∀ predicates whose range is a nested algebraic expression.

Two schema-informed decisions happen here, exactly as in the paper's §5
walk-throughs:

- a ``let``-bound path is a *scalar* χ when the DTD guarantees at most one
  result (every ``book`` has exactly one ``title``), and a sequence-valued
  χ with the ``e[a]`` tupling otherwise — in which case a correlation
  ``$a1 = $a2`` translates to the membership ``a1 ∈ a2`` of Eqvs. 4/5;
- provenance (:class:`~repro.optimizer.provenance.ColumnOrigin`) is
  stamped onto every path-derived attribute so the optimizer can check
  side conditions against the DTD.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TranslationError
from repro.nal import scalar as S
from repro.nal.algebra import Operator
from repro.nal.construct import Command, Construct, Lit, Out
from repro.nal.unary_ops import (
    Map,
    Project,
    Select,
    Singleton,
    Sort,
    UnnestMap,
)
from repro.optimizer.provenance import ColumnOrigin
from repro.xmldb.document import DocumentStore
from repro.xpath.ast import Path
from repro.xquery import ast


@dataclass
class VarInfo:
    """What the translator knows about a bound variable."""

    kind: str  # "doc" | "item" | "sequence" | "atomic" | "tuples"
    origin: ColumnOrigin | None = None
    item_attr: str | None = None


@dataclass
class Translation:
    """Result of translating a query: the plan plus variable metadata."""

    plan: Operator
    variables: dict[str, VarInfo]


def translate(query: ast.FLWR, store: DocumentStore) -> Translation:
    """Translate a *normalized* query into a NAL plan with nested
    algebraic expressions (the input to the unnesting optimizer)."""
    translator = _Translator(store)
    plan = translator.translate_flwr(query, top_level=True)
    return Translation(plan, translator.variables)


class _Translator:
    def __init__(self, store: DocumentStore):
        self.store = store
        self.variables: dict[str, VarInfo] = {}

    # ------------------------------------------------------------------
    # FLWR (the binary T)
    # ------------------------------------------------------------------
    def translate_flwr(self, flwr: ast.FLWR, top_level: bool) -> Operator:
        plan: Operator = Singleton()
        for clause in flwr.clauses:
            if isinstance(clause, ast.ForClause):
                plan = self._translate_for(plan, clause)
            else:
                plan = self._translate_let(plan, clause)
        if flwr.where is not None:
            plan = Select(plan, self.translate_pred(flwr.where))
        if flwr.order_by:
            plan = self._translate_order_by(plan, flwr.order_by)
        if top_level:
            commands = self.translate_constructor(flwr.ret)
            return Construct(plan, commands)
        if isinstance(flwr.ret, ast.VarRef):
            return Project(plan, [flwr.ret.name])
        raise TranslationError(
            f"inner block must return a variable; got {flwr.ret} "
            "(was the query normalized?)")

    def _translate_order_by(self, plan: Operator,
                            specs: tuple[ast.OrderSpec, ...]) -> Operator:
        """χ one attribute per order key, then a stable Sort on them.

        The key attributes stay in the tuples (Ξ ignores attributes its
        commands do not reference), keeping the plan shape simple.
        """
        key_attrs: list[str] = []
        descending: list[bool] = []
        for i, spec in enumerate(specs, start=1):
            attr = f"__ord{i}"
            plan = Map(plan, attr, self.translate_operand(spec.expr))
            key_attrs.append(attr)
            descending.append(spec.descending)
        return Sort(plan, key_attrs, descending)

    def _translate_for(self, plan: Operator,
                       clause: ast.ForClause) -> Operator:
        expr, origin, values = self._translate_range(clause.source)
        self.variables[clause.var] = VarInfo(
            "atomic" if values else "item", origin)
        return UnnestMap(plan, clause.var, expr, origin=origin)

    def _translate_range(self, source
                         ) -> tuple[S.ScalarExpr,
                                    ColumnOrigin | None, bool]:
        """Translate a for-clause range; returns (scalar, item origin,
        holds-atomized-values)."""
        if isinstance(source, ast.DocCall) and source.collection:
            # for $d in collection("pat"): one binding per matching
            # document root, in registration (= document) order.
            return (S.CollectionAccess(source.name),
                    ColumnOrigin(source.name, ()), False)
        if isinstance(source, ast.PathExpr):
            expr, origin = self._translate_path(source)
            return expr, origin, False
        if isinstance(source, ast.FuncCall) and \
                source.name == "distinct-values" and len(source.args) == 1:
            inner, origin, _ = self._translate_range(source.args[0])
            distinct = S.FuncCall("distinct-values", [inner])
            if origin is not None:
                origin = origin.with_distinct(values=True)
            return distinct, origin, True
        raise TranslationError(
            f"unsupported for-clause range expression: {source}")

    def _translate_let(self, plan: Operator,
                       clause: ast.LetClause) -> Operator:
        value = clause.expr
        var = clause.var
        if isinstance(value, ast.DocCall):
            origin = ColumnOrigin(value.name, ())
            if value.collection:
                item_attr = f"{var}_i"
                self.variables[var] = VarInfo("sequence", origin,
                                              item_attr=item_attr)
                return Map(plan, var,
                           S.TupledSeq(S.CollectionAccess(value.name),
                                       item_attr),
                           origin=origin, item_attr=item_attr)
            self.variables[var] = VarInfo("doc", origin)
            return Map(plan, var, S.DocAccess(value.name), origin=origin)
        if isinstance(value, ast.FLWR):
            inner = self.translate_flwr(value, top_level=False)
            out_attr = _projected_attr(inner)
            self.variables[var] = VarInfo("tuples", item_attr=out_attr)
            return Map(plan, var, S.NestedPlan(inner))
        if isinstance(value, ast.FuncCall) and \
                _contains_flwr_arg(value):
            expr = self._translate_call_with_blocks(value)
            self.variables[var] = VarInfo("atomic")
            return Map(plan, var, expr)
        if isinstance(value, ast.PathExpr):
            expr, origin = self._translate_path(value)
            if self._path_is_single(value, origin):
                self.variables[var] = VarInfo("item", origin)
                return Map(plan, var,
                           S.FuncCall("zero-or-one", [expr]),
                           origin=origin)
            item_attr = f"{var}_i"
            self.variables[var] = VarInfo("sequence", origin,
                                          item_attr=item_attr)
            return Map(plan, var, S.TupledSeq(expr, item_attr),
                       origin=origin, item_attr=item_attr)
        # General scalar expression (decimal($p2), concat(...), ...).
        expr = self.translate_operand(value)
        self.variables[var] = VarInfo("atomic")
        return Map(plan, var, expr)

    def _translate_call_with_blocks(self, call: ast.FuncCall
                                    ) -> S.ScalarExpr:
        args: list[S.ScalarExpr] = []
        for arg in call.args:
            if isinstance(arg, ast.FLWR):
                args.append(S.NestedPlan(
                    self.translate_flwr(arg, top_level=False)))
            else:
                args.append(self.translate_operand(arg))
        return S.FuncCall(call.name, args)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _translate_path(self, expr: ast.PathExpr
                        ) -> tuple[S.ScalarExpr, ColumnOrigin | None]:
        source = expr.source
        if isinstance(source, ast.DocCall) and source.collection:
            # collection("pat")//x: the roots are only known at
            # execution time, so no static root-step strip — the
            # dynamic collapse in ``_path_context`` covers it.
            base: S.ScalarExpr = S.CollectionAccess(source.name)
            base_origin: ColumnOrigin | None = ColumnOrigin(source.name,
                                                            ())
        elif isinstance(source, ast.DocCall):
            base = S.DocAccess(source.name)
            base_origin = ColumnOrigin(source.name, ())
            expr = ast.PathExpr(source,
                                self._strip_root_step(source.name,
                                                      expr.path))
        elif isinstance(source, ast.VarRef):
            base = S.AttrRef(source.name)
            info = self.variables.get(source.name)
            base_origin = info.origin if info is not None else None
        else:
            raise TranslationError(
                f"unsupported path source: {source} (context-relative "
                "paths must be normalized away)")
        origin = None
        if base_origin is not None:
            origin = base_origin.extend(expr.path)
        return S.PathApply(base, expr.path), origin

    def _strip_root_step(self, doc_name: str, path: Path) -> Path:
        """``doc("bib.xml")/bib/book``: the leading child step naming the
        root element is a self step — strip it statically so provenance
        and evaluation agree."""
        if doc_name not in self.store or not path.steps:
            return path
        root_name = self.store.get(doc_name).root.name
        first = path.steps[0]
        if first.axis == "child" and not first.predicates and \
                getattr(first.test, "name", None) == root_name:
            return Path(path.steps[1:], absolute=path.absolute)
        return path

    def _path_is_single(self, expr: ast.PathExpr,
                        origin: ColumnOrigin | None) -> bool:
        """DTD check: does this path yield at most one node per context
        node?  True only for chains of child/attribute steps whose every
        link the DTD bounds by one."""
        if origin is None:
            return False
        schema = self.store.schema_for(origin.doc) \
            if origin.doc in self.store else None
        if schema is None:
            return False
        steps = expr.path.simple_steps()
        if steps is None:
            return False
        source = expr.source
        if not isinstance(source, ast.VarRef):
            return False
        info = self.variables.get(source.name)
        if info is None or info.origin is None or info.origin.values:
            return False
        base_paths = schema.expand_from_root(info.origin.steps)
        if not base_paths:
            return False
        for axis, name in steps:
            if axis == "attribute":
                continue  # at most one attribute per name
            if axis != "child":
                return False
            if not all(schema.has_at_most_one(path[-1], name)
                       for path in base_paths):
                return False
            base_paths = frozenset(path + (name,) for path in base_paths)
        return True

    # ------------------------------------------------------------------
    # Predicates and operands (the unary T)
    # ------------------------------------------------------------------
    def translate_pred(self, pred) -> S.ScalarExpr:
        if isinstance(pred, ast.BoolOp):
            terms = [self.translate_pred(t) for t in pred.terms]
            return S.And(terms) if pred.op == "and" else S.Or(terms)
        if isinstance(pred, ast.FuncCall) and pred.name == "true" \
                and not pred.args:
            return S.TRUE
        if isinstance(pred, ast.FuncCall) and pred.name == "not" \
                and len(pred.args) == 1:
            return S.Not(self.translate_pred(pred.args[0]))
        if isinstance(pred, ast.Quantified):
            return self._translate_quantifier(pred)
        if isinstance(pred, ast.Comparison):
            return self._translate_comparison(pred)
        return self.translate_operand(pred)

    def _translate_quantifier(self, quant: ast.Quantified) -> S.ScalarExpr:
        if not isinstance(quant.source, ast.FLWR):
            raise TranslationError(
                "quantifier range must be a query block after "
                f"normalization; got {quant.source}")
        inner = self.translate_flwr(quant.source, top_level=False)
        self.variables[quant.var] = VarInfo("atomic")
        pred = self.translate_pred(quant.pred)
        cls = S.Exists if quant.kind == "some" else S.Forall
        return cls(quant.var, S.NestedPlan(inner), pred)

    def _translate_comparison(self, cmp: ast.Comparison) -> S.ScalarExpr:
        left = self.translate_operand(cmp.left)
        right = self.translate_operand(cmp.right)
        if cmp.op == "=":
            left_seq = self._is_sequence_var(cmp.left)
            right_seq = self._is_sequence_var(cmp.right)
            if right_seq and not left_seq:
                return S.In(left, right)
            if left_seq and not right_seq:
                return S.In(right, left)
        return S.Comparison(left, cmp.op, right)

    def _is_sequence_var(self, expr) -> bool:
        return (isinstance(expr, ast.VarRef)
                and expr.name in self.variables
                and self.variables[expr.name].kind == "sequence")

    def translate_operand(self, expr) -> S.ScalarExpr:
        if isinstance(expr, ast.VarRef):
            return S.AttrRef(expr.name)
        if isinstance(expr, ast.Literal):
            return S.Const(expr.value, expr.slot)
        if isinstance(expr, ast.DocCall):
            if expr.collection:
                return S.CollectionAccess(expr.name)
            return S.DocAccess(expr.name)
        if isinstance(expr, ast.PathExpr):
            scalar, _ = self._translate_path(expr)
            return scalar
        if isinstance(expr, ast.FuncCall):
            return S.FuncCall(expr.name, [
                self.translate_operand(a) for a in expr.args])
        if isinstance(expr, ast.Comparison):
            return self._translate_comparison(expr)
        if isinstance(expr, ast.BoolOp):
            return self.translate_pred(expr)
        raise TranslationError(f"unsupported operand expression: {expr}")

    # ------------------------------------------------------------------
    # Result construction (the C function)
    # ------------------------------------------------------------------
    def translate_constructor(self, expr) -> list[Command]:
        commands: list[Command] = []
        self._ctor_commands(expr, commands)
        return _merge_literals(commands)

    def _ctor_commands(self, expr, commands: list[Command]) -> None:
        if isinstance(expr, ast.ElementCtor):
            commands.append(Lit(f"<{expr.name}"))
            for name, parts in expr.attributes:
                commands.append(Lit(f' {name}="'))
                for part in parts:
                    self._ctor_part(part, commands)
                commands.append(Lit('"'))
            commands.append(Lit(">"))
            for item in expr.content:
                if isinstance(item, ast.ElementCtor):
                    self._ctor_commands(item, commands)
                else:
                    self._ctor_part(item, commands)
            commands.append(Lit(f"</{expr.name}>"))
            return
        # Non-constructor return: emit the value.
        commands.append(Out(self.translate_operand(expr)))

    def _ctor_part(self, part, commands: list[Command]) -> None:
        if isinstance(part, ast.TextPart):
            commands.append(Lit(part.text))
        elif isinstance(part, ast.ExprPart):
            commands.append(Out(self.translate_operand(part.expr)))
        else:
            raise TranslationError(f"unsupported constructor part {part!r}")


def _projected_attr(plan: Operator) -> str:
    if isinstance(plan, Project) and len(plan.attributes) == 1:
        return plan.attributes[0]
    raise TranslationError(
        "inner block plan must end in a single-attribute projection")


def _contains_flwr_arg(call: ast.FuncCall) -> bool:
    return any(isinstance(a, ast.FLWR) for a in call.args)


def _merge_literals(commands: list[Command]) -> list[Command]:
    merged: list[Command] = []
    for command in commands:
        if isinstance(command, Lit) and merged \
                and isinstance(merged[-1], Lit):
            merged[-1] = Lit(merged[-1].text + command.text)
        else:
            merged.append(command)
    return merged
