"""Scalar expressions — the subscript language of NAL operators.

NAL allows *nested algebraic expressions*: the predicate of a σ or the
defining expression of a χ may itself contain a full algebra plan
(:class:`NestedPlan`) or a quantifier ranging over one (:class:`Exists`,
:class:`Forall`).  Evaluating such subscripts forces nested-loop behaviour
— the inner plan runs once per outer tuple — and removing them is exactly
what the unnesting equivalences do.

Every expression supports:

- ``evaluate(env, ctx)`` — ``env`` is the tuple of variable bindings
  (outer tuple ◦ current tuple), ``ctx`` the engine context;
- ``free_attrs()`` — the free variables F(e);
- ``children()`` / ``rebuild(children)`` — uniform traversal used by the
  rewriter;
- structural equality (used heavily by the optimizer's matchers and tests).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import EvaluationError
from repro.nal.functions import call_function
from repro.nal.values import (
    Tup,
    effective_boolean,
    general_compare,
    iter_items,
)
from repro.xmldb.node import Node
from repro.xpath.ast import Path
from repro.xpath.evaluator import evaluate_path


class ScalarExpr:
    """Base class for scalar expressions."""

    def evaluate(self, env: Tup, ctx) -> Any:
        raise NotImplementedError

    def free_attrs(self) -> frozenset[str]:
        raise NotImplementedError

    def children(self) -> tuple:
        return ()

    def rebuild(self, children: tuple) -> "ScalarExpr":
        if children:
            raise EvaluationError(f"{type(self).__name__} has no children")
        return self

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return self._signature() == other._signature()  # type: ignore

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._signature()))

    def _signature(self) -> tuple:
        raise NotImplementedError


class Const(ScalarExpr):
    """A literal value.  ``slot`` numbers a literal that came from the
    query text (see :mod:`repro.optimizer.binding`); it takes part in
    equality, so no rewrite decision can hinge on two literals holding
    equal values."""

    def __init__(self, value: Any, slot: int | None = None):
        self.value = value
        self.slot = slot

    def evaluate(self, env: Tup, ctx) -> Any:
        return self.value

    def free_attrs(self) -> frozenset[str]:
        return frozenset()

    def _signature(self) -> tuple:
        return (repr(self.value), self.slot)

    def __repr__(self) -> str:
        return repr(self.value)


TRUE = Const(True)


class AttrRef(ScalarExpr):
    """Reference to an attribute / query variable."""

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, env: Tup, ctx) -> Any:
        return env[self.name]

    def free_attrs(self) -> frozenset[str]:
        return frozenset({self.name})

    def _signature(self) -> tuple:
        return (self.name,)

    def __repr__(self) -> str:
        return self.name


class Comparison(ScalarExpr):
    """General comparison ``left θ right`` with existential semantics over
    sequence-valued operands (XQuery's ``=`` on sequences)."""

    OPS = ("=", "!=", "<", "<=", ">", ">=")

    def __init__(self, left: ScalarExpr, op: str, right: ScalarExpr):
        if op not in self.OPS:
            raise EvaluationError(f"unknown comparison operator {op!r}")
        self.left = left
        self.op = op
        self.right = right

    def evaluate(self, env: Tup, ctx) -> bool:
        return general_compare(self.left.evaluate(env, ctx), self.op,
                               self.right.evaluate(env, ctx))

    def free_attrs(self) -> frozenset[str]:
        return self.left.free_attrs() | self.right.free_attrs()

    def children(self) -> tuple:
        return (self.left, self.right)

    def rebuild(self, children: tuple) -> "Comparison":
        left, right = children
        return Comparison(left, self.op, right)

    def _signature(self) -> tuple:
        return (self.left, self.op, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class In(ScalarExpr):
    """Membership ``item ∈ seq`` — the correlation form of Eqvs. 4/5.

    ``seq`` usually evaluates to a sequence of single-attribute tuples
    (the ``e[a]`` tupling of the paper); membership compares atomized
    values."""

    def __init__(self, item: ScalarExpr, seq: ScalarExpr):
        self.item = item
        self.seq = seq

    def evaluate(self, env: Tup, ctx) -> bool:
        return general_compare(self.item.evaluate(env, ctx), "=",
                               self.seq.evaluate(env, ctx))

    def free_attrs(self) -> frozenset[str]:
        return self.item.free_attrs() | self.seq.free_attrs()

    def children(self) -> tuple:
        return (self.item, self.seq)

    def rebuild(self, children: tuple) -> "In":
        item, seq = children
        return In(item, seq)

    def _signature(self) -> tuple:
        return (self.item, self.seq)

    def __repr__(self) -> str:
        return f"({self.item!r} ∈ {self.seq!r})"


class And(ScalarExpr):
    def __init__(self, terms: Sequence[ScalarExpr]):
        self.terms = tuple(terms)

    def evaluate(self, env: Tup, ctx) -> bool:
        return all(effective_boolean(t.evaluate(env, ctx))
                   for t in self.terms)

    def free_attrs(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for term in self.terms:
            result |= term.free_attrs()
        return result

    def children(self) -> tuple:
        return self.terms

    def rebuild(self, children: tuple) -> "And":
        return And(children)

    def _signature(self) -> tuple:
        return self.terms

    def __repr__(self) -> str:
        return "(" + " ∧ ".join(repr(t) for t in self.terms) + ")"


class Or(ScalarExpr):
    def __init__(self, terms: Sequence[ScalarExpr]):
        self.terms = tuple(terms)

    def evaluate(self, env: Tup, ctx) -> bool:
        return any(effective_boolean(t.evaluate(env, ctx))
                   for t in self.terms)

    def free_attrs(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for term in self.terms:
            result |= term.free_attrs()
        return result

    def children(self) -> tuple:
        return self.terms

    def rebuild(self, children: tuple) -> "Or":
        return Or(children)

    def _signature(self) -> tuple:
        return self.terms

    def __repr__(self) -> str:
        return "(" + " ∨ ".join(repr(t) for t in self.terms) + ")"


class Not(ScalarExpr):
    def __init__(self, term: ScalarExpr):
        self.term = term

    def evaluate(self, env: Tup, ctx) -> bool:
        return not effective_boolean(self.term.evaluate(env, ctx))

    def free_attrs(self) -> frozenset[str]:
        return self.term.free_attrs()

    def children(self) -> tuple:
        return (self.term,)

    def rebuild(self, children: tuple) -> "Not":
        return Not(children[0])

    def _signature(self) -> tuple:
        return (self.term,)

    def __repr__(self) -> str:
        return f"¬{self.term!r}"


class FuncCall(ScalarExpr):
    """Call into the XQuery function library."""

    def __init__(self, name: str, args: Sequence[ScalarExpr]):
        self.name = name
        self.args = tuple(args)

    def evaluate(self, env: Tup, ctx) -> Any:
        values = [a.evaluate(env, ctx) for a in self.args]
        return call_function(self.name, values)

    def free_attrs(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for arg in self.args:
            result |= arg.free_attrs()
        return result

    def children(self) -> tuple:
        return self.args

    def rebuild(self, children: tuple) -> "FuncCall":
        return FuncCall(self.name, children)

    def _signature(self) -> tuple:
        return (self.name, self.args)

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(repr(a) for a in self.args)})"


class DocAccess(ScalarExpr):
    """``doc("name")`` — the root element of a stored document."""

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, env: Tup, ctx) -> Node:
        return ctx.store.get(self.name).root

    def free_attrs(self) -> frozenset[str]:
        return frozenset()

    def _signature(self) -> tuple:
        return (self.name,)

    def __repr__(self) -> str:
        return f'doc("{self.name}")'


class CollectionAccess(ScalarExpr):
    """``collection("pattern")`` — the root elements of every stored
    document whose name matches the shell-style pattern, in
    registration (``seq``) order, which is global document order over
    roots.  An unmatched pattern yields the empty sequence."""

    def __init__(self, pattern: str):
        self.pattern = pattern

    def evaluate(self, env: Tup, ctx) -> list[Node]:
        return [doc.root for doc in ctx.store.collection(self.pattern)]

    def free_attrs(self) -> frozenset[str]:
        return frozenset()

    def _signature(self) -> tuple:
        return (self.pattern,)

    def __repr__(self) -> str:
        return f'collection("{self.pattern}")'


class PathApply(ScalarExpr):
    """Apply an XPath to the node(s) a source expression yields.

    When the source is a document root and the path's first step is a
    child test naming the root element itself (``doc("bib.xml")/bib``),
    the step is treated as ``self`` — the convenience the paper's queries
    rely on when they write ``$d2/book`` against a ``bib`` root.
    """

    def __init__(self, source: ScalarExpr, path: Path):
        self.source = source
        self.path = path

    def evaluate(self, env: Tup, ctx) -> list[Node]:
        nodes, path = _path_context(self, env, ctx)
        return evaluate_path(nodes, path, stats=ctx.stats)

    def free_attrs(self) -> frozenset[str]:
        return self.source.free_attrs()

    def children(self) -> tuple:
        return (self.source,)

    def rebuild(self, children: tuple) -> "PathApply":
        return PathApply(children[0], self.path)

    def _signature(self) -> tuple:
        return (self.source, str(self.path), self.path.slots())

    def __repr__(self) -> str:
        path_text = str(self.path)
        sep = "" if path_text.startswith("/") else "/"
        return f"{self.source!r}{sep}{path_text}"


def _path_context(expr: PathApply, env: Tup, ctx) -> tuple[list[Node],
                                                           Path]:
    """The context nodes and effective path of a :class:`PathApply`:
    evaluates the source, rejects non-node items, and collapses a
    leading child step that names the document root itself (the
    ``doc("bib.xml")/bib`` convenience) into ``self``."""
    value = expr.source.evaluate(env, ctx)
    nodes = [v for v in iter_items(value) if isinstance(v, Node)]
    if len(nodes) != len(iter_items(value)):
        raise EvaluationError(
            f"path applied to non-node value(s): {value!r}")
    path = expr.path
    if nodes and path.steps:
        first = path.steps[0]
        if (first.axis == "child"
                and all(n.parent is None for n in nodes)
                and all(getattr(first.test, "name", None) == n.name
                        for n in nodes)):
            path = Path(path.steps[1:], absolute=path.absolute)
    return nodes, path


class NestedPlan(ScalarExpr):
    """A nested algebraic expression: evaluating it runs the inner plan
    with the outer tuple's bindings — the nested-loop strategy the
    unnesting equivalences eliminate."""

    def __init__(self, plan):
        self.plan = plan
        self._constructs: bool | None = None
        self._slicing: tuple | None = None

    def constructs(self) -> bool:
        """Whether the plan holds a Ξ, whose output is a side effect:
        such a plan is always drained through its definition.  Plans
        are immutable, so the walk happens once, not per outer tuple."""
        if self._constructs is None:
            from repro.nal.construct import contains_construct
            self._constructs = contains_construct(self.plan)
        return self._constructs

    def slicing(self) -> tuple:
        """How a boolean context pulls the plan a slice at a time
        (:func:`repro.engine.pipeline.slicing`), worked out once."""
        if self._slicing is None:
            from repro.engine.pipeline import slicing
            self._slicing = slicing(self.plan)
        return self._slicing

    def evaluate(self, env: Tup, ctx) -> list[Tup]:
        # The nested-loop hot path: one inner-plan evaluation per outer
        # tuple.  This is where un-unnested plans spend quadratic time,
        # so the cooperative per-request deadline is checked here (the
        # engines' own checks only run between operator invocations).
        if ctx.deadline is not None:
            ctx.check_deadline()
        # Still once per outer tuple, but on the engine that is running
        # the host plan; with none (the definitional evaluator, the
        # oracle) the inner plan is evaluated by its definition too.
        engine = ctx.nested_engine
        if engine is None or self.constructs():
            return self.plan.evaluate(ctx, env)
        return engine(self.plan, ctx, env, None).to_rows()

    def free_attrs(self) -> frozenset[str]:
        return self.plan.free_vars()

    def _signature(self) -> tuple:
        return (self.plan,)

    def __repr__(self) -> str:
        return f"⟨{self.plan!r}⟩"


class TupledSeq(ScalarExpr):
    """The paper's ``e[a]`` constructor: wrap each item of a sequence into
    a tuple with single attribute ``a``."""

    def __init__(self, inner: ScalarExpr, attr: str):
        self.inner = inner
        self.attr = attr

    def evaluate(self, env: Tup, ctx) -> list[Tup]:
        return [Tup({self.attr: item})
                for item in iter_items(self.inner.evaluate(env, ctx))]

    def free_attrs(self) -> frozenset[str]:
        return self.inner.free_attrs()

    def children(self) -> tuple:
        return (self.inner,)

    def rebuild(self, children: tuple) -> "TupledSeq":
        return TupledSeq(children[0], self.attr)

    def _signature(self) -> tuple:
        return (self.inner, self.attr)

    def __repr__(self) -> str:
        return f"{self.inner!r}[{self.attr}]"


class _Quantifier(ScalarExpr):
    """Common machinery of ∃ / ∀ over a nested expression.

    The source usually is a :class:`NestedPlan` whose plan ends in a
    projection to a single attribute; the bound variable takes that
    attribute's value per tuple (the paper's ``∃x ∈ Πx'(...) p``)."""

    def __init__(self, var: str, source: ScalarExpr, pred: ScalarExpr):
        self.var = var
        self.source = source
        self.pred = pred

    def _bindings(self, env: Tup, ctx):
        for item in iter_items(self.source.evaluate(env, ctx)):
            if isinstance(item, Tup):
                values = [v for _, v in item.items()]
                if len(values) != 1:
                    raise EvaluationError(
                        "quantifier range must yield single values; got "
                        f"{item!r}")
                yield env.extend(self.var, values[0])
            else:
                yield env.extend(self.var, item)

    def free_attrs(self) -> frozenset[str]:
        return self.source.free_attrs() | \
            (self.pred.free_attrs() - {self.var})

    def children(self) -> tuple:
        return (self.source, self.pred)

    def _signature(self) -> tuple:
        return (self.var, self.source, self.pred)


class Exists(_Quantifier):
    """``some $x in ... satisfies p``."""

    def evaluate(self, env: Tup, ctx) -> bool:
        return any(effective_boolean(self.pred.evaluate(bound, ctx))
                   for bound in self._bindings(env, ctx))

    def rebuild(self, children: tuple) -> "Exists":
        source, pred = children
        return Exists(self.var, source, pred)

    def __repr__(self) -> str:
        return f"∃{self.var}∈{self.source!r}: {self.pred!r}"


class Forall(_Quantifier):
    """``every $x in ... satisfies p``."""

    def evaluate(self, env: Tup, ctx) -> bool:
        return all(effective_boolean(self.pred.evaluate(bound, ctx))
                   for bound in self._bindings(env, ctx))

    def rebuild(self, children: tuple) -> "Forall":
        source, pred = children
        return Forall(self.var, source, pred)

    def __repr__(self) -> str:
        return f"∀{self.var}∈{self.source!r}: {self.pred!r}"


# ----------------------------------------------------------------------
# Expression utilities used by the rewriter
# ----------------------------------------------------------------------
def rename_attrs(expr: ScalarExpr, mapping: dict[str, str]) -> ScalarExpr:
    """Rename free attribute references (the p → p' substitution of
    Eqvs. 6/7).  Quantifier-bound variables shadow the mapping."""
    if isinstance(expr, AttrRef):
        return AttrRef(mapping.get(expr.name, expr.name))
    if isinstance(expr, _Quantifier):
        inner_mapping = {k: v for k, v in mapping.items() if k != expr.var}
        source = rename_attrs(expr.source, mapping)
        pred = rename_attrs(expr.pred, inner_mapping)
        return type(expr)(expr.var, source, pred)
    if isinstance(expr, NestedPlan):
        # Nested plans close over their own attribute namespace; only free
        # variables could be renamed, which the rewriter never needs.
        if expr.free_attrs() & set(mapping):
            raise EvaluationError(
                "renaming free variables inside a nested plan is not "
                "supported")
        return expr
    children = expr.children()
    if not children:
        return expr
    return expr.rebuild(tuple(rename_attrs(c, mapping) for c in children))


def conjuncts(pred: ScalarExpr) -> list[ScalarExpr]:
    """Flatten a predicate into its top-level conjuncts."""
    if isinstance(pred, And):
        result: list[ScalarExpr] = []
        for term in pred.terms:
            result.extend(conjuncts(term))
        return result
    if isinstance(pred, Const) and pred.value is True:
        return []
    return [pred]


def make_conjunction(preds: list[ScalarExpr]) -> ScalarExpr:
    if not preds:
        return TRUE
    if len(preds) == 1:
        return preds[0]
    return And(preds)


def negate(pred: ScalarExpr) -> ScalarExpr:
    """¬p, simplifying comparisons (``¬(y > 1993)`` becomes
    ``y <= 1993`` as in the paper's §5.5 plan)."""
    flipped = {"=": "!=", "!=": "=", "<": ">=", "<=": ">",
               ">": "<=", ">=": "<"}
    if isinstance(pred, Comparison):
        return Comparison(pred.left, flipped[pred.op], pred.right)
    if isinstance(pred, Not):
        return pred.term
    if isinstance(pred, Const) and isinstance(pred.value, bool):
        return Const(not pred.value)
    return Not(pred)
