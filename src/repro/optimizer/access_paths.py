"""Access-path selection: rewrite document scans into index probes.

The translator answers every ``for $x in $d//tag`` with an Υ whose
subscript walks the document; with indexes available (``index_mode`` of
``"lazy"`` or ``"eager"`` on the store) this pass offers the optimizer a
second physical choice.  Two patterns are recognised:

- **structural**: ``Υ[x: d/…path…]`` over a statically-known document,
  where the path is a predicate-free chain of child/descendant/attribute
  name steps — replaced by ``child × IdxScan[x]`` probing the element
  index (a single ``//tag`` step) or the path index (longer patterns).
  The cross product is exact, not an approximation: the subscript does
  not depend on the input tuple, and both sides emit document order, so
  the left-major sequence is unchanged.
- **value**: ``σ[x/rel θ const](Υ[x: d/…path…])`` where ``rel`` is a
  chain of child/attribute steps to a value-indexed (atomic) path and θ
  is ``=``/``<``/``<=``/``>``/``>=`` — replaced by a value-index probe
  on the concatenated pattern, with each qualifying leaf *lifted* back
  to its ``x`` ancestor.  The comparison's existential semantics over
  the node set ("some leaf under x satisfies θ") is exactly the lifted,
  duplicate-eliminated probe result.  The normalizer usually routes the
  comparison through a ``let`` (``χ[w: zero-or-one(x/rel)]`` under a
  DTD, ``χ[w: (x/rel)[w']]`` without), so the matcher follows σ's
  attribute references through the intervening χ chain down to the Υ.

Rewrites also descend into nested subscript plans, so even the paper's
"nested" plans get per-outer-tuple probes instead of per-outer-tuple
scans.  A rewritten plan is kept only if the cost model prices it below
the scan plan — the "whenever there are alternative applications, the
most efficient plan should be chosen" rule the paper leaves implicit.

That comparison is the one rewrite decision that reads a query
literal's value: a value probe's price is the index's count of matching
values.  When a probe's value came from the query text,
:func:`choose_access_path` returns the decision as a
:class:`ProbeChoice`, which a plan bound to other constants re-prices
(:mod:`repro.session`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.index.probes import IndexProbe
from repro.nal.algebra import Operator
from repro.nal.join_ops import Cross
from repro.nal.scalar import (
    AttrRef,
    Comparison,
    Const,
    DocAccess,
    FuncCall,
    NestedPlan,
    PathApply,
    ScalarExpr,
    TupledSeq,
    conjuncts,
    make_conjunction,
)
from repro.nal.unary_ops import IndexScan, Map, Select, UnnestMap
from repro.optimizer.cost import CostModel, _collect_doc_bindings
from repro.xmldb.document import DocumentStore

#: θ with operands swapped (``const θ path`` ⇒ ``path θ' const``);
#: doubles as the supported-operator set (``!=`` is deliberately absent).
_FLIP = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def apply_access_paths(plan: Operator, store: DocumentStore,
                       model: CostModel | None = None) -> Operator | None:
    """The plan with scans replaced by index probes, or ``None`` when no
    site matched or the cost model did not prefer the rewrite."""
    return choose_access_path(plan, store, model)[0]


@dataclass(frozen=True)
class ProbeChoice:
    """An access-path decision that read a query literal: the probe
    plan, the scan plan's estimated cost, and whether the probe won."""

    candidate: Operator
    scan_cost: float
    taken: bool

    def holds(self, values, model: CostModel) -> bool:
        """Whether the same decision stands with the slots bound to
        ``values`` (the scan plan's price reads no literal)."""
        from repro.optimizer.binding import bind_plan
        probe = bind_plan(self.candidate, values)
        return _probe_wins(model.estimate(probe).total,
                           self.scan_cost) == self.taken


def choose_access_path(plan: Operator, store: DocumentStore,
                       model: CostModel | None = None
                       ) -> tuple[Operator | None, ProbeChoice | None]:
    """``(probe plan or None, the decision when it read a literal)``:
    :func:`apply_access_paths` plus the :class:`ProbeChoice` a binding
    must re-check — None when no value probe's value is a slot."""
    rewriter = _Rewriter(store)
    rewritten = rewriter.rewrite(plan)
    if rewriter.sites == 0:
        return None, None
    model = model if model is not None else CostModel(store)
    scan_cost = model.estimate(plan).total
    taken = _probe_wins(model.estimate(rewritten).total, scan_cost)
    choice = None
    if rewriter.slotted:
        choice = ProbeChoice(rewritten, scan_cost, taken)
    return (rewritten if taken else None), choice


def _probe_wins(probe_cost: float, scan_cost: float) -> bool:
    # Ties go to the probe: on trivial documents the estimates can
    # coincide, and a probe never does more work than a scan.
    return probe_cost <= scan_cost


class _Rewriter:
    def __init__(self, store: DocumentStore):
        self.store = store
        self.sites = 0
        #: whether a value probe took its value from a query literal
        self.slotted = False
        self._bindings: dict[str, str] = {}

    def rewrite(self, plan: Operator) -> Operator:
        # χ[d:doc("…")] bindings are collected across the whole plan,
        # nested subscripts included (a correlated $d1 bound outside a
        # nested plan still names one fixed document).
        _collect_doc_bindings(plan, self._bindings)
        return self._op(plan)

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def _op(self, op: Operator) -> Operator:
        if isinstance(op, Select):
            value_site = self._value_site(op)
            if value_site is not None:
                return value_site
            child = self._op(op.children[0])
            pred = self._scalar(op.pred)
            if child is op.children[0] and pred is op.pred:
                return op
            return Select(child, pred)
        if isinstance(op, UnnestMap):
            probe = self._structural_probe(op.expr)
            if probe is not None:
                self.sites += 1
                return Cross(self._op(op.child),
                             IndexScan(op.attr, probe))
            child = self._op(op.child)
            expr = self._scalar(op.expr)
            if child is op.child and expr is op.expr:
                return op
            return UnnestMap(child, op.attr, expr, origin=op.origin)
        if isinstance(op, Map):
            child = self._op(op.child)
            expr = self._scalar(op.expr)
            if child is op.child and expr is op.expr:
                return op
            return Map(child, op.attr, expr, origin=op.origin,
                       item_attr=op.item_attr)
        children = tuple(self._op(c) for c in op.children)
        if all(new is old for new, old in zip(children, op.children)):
            return op
        return op.rebuild(children)

    def _scalar(self, expr: ScalarExpr) -> ScalarExpr:
        """Rewrite nested subscript plans inside a scalar expression."""
        if isinstance(expr, NestedPlan):
            inner = self._op(expr.plan)
            return NestedPlan(inner) if inner is not expr.plan else expr
        kids = expr.children()
        if not kids:
            return expr
        rewritten = tuple(self._scalar(k) for k in kids)
        if all(new is old for new, old in zip(rewritten, kids)):
            return expr
        return expr.rebuild(rewritten)

    # ------------------------------------------------------------------
    # Pattern matching
    # ------------------------------------------------------------------
    def _value_site(self, select: Select) -> Operator | None:
        """``σ[… θ const](χ* (Υ[x: …]))`` → value probe (+ residual σ).

        The χ chain between σ and Υ is preserved; only the scan and the
        matched conjunct are replaced."""
        chain: list[Map] = []
        node = select.children[0]
        while isinstance(node, Map):
            chain.append(node)
            node = node.children[0]
        if not isinstance(node, UnnestMap):
            return None
        unnest = node
        structural = self._structural_probe(unnest.expr)
        if structural is None:
            return None
        let_paths = {}
        for m in chain:
            rel = _let_rel_path(m.expr, unnest.attr)
            if rel is not None:
                let_paths[m.attr] = rel
        parts = conjuncts(select.pred)
        for i, part in enumerate(parts):
            probe = self._value_probe(structural, unnest.attr, part,
                                      let_paths)
            if probe is None:
                continue
            self.sites += 1
            rebuilt: Operator = Cross(self._op(unnest.child),
                                      IndexScan(unnest.attr, probe))
            for m in reversed(chain):
                rebuilt = Map(rebuilt, m.attr, self._scalar(m.expr),
                              origin=m.origin, item_attr=m.item_attr)
            residual = parts[:i] + parts[i + 1:]
            if not residual:
                return rebuilt
            return Select(rebuilt, make_conjunction(
                [self._scalar(r) for r in residual]))
        return None

    def _structural_probe(self, expr: ScalarExpr) -> IndexProbe | None:
        if not isinstance(expr, PathApply):
            return None
        doc = self._document_of(expr.source)
        if doc is None or doc not in self.store:
            return None
        path = expr.path
        if path.has_predicates():
            return None
        steps = path.simple_steps()
        if not steps:
            return None
        # Mirror PathApply's convenience: a leading child step naming
        # the root element is a self step.
        root_name = self.store.get(doc).root.name
        if steps[0] == ("child", root_name):
            steps = steps[1:]
            if not steps:
                return None
        if any(axis == "attribute" for axis, _ in steps[:-1]):
            return None
        if any(axis not in ("child", "descendant", "attribute")
               for axis, _ in steps):
            return None
        pattern = tuple(steps)
        if len(pattern) == 1 and pattern[0][0] == "descendant":
            return IndexProbe(doc, "element", pattern)
        return IndexProbe(doc, "path", pattern)

    def _value_probe(self, structural: IndexProbe, attr: str,
                     part: ScalarExpr,
                     let_paths: dict | None = None) -> IndexProbe | None:
        if not isinstance(part, Comparison):
            return None
        op = part.op
        if isinstance(part.right, Const):
            path_side, const = part.left, part.right
        elif isinstance(part.left, Const):
            path_side, const = part.right, part.left
            op = _FLIP.get(op, "!=")
        else:
            return None
        if op not in _FLIP:
            return None
        value = const.value
        if isinstance(value, bool) or \
                not isinstance(value, (int, float, str)):
            return None
        if isinstance(path_side, AttrRef) and let_paths \
                and path_side.name in let_paths:
            rel = let_paths[path_side.name]
        elif isinstance(path_side, PathApply) \
                and isinstance(path_side.source, AttrRef) \
                and path_side.source.name == attr:
            rel = path_side.path
        else:
            return None
        if rel.has_predicates():
            return None
        rel_steps = rel.simple_steps()
        if not rel_steps:
            return None
        # Only fixed-depth continuations keep the ancestor lift exact.
        if any(axis not in ("child", "attribute")
               for axis, _ in rel_steps):
            return None
        if any(axis == "attribute" for axis, _ in rel_steps[:-1]):
            return None
        pattern = structural.steps + tuple(rel_steps)
        if not self.store.indexes.can_value_probe(structural.doc,
                                                  pattern):
            return None
        self.slotted = self.slotted or const.slot is not None
        return IndexProbe(structural.doc, "value", pattern, op=op,
                          value=value, lift=len(rel_steps),
                          slot=const.slot)

    def _document_of(self, expr: ScalarExpr) -> str | None:
        if isinstance(expr, DocAccess):
            return expr.name
        if isinstance(expr, AttrRef):
            return self._bindings.get(expr.name)
        return None


def _let_rel_path(expr: ScalarExpr, source_attr: str):
    """The relative path a ``let``-style χ binds over ``source_attr``.

    Matches the translator's three let shapes: a bare path, the scalar
    ``zero-or-one(path)`` (DTD guarantees at most one node, and its
    NULL-on-empty compares false exactly as a missing leaf does), and
    the tupled sequence ``path[w']`` whose comparisons are existential
    over all leaves — in every case the θ-const filter on the binding
    equals the lifted value-probe result."""
    if isinstance(expr, FuncCall) and expr.name == "zero-or-one" \
            and len(expr.args) == 1:
        expr = expr.args[0]
    elif isinstance(expr, TupledSeq):
        expr = expr.inner
    if isinstance(expr, PathApply) and isinstance(expr.source, AttrRef) \
            and expr.source.name == source_attr:
        return expr.path
    return None
