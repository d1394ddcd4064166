"""Physical order properties of NAL plans — and when they make work free.

The paper evaluates nested queries *in an ordered context*: document
order is a semantic obligation, and the cheapest correct plan is the one
that can prove order is already there instead of re-establishing it.
After the interval-encoded arena (PR 3), ``//tag`` slices and
single-step axes are *born* in document order and duplicate-free — yet
a plan may still pay for a :class:`~repro.nal.unary_ops.Sort` (the
``order by`` extension, or the stable sort the Γ+Ξ fusion inserts to
make groups consecutive) and the XPath evaluator may still pay for its
materialize-dedup-sort pass.  This module is the subsystem that proves
such work redundant:

- :class:`OrderProperties` — the physical properties of one operator's
  output sequence: ``sorted_on`` (the tuple stream is non-decreasing
  under :func:`~repro.nal.values.sort_key` on an attribute prefix, with
  per-attribute direction), ``in_document_order`` /
  ``duplicate_free`` (the stream's node bindings follow document order
  without duplicates), and ``at_most_one`` (≤ 1 row, which satisfies
  any ordering requirement vacuously);
- :func:`properties_of` / :func:`infer` — the bottom-up inference pass
  with per-operator propagation rules: sources (□, ``Table``,
  ``IndexScan``, Υ over a document path) read the arena's guarantees;
  σ/Π/χ preserve; ``Sort``/``ΠD`` establish; ×/joins/group operators
  destroy or compose (hash joins here are *order-preserving by
  construction*, so they propagate their left input's order);
- :func:`satisfies_sort` — the requirement check
  :mod:`repro.optimizer.elide_order` uses to remove provably redundant
  ``Sort`` operators;
- :func:`value_order_guarantee` — a *data-derived* guarantee: because
  registered documents are frozen (mutation raises
  ``FrozenDocumentError``), the store can check **once** whether a
  path's values are non-decreasing under ``sort_key`` in document
  order, cache the answer on the document, and let the optimizer treat
  ``order by $x/itemno`` as already satisfied by document order.
  The check is exact (it evaluates the real path and the real sort
  keys), O(n) once per ``(document, path)``, and can never go stale;
- the :func:`debug_checks` switch (also enabled by the
  ``REPRO_ORDER_DEBUG`` environment variable): both engines verify at
  runtime — by differential comparison of the actual tuple stream —
  that every elided sort was genuinely redundant, and the evaluator
  cross-checks every skipped dedup pass against the full one.

The properties are *facts about value sequences*, keyed by canonical
attribute names: a projection that drops an attribute does not
invalidate what is known about the surviving stream, and χ-introduced
aliases (``χ[__ord1: n1]``) resolve to their source attribute before
requirements are compared.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

from repro.nal.construct import Construct, GroupConstruct
from repro.nal.group_ops import GroupBinary, GroupUnary, SelfGroup
from repro.nal.join_ops import AntiJoin, Cross, Join, OuterJoin, SemiJoin
from repro.nal.scalar import AttrRef, CollectionAccess, FuncCall, \
    PathApply
from repro.nal.unary_ops import (
    DistinctProject,
    ElidedSort,
    IndexScan,
    Map,
    Project,
    ProjectAway,
    Rename,
    Select,
    Singleton,
    Sort,
    Table,
    Unnest,
    UnnestMap,
)
from repro.nal.values import sort_key
from repro.optimizer.provenance import ColumnOrigin, attr_origin
from repro.xmldb.document import DocumentStore
from repro.xpath.ast import NameTest, Path, Step

# ----------------------------------------------------------------------
# Runtime verification switch
# ----------------------------------------------------------------------
_DEBUG = bool(os.environ.get("REPRO_ORDER_DEBUG"))


def debug_enabled() -> bool:
    """Whether elided work is re-verified at runtime (see module doc)."""
    return _DEBUG


@contextmanager
def debug_checks(enabled: bool):
    """Temporarily enable/disable the runtime verification of elided
    sorts and skipped dedup passes (also settable via the
    ``REPRO_ORDER_DEBUG`` environment variable)."""
    global _DEBUG
    previous = _DEBUG
    _DEBUG = enabled
    try:
        yield
    finally:
        _DEBUG = previous


# ----------------------------------------------------------------------
# The property record
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OrderProperties:
    """Physical properties of one operator's output tuple sequence.

    ``sorted_on`` is a lexicographic prefix: the stream is
    non-decreasing under ``tuple(sort_key(t[a]) ...)`` over the listed
    ``(attribute, descending)`` pairs (descending entries inverted, as
    ``Sort.sort_tuple`` does).  ``doc_order_attr`` names an attribute
    whose bindings are distinct nodes in document order — the stream is
    then ``in_document_order`` and ``duplicate_free``.  ``aliases``
    records χ-introduced value copies (``alias → source``), fully
    resolved to canonical roots."""

    sorted_on: tuple[tuple[str, bool], ...] = ()
    duplicate_free: bool = False
    at_most_one: bool = False
    doc_order_attr: str | None = None
    aliases: tuple[tuple[str, str], ...] = ()
    #: set when ``sorted_on`` rests on a *data-derived* guarantee: the
    #: ``(document name, registration seq)`` it was checked against.
    #: Elisions built on it carry the proof into the plan so a rotated
    #: document degrades to a real sort instead of wrong order.
    sorted_proof: tuple[str, int] | None = None

    @property
    def in_document_order(self) -> bool:
        return self.at_most_one or self.doc_order_attr is not None

    def resolve(self, attr: str) -> str:
        """The canonical source attribute ``attr`` is a value copy of
        (itself when it is no alias)."""
        mapping = dict(self.aliases)
        seen = set()
        while attr in mapping and attr not in seen:
            seen.add(attr)
            attr = mapping[attr]
        return attr

    def with_alias(self, alias: str, source: str) -> "OrderProperties":
        root = self.resolve(source)
        pairs = tuple((a, s) for a, s in self.aliases if a != alias)
        return replace(self, aliases=pairs + ((alias, root),))

    def drop_attr_facts(self, attr: str) -> "OrderProperties":
        """Forget everything known about ``attr`` (a χ rebound it)."""
        sorted_on = self.sorted_on
        for i, (a, _) in enumerate(sorted_on):
            if self.resolve(a) == attr or a == attr:
                sorted_on = sorted_on[:i]
                break
        return replace(
            self,
            sorted_on=sorted_on,
            sorted_proof=self.sorted_proof if sorted_on else None,
            doc_order_attr=None if self.doc_order_attr == attr
            else self.doc_order_attr,
            aliases=tuple((a, s) for a, s in self.aliases
                          if attr not in (a, s)))

    def describe(self) -> str:
        """Compact rendering for EXPLAIN ``--properties``."""
        parts = []
        if self.at_most_one:
            parts.append("<=1 row")
        if self.sorted_on:
            keys = ", ".join(a + (" desc" if d else "")
                             for a, d in self.sorted_on)
            parts.append(f"sorted_on=[{keys}]")
        if self.doc_order_attr is not None:
            parts.append(f"doc-order({self.doc_order_attr})")
        if self.duplicate_free:
            parts.append("dup-free")
        return "{" + "; ".join(parts) + "}" if parts else "{-}"


_NO_PROPS = OrderProperties()


def _remap_attrs(props: OrderProperties,
                 mapping: dict[str, str]) -> OrderProperties:
    """``props`` with every attribute reference renamed ``old → new``
    (Rename and renaming ΠD share this)."""
    return replace(
        props,
        sorted_on=tuple((mapping.get(a, a), d)
                        for a, d in props.sorted_on),
        doc_order_attr=None if props.doc_order_attr is None
        else mapping.get(props.doc_order_attr, props.doc_order_attr),
        aliases=tuple((mapping.get(a, a), mapping.get(s, s))
                      for a, s in props.aliases))


# ----------------------------------------------------------------------
# The data-derived guarantee
# ----------------------------------------------------------------------
def _path_from_steps(steps) -> Path:
    return Path(tuple(Step(axis, NameTest(name)) for axis, name in steps))


def value_order_guarantee(store: DocumentStore,
                          origin: ColumnOrigin | None,
                          rel_path: Path) -> bool:
    """Is the value sequence of ``rel_path``, evaluated per context node
    of ``origin`` in document order, non-decreasing under ``sort_key``?

    Exact, checked once per ``(document, context path, relative path)``
    and cached on the :class:`~repro.xmldb.document.Document` — sound
    because document *versions* are frozen: an update publishes a new
    version whose cache carries an entry forward only when the splice
    provably touched none of the tags the key names (so invalidation is
    per version and per tag set, never global).  Missing values key as
    NULL, which ``sort_key`` ranks least ("empty least"): leading
    empties therefore keep the guarantee (the elided sort would have
    placed them first anyway), while an empty *after* any non-null
    value vetoes it — exactly when a real sort would have moved
    rows."""
    if origin is None or origin.distinct or origin.values:
        return False
    if origin.doc not in store:
        return False
    if rel_path.has_predicates() or rel_path.absolute:
        return False
    rel_steps = rel_path.simple_steps()
    if rel_steps is None:
        return False
    document = store.get(origin.doc)
    key = (origin.steps, tuple(rel_steps))
    cache = document.order_guarantees
    cached = cache.get(key)
    if cached is not None:
        return cached
    from repro.xpath.evaluator import evaluate_path
    contexts = evaluate_path(document.root, _path_from_steps(origin.steps))
    rel = _path_from_steps(rel_steps)
    ok = True
    previous = None
    for node in contexts:
        current = sort_key(evaluate_path(node, rel))
        if previous is not None and current < previous:
            ok = False
            break
        previous = current
    cache[key] = ok
    return ok


def _order_key_source(expr) -> tuple[str, Path] | None:
    """If ``expr`` computes, per tuple, the (≤1-item) value of a simple
    relative path from an attribute's node — the shapes the translator
    emits for order-by keys and single-valued ``let`` paths — return
    ``(source attribute, relative path)``."""
    if isinstance(expr, FuncCall) and expr.name == "zero-or-one" \
            and len(expr.args) == 1:
        expr = expr.args[0]
    if isinstance(expr, PathApply) and isinstance(expr.source, AttrRef):
        return expr.source.name, expr.path
    return None


# ----------------------------------------------------------------------
# Bottom-up inference
# ----------------------------------------------------------------------
def properties_of(plan, store: DocumentStore) -> OrderProperties:
    """The inferred :class:`OrderProperties` of ``plan``'s output."""
    return _Inference(store).of(plan)


def infer(plan, store: DocumentStore) -> dict[tuple, OrderProperties]:
    """Properties for every operator of ``plan``, keyed by tree
    position (the pre-order child-index path used by EXPLAIN ANALYZE)."""
    inference = _Inference(store)
    annotations: dict[tuple, OrderProperties] = {}

    def walk(op, path: tuple) -> None:
        annotations[path] = inference.of(op)
        for index, child in enumerate(op.children):
            walk(child, path + (index,))

    walk(plan, ())
    return annotations


class _Inference:
    """One inference run (memoized per operator instance — properties
    depend only on the subtree, so sharing is safe)."""

    def __init__(self, store: DocumentStore):
        self.store = store
        self._memo: dict[int, OrderProperties] = {}

    def of(self, op) -> OrderProperties:
        memo = self._memo.get(id(op))
        if memo is not None:
            return memo
        props = self._infer(op)
        self._memo[id(op)] = props
        return props

    # ------------------------------------------------------------------
    def _infer(self, op) -> OrderProperties:
        if isinstance(op, Singleton):
            return OrderProperties(duplicate_free=True, at_most_one=True)
        if isinstance(op, Table):
            single = len(op.rows) <= 1
            return OrderProperties(duplicate_free=single,
                                   at_most_one=single)
        if isinstance(op, IndexScan):
            # Index probes answer in document order, one tuple per node.
            return OrderProperties(duplicate_free=True,
                                   doc_order_attr=op.attr)
        if isinstance(op, (Select, Construct, GroupConstruct)):
            # Pure filters / identity passes: every property survives a
            # subsequence.
            return self.of(op.children[0])
        if isinstance(op, (Project, ProjectAway)):
            return self._projection(op)
        if isinstance(op, Rename):
            return self._rename(op)
        if isinstance(op, ElidedSort):
            # Provably redundant: the stream already satisfies the spec.
            return self.of(op.children[0])
        if isinstance(op, Sort):
            return self._sort(op)
        if isinstance(op, DistinctProject):
            return self._distinct(op)
        if isinstance(op, Map):
            return self._map(op)
        if isinstance(op, UnnestMap):
            return self._unnest_map(op)
        if isinstance(op, Unnest):
            return self._unnest(op)
        if isinstance(op, Cross):
            return self._cross(op)
        if isinstance(op, (SemiJoin, AntiJoin)):
            # Subsequence of the left input.
            return self.of(op.children[0])
        if isinstance(op, (Join, OuterJoin)):
            return self._join(op)
        if isinstance(op, GroupUnary):
            return self._group_unary(op)
        if isinstance(op, (GroupBinary, SelfGroup)):
            return self._group_extend(op)
        return _NO_PROPS

    # ------------------------------------------------------------------
    def _projection(self, op) -> OrderProperties:
        child = self.of(op.children[0])
        kept = op.attrs()
        # Facts are about value sequences, so dropping columns keeps
        # sorted_on/aliases valid; only the binding attribute must
        # survive for the doc-order fact to stay usable.
        doc_attr = child.doc_order_attr \
            if child.doc_order_attr in kept else None
        duplicate_free = child.at_most_one or doc_attr is not None \
            or (child.duplicate_free
                and kept >= op.children[0].attrs())
        return replace(child, duplicate_free=duplicate_free,
                       doc_order_attr=doc_attr)

    def _rename(self, op: Rename) -> OrderProperties:
        return _remap_attrs(self.of(op.children[0]), op.mapping)

    def _sort(self, op: Sort) -> OrderProperties:
        child = self.of(op.children[0])
        return replace(child,
                       sorted_on=tuple(zip(op.attributes, op.descending)),
                       sorted_proof=None,  # established structurally
                       doc_order_attr=None)

    def _distinct(self, op: DistinctProject) -> OrderProperties:
        child = self.of(op.children[0])
        props = replace(
            child, duplicate_free=True,
            doc_order_attr=child.doc_order_attr
            if child.doc_order_attr in op.attributes else None)
        if op.renaming:
            props = _remap_attrs(props, op.renaming)
        return props

    def _map(self, op: Map) -> OrderProperties:
        child = self.of(op.children[0])
        # Unconditional: even if the child no longer *carries* a column
        # of this name (a projection dropped it), facts about the name
        # may survive as value-sequence facts — and they describe the
        # old binding, not the one this χ introduces.
        props = child.drop_attr_facts(op.attr)
        if isinstance(op.expr, AttrRef):
            # χ[a: b] — a value copy; requirements on a resolve to b.
            return props.with_alias(op.attr, op.expr.name)
        source = _order_key_source(op.expr)
        if source is not None and not props.sorted_on \
                and props.doc_order_attr == source[0]:
            # The stream iterates a document path in document order and
            # the new attribute is a per-node path value; if the store's
            # frozen data says those values are non-decreasing in
            # document order, the stream is born sorted on the new key.
            origin = attr_origin(op.children[0], source[0])
            if value_order_guarantee(self.store, origin, source[1]):
                document = self.store.get(origin.doc)
                return replace(props,
                               sorted_on=((op.attr, False),),
                               sorted_proof=(origin.doc, document.seq))
        return props

    def _unnest_map(self, op: UnnestMap) -> OrderProperties:
        child = self.of(op.children[0])
        props = child.drop_attr_facts(op.attr)  # rebinding, as in _map
        # Υ expands each input tuple into a consecutive run, so the
        # child's lexicographic order survives as the major order.
        if child.at_most_one \
                and isinstance(op.expr, (PathApply, CollectionAccess)) \
                and op.origin is not None and not op.origin.values \
                and not op.origin.distinct:
            # A path evaluated from ≤1 context node yields its result
            # nodes duplicate-free in document order (the evaluator's
            # contract), one binding per tuple.  A collection() range
            # has the same shape: distinct document roots in
            # registration order, which *is* global document order.
            return replace(props, at_most_one=False,
                           duplicate_free=True,
                           doc_order_attr=op.attr)
        return replace(props, at_most_one=False, duplicate_free=False,
                       doc_order_attr=None)

    def _unnest(self, op: Unnest) -> OrderProperties:
        child = self.of(op.children[0])
        props = child.drop_attr_facts(op.attr)
        for item_attr in op.item_attrs:
            props = props.drop_attr_facts(item_attr)
        return replace(props, at_most_one=False, duplicate_free=False,
                       doc_order_attr=None)

    def _cross(self, op: Cross) -> OrderProperties:
        left = self.of(op.children[0])
        right = self.of(op.children[1])
        return OrderProperties(
            sorted_on=left.sorted_on,
            duplicate_free=left.duplicate_free and right.at_most_one,
            at_most_one=left.at_most_one and right.at_most_one,
            doc_order_attr=left.doc_order_attr
            if right.at_most_one else None,
            aliases=left.aliases + right.aliases,
            sorted_proof=left.sorted_proof)

    def _join(self, op) -> OrderProperties:
        # The physical hash join is order-preserving and left-major:
        # output tuples follow the left input's order, so the left
        # lexicographic prefix survives (left tuples may repeat, which
        # non-strict sortedness tolerates).
        left = self.of(op.children[0])
        right = self.of(op.children[1])
        return OrderProperties(sorted_on=left.sorted_on,
                               aliases=left.aliases + right.aliases,
                               sorted_proof=left.sorted_proof)

    def _group_unary(self, op: GroupUnary) -> OrderProperties:
        child = self.of(op.children[0])
        sorted_on: tuple[tuple[str, bool], ...] = ()
        if len(child.sorted_on) >= len(op.by_attrs) and all(
                child.resolve(have) == child.resolve(want)
                for (have, _), want in zip(child.sorted_on, op.by_attrs)):
            # Keys appear in first-occurrence order; a sorted input
            # makes first occurrences sorted too.
            sorted_on = child.sorted_on[:len(op.by_attrs)]
        return OrderProperties(sorted_on=sorted_on, duplicate_free=True,
                               at_most_one=child.at_most_one,
                               aliases=child.aliases,
                               sorted_proof=child.sorted_proof
                               if sorted_on else None)

    def _group_extend(self, op) -> OrderProperties:
        # GroupBinary / SelfGroup: exactly one output tuple per left
        # (resp. input) tuple, in order — every property survives.
        return self.of(op.children[0])


# ----------------------------------------------------------------------
# The requirement check
# ----------------------------------------------------------------------
def sort_requirement(op: Sort) -> tuple[tuple[str, bool], ...]:
    return tuple(zip(op.attributes, op.descending))


def satisfies_sort(props: OrderProperties,
                   requirement: tuple[tuple[str, bool], ...]) -> bool:
    """Does a stream with ``props`` already satisfy a stable sort on
    ``requirement``?  True when the stream has at most one row, or when
    the requirement is a prefix of ``sorted_on`` (after alias
    resolution, directions included) — a stable sort is then the
    identity."""
    if props.at_most_one:
        return True
    if len(requirement) > len(props.sorted_on):
        return False
    for (attr, desc), (have_attr, have_desc) in zip(requirement,
                                                    props.sorted_on):
        if desc != have_desc:
            return False
        if props.resolve(attr) != props.resolve(have_attr):
            return False
    return True


# ----------------------------------------------------------------------
# EXPLAIN rendering
# ----------------------------------------------------------------------
def properties_to_string(plan, store: DocumentStore) -> str:
    """The plan tree with each operator annotated by its inferred
    properties (the ``repro explain --properties`` output).  Nested
    subscript plans are annotated independently (their own streams)."""
    inference = _Inference(store)
    lines: list[str] = []

    def walk(op, depth: int) -> None:
        pad = "  " * depth
        lines.append(f"{pad}{op.label()}  {inference.of(op).describe()}")
        from repro.nal.pretty import _nested_plans
        for expr in op.scalar_exprs():
            for nested in _nested_plans(expr):
                lines.append(f"{pad}  ⟨nested⟩")
                walk(nested, depth + 2)
        for child in op.children:
            walk(child, depth + 1)

    walk(plan, 0)
    return "\n".join(lines)
