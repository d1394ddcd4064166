"""XPath evaluation over the node model.

Results follow XPath node-set semantics: duplicate-free (by node identity)
and in document order.  The evaluator charges scan statistics to the owning
:class:`~repro.xmldb.document.DocumentStore`:

- a ``descendant`` step evaluated from a document root counts as one *scan*
  of that document (this is what a nested query plan repeats once per outer
  tuple, and what the unnested plans do O(1) times);
- every node touched counts as a node visit.

Finalized documents are interval-encoded
(:mod:`repro.xmldb.arena`): a ``descendant::tag`` step binary-searches
the tag's pre-ordered row list inside the context node's subtree
interval and copies the slice — it touches exactly the result nodes,
never the rest of the document.  The logical *scan* counter is charged
as before (the paper's asymptotic argument is about how often a plan
reads a document, not how the storage layer implements the read);
``node_visits`` records the rows actually touched, which is where the
encoding's advantage shows up.  Builder trees (``arena is None``)
take the recursive pointer walk instead.
"""

from __future__ import annotations

from repro.errors import XPathError
from repro.xmldb.node import Node, NodeKind, NodeSequence, \
    global_order_key
from repro.xpath.ast import (
    AnyTest,
    ComparisonPredicate,
    NameTest,
    OpaquePredicate,
    Path,
    PathPredicate,
    Step,
    TextTest,
)


def evaluate_path(context: Node | list[Node], path: Path,
                  stats=None) -> list[Node]:
    """Evaluate ``path`` from one node or a sequence of context nodes.

    ``stats`` is a :class:`~repro.xmldb.document.ScanStats` (or anything
    with ``record_scan``/``record_visits``); pass ``None`` to skip
    accounting.

    The result is duplicate-free and in document order.  When the step
    sequence *provably preserves* both — tracked by a small state
    machine over the axes, seeded by the context's own order state
    (see :func:`_initial_order_state`) — the final
    :func:`_document_order_dedup` pass is skipped entirely: after the
    interval-encoded arena, ``//tag`` slices and child runs are born
    ordered and duplicate-free, and re-sorting them was the dominant
    cost of short path evaluations.  The fast path is cross-checked
    against the full dedup pass under the order subsystem's debug
    switch (:func:`repro.optimizer.properties.debug_checks`).
    """
    nodes = [context] if isinstance(context, Node) else list(context)
    state = _initial_order_state(nodes)
    for step in path.steps:
        if state is not None:
            state = _order_transition(state, step, nodes)
        nodes = _apply_step(nodes, step, stats)
    if state is not None:
        if _order_rules().debug_enabled():
            full = _document_order_dedup(nodes)
            if list(full) != nodes:
                raise XPathError(
                    f"order fast path skipped a dedup pass that was "
                    f"not redundant for path {path} — the step order "
                    "analysis is wrong")
        _record_order_fastpath(stats, True)
        return NodeSequence(nodes)
    _record_order_fastpath(stats, False)
    return _document_order_dedup(nodes)


def _record_order_fastpath(stats, hit: bool) -> None:
    # ``stats`` may be any duck with record_scan/record_visits (see the
    # evaluate_path docstring); only full ScanStats count fast paths.
    if stats is not None:
        record = getattr(stats, "record_order_fastpath", None)
        if record is not None:
            record(hit)


_ORDER_RULES = None


def _order_rules():
    """The order subsystem's debug switch, imported lazily — the
    optimizer layer imports this module (via the scalar language), so a
    top-level import would be circular."""
    global _ORDER_RULES
    if _ORDER_RULES is None:
        from repro.optimizer import properties
        _ORDER_RULES = properties
    return _ORDER_RULES


#: context/result order states of the dedup-skip analysis:
#: ``"disjoint"`` — document order, duplicate-free, and pairwise
#: non-nested (an antichain of disjoint subtrees: every axis below
#: keeps order); ``"ordered"`` — document order and duplicate-free,
#: but nodes may nest (only order-insensitive axes survive);
#: ``None`` — nothing provable, run the dedup pass.
def _initial_order_state(nodes: list[Node]) -> str | None:
    if len(nodes) <= 1:
        return "disjoint"
    arena = nodes[0].arena
    if any(n.arena is not arena for n in nodes):
        return None  # multi-document contexts: bail
    ends = arena.ends
    state = "disjoint"
    previous = nodes[0].pre
    previous_end = ends[previous]
    for node in nodes[1:]:
        pre = node.pre
        if pre <= previous:
            return None
        if pre < previous_end:
            state = "ordered"
        previous, previous_end = pre, max(previous_end, ends[pre])
    return state


def _order_transition(state: str, step: Step,
                      context: list[Node]) -> str | None:
    """How one step transforms the order state of the sequence.

    From a ``disjoint`` context every axis emits its results grouped by
    context node, groups in document order, members ordered and unique
    within their disjoint subtree — order and uniqueness are preserved.
    Whether the *result* is again disjoint decides how much further the
    chain may grow: children and attributes of disjoint nodes are
    disjoint; descendants may nest unless the arena's per-tag flatness
    verdict (:meth:`~repro.xmldb.arena.Arena.tag_is_flat`) or the leaf
    node kind (text) rules nesting out.  From a merely ``ordered``
    (possibly nested) context only ``self`` and ``attribute`` stay
    provable: a child step can emit an ancestor's later children after
    a descendant's earlier ones, and a descendant step can duplicate.
    Predicates only filter and never disturb the state."""
    axis = step.axis
    if axis == "self":
        return state
    if axis == "attribute":
        # Attribute rows directly follow their (ordered, distinct)
        # owner elements and are leaves: ordered, unique, disjoint.
        return "disjoint"
    if state != "disjoint":
        return None
    if axis == "child":
        return "disjoint"
    if axis == "descendant":
        if isinstance(step.test, TextTest):
            return "disjoint"  # text nodes are leaves
        if isinstance(step.test, NameTest) and context:
            arena = context[0].arena
            if arena is not None \
                    and all(n.arena is arena for n in context) \
                    and arena.tag_is_flat(step.test.name):
                return "disjoint"
        return "ordered"
    return None


def _apply_step(context: list[Node], step: Step, stats) -> list[Node]:
    output: list[Node] = []
    for node in context:
        output.extend(_step_from(node, step, stats))
    if step.predicates:
        output = [n for n in output
                  if all(_check_predicate(n, p, stats)
                         for p in step.predicates)]
    return output


def _step_from(node: Node, step: Step, stats) -> list[Node]:
    if step.axis == "self":
        return [node] if _matches(node, step) else []
    if step.axis == "attribute":
        return _attribute_step(node, step)
    if step.axis == "child":
        if stats is not None:
            stats.record_visits(len(node.children))
            if node.parent is None and node.document is not None:
                # Iterating the root's children (e.g. `$d/book` over a
                # flat document) reads the whole document once.
                stats.record_scan(node.document.name)
        return [c for c in node.children if _matches(c, step)]
    if step.axis == "descendant":
        if stats is not None and node.parent is None \
                and node.document is not None:
            # A descendant walk from the document root is (logically) a
            # full scan, however the storage layer answers it.
            stats.record_scan(node.document.name)
        arena = node.arena
        if arena is not None:
            rows = _descendant_rows(arena, node.pre, step)
            if stats is not None:
                stats.record_visits(len(rows))
            # map() materializes the handle slice at C speed — this is
            # the whole per-evaluation cost once the dedup pass above
            # is proven redundant, so it matters.
            return list(map(arena.nodes.__getitem__, rows))
        result = []
        count = 0
        for candidate in node.iter_descendants():
            count += 1
            if _matches(candidate, step):
                result.append(candidate)
        if stats is not None:
            stats.record_visits(count)
        return result
    raise XPathError(f"unsupported axis {step.axis!r}")


def _descendant_rows(arena, pre: int, step: Step) -> list[int]:
    """Arena rows satisfying a descendant step: a binary search over
    the pre-ordered per-tag (or per-kind) row list, restricted to the
    subtree interval ``(pre, ends[pre])``."""
    test = step.test
    if isinstance(test, NameTest):
        return arena.descendants_by_tag(pre, test.name)
    if isinstance(test, AnyTest):
        return arena.descendant_elements(pre)
    if isinstance(test, TextTest):
        return arena.descendant_texts(pre)
    raise XPathError(f"unsupported node test {test!r}")


def _attribute_step(node: Node, step: Step) -> list[Node]:
    if node.kind is not NodeKind.ELEMENT:
        return []
    if isinstance(step.test, NameTest):
        attr = node.attribute(step.test.name)
        return [attr] if attr is not None else []
    if isinstance(step.test, AnyTest):
        return list(node.attributes)
    return []


def _matches(node: Node, step: Step) -> bool:
    test = step.test
    if isinstance(test, NameTest):
        return node.kind is NodeKind.ELEMENT and node.name == test.name
    if isinstance(test, AnyTest):
        return node.kind is NodeKind.ELEMENT
    if isinstance(test, TextTest):
        return node.kind is NodeKind.TEXT
    raise XPathError(f"unsupported node test {test!r}")


def _check_predicate(node: Node, predicate, stats) -> bool:
    if isinstance(predicate, PathPredicate):
        return bool(evaluate_path(node, predicate.path, stats))
    if isinstance(predicate, ComparisonPredicate):
        selected = evaluate_path(node, predicate.path, stats)
        # XPath general comparison: existential over the node set.
        return any(_compare_value(n, predicate.op, predicate.value)
                   for n in selected)
    if isinstance(predicate, OpaquePredicate):
        raise XPathError(
            "opaque predicate reached the XPath evaluator; the query "
            "normalizer should have lifted it into a where clause: "
            f"{predicate}")
    raise XPathError(f"unsupported predicate {predicate!r}")


def _compare_value(node: Node, op: str, value) -> bool:
    text = node.string_value()
    if isinstance(value, (int, float)):
        try:
            left: float | str = float(text)
        except ValueError:
            return False
        right: float | str = float(value)
    else:
        left, right = text, str(value)
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise XPathError(f"unsupported comparison operator {op!r}")


def _document_order_dedup(nodes: list[Node]) -> "NodeSequence":
    """Duplicate-free, document-ordered result sequence (certified
    flat, so sequence consumers need not re-scan it).

    Multi-document sequences order by ``(document registration
    sequence, pre)`` — deterministic across runs, unlike the
    ``id(document)`` tie-break it replaces (object addresses vary
    between processes, so repeated runs could interleave documents
    differently)."""
    seen: set[int] = set()
    unique: list[Node] = []
    for node in nodes:
        if id(node) not in seen:
            seen.add(id(node))
            unique.append(node)
    unique.sort(key=global_order_key)
    return NodeSequence(unique)
