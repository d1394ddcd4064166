"""Canonical, process-stable plan digests.

The session layer (:mod:`repro.session`) caches optimized plans and
results under a *plan digest*: a SHA-256 over a canonical serialization
of the operator tree.  Two properties make the digest usable as a cache
key across processes and interpreter restarts:

- **Canonical form.**  The serialization walks the tree in pre-order
  and renders every operator through its :meth:`~repro.nal.algebra.
  Operator.label` (the same notation EXPLAIN prints), descending into
  nested subscript plans exactly as :func:`repro.nal.pretty.
  plan_to_string` does.  Labels are built from tuples, sorted mappings
  and scalar-expression ``repr``s — never from ``id()``, memory
  addresses or set iteration order — so structurally equal plans
  serialize identically.
- **Hash-seed independence.**  Nothing in the serialization depends on
  ``PYTHONHASHSEED``; ``tests/test_digest.py`` runs the digest under
  different seeds in subprocesses and asserts byte equality.

- **Shape, not constants.**  A value that came from a query literal
  (a *slot*, see :mod:`repro.optimizer.binding`) renders as ``?i:type``:
  the digest names the plan's shape, so every binding of one compiled
  plan shares it, and the result cache pairs it with the bound values.
  Two plans with one digest hold the same slots in the same places, so
  binding both to the same values gives the same plan.

Structurally *different* plans that happen to render identically would
collide, but ``label()`` includes every semantically meaningful
parameter (predicates, attribute lists, sort directions, probe
descriptors), so the rendering is injective for the plan shapes the
translator and rewriter produce.

:func:`referenced_sources` extracts the document names a plan touches
(``doc("…")`` accesses inside subscripts, and ``IndexScan`` probes)
and its ``collection()`` patterns — the other half of the result-cache
key ``(document versions, digest)``.
"""

from __future__ import annotations

import hashlib

from repro.nal.algebra import Operator

#: bumped whenever the canonical serialization changes shape, so stale
#: digests from older code can never alias fresh ones
DIGEST_VERSION = 2


def canonical_plan_text(plan: Operator) -> str:
    """The canonical serialization the digest hashes.

    One line per operator — ``depth * 2`` spaces, then the operator
    label — with nested subscript plans expanded beneath a ``⟨nested⟩``
    marker, exactly like the EXPLAIN tree rendering (kept separate from
    :func:`repro.nal.pretty.plan_to_string` only by the version header,
    so cosmetic EXPLAIN changes cannot silently invalidate caches
    without a version bump), slot values rendered as placeholders."""
    from repro.optimizer.binding import shape_plan
    lines: list[str] = [f"#digest-v{DIGEST_VERSION}"]
    _serialize(shape_plan(plan), 0, lines)
    return "\n".join(lines)


def _serialize(plan: Operator, depth: int, lines: list[str]) -> None:
    from repro.nal.pretty import _nested_plans
    pad = "  " * depth
    lines.append(f"{pad}{plan.label()}")
    for expr in plan.scalar_exprs():
        for nested in _nested_plans(expr):
            lines.append(f"{pad}  ⟨nested⟩")
            _serialize(nested, depth + 2, lines)
    for child in plan.children:
        _serialize(child, depth + 1, lines)


def plan_digest(plan: Operator) -> str:
    """Hex SHA-256 of the plan's canonical serialization."""
    text = canonical_plan_text(plan)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def referenced_documents(plan: Operator) -> frozenset[str]:
    """Names of every document the plan can read (the first half of
    :func:`referenced_sources`)."""
    return referenced_sources(plan)[0]


def referenced_sources(plan: Operator
                       ) -> tuple[frozenset[str], frozenset[str]]:
    """``(document names, collection patterns)`` the plan can read, in
    one walk.

    Walks the operator tree — including nested subscript plans — and
    collects the names of :class:`~repro.nal.scalar.DocAccess`
    expressions plus the documents ``IndexScan`` probes are bound to,
    and the pattern of every ``collection("...")`` leaf.  The
    result-cache key pairs the names with their registration sequence
    numbers, so re-registering any referenced document invalidates the
    entry.  A pattern's *resolved member set* depends on the store's
    current contents, so result-cache keys resolve each pattern against
    the store at key time (see ``Session.doc_versions``): registering
    or removing a matching document changes the key and invalidates."""
    names: set[str] = set()
    patterns: set[str] = set()
    _collect_docs(plan, names, patterns)
    return frozenset(names), frozenset(patterns)


def _collect_docs(plan: Operator, names: set[str],
                  patterns: set[str]) -> None:
    from repro.nal.scalar import CollectionAccess, DocAccess, NestedPlan

    probe = getattr(plan, "probe", None)
    doc = getattr(probe, "doc", None)
    if isinstance(doc, str):
        names.add(doc)

    def collect_expr(expr) -> None:
        if isinstance(expr, DocAccess):
            names.add(expr.name)
        if isinstance(expr, CollectionAccess):
            patterns.add(expr.pattern)
        if isinstance(expr, NestedPlan):
            _collect_docs(expr.plan, names, patterns)
            return
        for child in expr.children():
            collect_expr(child)

    for expr in plan.scalar_exprs():
        collect_expr(expr)
    for child in plan.children:
        _collect_docs(child, names, patterns)
