"""Copy-on-write delta versions over frozen arenas.

A finalized :class:`~repro.xmldb.arena.Arena` never changes — that
immutability is what makes lock-free reads, cached string values, order
guarantees and shared-memory exports sound.  Live updates therefore
never mutate an arena in place: :func:`apply_delta` takes the current
version's columns plus a list of update operations and *splices* a
brand-new set of columns, producing a fresh arena for the next
``(document.name, document.seq)`` version.  Readers that pinned the old
version keep reading the old columns; that is the whole MVCC story.

Why splicing instead of an overlay/tombstone view: a subtree is a
*contiguous* row interval ``[pre, ends[pre])`` in the interval
encoding, so insert/delete/replace-subtree are single list splices —
the tail copy runs at C speed — plus O(depth) interval fix-ups on the
ancestor chain and one O(rows) Python pass (the per-tag row lists;
post-order ranks are a closed form of two columns).  Every read after
that is exactly as fast as a freshly registered document: no per-row
indirection, no tombstone checks on the hot axes, and the shared-memory exporter and the vectorized engine work
on the new version unchanged.  The expensive parts of full
re-registration — serializing, re-parsing, rebuilding node objects and
re-deriving the value indexes — are all skipped, which is where the
update-latency win over ``unregister()`` + ``register_text()`` comes
from (measured by ``benchmarks/bench_q14_updates.py``).

Node handles of the *new* version are materialized lazily
(:class:`~repro.xmldb.arena.LazyNodes`, the same tables the
shared-memory attachment uses): an update allocates zero per-row Python
objects up front, and a reader only pays for the rows it hands out —
the default engine's path steps run over the int columns alone
(:meth:`~repro.xmldb.arena.Arena.step_rows`), so that is the result
rows.

Each splice is described by a :class:`SpliceRecord`; the index
subsystem replays those records to update element/path/value indexes
incrementally (see :meth:`repro.index.manager.IndexManager.on_update`),
and the document layer uses the affected-name sets to carry cached
per-tag verdicts (flatness, data-derived sortedness) forward to the new
version for tags the splice provably did not touch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EvaluationError
from repro.xmldb.arena import Arena, LazyLists, LazyNodes, TagPath
from repro.xmldb.node import Node, NodeKind


class DeltaError(EvaluationError):
    """An update operation that cannot be applied (bad target row,
    frozen patch tree, out-of-range child index, root deletion…)."""


# ----------------------------------------------------------------------
# Update operations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Insert:
    """Insert ``tree`` as the ``index``-th child of element ``parent``.

    ``parent`` addresses a row of the *current* version (a ``pre`` int
    or a frozen :class:`Node` handle of that version); ``index`` ranges
    over the element's child nodes (attributes are not children), with
    ``index == len(children)`` appending.  ``tree`` is a mutable
    builder tree (element or text root); it is encoded, not adopted —
    the caller keeps it and may insert it elsewhere again."""

    parent: "Node | int"
    index: int
    tree: Node


@dataclass(frozen=True)
class Delete:
    """Delete the subtree rooted at ``target`` (element or text row;
    never the document root, never an attribute row — replace the
    owning element to change attributes)."""

    target: "Node | int"


@dataclass(frozen=True)
class Replace:
    """Replace the subtree rooted at ``target`` with ``tree`` (same
    addressing rules as :class:`Delete`, same patch rules as
    :class:`Insert`)."""

    target: "Node | int"
    tree: Node


DeltaOp = Insert | Delete | Replace


@dataclass(frozen=True)
class SpliceRecord:
    """One applied operation, in the coordinates of the version it was
    applied to (records of a multi-op update compose sequentially:
    record *k* speaks pre-ids of the intermediate state after records
    ``0..k-1``).  Everything the incremental index maintenance and the
    cache carry-forward need to replay the splice without diffing
    arenas."""

    kind: str                    # "insert" | "delete" | "replace"
    pos: int                     # first row of the spliced window
    removed: int                 # rows removed
    inserted: int                # rows inserted
    #: read-only arena over the inserted subtree (None for deletes);
    #: its rows map to ``pos + patch_pre`` in the new version
    patch: Arena | None
    #: root-to-anchor tag path of the splice point (the parent element
    #: receiving/losing the subtree) — the DataGuide prefix of every
    #: inserted path, and the one value-indexed path whose *values*
    #: an op can change without touching its row set
    parent_path: TagPath
    #: names (tags and attribute names) occurring in the removed window
    removed_names: frozenset
    #: names occurring in the inserted subtree
    inserted_names: frozenset
    #: names on the ancestor chain of the splice point — their string
    #: values changed even though their rows survived
    anchor_names: frozenset

    @property
    def shift(self) -> int:
        return self.inserted - self.removed

    @property
    def window_end(self) -> int:
        return self.pos + self.removed


# ----------------------------------------------------------------------
# The splice
# ----------------------------------------------------------------------
def _pre_of(ref, arena: Arena, what: str) -> int:
    if isinstance(ref, Node):
        if ref.arena is not arena:
            raise DeltaError(
                f"{what} node handle does not belong to the current "
                f"version of the document (stale handle from an older "
                f"version or another document)")
        return ref.pre
    pre = int(ref)
    if not 0 <= pre < len(arena.kinds):
        raise DeltaError(f"{what} row {pre} is out of range "
                         f"(document has {len(arena.kinds)} rows)")
    return pre


def _check_patch(tree: Node) -> None:
    if not isinstance(tree, Node):
        raise DeltaError(f"patch must be a Node tree; got {tree!r}")
    if tree.arena is not None:
        raise DeltaError(
            "patch tree is frozen into an arena; updates take mutable "
            "builder trees (parse or build a fresh subtree)")
    if tree.kind is NodeKind.ATTRIBUTE:
        raise DeltaError(
            "attribute nodes cannot be spliced directly; replace the "
            "owning element instead")


class _Working:
    """Mutable column state while a multi-op update applies."""

    __slots__ = ("kinds", "name_ids", "texts", "levels", "parents",
                 "ends", "child_counts", "names", "name_to_id")

    def __init__(self, base: Arena):
        self.kinds = list(base.kinds)
        self.name_ids = list(base.name_ids)
        self.texts = list(base.texts)
        self.levels = list(base.levels)
        self.parents = list(base.parents)
        self.ends = list(base.ends)
        self.child_counts = list(base.child_counts)
        self.names = list(base.names)
        self.name_to_id = dict(base._name_to_id)

    def intern(self, name: str) -> int:
        name_id = self.name_to_id.get(name)
        if name_id is None:
            name_id = len(self.names)
            self.name_to_id[name] = name_id
            self.names.append(name)
        return name_id

    def path_to(self, row: int) -> TagPath:
        parts: list[str] = []
        while row >= 0:
            parts.append(self.names[self.name_ids[row]])
            row = self.parents[row]
        parts.reverse()
        return tuple(parts)

    def chain_names(self, row: int) -> frozenset:
        names = set()
        while row >= 0:
            names.add(self.names[self.name_ids[row]])
            row = self.parents[row]
        return frozenset(names)

    def child_starts(self, parent: int) -> list[int]:
        kinds, ends = self.kinds, self.ends
        attribute = NodeKind.ATTRIBUTE
        starts: list[int] = []
        row = parent + 1
        end = ends[parent]
        while row < end:
            if kinds[row] is not attribute:
                starts.append(row)
            row = ends[row]
        return starts

    def splice(self, pos: int, removed: int, patch: Arena | None,
               anchor: int, depth: int) -> None:
        """Replace rows ``[pos, pos + removed)`` with the patch subtree
        (``anchor`` is the new parent row, ``depth`` the patch root's
        level).  All tail copies are list-slice assignments (C speed);
        only the ancestor-chain interval fix-up walks Python rows."""
        w_end = pos + removed
        plen = 0 if patch is None else len(patch.kinds)
        shift = plen - removed
        ends, parents = self.ends, self.parents
        # 1. Grow/shrink every interval on the ancestor chain.  Rows
        # strictly containing the window are exactly the anchor and its
        # ancestors (subtrees are contiguous intervals), and the anchor
        # interval must grow even when the splice lands at its very end
        # (ends[anchor] == pos), which a ">= pos" scan would miss.
        if shift:
            row = anchor
            while row >= 0:
                ends[row] += shift
                row = parents[row]
        # The anchor gains the patch root and/or loses the window root
        # as a child (anchor < pos, so its own row never moves).
        self.child_counts[anchor] += (patch is not None) - (removed > 0)
        # 2. Shift the surviving tail.  A kept row's parent is never
        # inside the removed window (it would have to be a descendant
        # of the window, i.e. inside it), so parents only shift when
        # they point past it.
        if shift:
            ends[w_end:] = [e + shift for e in ends[w_end:]]
            parents[w_end:] = [p + shift if p >= w_end else p
                               for p in parents[w_end:]]
        # 3. Splice the patch columns in.
        if patch is None:
            patch_kinds: list = []
            patch_texts: list = []
            patch_ids: list[int] = []
            patch_levels: list[int] = []
            patch_parents: list[int] = []
            patch_ends: list[int] = []
            patch_counts: list[int] = []
        else:
            patch_kinds = patch.kinds
            patch_texts = patch.texts
            patch_names = patch.names
            patch_ids = [-1 if i < 0 else self.intern(patch_names[i])
                         for i in patch.name_ids]
            patch_levels = [lvl + depth for lvl in patch.levels]
            patch_parents = [pos + p if p >= 0 else anchor
                             for p in patch.parents]
            patch_ends = [e + pos for e in patch.ends]
            patch_counts = patch.child_counts
        self.kinds[pos:w_end] = patch_kinds
        self.texts[pos:w_end] = patch_texts
        self.name_ids[pos:w_end] = patch_ids
        self.levels[pos:w_end] = patch_levels
        parents[pos:w_end] = patch_parents
        ends[pos:w_end] = patch_ends
        self.child_counts[pos:w_end] = patch_counts

    def window_names(self, pos: int, w_end: int) -> frozenset:
        name_ids, names = self.name_ids, self.names
        return frozenset(names[name_ids[row]]
                         for row in range(pos, w_end)
                         if name_ids[row] >= 0)


def _derive_posts(ends: list[int], levels: list[int]) -> list[int]:
    """Post-order ranks straight off the interval and level columns:
    when a row closes, everything numbered before it has closed except
    its ``level`` ancestors, and so have its ``ends - pre - 1``
    descendants — ``post = pre - level + (ends - pre - 1)``."""
    return [end - level - 1 for end, level in zip(ends, levels)]


def apply_delta(document, ops) -> tuple[Arena, list[SpliceRecord]]:
    """Apply ``ops`` (a sequence of :class:`Insert` / :class:`Delete` /
    :class:`Replace`) to ``document``'s current arena and return the
    next version's arena plus the splice records.

    Ops apply *sequentially*: each op addresses rows of the state left
    by the previous ones (the first op addresses the current version).
    The returned arena has no owning document yet — the caller wires it
    into the new :class:`~repro.xmldb.document.Document`."""
    base = document.arena
    if not ops:
        raise DeltaError("an update needs at least one operation")
    work = _Working(base)
    records: list[SpliceRecord] = []
    for op in ops:
        if isinstance(op, Insert):
            parent = _pre_of(op.parent, base, "insert parent") \
                if not records else _op_pre(op.parent, work, "insert parent")
            if work.kinds[parent] is not NodeKind.ELEMENT:
                raise DeltaError("insert parent must be an element row")
            _check_patch(op.tree)
            starts = work.child_starts(parent)
            if not 0 <= op.index <= len(starts):
                raise DeltaError(
                    f"insert index {op.index} out of range (element has "
                    f"{len(starts)} children)")
            pos = starts[op.index] if op.index < len(starts) \
                else work.ends[parent]
            patch = Arena.from_tree(op.tree)
            record = SpliceRecord(
                kind="insert", pos=pos, removed=0,
                inserted=len(patch.kinds), patch=patch,
                parent_path=work.path_to(parent),
                removed_names=frozenset(),
                inserted_names=frozenset(patch.names),
                anchor_names=work.chain_names(parent))
            work.splice(pos, 0, patch, parent,
                        work.levels[parent] + 1)
        else:
            target_ref = op.target
            target = _pre_of(target_ref, base, "target") \
                if not records else _op_pre(target_ref, work, "target")
            if target == 0:
                raise DeltaError(
                    "the document root cannot be deleted or replaced; "
                    "register a new document instead")
            kind = work.kinds[target]
            if kind is NodeKind.ATTRIBUTE:
                raise DeltaError(
                    "attribute rows cannot be deleted or replaced "
                    "directly; replace the owning element instead")
            pos = target
            removed = work.ends[target] - target
            anchor = work.parents[target]
            removed_names = work.window_names(pos, pos + removed)
            if isinstance(op, Delete):
                record = SpliceRecord(
                    kind="delete", pos=pos, removed=removed, inserted=0,
                    patch=None, parent_path=work.path_to(anchor),
                    removed_names=removed_names,
                    inserted_names=frozenset(),
                    anchor_names=work.chain_names(anchor))
                work.splice(pos, removed, None, anchor, 0)
            else:
                _check_patch(op.tree)
                patch = Arena.from_tree(op.tree)
                record = SpliceRecord(
                    kind="replace", pos=pos, removed=removed,
                    inserted=len(patch.kinds), patch=patch,
                    parent_path=work.path_to(anchor),
                    removed_names=removed_names,
                    inserted_names=frozenset(patch.names),
                    anchor_names=work.chain_names(anchor))
                work.splice(pos, removed, patch, anchor,
                            work.levels[target])
        records.append(record)
    return _assemble(work), records


def _op_pre(ref, work: _Working, what: str) -> int:
    """Row addressing for ops after the first of a multi-op update:
    plain ints speak the intermediate coordinates; node handles of the
    pre-update version are rejected (their pre-ids may have shifted)."""
    if isinstance(ref, Node):
        raise DeltaError(
            f"{what}: node handles address the version an update "
            f"started from; later ops of a multi-op update must use "
            f"integer pre ids in the intermediate coordinates")
    pre = int(ref)
    if not 0 <= pre < len(work.kinds):
        raise DeltaError(f"{what} row {pre} is out of range "
                         f"({len(work.kinds)} rows after earlier ops)")
    return pre


def _assemble(work: _Working) -> Arena:
    """Finalize the spliced columns into a fresh arena with lazy node
    views: one O(rows) pass (per-tag row lists) and no per-row object
    allocation."""
    arena = Arena(document=None)
    arena.kinds = work.kinds
    arena.name_ids = work.name_ids
    arena.texts = work.texts
    arena.levels = work.levels
    arena.parents = work.parents
    arena.ends = work.ends
    arena.child_counts = work.child_counts
    arena.names = work.names
    arena._name_to_id = work.name_to_id
    arena.posts = _derive_posts(work.ends, work.levels)
    tag_pres: dict[str, list[int]] = {}
    elem_pres: list[int] = []
    text_pres: list[int] = []
    element, text = NodeKind.ELEMENT, NodeKind.TEXT
    names, name_ids = work.names, work.name_ids
    for pre, kind in enumerate(work.kinds):
        if kind is element:
            tag_pres.setdefault(names[name_ids[pre]], []).append(pre)
            elem_pres.append(pre)
        elif kind is text:
            text_pres.append(pre)
    arena._tag_pres = tag_pres
    arena._elem_pres = elem_pres
    arena._text_pres = text_pres
    arena.nodes = LazyNodes(arena)
    arena.child_lists = LazyLists(arena, "children")
    arena.attr_lists = LazyLists(arena, "attrs")
    return arena


def affected_names(records) -> tuple[frozenset, frozenset]:
    """``(structural, value)`` affected-name sets across an update's
    records.  *Structural* — names whose row sets changed (removed or
    inserted rows): per-tag verdicts that only depend on which rows
    carry the tag (flatness) must be dropped for these.  *Value* — the
    structural set plus every ancestor-chain name: those elements kept
    their rows but their string values changed, so data-derived
    verdicts about values (sortedness guarantees) must also be dropped
    for them."""
    structural: set = set()
    value: set = set()
    for record in records:
        structural |= record.removed_names | record.inserted_names
        value |= record.anchor_names
    value |= structural
    return frozenset(structural), frozenset(value)
