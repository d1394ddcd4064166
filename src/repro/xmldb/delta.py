"""Copy-on-write delta versions over frozen arenas.

A finalized :class:`~repro.xmldb.arena.Arena` never changes — that
immutability is what makes lock-free reads, cached string values and
order guarantees sound.  Live updates therefore never mutate an arena
in place: :func:`apply_delta` takes the current version's columns plus
a list of update operations and *splices* a
brand-new set of columns, producing a fresh arena for the next
``(document.name, document.seq)`` version.  Readers that pinned the old
version keep reading the old columns; that is the whole MVCC story.

Why splicing instead of an overlay/tombstone view: a subtree is a
*contiguous* row interval ``[pre, ends[pre])`` in the interval
encoding, so insert/delete/replace-subtree are single list splices —
the tail copy runs at C speed — plus O(depth) interval fix-ups on the
ancestor chain.  The derived columns (post-order ranks, the per-tag /
element / text pre lists) are spliced the same way, by bisecting each
sorted list to the window — no pass classifies every row again — and
the arena's per-version memos carry to the new version minus the rows
whose string values the splice changed.  Every read after
that is exactly as fast as a freshly registered document: no per-row
indirection, no tombstone checks on the hot axes, and the vectorized
engine works on the new version unchanged.  The expensive parts of full
re-registration — serializing, re-parsing, rebuilding node objects and
re-deriving the value indexes — are all skipped, which is where the
update-latency win over ``unregister()`` + ``register_text()`` comes
from (measured by ``benchmarks/bench_q14_updates.py``).

Node handles of the *new* version are materialized lazily
(:class:`~repro.xmldb.arena.LazyNodes`, the same tables a registered
version uses): an update allocates zero per-row Python
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

from bisect import bisect_left
from dataclasses import dataclass

from repro.errors import EvaluationError
from repro.xmldb.arena import Arena, TagPath, arena_for
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
    builder tree (element or text root), encoded on apply, or the root
    of a parsed fragment (``parse_document(text).root``), whose
    columns are spliced as they are; either way the caller keeps it
    and may insert it elsewhere again."""

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
    arena = tree.arena
    if arena is not None and (tree.pre or arena.doc_name is not None):
        raise DeltaError(
            "patch tree is frozen into a document; updates take mutable "
            "builder trees or parsed fragments (parse or build a fresh "
            "subtree)")
    if tree.kind is NodeKind.ATTRIBUTE:
        raise DeltaError(
            "attribute nodes cannot be spliced directly; replace the "
            "owning element instead")


class _Working:
    """Mutable column state while a multi-op update applies: the row
    columns, the derived ones (``posts``, the per-tag / element / text
    pre lists) and the per-version memos, each kept equal to what its
    from-scratch producer would give for the current rows."""

    __slots__ = ("kinds", "name_ids", "texts", "levels", "parents",
                 "ends", "child_counts", "names", "name_to_id", "posts",
                 "tag_pres", "elem_pres", "text_pres", "string_memo",
                 "key_memo")

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
        self.posts = list(base.posts)
        # The pre lists are replaced, never mutated, so the base's are
        # shared until a splice changes them.
        self.tag_pres = dict(base._tag_pres)
        self.elem_pres = base._elem_pres
        self.text_pres = base._text_pres
        # ``dict.copy`` runs without a thread switch, so a reader of
        # the base version filling its memo cannot tear the copy.
        self.string_memo = base._string_memo.copy()
        self.key_memo = base.key_memo.copy()

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
        level).  All tail copies are list-slice assignments or one
        comprehension per column; only the ancestor chain is walked
        row by row."""
        w_end = pos + removed
        shift = (0 if patch is None else len(patch.kinds)) - removed
        ends, parents, posts = self.ends, self.parents, self.posts
        # Rows strictly containing the window are exactly the anchor
        # and its ancestors (subtrees are contiguous intervals); the
        # anchor interval must grow even when the splice lands at its
        # very end (ends[anchor] == pos), which a ">= pos" scan would
        # miss.  Their string values change whatever the shift.
        chain = []
        row = anchor
        while row >= 0:
            chain.append(row)
            row = parents[row]
        # 1. Grow/shrink every interval on the ancestor chain; a row's
        # post rank (``ends - level - 1``) moves with its end.
        if shift:
            for row in chain:
                ends[row] += shift
                posts[row] += shift
        # The anchor gains the patch root and/or loses the window root
        # as a child (anchor < pos, so its own row never moves).
        self.child_counts[anchor] += (patch is not None) - (removed > 0)
        # 2. Shift the surviving tail.  A kept row's parent is never
        # inside the removed window (it would have to be a descendant
        # of the window, i.e. inside it), so parents only shift when
        # they point past it.
        if shift:
            ends[w_end:] = [e + shift for e in ends[w_end:]]
            posts[w_end:] = [p + shift for p in posts[w_end:]]
            parents[w_end:] = [p + shift if p >= w_end else p
                               for p in parents[w_end:]]
        # 3. Splice the patch columns in.
        if patch is None:
            patch = _EMPTY
            patch_ids: list[int] = []
        else:
            patch_names = patch.names
            patch_ids = [-1 if i < 0 else self.intern(patch_names[i])
                         for i in patch.name_ids]
        self.kinds[pos:w_end] = patch.kinds
        self.texts[pos:w_end] = patch.texts
        self.name_ids[pos:w_end] = patch_ids
        self.levels[pos:w_end] = [lvl + depth for lvl in patch.levels]
        parents[pos:w_end] = [pos + p if p >= 0 else anchor
                              for p in patch.parents]
        ends[pos:w_end] = [e + pos for e in patch.ends]
        posts[pos:w_end] = [p + pos - depth for p in patch.posts]
        self.child_counts[pos:w_end] = patch.child_counts
        # 4. The pre lists: the same cut, shift and insert per list.
        tag_pres, patch_tags = self.tag_pres, patch._tag_pres
        for tag in [*tag_pres, *(t for t in patch_tags
                                 if t not in tag_pres)]:
            rows = _spliced(tag_pres.get(tag, _NO_ROWS), pos, w_end,
                            shift, patch_tags.get(tag, _NO_ROWS))
            if rows:
                tag_pres[tag] = rows
            else:
                tag_pres.pop(tag, None)
        self.elem_pres = _spliced(self.elem_pres, pos, w_end, shift,
                                  patch._elem_pres)
        self.text_pres = _spliced(self.text_pres, pos, w_end, shift,
                                  patch._text_pres)
        # 5. The memos keep what the splice did not change.
        self.string_memo = _carried(self.string_memo, pos, w_end, shift,
                                    chain)
        self.key_memo = _carried(self.key_memo, pos, w_end, shift, chain)

    def arena(self) -> Arena:
        """The finished columns as the next version's arena."""
        return Arena.adopt(
            kinds=self.kinds, name_ids=self.name_ids, texts=self.texts,
            levels=self.levels, parents=self.parents, ends=self.ends,
            child_counts=self.child_counts, names=self.names,
            name_to_id=self.name_to_id, posts=self.posts,
            tag_pres=self.tag_pres, elem_pres=self.elem_pres,
            text_pres=self.text_pres, string_memo=self.string_memo,
            key_memo=self.key_memo)

    def window_names(self, pos: int, w_end: int) -> frozenset:
        name_ids, names = self.name_ids, self.names
        return frozenset(names[name_ids[row]]
                         for row in range(pos, w_end)
                         if name_ids[row] >= 0)


_NO_ROWS: list[int] = []
#: the patch of a delete: no rows, no names
_EMPTY = Arena()


def _spliced(rows: list[int], pos: int, w_end: int, shift: int,
             patch_rows: list[int]) -> list[int]:
    """A sorted pre list after the splice: the rows before ``pos``
    kept, those in ``[pos, w_end)`` cut, the patch's own rows (``pos``
    on) inserted, the tail moved by ``shift``.  ``rows`` itself when
    the splice leaves it unchanged — lists are never mutated, an old
    version may share them."""
    lo = bisect_left(rows, pos)
    hi = bisect_left(rows, w_end, lo)
    if lo == hi and not patch_rows and (not shift or hi == len(rows)):
        return rows
    tail = rows[hi:]
    if shift:
        tail = [row + shift for row in tail]
    return rows[:lo] + [row + pos for row in patch_rows] + tail


def _carried(memo: dict, pos: int, w_end: int, shift: int,
             chain: list[int]) -> dict:
    """A ``pre → value`` memo of string values (or keys made from them)
    after the splice: the window's rows and the ancestor ``chain``'s
    dropped, later rows moved by ``shift``."""
    if memo:
        memo = {(pre + shift if pre >= w_end else pre): value
                for pre, value in memo.items()
                if pre < pos or pre >= w_end}
        for row in chain:
            memo.pop(row, None)
    return memo


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
            patch = arena_for(op.tree)
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
                patch = arena_for(op.tree)
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
    return work.arena(), records


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
