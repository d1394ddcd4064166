"""Interval-encoded arena storage for documents.

Every document a :class:`~repro.xmldb.document.DocumentStore` holds is
an :class:`Arena`: a struct-of-arrays encoding in which every node
occupies one row, numbered in document order (``pre``), with parallel
columns

- ``kinds``   — :class:`~repro.xmldb.node.NodeKind` per row,
- ``name_ids`` — interned tag/attribute name (index into ``names``),
- ``texts``   — text content (text and attribute rows),
- ``posts``   — post-order rank (a node closes after its subtree),
- ``levels``  — depth below the root,
- ``parents`` — parent row (``-1`` for the root),
- ``ends``    — exclusive end of the subtree interval,
- ``child_counts`` — number of child nodes (attributes excluded).

The pre/post/level scheme is the classic interval encoding of the
structural-join literature (and of Natix, the paper's host system):
``a`` is an ancestor of ``d`` iff ``pre(a) < pre(d) < ends[a]`` —
equivalently ``post(d) < post(a)`` — an O(1) check with no pointer
chasing, and the descendants of a node are the *contiguous* row slice
``(pre, ends[pre])``.  Per-tag row lists make a ``descendant::tag``
step a binary search plus a slice copy instead of a recursive walk.
:meth:`Arena.step_rows` and :meth:`Arena.string_values` are the
whole-column kernels the default engine runs path steps and
atomization through: a column of context rows in, result rows out,
reading only the int columns above — no ``Node`` handle is created.

The parser (:mod:`repro.xmldb.parser`) appends XML text straight to
these columns and :meth:`Arena.from_tree` encodes a builder tree; both
end in :meth:`Arena.from_columns`, which derives the rest (``posts``
and the per-tag / element / text pre lists) in one pass over the rows.
The splice of :mod:`repro.xmldb.delta` builds the next version's
columns, derived ones included, from the previous version's and hands
them to :meth:`Arena.adopt`: an update costs its window and tail
shifts, not a pass over every row.

**Handles and what keeps them.**  ``nodes`` / ``child_lists`` /
``attr_lists`` (:class:`LazyNodes` / :class:`LazyLists`) hand out
interned :class:`~repro.xmldb.node.Node` handles, made on first
access — a registered builder tree's own nodes are put in the table
up front and become the handles.  A handle
references its arena, and the arena's tables reference the handles —
a reference cycle that is deliberate while the version is *pinned*
(interning must not depend on who else holds a handle) and is cut the
moment the owning :class:`~repro.xmldb.document.Document` dies:
:meth:`Arena.release_handles` swaps the tables for weak-valued ones, so
an unpinned superseded version is reclaimed by reference counting
alone, and a handle somebody still holds keeps its identity and its
arena's columns for as long as it is held.  The arena therefore only
keeps a *weak* reference to its document (plus plain copies of the
name and registration sequence the hot paths need).

**Per-version memos.**  An arena is one immutable version, so what the
column engine derives from a row is fixed for the arena's life.  Two
dicts fill on reads, never eagerly: ``pre → string value`` for the
elements :meth:`Arena.string_values` has to concatenate (the
``<t>text</t>`` arm and text / attribute rows never enter it), and
``pre → hash key`` (:attr:`Arena.key_memo`, filled by
:func:`repro.engine.batch.key_column`, which never stores a NaN key).
They hold only strings and tuples of atoms — no handles, no cycles —
so they die with their arena and :meth:`Arena.release_handles` leaves
them alone.  A post-update arena (``delta.apply_delta``) starts with
its predecessor's, carried through the splice: entries of rows in the
replaced window and on the splice point's ancestor chain (whose string
values changed) are dropped, entries after the window move by the
splice's row delta.  Concurrent readers may compute and store the
same entry twice: the value is deterministic, so the race is benign.
:meth:`Arena.string_value` stays the uncached definition.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from operator import le
from typing import Iterator

from repro.xmldb.node import Node, NodeKind

#: a concrete root-to-node tag path, e.g. ("items", "itemtuple", "@id")
#: (shared with :mod:`repro.index.structural`)
TagPath = tuple[str, ...]

class LazyNodes:
    """Interned frozen :class:`Node` handles created on first access —
    a spliced version allocates no per-row objects up front, and
    identity (``is``) holds per version.

    While the version is pinned the table keeps every handle it made
    (``_cache``, the hot lookup).  :meth:`release` turns the table
    weak-valued (``_refs``): from then on a handle lives exactly as
    long as somebody holds it, and is re-created on demand otherwise.
    The back-reference to the arena is weak for the same reason —
    nothing the arena owns may keep the arena alive."""

    __slots__ = ("_arena", "_cache", "_refs")

    def __init__(self, arena: "Arena"):
        self._arena = weakref.ref(arena)
        self._cache: dict[int, Node] = {}
        #: pre → weak reference; None until :meth:`release`
        self._refs: dict[int, weakref.ref] | None = None

    def __len__(self) -> int:
        return len(self._arena().kinds)

    def __getitem__(self, pre: int) -> Node:
        node = self._cache.get(pre)
        if node is None:
            refs = self._refs
            ref = None if refs is None else refs.get(pre)
            node = None if ref is None else ref()
            if node is None:
                node = Node.__new__(Node)
                node._freeze(self._arena(), pre)
                if refs is None:
                    self._cache[pre] = node
                else:
                    refs[pre] = weakref.ref(node)
        return node

    def __iter__(self):
        return (self[pre] for pre in range(len(self)))

    def release(self) -> None:
        """Stop keeping handles alive.  Everything interned so far
        stays findable through weak references, so a node somebody
        still holds keeps its identity.  The table is emptied one
        handle at a time, so a handle nobody else holds dies as it
        leaves and only held ones leave a weak reference behind (a
        builder tree's arena interned every row)."""
        cache, self._cache = self._cache, {}
        refs = self._refs = {}
        while cache:
            pre, node = cache.popitem()
            ref = weakref.ref(node)
            del node
            if ref() is not None:
                refs[pre] = ref


class LazyLists:
    """Per-row child or attribute tuples over a :class:`LazyNodes`
    arena, computed from the interval columns on first touch
    (``which`` selects the half; the sibling view shares the walk's
    result).  Cached while the version is pinned, recomputed per call
    once it is released (a cached tuple would keep its handles — and
    through them the arena — alive)."""

    __slots__ = ("_arena", "_which", "_cache")

    def __init__(self, arena: "Arena", which: str):
        self._arena = weakref.ref(arena)
        self._which = which
        #: None once the version is released
        self._cache: dict[int, tuple[Node, ...]] | None = {}

    def __getitem__(self, pre: int) -> tuple[Node, ...]:
        cache = self._cache
        entry = None if cache is None else cache.get(pre)
        if entry is None:
            arena = self._arena()
            kinds, ends, nodes = arena.kinds, arena.ends, arena.nodes
            attribute = NodeKind.ATTRIBUTE
            attrs: list[Node] = []
            children: list[Node] = []
            row = pre + 1
            end = ends[pre]
            while row < end:
                if kinds[row] is attribute:
                    attrs.append(nodes[row])
                else:
                    children.append(nodes[row])
                row = ends[row]
            wants_attrs = self._which == "attrs"
            entry = tuple(attrs if wants_attrs else children)
            if cache is not None:
                cache[pre] = entry
                sibling = arena.child_lists if wants_attrs \
                    else arena.attr_lists
                if sibling._cache is not None:
                    sibling._cache.setdefault(
                        pre, tuple(children if wants_attrs else attrs))
        return entry


class Arena:
    """Struct-of-arrays storage for one document tree."""

    __slots__ = ("_document", "doc_name", "doc_seq", "kinds",
                 "name_ids", "texts", "posts", "levels", "parents",
                 "ends", "child_counts", "names", "nodes",
                 "child_lists", "attr_lists", "_name_to_id",
                 "_tag_pres", "_elem_pres", "_text_pres", "_flat_tags",
                 "_avg_fanout", "_string_memo", "key_memo",
                 "__weakref__")

    def __init__(self, document=None):
        self.document = document
        self.kinds: list[NodeKind] = []
        self.name_ids: list[int] = []
        self.texts: list[str | None] = []
        self.posts: list[int] = []
        self.levels: list[int] = []
        self.parents: list[int] = []
        self.ends: list[int] = []
        #: child nodes per row (attributes excluded) — what a child
        #: step from the row scans, without building the child list
        self.child_counts: list[int] = []
        self.names: list[str] = []
        #: one Node handle per row, made on first access; handles are
        #: interned so node identity (``is`` / ``id()``) keeps working
        #: across lookups
        self.nodes = LazyNodes(self)
        #: per-row child/attribute handles as *tuples* — handed out
        #: directly by the Node properties, so they must be immutable
        #: (a mutable list would let callers bypass the freeze and
        #: desynchronize the interval columns)
        self.child_lists = LazyLists(self, "children")
        self.attr_lists = LazyLists(self, "attrs")
        self._name_to_id: dict[str, int] = {}
        #: element rows per tag name, in pre (= document) order
        self._tag_pres: dict[str, list[int]] = {}
        self._elem_pres: list[int] = []
        self._text_pres: list[int] = []
        #: lazy per-tag flatness verdicts (see :meth:`tag_is_flat`)
        self._flat_tags: dict[str, bool] = {}
        #: memoized :meth:`average_fanout` — the cost model asks on
        #: every estimate, and the columns never change once frozen
        self._avg_fanout: float | None = None
        #: pre → string value of the rows :meth:`string_values` had to
        #: concatenate (see "Per-version memos" above)
        self._string_memo: dict[int, str] = {}
        #: pre → hash key, filled and read by
        #: :func:`repro.engine.batch.key_column` (never a NaN key)
        self.key_memo: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Ownership
    # ------------------------------------------------------------------
    @property
    def document(self):
        """The owning Document — None for throwaway arenas built over
        unregistered trees (e.g. by the index subsystem), and None once
        nothing pins the version any more (the reference is weak: a
        handle keeps its arena readable, not its Document alive;
        ``doc_name`` / ``doc_seq`` stay valid either way)."""
        ref = self._document
        return None if ref is None else ref()

    @document.setter
    def document(self, document) -> None:
        self._document = None if document is None \
            else weakref.ref(document)
        self.doc_name = None if document is None else document.name
        self.doc_seq = -1 if document is None else document.seq

    def release_handles(self) -> None:
        """Cut the arena ↔ handle reference cycles (called when the
        owning Document dies, i.e. when nothing pins this version):
        the handle tables become weak-valued, so the arena and its
        columns go away with the last handle somebody still holds —
        by reference count, without waiting for the cyclic collector.
        Handles alive at this moment keep their identity.  The child
        and attribute tuples go first: a handle only they held dies
        then, and the node table need not keep a weak reference to
        it."""
        self.child_lists._cache = self.attr_lists._cache = None
        self.nodes.release()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(cls, *, kinds, name_ids, texts, levels, parents,
                     ends, child_counts, names, name_to_id) -> "Arena":
        """Adopt finished row columns (the lists are taken, not copied)
        and derive the rest in one pass over the rows: post-order ranks
        and the per-tag / element / text pre lists.  Parsed text and
        builder trees (:meth:`from_tree`) end here; a spliced version
        (:func:`repro.xmldb.delta.apply_delta`) splices the derived
        columns too and goes to :meth:`adopt` directly."""
        # When a row closes, everything numbered before it has closed
        # except its ``level`` ancestors, and so have its
        # ``ends - pre - 1`` descendants: ``post = ends - level - 1``.
        posts = [end - level - 1 for end, level in zip(ends, levels)]
        tag_pres: dict[str, list[int]] = {}
        elem_pres: list[int] = []
        text_pres: list[int] = []
        element, text = NodeKind.ELEMENT, NodeKind.TEXT
        for pre, kind in enumerate(kinds):
            if kind is element:
                tag_pres.setdefault(names[name_ids[pre]], []).append(pre)
                elem_pres.append(pre)
            elif kind is text:
                text_pres.append(pre)
        return cls.adopt(
            kinds=kinds, name_ids=name_ids, texts=texts, levels=levels,
            parents=parents, ends=ends, child_counts=child_counts,
            names=names, name_to_id=name_to_id, posts=posts,
            tag_pres=tag_pres, elem_pres=elem_pres, text_pres=text_pres)

    @classmethod
    def adopt(cls, *, kinds, name_ids, texts, levels, parents, ends,
              child_counts, names, name_to_id, posts, tag_pres,
              elem_pres, text_pres, string_memo=None,
              key_memo=None) -> "Arena":
        """An arena over complete columns, derived ones and (optionally)
        memos included — all taken as they are, nothing is checked or
        derived.  ``tests/test_updates.py`` pins that the splice's
        derived columns equal :meth:`from_columns`' for the same rows."""
        arena = cls()
        arena.kinds = kinds
        arena.name_ids = name_ids
        arena.texts = texts
        arena.levels = levels
        arena.parents = parents
        arena.ends = ends
        arena.child_counts = child_counts
        arena.names = names
        arena._name_to_id = name_to_id
        arena.posts = posts
        arena._tag_pres = tag_pres
        arena._elem_pres = elem_pres
        arena._text_pres = text_pres
        if string_memo is not None:
            arena._string_memo = string_memo
        if key_memo is not None:
            arena.key_memo = key_memo
        return arena

    @classmethod
    def from_tree(cls, root: Node, freeze: bool = False) -> "Arena":
        """Encode the builder tree under ``root``; its nodes are the
        arena's handles.

        With ``freeze`` every node becomes a handle proper: its
        builder-mode links are dropped and all further reads go
        through the arena; mutation afterwards raises
        :class:`~repro.errors.FrozenDocumentError`.  Without it the
        nodes are left untouched (the arena is then a read-only view,
        as the index subsystem and update patches build over loose
        trees)."""
        kinds: list[NodeKind] = []
        name_ids: list[int] = []
        texts: list[str | None] = []
        levels: list[int] = []
        parents: list[int] = []
        ends: list[int] = []
        child_counts: list[int] = []
        names: list[str] = []
        name_to_id: dict[str, int] = {}
        nodes: list[Node] = []
        stack: list[tuple[Node | None, int, int]] = [(root, -1, 0)]
        while stack:
            node, parent_pre, level = stack.pop()
            if node is None:
                # the close marker of row ``parent_pre``
                ends[parent_pre] = len(kinds)
                continue
            pre = len(kinds)
            nodes.append(node)
            kinds.append(node.kind)
            name = node.name
            if name is None:
                name_ids.append(-1)
            else:
                name_id = name_to_id.get(name)
                if name_id is None:
                    name_id = name_to_id[name] = len(names)
                    names.append(name)
                name_ids.append(name_id)
            texts.append(node.text)
            parents.append(parent_pre)
            levels.append(level)
            ends.append(-1)
            children = node.children
            child_counts.append(len(children))
            # LIFO: attributes pop first (rows right after the element),
            # then the children subtrees, then the close marker.
            stack.append((None, pre, level))
            for child in reversed(children):
                stack.append((child, pre, level + 1))
            for attr in reversed(node.attributes):
                stack.append((attr, pre, level + 1))
        arena = cls.from_columns(
            kinds=kinds, name_ids=name_ids, texts=texts, levels=levels,
            parents=parents, ends=ends, child_counts=child_counts,
            names=names, name_to_id=name_to_id)
        arena.nodes._cache = dict(enumerate(nodes))
        if freeze:
            for pre, node in enumerate(nodes):
                node._freeze(arena, pre)
        return arena

    # ------------------------------------------------------------------
    # Structural axes (O(log n) + output size)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.kinds)

    def is_ancestor(self, a: int, d: int) -> bool:
        """Interval containment: O(1), no pointer chasing."""
        return a < d < self.ends[a]

    def _range(self, rows: list[int], pre: int) -> list[int]:
        lo = bisect_right(rows, pre)
        hi = bisect_left(rows, self.ends[pre], lo)
        return rows[lo:hi]

    def descendants_by_tag(self, pre: int, name: str) -> list[int]:
        """Rows of ``name`` elements inside ``(pre, ends[pre])``."""
        rows = self._tag_pres.get(name)
        return [] if rows is None else self._range(rows, pre)

    def tag_rows(self, name: str) -> list[int]:
        """All rows of ``name`` elements, in document order.  The
        returned list is the arena's own — callers must not mutate."""
        return self._tag_pres.get(name, [])

    def tag_names(self) -> list[str]:
        """Every element tag occurring in the document, sorted."""
        return sorted(self._tag_pres)

    def tag_is_flat(self, name: str) -> bool:
        """Whether no two ``name`` elements nest — i.e. a
        ``descendant::name`` result set is always an antichain of
        disjoint subtrees.  The order-property fast path of the XPath
        evaluator uses this to keep chaining steps without a dedup
        pass.  Checked once per tag (the per-tag pre list is in
        document order, so one linear interval scan suffices) and
        cached — sound because finalized documents are immutable."""
        cached = self._flat_tags.get(name)
        if cached is not None:
            return cached
        rows = self._tag_pres.get(name, ())
        flat = all(map(le, map(self.ends.__getitem__, rows), rows[1:]))
        self._flat_tags[name] = flat
        return flat

    def descendant_elements(self, pre: int) -> list[int]:
        return self._range(self._elem_pres, pre)

    def descendant_texts(self, pre: int) -> list[int]:
        return self._range(self._text_pres, pre)

    def iter_descendant_rows(self, pre: int) -> Iterator[int]:
        """Element and text rows of the subtree, in document order
        (attribute rows are skipped, as the descendant axis requires)."""
        kinds = self.kinds
        attribute = NodeKind.ATTRIBUTE
        for row in range(pre + 1, self.ends[pre]):
            if kinds[row] is not attribute:
                yield row

    def has_element_children(self, pre: int) -> bool:
        """Whether an element row lies inside ``(pre, ends[pre])`` —
        the value index's atomicity test, off the interval columns
        (no handle, no child tuple).  False for text and attribute
        rows."""
        rows = self._elem_pres
        i = bisect_right(rows, pre)
        return i < len(rows) and rows[i] < self.ends[pre]

    def string_value(self, pre: int) -> str:
        """Concatenated text of the subtree (XQuery string value) — the
        definition, recomputed on every call: node handles, and so
        ``mode="reference"``, read this and not the memo of
        :meth:`string_values`, so a memo bug cannot hide in the
        oracle."""
        if self.kinds[pre] is not NodeKind.ELEMENT:
            return self.texts[pre] or ""
        rows = self._text_pres
        lo = bisect_right(rows, pre)
        hi = bisect_left(rows, self.ends[pre], lo)
        texts = self.texts
        return "".join(texts[rows[i]] or "" for i in range(lo, hi))

    # ------------------------------------------------------------------
    # Whole-column kernels (int columns in, int rows out — no handles)
    # ------------------------------------------------------------------
    def step_rows(self, pres, axis: str, name: str
                  ) -> tuple[list[int] | None, list[int], int]:
        """One ``child::name`` / ``descendant::name`` /
        ``attribute::name`` step from a whole column of context rows:
        ``(owners, rows, visits)`` where
        ``rows`` are the result rows grouped per context in input
        order (document order inside a group) and ``owners[i]`` is the
        position in ``pres`` of the context ``rows[i]`` came from.
        ``owners`` None stands for the identity — ``rows[i]`` belongs
        to ``pres[i]``, nothing to regroup — which a child step reports
        when every context has exactly one hit.

        ``visits`` is what the XPath evaluator records for the same
        walk — the children scanned by a child step
        (``child_counts``), the hits of a descendant step, nothing for
        an attribute step — so scan statistics stay exact without
        building a child list.

        Any context column is accepted (unsorted, duplicated, nested:
        every context is answered by bisecting the tag's pre list to
        its own subtree interval).  A child step over a strictly
        increasing antichain — what a previous step or a ``//tag``
        scan produces — is one pass over the slice of the tag list
        spanning the whole column instead, filtered through
        ``parents``, unless the column is so sparse in that span that
        bisecting per context reads fewer rows."""
        owners: list[int] = []
        rows: list[int] = []
        if axis == "attribute":
            # the attribute rows directly follow their element's row;
            # the evaluator charges no visit for reading them
            kinds, name_ids = self.kinds, self.name_ids
            name_id = self._name_to_id.get(name)
            for i, pre in enumerate(pres):
                if kinds[pre] is not NodeKind.ELEMENT:
                    continue
                row = pre + 1
                while row < self.ends[pre] \
                        and kinds[row] is NodeKind.ATTRIBUTE:
                    if name_ids[row] == name_id:
                        owners.append(i)
                        rows.append(row)
                        break
                    row += 1
            return (None if len(rows) == len(pres) else owners), rows, 0
        child = axis == "child"
        visits = sum(map(self.child_counts.__getitem__, pres)) \
            if child else 0
        tag = self._tag_pres.get(name)
        if tag is None or not len(pres):
            return owners, rows, visits
        ends = self.ends
        if not child:
            for i, pre in enumerate(pres):
                lo = bisect_right(tag, pre)
                hi = bisect_left(tag, ends[pre], lo)
                if hi > lo:
                    rows.extend(tag[lo:hi])
                    owners.extend([i] * (hi - lo))
            return owners, rows, len(rows)
        parents = self.parents
        count = len(pres)
        lo = bisect_right(tag, pres[0])
        hi = bisect_left(tag, ends[pres[-1]], lo)
        # The one pass reads every tag row the column spans; context by
        # context reads two bisections' worth of rows per context.  A
        # sparse column (the survivors of a selective σ or an index
        # probe) takes whichever reads less.
        if count > 1 and hi - lo <= 2 * count * len(tag).bit_length() \
                and all(map(le, map(ends.__getitem__, pres), pres[1:])):
            candidates = tag[lo:hi]
            found = list(map(parents.__getitem__, candidates))
            if found == pres:
                # exactly one such child per context, the shape a
                # DTD's mandatory children give
                return None, list(candidates), visits
            owners = list(map(dict(zip(pres, range(count))).get, found))
            rows = list(candidates)
            if None in owners:
                # children of other rows, and deeper descendants,
                # carry the tag too: drop them
                rows = [row for i, row in zip(owners, rows)
                        if i is not None]
                owners = [i for i in owners if i is not None]
        else:
            for i, pre in enumerate(pres):
                lo = bisect_right(tag, pre)
                hi = bisect_left(tag, ends[pre], lo)
                for row in tag[lo:hi]:
                    if parents[row] == pre:
                        owners.append(i)
                        rows.append(row)
        if len(rows) == count and owners == list(range(count)):
            owners = None
        return owners, rows, visits

    def string_values(self, pres) -> list[str]:
        """The string value of every row of a column, straight off the
        columns: the overwhelmingly common ``<tag>text</tag>`` shape is
        the one text row at ``pre + 1``; any other element concatenates
        the subtree's text rows (:meth:`string_value`) once per version
        and is memoized; a text or attribute row is its own text."""
        ends, kinds, texts = self.ends, self.kinds, self.texts
        text_kind = NodeKind.TEXT
        memo = self._string_memo
        concatenation = self._concatenation
        return [(texts[pre + 1] or "")
                if ends[pre] == pre + 2 and kinds[pre + 1] is text_kind
                else memo[pre] if pre in memo
                else concatenation(pre) for pre in pres]

    def _concatenation(self, pre: int) -> str:
        if self.kinds[pre] is not NodeKind.ELEMENT:
            return self.texts[pre] or ""
        value = self._string_memo[pre] = self.string_value(pre)
        return value

    # ------------------------------------------------------------------
    # Statistics (exact, read straight off the columns)
    # ------------------------------------------------------------------
    @property
    def element_count(self) -> int:
        return len(self._elem_pres)

    def tag_count(self, name: str) -> int:
        return len(self._tag_pres.get(name, ()))

    def tag_counts(self) -> dict[str, int]:
        """Exact per-tag element counts (cost-model input)."""
        return {name: len(rows) for name, rows in self._tag_pres.items()}

    def depth_histogram(self) -> dict[int, int]:
        """Element count per depth level."""
        histogram: dict[int, int] = {}
        levels = self.levels
        for pre in self._elem_pres:
            level = levels[pre]
            histogram[level] = histogram.get(level, 0) + 1
        return histogram

    def average_fanout(self) -> float:
        """Mean number of child elements per *internal* element — the
        exact fanout figure the cost model uses for paths it cannot
        resolve to a tag count.  Memoized: the columns are frozen, and
        the cost model asks on every plan estimate."""
        if self._avg_fanout is not None:
            return self._avg_fanout
        # An element is internal iff some element row names it as
        # parent — read off the parents column, no handle allocation.
        kinds = self.kinds
        parents = self.parents
        element = NodeKind.ELEMENT
        internal = {parents[pre] for pre in self._elem_pres
                    if pre and kinds[parents[pre]] is element}
        count = len(self._elem_pres)
        self._avg_fanout = ((count - 1) / len(internal)
                            if internal else 0.0)
        return self._avg_fanout

    def stats(self) -> dict:
        """Summary used by ``python -m repro stats`` and the examples."""
        kind_counts = {"element": len(self._elem_pres),
                       "text": len(self._text_pres)}
        kind_counts["attribute"] = (len(self.kinds)
                                    - kind_counts["element"]
                                    - kind_counts["text"])
        depth_histogram = self.depth_histogram()
        return {
            "rows": len(self.kinds),
            "kinds": kind_counts,
            "distinct_names": len(self.names),
            "max_depth": max(depth_histogram, default=0),
            "average_fanout": round(self.average_fanout(), 3),
            "tag_counts": dict(sorted(self.tag_counts().items(),
                                      key=lambda kv: (-kv[1], kv[0]))),
            "depth_histogram": dict(sorted(depth_histogram.items())),
        }

    # ------------------------------------------------------------------
    def iter_paths(self) -> Iterator[tuple[int, TagPath]]:
        """``(pre, root-to-node tag path)`` for every element and
        attribute row, in document order — the DataGuide walk of the
        index subsystem, off the columns instead of the pointers."""
        kinds, name_ids, parents = self.kinds, self.name_ids, self.parents
        names = self.names
        paths: list[TagPath | None] = [None] * len(kinds)
        for pre, kind in enumerate(kinds):
            if kind is NodeKind.TEXT:
                continue
            parent = parents[pre]
            base: TagPath = () if parent < 0 else paths[parent]  # type: ignore
            name = names[name_ids[pre]]
            if kind is NodeKind.ATTRIBUTE:
                yield pre, base + (f"@{name}",)
            else:
                path = base + (name,)
                paths[pre] = path
                yield pre, path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        owner = self.document.name if self.document is not None else None
        return f"<Arena rows={len(self.kinds)} document={owner!r}>"


def arena_for(root: Node) -> Arena:
    """An arena whose row 0 is ``root`` — its own arena when ``root``
    is row 0 of one (a document root, or a parsed update fragment),
    otherwise a fresh read-only encoding of the subtree (used by the
    index subsystem and :mod:`repro.xmldb.delta` over builder trees,
    and over subtrees of finalized documents: a
    frozen *non-root* node must not alias the whole-document arena, or
    indexes built over the subtree would silently cover the entire
    document)."""
    if root.arena is not None and root.pre == 0:
        return root.arena
    return Arena.from_tree(root)
