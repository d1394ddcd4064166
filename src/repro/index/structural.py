"""Structural indexes: element index and path index (DataGuide).

Both are views over a document's interval-encoded
:class:`~repro.xmldb.arena.Arena`: instead of object references they
store ``pre`` row ids, which are already in document order — a probe
returns its result without sorting, which is what lets
:class:`~repro.nal.unary_ops.IndexScan` replace a document scan without
an order-restoring sort (the paper's Natix pays that sort after its
Grace hash join; our order-preserving structures avoid it the same way
the order-preserving hash join does).  Merging several pre lists is an
integer sort; nodes are materialized from the arena's interned handle
table only at lookup time.

- :class:`ElementIndex` maps a tag name to the document-order list of
  elements carrying it.
- :class:`PathIndex` is a DataGuide: it maps every *root-to-node tag
  path* occurring in the document (attributes appear as a trailing
  ``@name`` component) to the document-order list of nodes reached by
  it.  Patterns with ``descendant`` steps are answered by matching the
  pattern against the stored paths — the set of distinct paths is tiny
  compared to the document (bounded by the DTD, not the data).

Unregistered trees (tests build indexes over loose builder trees) are
encoded into a throwaway arena first — the index code is columnar
either way.

When the document has a DTD, :meth:`PathIndex.validate_against_dtd`
cross-checks every stored path against the declared content models; a
non-empty result means the document disagrees with its schema, which
would silently invalidate the optimizer's schema-based side conditions.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

from repro.xmldb.arena import Arena, arena_for
from repro.xmldb.dtd import DTD
from repro.xmldb.node import Node

#: a concrete root-to-node tag path, e.g. ("items", "itemtuple", "@id")
TagPath = tuple[str, ...]


class ElementIndex:
    """Tag name → document-order ``pre`` list of elements with that
    tag (the arena's own per-tag row lists, shared, not copied)."""

    def __init__(self, root: Node, arena: Arena | None = None):
        self.root = root
        self._arena = arena if arena is not None else arena_for(root)

    def lookup_rows(self, tag: str, include_root: bool = False
                    ) -> list[int]:
        """The pre rows of all ``tag`` elements in document order
        (shared with the arena — do not mutate).  By default the root
        element is excluded, matching the ``//tag`` (descendant-from-
        root) semantics the access-path pass rewrites."""
        pres = self._arena.tag_rows(tag)
        if not include_root and pres and pres[0] == 0:
            pres = pres[1:]
        return pres

    def lookup(self, tag: str, include_root: bool = False) -> list[Node]:
        """:meth:`lookup_rows` materialized into node handles."""
        nodes = self._arena.nodes
        return [nodes[pre] for pre in self.lookup_rows(tag, include_root)]

    def count(self, tag: str) -> int:
        return self._arena.tag_count(tag)

    def tags(self) -> list[str]:
        return self._arena.tag_names()


class PathIndex:
    """DataGuide: root-to-node tag path → document-order ``pre`` list."""

    def __init__(self, root: Node, arena: Arena | None = None):
        self._arena = arena if arena is not None else arena_for(root)
        self._by_path: dict[TagPath, list[int]] = {}
        for pre, path in self._arena.iter_paths():
            self._by_path.setdefault(path, []).append(pre)
        # Pattern matching is memoized per (pattern, path); the distinct
        # path set is small and patterns repeat across probes.
        self._match = lru_cache(maxsize=4096)(_pattern_matches)

    def paths(self) -> list[TagPath]:
        return sorted(self._by_path)

    def nodes_at(self, path: TagPath) -> list[Node]:
        nodes = self._arena.nodes
        return [nodes[pre] for pre in self._by_path.get(path, ())]

    def matching_paths(self, steps: tuple[tuple[str, str], ...]
                       ) -> list[TagPath]:
        """The stored paths matched by a simple-step pattern.  Matching
        starts *below* the root component (patterns describe navigation
        from the document root, as plans' paths do)."""
        return [path for path in sorted(self._by_path)
                if self._match(steps, path)]

    def lookup_rows(self, steps: tuple[tuple[str, str], ...]
                    ) -> list[int]:
        """The pre rows of all nodes whose tag path matches the
        pattern, merged into document order (an integer sort; a single
        matched path hands out its own list — do not mutate)."""
        matched = self.matching_paths(steps)
        if len(matched) == 1:
            return self._by_path[matched[0]]
        pres: list[int] = []
        for path in matched:
            pres.extend(self._by_path[path])
        pres.sort()
        return pres

    def lookup(self, steps: tuple[tuple[str, str], ...]) -> list[Node]:
        """:meth:`lookup_rows` materialized into node handles."""
        nodes = self._arena.nodes
        return [nodes[pre] for pre in self.lookup_rows(steps)]

    def count(self, steps: tuple[tuple[str, str], ...]) -> int:
        """Cardinality of :meth:`lookup` without the merge and sort."""
        return sum(len(self._by_path[path])
                   for path in self.matching_paths(steps))

    def rows_at(self, path: TagPath) -> list[int]:
        """The raw pre-id list at one stored path (shared, do not
        mutate) — the value index's incremental rebuild reads it."""
        return self._by_path.get(path, [])

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def with_records(self, records, arena: Arena
                     ) -> tuple["PathIndex", set[TagPath]]:
        """A new :class:`PathIndex` for the document version produced
        by replaying ``records`` (:class:`~repro.xmldb.delta.
        SpliceRecord` sequence) on the version this index describes,
        plus the set of paths whose row membership changed.

        Each record turns into pure pre-id arithmetic on the sorted row
        lists: rows inside the spliced window drop out (one bisect pair
        per path), surviving rows past it shift by the record's size
        delta (a slice copy), and the patch subtree's paths — each a
        contiguous, already-sorted pre block at ``pos + patch_pre``
        under the ``parent_path`` prefix — splice in at their bisect
        position.  No arena walk, no re-hashing of untouched paths.
        ``self`` is left untouched: readers pinned to the old version
        keep probing the old index."""
        by_path = dict(self._by_path)
        touched: set[TagPath] = set()
        for rec in records:
            pos, w_end, shift = rec.pos, rec.window_end, rec.shift
            if shift or rec.removed:
                shifted: dict[TagPath, list[int]] = {}
                for path, rows in by_path.items():
                    lo = bisect_left(rows, pos)
                    hi = bisect_left(rows, w_end) if rec.removed else lo
                    if hi > lo:
                        touched.add(path)
                    if shift:
                        rows = rows[:lo] + [r + shift for r in rows[hi:]]
                    elif hi > lo:
                        rows = rows[:lo] + rows[hi:]
                    if rows:
                        shifted[path] = rows
                by_path = shifted
            if rec.patch is not None:
                inserted: dict[TagPath, list[int]] = {}
                for patch_pre, patch_path in rec.patch.iter_paths():
                    full = rec.parent_path + patch_path
                    inserted.setdefault(full, []).append(pos + patch_pre)
                for full, block in inserted.items():
                    rows = by_path.get(full)
                    if rows is None:
                        by_path[full] = block
                    else:
                        at = bisect_left(rows, pos)
                        by_path[full] = rows[:at] + block + rows[at:]
                    touched.add(full)
        clone = PathIndex.__new__(PathIndex)
        clone._arena = arena
        clone._by_path = by_path
        clone._match = lru_cache(maxsize=4096)(_pattern_matches)
        return clone, touched

    # ------------------------------------------------------------------
    def validate_against_dtd(self, dtd: DTD) -> tuple[TagPath, ...]:
        """Stored paths the DTD does not license (empty = consistent).

        Checked per path: the leaf element must be declared and allowed
        as a child of its parent's content model; attribute components
        must appear in the parent's ATTLIST."""
        violations: list[TagPath] = []
        for path in self.paths():
            leaf = path[-1]
            if leaf.startswith("@"):
                owner = path[-2] if len(path) > 1 else ""
                if leaf[1:] not in dtd.attributes.get(owner, {}):
                    violations.append(path)
            elif len(path) == 1:
                if path[0] not in dtd.elements:
                    violations.append(path)
            elif leaf not in dtd.elements \
                    or leaf not in dtd.child_tags(path[-2]):
                violations.append(path)
        return tuple(violations)


def _pattern_matches(steps: tuple[tuple[str, str], ...],
                     path: TagPath) -> bool:
    """Does the simple-step pattern, anchored at the root (component 0),
    consume the path exactly?  ``child``/``attribute`` steps consume one
    component; a ``descendant`` step may skip any number first."""
    return _match_from(steps, path, 0, 1)


def _match_from(steps, path, si, pi) -> bool:
    if si == len(steps):
        return pi == len(path)
    axis, name = steps[si]
    if axis == "descendant":
        return any(path[j] == name and _match_from(steps, path, si + 1,
                                                   j + 1)
                   for j in range(pi, len(path)))
    want = f"@{name}" if axis == "attribute" else name
    return pi < len(path) and path[pi] == want \
        and _match_from(steps, path, si + 1, pi + 1)
