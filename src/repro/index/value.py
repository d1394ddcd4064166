"""Sorted value index: (tag path, typed atomic value) → pre-id lists.

Indexed entries are the *atomic* nodes of a document — attribute nodes
and elements without element children — keyed by their string value
under the engine's documented coercion rule (see
:mod:`repro.nal.values`): two atomized values compare numerically when
both parse as numbers, as strings otherwise.  Entries are stored as
``pre`` row ids into the document's interval-encoded arena (document
order *is* integer order, so restoring it after a probe is an int
sort); node handles are materialized from the arena only on lookup.
A probe must return exactly the nodes a scan-and-compare would keep,
so the index maintains three sorted views per path:

- ``by_key`` — canonical-key buckets for equality probes (consistent
  with :func:`~repro.nal.values.canonical_key` by construction);
- a numeric array (entries whose text parses as a number, sorted by
  numeric value) and a non-numeric array (sorted by raw text): a range
  probe against a *numeric* constant bisects the numeric array and
  string-compares the non-numeric one, which is precisely what
  ``compare_atomic`` does pairwise;
- an all-text array (every entry sorted by raw text) for range probes
  against a *non-numeric* constant, where ``compare_atomic`` falls back
  to string comparison for every pair.

Differential tests (``tests/test_index_differential.py``) assert probe
results are byte-identical to scan plans across randomized documents.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from typing import Any

from repro.errors import EvaluationError
from repro.index.structural import TagPath
from repro.nal.values import _as_number, canonical_key
from repro.xmldb.arena import Arena, arena_for
from repro.xmldb.node import Node


RANGE_OPS = ("<", "<=", ">", ">=")


class _PathValues:
    """The sorted structures for one tag path (entries are
    ``(string value, pre)`` pairs)."""

    __slots__ = ("by_key", "num_keys", "num_pres", "text_keys",
                 "text_pres", "all_keys", "all_pres")

    def __init__(self, entries: list[tuple[str, int]]):
        # NaN-parsing texts ("nan") compare false against every number
        # under compare_atomic, and a NaN sort key would leave the
        # bisect arrays unsorted — keep them out of the numeric views
        # and the equality buckets entirely (they stay in the all-text
        # array, where string-typed constants do reach them).
        self.by_key: dict[Any, list[int]] = {}
        for text, pre in entries:
            if not _is_nan_text(text):
                self.by_key.setdefault(canonical_key(text),
                                       []).append(pre)
        numeric = [(n, t, pre) for t, pre in entries
                   if (n := _as_number(t)) is not None
                   and not math.isnan(n)]
        numeric.sort(key=lambda e: (e[0], e[2]))
        self.num_keys = [e[0] for e in numeric]
        self.num_pres = [e[2] for e in numeric]
        textual = [(t, pre) for t, pre in entries
                   if _as_number(t) is None]
        textual.sort()
        self.text_keys = [e[0] for e in textual]
        self.text_pres = [e[1] for e in textual]
        everything = sorted(entries)
        self.all_keys = [e[0] for e in everything]
        self.all_pres = [e[1] for e in everything]

    def __len__(self) -> int:
        return len(self.all_keys)

    def _remapped(self, remap) -> "_PathValues":
        """Clone with every pre id pushed through ``remap`` (a strictly
        increasing map — splice shifts).  Keys and their sort order are
        untouched, so the key arrays are shared, and monotonicity keeps
        the pre tie-break order inside equal keys valid."""
        clone = _PathValues.__new__(_PathValues)
        clone.by_key = {key: [remap(p) for p in pres]
                        for key, pres in self.by_key.items()}
        clone.num_keys = self.num_keys
        clone.num_pres = [remap(p) for p in self.num_pres]
        clone.text_keys = self.text_keys
        clone.text_pres = [remap(p) for p in self.text_pres]
        clone.all_keys = self.all_keys
        clone.all_pres = [remap(p) for p in self.all_pres]
        return clone

    def _spliced(self, survivors: dict[int, int],
                 inserted: list[tuple[str, int]]) -> "_PathValues":
        """Clone for a membership change at this path: old pres absent
        from ``survivors`` (old pre → new pre, strictly increasing over
        its domain) are dropped, the rest remapped, and ``inserted``
        ``(text, new pre)`` entries merged into the sorted views.  The
        surviving entries' *values* are untouched by construction (the
        caller only takes this route when no splice anchored inside
        this path), so their keys — the expensive part of a rebuild —
        are reused verbatim."""
        clone = _PathValues.__new__(_PathValues)
        clone.by_key = {}
        for key, pres in self.by_key.items():
            kept = [survivors[p] for p in pres if p in survivors]
            if kept:
                clone.by_key[key] = kept
        drop = len(survivors) < len(self.all_pres)
        if drop:
            num = [(k, survivors[p]) for k, p
                   in zip(self.num_keys, self.num_pres)
                   if p in survivors]
            text = [(k, survivors[p]) for k, p
                    in zip(self.text_keys, self.text_pres)
                    if p in survivors]
            allv = [(k, survivors[p]) for k, p
                    in zip(self.all_keys, self.all_pres)
                    if p in survivors]
            clone.num_keys = [e[0] for e in num]
            clone.num_pres = [e[1] for e in num]
            clone.text_keys = [e[0] for e in text]
            clone.text_pres = [e[1] for e in text]
            clone.all_keys = [e[0] for e in allv]
            clone.all_pres = [e[1] for e in allv]
        else:
            clone.num_keys = list(self.num_keys)
            clone.num_pres = [survivors[p] for p in self.num_pres]
            clone.text_keys = list(self.text_keys)
            clone.text_pres = [survivors[p] for p in self.text_pres]
            clone.all_keys = list(self.all_keys)
            clone.all_pres = [survivors[p] for p in self.all_pres]
        for raw, pre in inserted:
            if not _is_nan_text(raw):
                insort(clone.by_key.setdefault(canonical_key(raw), []),
                       pre)
            number = _as_number(raw)
            if number is not None and not math.isnan(number):
                _insert_pair(clone.num_keys, clone.num_pres,
                             number, pre)
            elif number is None:
                _insert_pair(clone.text_keys, clone.text_pres,
                             raw, pre)
            _insert_pair(clone.all_keys, clone.all_pres, raw, pre)
        return clone


class ValueIndex:
    """Per-document value index over every atomic tag path."""

    def __init__(self, root: Node, arena: Arena | None = None):
        arena = arena if arena is not None else arena_for(root)
        self._arena = arena
        has_element_children = arena.has_element_children
        grouped: dict[TagPath, list[tuple[str, int]]] = {}
        non_atomic: set[TagPath] = set()
        for pre, path in arena.iter_paths():
            # Indexable rows: attributes, and elements with no element
            # children (their string value is their own text, not a
            # concatenation of a subtree).
            if not has_element_children(pre):
                grouped.setdefault(path, []).append(
                    (arena.string_value(pre), pre))
            else:
                non_atomic.add(path)
        # A path is value-indexed only if *every* node at it is atomic;
        # mixed paths cannot answer probes exactly.
        self._values: dict[TagPath, _PathValues] = {
            path: _PathValues(entries)
            for path, entries in grouped.items()
            if path not in non_atomic}

    def paths(self) -> list[TagPath]:
        return sorted(self._values)

    def is_indexed(self, path: TagPath) -> bool:
        return path in self._values

    def entry_count(self, path: TagPath) -> int:
        values = self._values.get(path)
        return 0 if values is None else len(values)

    def distinct_count(self, path: TagPath) -> int:
        values = self._values.get(path)
        return 0 if values is None else len(values.by_key)

    # ------------------------------------------------------------------
    def probe_pres(self, path: TagPath, op: str, value: Any) -> list[int]:
        """Pre ids at ``path`` whose value satisfies ``value'' θ value``
        under the engine's coercion rule, in document order."""
        if isinstance(value, bool):
            raise EvaluationError(
                "value probes do not support boolean constants")
        if not isinstance(value, (int, float, str)):
            raise EvaluationError(
                f"value probes require an atomic constant; got {value!r}")
        values = self._values.get(path)
        if values is None:
            return []
        if op == "=":
            return sorted(values.by_key.get(canonical_key(value), ()))
        if op not in RANGE_OPS:
            raise EvaluationError(
                f"value probes support = and ranges; got {op!r}")
        number = _as_number(value)
        if number is None:
            # Non-numeric constant: every pair compares as strings.
            pres = _bisect(values.all_keys, values.all_pres, op,
                           str(value))
        elif math.isnan(number):
            # A NaN constant compares false against every numeric
            # entry; only the string fallback of non-numeric entries
            # (text θ "nan") can still match.
            pres = _bisect(values.text_keys, values.text_pres, op,
                           str(value))
        else:
            # Numeric constant: numeric entries compare numerically,
            # non-numeric entries fall back to string comparison
            # against the constant's string form.
            pres = _bisect(values.num_keys, values.num_pres, op, number)
            pres += _bisect(values.text_keys, values.text_pres, op,
                            str(value))
        pres.sort()
        return pres

    def probe(self, path: TagPath, op: str, value: Any) -> list[Node]:
        """:meth:`probe_pres` materialized into node handles."""
        nodes = self._arena.nodes
        return [nodes[pre] for pre in self.probe_pres(path, op, value)]

    def count(self, path: TagPath, op: str, value: Any) -> int:
        """Cardinality of :meth:`probe` without materializing nodes —
        bucket lengths and bisect index arithmetic only (used by the
        planner, which prices many probes it will discard)."""
        if isinstance(value, bool) or \
                not isinstance(value, (int, float, str)):
            raise EvaluationError(
                f"value probes require an atomic constant; got {value!r}")
        values = self._values.get(path)
        if values is None:
            return 0
        if op == "=":
            return len(values.by_key.get(canonical_key(value), ()))
        if op not in RANGE_OPS:
            raise EvaluationError(
                f"value probes support = and ranges; got {op!r}")
        number = _as_number(value)
        if number is None:
            return _bisect_count(values.all_keys, op, str(value))
        if math.isnan(number):
            return _bisect_count(values.text_keys, op, str(value))
        return _bisect_count(values.num_keys, op, number) + \
            _bisect_count(values.text_keys, op, str(value))

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def with_records(self, records, arena: Arena, path_index,
                     touched: set[TagPath]) -> "ValueIndex":
        """A new :class:`ValueIndex` for the version produced by
        replaying ``records``, given the already-updated ``path_index``
        and the set of ``touched`` paths (paths whose rows or values may
        differ: the path index's membership changes plus each record's
        ``parent_path``).

        Untouched paths keep their sorted structures — pre ids are
        remapped through the composed splice shifts, key arrays shared
        outright — which skips exactly the expensive part of a rebuild
        (``string_value`` extraction, canonical-key hashing and three
        sorts per path).

        Touched paths split in two:

        - A record's ``parent_path`` (the splice anchor's path, and the
          only indexed path whose *values* can change without its rows
          changing — elements above the anchor have element children by
          construction and were never indexed), and paths not indexed
          in the old version, are rebuilt from the new arena with a
          full atomicity re-check: an insert under a previously atomic
          element can flip it non-atomic and de-index the path, and a
          delete can do the reverse.
        - Every other membership-touched path is maintained
          *differentially*: old entries inside a splice window are
          dropped, the rest shift (their subtrees are untouched, so
          their values — and the sorted key arrays — carry over), and
          only the patch's rows at the path have values extracted and
          merged in.  An inserted non-atomic row de-indexes the path,
          exactly as a scratch build would.

        Differential tests pin both routes byte-identical to building
        from the new arena directly.
        """
        def survive(pre: int):
            """Old pre → new pre, or None if a splice removed the row
            (windows checked per record, in its own intermediate
            coordinates — the same composition ``_remapped`` uses)."""
            for rec in records:
                if rec.pos <= pre < rec.window_end:
                    return None
                if pre >= rec.window_end:
                    pre += rec.shift
            return pre

        def remap(pre: int) -> int:
            for rec in records:
                if pre >= rec.window_end:
                    pre += rec.shift
            return pre

        rebuild_paths = {rec.parent_path for rec in records}
        clone = ValueIndex.__new__(ValueIndex)
        clone._arena = arena
        values: dict[TagPath, _PathValues] = {}
        for path, path_values in self._values.items():
            if path not in touched:
                values[path] = path_values._remapped(remap)
        has_element_children = arena.has_element_children
        for path in touched:
            rows = path_index.rows_at(path)
            if not rows:
                continue
            old = self._values.get(path)
            if old is None or path in rebuild_paths:
                entries: list[tuple[str, int]] = []
                atomic = True
                for pre in rows:
                    if not has_element_children(pre):
                        entries.append((arena.string_value(pre), pre))
                    else:
                        atomic = False
                        break
                if atomic:
                    values[path] = _PathValues(entries)
                continue
            survivors: dict[int, int] = {}
            for pre in old.all_pres:
                new_pre = survive(pre)
                if new_pre is not None:
                    survivors[pre] = new_pre
            carried = set(survivors.values())
            inserted: list[tuple[str, int]] = []
            atomic = True
            for pre in rows:
                if pre in carried:
                    continue
                if not has_element_children(pre):
                    inserted.append((arena.string_value(pre), pre))
                else:
                    atomic = False
                    break
            if atomic:
                values[path] = old._spliced(survivors, inserted)
        clone._values = values
        return clone

    def probe_range(self, path: TagPath, low: Any, high: Any,
                    low_inclusive: bool = True,
                    high_inclusive: bool = True) -> list[Node]:
        """Convenience conjunction ``low θ value θ high`` (one sorted
        intersection instead of two probes — over int pre ids)."""
        lower = self.probe_pres(path, ">=" if low_inclusive else ">",
                                low)
        upper = set(self.probe_pres(
            path, "<=" if high_inclusive else "<", high))
        nodes = self._arena.nodes
        return [nodes[pre] for pre in lower if pre in upper]


def _is_nan_text(text: str) -> bool:
    number = _as_number(text)
    return number is not None and math.isnan(number)


def _insert_pair(keys: list, pres: list[int], key, pre: int) -> None:
    """Insert one entry into parallel sorted-by-``(key, pre)`` arrays."""
    idx = bisect_left(keys, key)
    while idx < len(keys) and keys[idx] == key and pres[idx] < pre:
        idx += 1
    keys.insert(idx, key)
    pres.insert(idx, pre)


def _bisect(keys: list, pres: list[int], op: str, bound) -> list[int]:
    if op == "<":
        return pres[:bisect_left(keys, bound)]
    if op == "<=":
        return pres[:bisect_right(keys, bound)]
    if op == ">":
        return pres[bisect_right(keys, bound):]
    return pres[bisect_left(keys, bound):]


def _bisect_count(keys: list, op: str, bound) -> int:
    if op == "<":
        return bisect_left(keys, bound)
    if op == "<=":
        return bisect_right(keys, bound)
    if op == ">":
        return len(keys) - bisect_right(keys, bound)
    return len(keys) - bisect_left(keys, bound)
