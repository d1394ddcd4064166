"""Column batches and selection vectors for the vectorized engine.

A :class:`Batch` is the unit of data flow in :mod:`repro.engine.vectorized`:
one relation fragment held either as parallel *columns* (attribute →
value list, MonetDB/X100 style) or as already-materialized :class:`Tup`
rows.  The dual representation keeps the two worlds cheap to mix — the
columnar fast paths (arena scans, vectorized selections) build column
batches without ever creating a ``Tup``, while operators that fall back
to the row-at-a-time algorithms wrap their row lists at zero cost and
only pay for column extraction if a downstream fast path asks for it.

Invariants (relied on throughout the vectorized engine):

- **Batches are immutable.**  Once constructed, a batch's columns and
  rows are never mutated; every operator derives *new* batches
  (:meth:`Batch.take`, :meth:`Batch.with_column`, ...).  Operators may
  therefore return a child batch unchanged (e.g. an elided sort) and
  alias columns between batches without copying.
- **Node-valued columns stay rows of ints.**  A column produced by a
  columnar scan or an index probe is a :class:`NodeColumn` —
  ``(arena, pre rows)`` — and the kernels that know it (path steps,
  string values, numeric comparison, join keys, Ξ's renderer) read
  ``.pres`` against the arena's columns.  Everybody else indexes or
  iterates it like a list and gets interned ``arena.nodes[pre]``
  handles, so handles are created only where a consumer needs node
  *objects*: the join row kernels, a function call outside the text
  lanes or an interpreted subscript over the column, and
  :meth:`Batch.to_rows` — which the result of an execution reaches
  only when somebody reads ``ExecutionResult.rows``.  A
  :class:`SeqColumn` keeps a column of item sequences flat the same
  way — for µ, for ``$outer ∈ seq`` and through ``take`` (the σ of a
  nested plan selects rows of one; nobody reads it afterwards).
- **Selection vectors are owned by their creator.**  A selection vector
  (an ``array('q')`` of row indices) is created, filled and consumed by
  exactly one operator invocation; it is never stored in a batch or
  shared across operators.  Scratch buffers for building them live in
  the request-scoped :class:`BatchBuffers` pool on the
  :class:`~repro.engine.context.EvalContext`, so concurrent executions
  never contend for them.
"""

from __future__ import annotations

import operator
from array import array
from itertools import accumulate
from typing import Any, Iterator

from repro.nal.values import (
    Tup,
    canonical_key,
    general_compare,
    iter_items,
    text_key,
)
from repro.xmldb.node import Node, NodeSequence

#: ints beyond 2**53 are not exactly representable as floats; columns
#: holding them stay out of the numeric lane and take the general
#: comparison loop
_EXACT_INT_LIMIT = 2 ** 53


def selection_vector(indices: Iterator[int] | list[int]) -> array:
    """A selection vector: row indices into a batch, as a flat array."""
    return array("q", indices)


class BroadcastColumn(list):
    """A column whose rows are all the same value (a broadcast constant).

    Kernels may convert the value once instead of per row; as a plain
    ``list`` subclass it degrades gracefully everywhere else.
    """

    __slots__ = ()


class NodeColumn:
    """A node-valued column held as ``(arena, pre rows)``.

    Kernels read :attr:`pres` against the arena's int columns; as a
    sequence (``len``, indexing, iteration) it yields the interned
    ``arena.nodes[pre]`` handles, so — like :class:`BroadcastColumn` —
    it degrades gracefully for every consumer that does not know about
    it.  Immutable like every batch column."""

    __slots__ = ("arena", "pres")

    def __init__(self, arena, pres: list[int]):
        self.arena = arena
        self.pres = pres

    def __len__(self) -> int:
        return len(self.pres)

    def __getitem__(self, index: int) -> Node:
        return self.arena.nodes[self.pres[index]]

    def __iter__(self) -> Iterator[Node]:
        return map(self.arena.nodes.__getitem__, self.pres)

    def take(self, indices) -> "NodeColumn":
        pres = self.pres
        return NodeColumn(self.arena, [pres[i] for i in indices])

    def repeat(self, count: int) -> "NodeColumn":
        return NodeColumn(self.arena, self.pres * count)

    def string_values(self) -> list[str]:
        return self.arena.string_values(self.pres)


class SeqColumn:
    """A column of item-tuple sequences — what ``χ[a: path[item]]``
    binds — held flat, the way the path walk produced it: ``items``
    (one value per item, a column itself) and ``owners[i]``, the row
    ``items[i]`` belongs to, ascending.  µ / µD and the ``∈`` lane read
    the two lists as they are, and :meth:`take` keeps them; as a
    sequence it degrades, like the other column types, to what
    ``TupledSeq.evaluate`` returns per row: a list of single-attribute
    ``Tup``s."""

    __slots__ = ("attr", "owners", "items", "_length", "_lists")

    def __init__(self, attr: str, owners: list[int], items,
                 length: int):
        self.attr = attr
        self.owners = owners
        self.items = items
        self._length = length
        self._lists: list[list[Tup]] | None = None

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> list[Tup]:
        return self._sequences()[index]

    def __iter__(self) -> Iterator[list[Tup]]:
        return iter(self._sequences())

    def _sequences(self) -> list[list[Tup]]:
        if self._lists is None:
            lists: list[list[Tup]] = [[] for _ in range(self._length)]
            for owner, item in zip(self.owners, self.items):
                lists[owner].append(Tup.adopt({self.attr: item}))
            self._lists = lists
        return self._lists

    def take(self, indices) -> "SeqColumn":
        """Still flat: the items of row ``indices[k]`` become the items
        of row ``k``."""
        ends = [0] * (self._length + 1)  # row r owns items[ends[r]:ends[r+1]]
        for owner in self.owners:
            ends[owner + 1] += 1
        ends = list(accumulate(ends))
        picked: list[int] = []
        owners: list[int] = []
        for row, source in enumerate(indices):
            picked.extend(range(ends[source], ends[source + 1]))
            owners.extend([row] * (ends[source + 1] - ends[source]))
        return SeqColumn(self.attr, owners, _take(self.items, picked),
                         len(indices))


def _take(column, indices) -> list:
    """Rows ``indices`` of one column, in that order."""
    if type(column) is NodeColumn or type(column) is SeqColumn:
        return column.take(indices)
    return [column[i] for i in indices]


class Batch:
    """An immutable fragment of a relation: columns and/or rows.

    Exactly one of ``_columns`` / ``_rows`` is populated at construction;
    the other representation is materialized lazily on first use and
    cached (caching a derived representation does not violate batch
    immutability — the relation it denotes never changes).
    """

    __slots__ = ("_columns", "_order", "_rows", "_length")

    def __init__(self, columns: dict[str, list] | None,
                 order: tuple[str, ...] | None,
                 rows: list[Tup] | None, length: int) -> None:
        self._columns = columns
        self._order = order
        self._rows = rows
        self._length = length

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_rows(cls, rows: list[Tup]) -> "Batch":
        """Wrap materialized rows (zero cost; columns extracted lazily)."""
        return cls(None, None, rows, len(rows))

    @classmethod
    def from_columns(cls, columns: dict[str, list],
                     length: int) -> "Batch":
        """Wrap parallel columns.  All lists must have ``length`` items."""
        assert all(len(col) == length for col in columns.values())
        return cls(columns, tuple(columns), None, length)

    # -- accessors ------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    @property
    def is_columnar(self) -> bool:
        return self._columns is not None

    @property
    def attrs(self) -> tuple[str, ...]:
        if self._order is not None:
            return self._order
        if self._rows:
            return self._rows[0].attrs()
        return ()

    def column(self, attr: str) -> list:
        """The values of ``attr``, one per row, in batch order."""
        if self._columns is not None:
            if not self._length:
                # derived from ``from_rows([])``, which knows no schema
                return self._columns.get(attr, [])
            return self._columns[attr]
        return [row[attr] for row in self._rows]

    def to_rows(self) -> list[Tup]:
        """Materialize (and cache) the batch as ``Tup`` rows."""
        if self._rows is None:
            order = self._order or ()
            cols = [self._columns[a] for a in order]
            self._rows = [Tup.adopt(dict(zip(order, values)))
                          for values in zip(*cols)] if cols else \
                [Tup({})] * self._length
        return self._rows

    # -- derivations (always produce a new batch) -----------------------
    def take(self, selection: array | list[int]) -> "Batch":
        """The rows named by ``selection``, in selection order."""
        if self._columns is not None:
            columns = {a: _take(col, selection)
                       for a, col in self._columns.items()}
            return Batch(columns, self._order, None, len(selection))
        rows = self._rows
        return Batch.from_rows([rows[i] for i in selection])

    def with_column(self, attr: str, values: list) -> "Batch":
        """This batch extended by one column (columnar result)."""
        assert len(values) == self._length
        columns = dict(self._materialized_columns())
        columns[attr] = values
        order = tuple(a for a in self.attrs if a != attr) + (attr,)
        return Batch(columns, order, None, self._length)

    def replicate(self, indices: list[int], attr: str,
                  values: list) -> "Batch":
        """Rows ``indices`` of this batch (with repetition), each
        extended by ``attr`` from the parallel ``values`` list — the
        shape of an unnest: one output row per (input row, item)."""
        assert len(indices) == len(values)
        columns = {a: _take(col, indices)
                   for a, col in self._materialized_columns().items()}
        columns[attr] = values
        order = tuple(a for a in self.attrs if a != attr) + (attr,)
        return Batch(columns, order, None, len(values))

    def repeat(self, count: int) -> "Batch":
        """This one-row batch ``count`` times over: every attribute a
        broadcast column (a one-row × side; no row is copied)."""
        assert self._length == 1
        columns = {a: col.repeat(count) if type(col) is NodeColumn
                   else BroadcastColumn([col[0]] * count)
                   for a, col in self._materialized_columns().items()}
        return Batch(columns, self._order, None, count)

    def beside(self, right: "Batch") -> "Batch":
        """Row ``i`` of this batch ◦ row ``i`` of ``right`` (the right
        side wins a duplicate attribute, as ``Tup.concat`` has it)."""
        assert self._length == len(right)
        columns = dict(self._materialized_columns())
        columns.update(right._materialized_columns())
        return Batch(columns, tuple(columns), None, self._length)

    def project(self, attributes: tuple[str, ...]) -> "Batch":
        columns = {a: self.column(a) for a in attributes}
        return Batch(columns, tuple(attributes), None, self._length)

    def project_away(self, attributes: tuple[str, ...]) -> "Batch":
        keep = tuple(a for a in self.attrs if a not in attributes)
        return self.project(keep)

    def rename(self, mapping: dict[str, str]) -> "Batch":
        columns = {mapping.get(a, a): self.column(a) for a in self.attrs}
        order = tuple(mapping.get(a, a) for a in self.attrs)
        return Batch(columns, order, None, self._length)

    def _materialized_columns(self) -> dict[str, list]:
        if self._columns is None:
            self._columns = {a: [row[a] for row in self._rows]
                             for a in self.attrs}
            self._order = tuple(self._columns)
        return self._columns


class BatchBuffers:
    """Request-scoped pool of scratch index buffers.

    Owned by one :class:`~repro.engine.context.EvalContext` (one
    execution), never shared between requests: an operator acquires a
    buffer, fills it with selected row indices, copies the result into
    the new batch and releases the buffer for the next operator of the
    *same* request.  This bounds allocation churn without any locking.
    """

    __slots__ = ("_free", "acquired", "peak")

    def __init__(self) -> None:
        self._free: list[list] = []
        self.acquired = 0
        self.peak = 0

    def acquire(self) -> list:
        self.acquired += 1
        if self._free:
            return self._free.pop()
        self.peak += 1
        return []

    def release(self, buffer: list) -> None:
        buffer.clear()
        self._free.append(buffer)


# ----------------------------------------------------------------------
# Comparison kernels
# ----------------------------------------------------------------------
def numeric_column(values: list) -> list | None:
    """``values`` as one number (or None for an empty sequence) per row,
    or ``None`` when any row is non-numeric / multi-item — the signal to
    fall back to the general comparison loop.

    Booleans are deliberately *not* numbers here (``compare_atomic``
    gives them their own comparison rules), and ints beyond float64
    exactness also bail out.
    """
    if type(values) is BroadcastColumn and values:
        number = _value_number(values[0])
        if number is _NOT_NUMERIC:
            return None
        return [number] * len(values)
    if type(values) is NodeColumn:
        # One node per row: its string value straight off the arena
        # columns — no handle, no per-row dispatch.
        try:
            return list(map(float, values.string_values()))
        except ValueError:
            return None
    out: list = []
    append = out.append
    for value in values:
        # Inlined fast paths for the overwhelmingly common single-item
        # shapes; anything else goes through iter_items.
        cls = type(value)
        if cls is int:
            if -_EXACT_INT_LIMIT <= value <= _EXACT_INT_LIMIT:
                append(value)
                continue
            return None
        if cls is float:
            append(value)
            continue
        if cls is NodeSequence:
            if not value:
                append(None)
                continue
            if len(value) != 1:
                return None
            number = _item_number(value[0])
            if number is _NOT_NUMERIC:
                return None
            append(number)
            continue
        number = _value_number(value)
        if number is _NOT_NUMERIC:
            return None
        append(number)
    return out


def _value_number(value: Any):
    """One row's value as a number, None for an empty sequence, or the
    ``_NOT_NUMERIC`` sentinel (non-numeric or multi-item)."""
    items = iter_items(value)
    if not items:
        return None
    if len(items) != 1:
        return _NOT_NUMERIC
    return _item_number(items[0])


_NOT_NUMERIC = object()


def _item_number(item: Any):
    if isinstance(item, bool):
        return _NOT_NUMERIC
    if isinstance(item, int):
        return item if -_EXACT_INT_LIMIT <= item <= _EXACT_INT_LIMIT \
            else _NOT_NUMERIC
    if isinstance(item, float):
        return item
    if isinstance(item, str):
        text = item
    elif isinstance(item, Node):
        text = item.string_value()
    else:
        return _NOT_NUMERIC
    try:
        return float(text)
    except ValueError:
        return _NOT_NUMERIC


def key_column(values) -> list:
    """``canonical_key`` of every row of one column.  A
    :class:`NodeColumn` is keyed off the arena's string values (what
    ``canonical_key`` does with a node handle, minus the handle)
    through the arena's per-version ``key_memo``: the rows it lacks are
    keyed in one pass and stored in bulk — except a NaN key, which
    stays a fresh float per call (tuples holding one shared NaN object
    compare equal, so a stored one would let a repeated row match
    itself)."""
    if type(values) is not NodeColumn:
        return list(map(canonical_key, values))
    arena, rows = values.arena, values.pres
    memo = arena.key_memo
    keys = None
    if memo:  # an empty one is the first read of the version: all miss
        keys = list(map(memo.get, rows))
        if None not in keys:
            return keys
        rows = [pre for pre, key in zip(rows, keys) if key is None]
    fresh = list(map(text_key, arena.string_values(rows)))
    parts = list(map(operator.itemgetter(1), fresh))
    if all(map(operator.eq, parts, parts)):
        memo.update(zip(rows, fresh))
    else:
        memo.update(pair for pair in zip(rows, fresh)
                    if pair[1][1] == pair[1][1])
    if keys is None:
        return fresh
    fresh = iter(fresh)
    return [next(fresh) if key is None else key for key in keys]


def item_keys(values) -> list | None:
    """:func:`key_column` of a column that holds exactly one atomic
    item or node per row — or None, decided by the column's type
    before any value is read (a broadcast boolean, NULL or sequence is
    refused).  Equal keys then mean ``=``: a NaN key equals nothing,
    because each one built from text holds a float of its own, and two
    numbers never get here (the numeric lane compares them)."""
    if type(values) is NodeColumn:
        return key_column(values)
    if type(values) is BroadcastColumn and values and (
            type(values[0]) in (str, int, float)
            or isinstance(values[0], Node)):
        return [canonical_key(values[0])] * len(values)
    return None


def compare_columns(left: list, op: str, right: list) -> list[bool]:
    """Row-wise existential comparison of two raw-value columns.

    Semantically identical to calling
    :func:`~repro.nal.values.general_compare` per row; numeric columns
    take a tight loop instead, and ``=`` between two
    one-item-per-row columns (the correlation test of a nested plan:
    ``attr = $outer``) compares canonical keys — the equivalence every
    hash operator relies on.
    """
    left_nums = numeric_column(left)
    right_nums = None if left_nums is None else numeric_column(right)
    if left_nums is not None and right_nums is not None:
        compare = _PY_OPS[op]
        if None not in left_nums and None not in right_nums:
            return list(map(compare, left_nums, right_nums))
        return [False if l is None or r is None else compare(l, r)
                for l, r in zip(left_nums, right_nums)]
    if op == "=":
        left_keys = item_keys(left)
        right_keys = None if left_keys is None else item_keys(right)
        if right_keys is not None:
            return list(map(operator.eq, left_keys, right_keys))
    return [general_compare(l, op, r) for l, r in zip(left, right)]


_PY_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
           "<=": operator.le, ">": operator.gt, ">=": operator.ge}
