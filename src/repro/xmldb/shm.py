"""Shared-memory export of finalized arenas for the parallel engine.

A finalized :class:`~repro.xmldb.arena.Arena` is an immutable
struct-of-arrays: parallel columns of small integers plus a text column
and a name-interning table.  That layout can be packed into **one**
``multiprocessing.shared_memory`` segment per document and mapped
read-only by worker processes with zero copying — the columns come back
as ``memoryview`` casts straight over the shared pages, never as Python
lists.

Two halves:

- the **parent** side (:func:`export_document` → :class:`ShmExport`)
  packs a document's arena into a segment and produces a compact,
  picklable *manifest* (segment name, row count, section offsets, the
  interned ``names`` table, per-tag span table, ``doc.seq``).  The
  parent owns the segment and unlinks it deterministically — on
  ``Database.close()``, on ``DocumentStore.unregister()`` and at
  interpreter exit — so no ``resource_tracker`` leak warnings survive
  the process.
- the **worker** side (:func:`attach_document`) rebuilds a read-only
  :class:`ShmArena` (an :class:`~repro.xmldb.arena.Arena` subclass
  whose columns are views over the shared segment) and a
  :class:`~repro.xmldb.document.Document` shell carrying the parent's
  ``seq`` — so ``(doc.seq, pre)`` global order keys computed in a
  worker agree with the parent's.

Segment layout (all sections 8-byte aligned)::

    kinds        u8  × rows     (0=element, 1=text, 2=attribute)
    name_ids     i32 × rows
    posts        i32 × rows
    levels       i32 × rows
    parents      i32 × rows
    ends         i32 × rows
    child_counts i32 × rows
    elem_pres    i32 × n_elem
    text_pres    i32 × n_text
    tag_concat   i32 × n_elem   (per-tag pre lists, concatenated;
                                 manifest["tag_spans"] slices it)
    text_none    u8  × rows     (1 = text column holds None)
    text_offsets i32 × rows+1   (byte offsets into the UTF-8 blob)
    text_blob    UTF-8 bytes

The lazy pieces of the view (interned ``Node`` handles and per-row
child/attribute tuples — :class:`~repro.xmldb.arena.LazyNodes` /
:class:`~repro.xmldb.arena.LazyLists`, the tables delta versions use —
and decoded text strings) are materialized on first touch and cached,
so a worker only pays for the rows its plan fragment actually hands
out.
"""

from __future__ import annotations

from array import array
from multiprocessing import shared_memory

from repro.xmldb.arena import Arena
from repro.xmldb.node import NodeKind

#: NodeKind ↔ byte code used in the ``kinds`` section
_KIND_CODES = {NodeKind.ELEMENT: 0, NodeKind.TEXT: 1,
               NodeKind.ATTRIBUTE: 2}
_KIND_BY_CODE = (NodeKind.ELEMENT, NodeKind.TEXT, NodeKind.ATTRIBUTE)

_INT = "i"  # 32-bit is plenty: a document holds < 2**31 rows
_INT_SIZE = array(_INT).itemsize


def _align(offset: int, alignment: int = 8) -> int:
    return (offset + alignment - 1) // alignment * alignment


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without taking over its lifetime:
    the parent owns creation and the sole ``unlink()``.

    On Python >= 3.13 ``track=False`` expresses that directly.  Before
    that, attaching *registers* the name with the resource tracker —
    but worker processes share the parent's tracker (spawn hands the
    tracker fd down), where registration is an idempotent set-add the
    parent's eventual ``unlink()`` balances.  Explicitly unregistering
    here would instead strip the parent's own registration and turn
    the final ``unlink()`` into a tracker error."""
    try:
        return shared_memory.SharedMemory(name=name, create=False,
                                          track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        return shared_memory.SharedMemory(name=name, create=False)


class ShmExport:
    """Parent-side handle for one exported document: the owned segment
    plus the picklable manifest workers attach from."""

    __slots__ = ("manifest", "_segment")

    def __init__(self, segment: shared_memory.SharedMemory,
                 manifest: dict):
        self._segment = segment
        self.manifest = manifest

    @property
    def doc_name(self) -> str:
        return self.manifest["doc"]

    @property
    def seq(self) -> int:
        return self.manifest["seq"]

    def close(self) -> None:
        """Detach and unlink the segment (idempotent)."""
        if self._segment is None:
            return
        segment, self._segment = self._segment, None
        try:
            segment.close()
        except BufferError:  # pragma: no cover - exported views alive
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def export_document(document) -> ShmExport:
    """Pack ``document``'s arena into a fresh shared-memory segment."""
    arena = document.arena
    rows = len(arena)
    kinds = bytes(_KIND_CODES[k] for k in arena.kinds)
    int_columns = {
        "name_ids": array(_INT, arena.name_ids),
        "posts": array(_INT, arena.posts),
        "levels": array(_INT, arena.levels),
        "parents": array(_INT, arena.parents),
        "ends": array(_INT, arena.ends),
        "child_counts": array(_INT, arena.child_counts),
        "elem_pres": array(_INT, arena._elem_pres),
        "text_pres": array(_INT, arena._text_pres),
    }
    tag_concat = array(_INT)
    tag_spans: dict[str, tuple[int, int]] = {}
    for tag in sorted(arena._tag_pres):
        pres = arena._tag_pres[tag]
        tag_spans[tag] = (len(tag_concat), len(tag_concat) + len(pres))
        tag_concat.extend(pres)
    int_columns["tag_concat"] = tag_concat

    text_none = bytearray(rows)
    text_offsets = array(_INT, [0]) if rows >= 0 else array(_INT)
    blob_parts: list[bytes] = []
    blob_size = 0
    for pre in range(rows):
        text = arena.texts[pre]
        if text is None:
            text_none[pre] = 1
        else:
            encoded = text.encode("utf-8")
            blob_parts.append(encoded)
            blob_size += len(encoded)
        text_offsets.append(blob_size)
    text_blob = b"".join(blob_parts)

    layout: dict[str, tuple[int, int]] = {}
    offset = 0

    def section(name: str, nbytes: int) -> int:
        nonlocal offset
        offset = _align(offset)
        layout[name] = (offset, nbytes)
        start = offset
        offset += nbytes
        return start

    section("kinds", rows)
    for name, column in int_columns.items():
        section(name, len(column) * _INT_SIZE)
    section("text_none", rows)
    section("text_offsets", len(text_offsets) * _INT_SIZE)
    section("text_blob", len(text_blob))

    segment = shared_memory.SharedMemory(create=True,
                                         size=max(offset, 1))
    buf = segment.buf

    def write(name: str, data) -> None:
        start, nbytes = layout[name]
        if nbytes:
            buf[start:start + nbytes] = bytes(data)

    write("kinds", kinds)
    for name, column in int_columns.items():
        write(name, column.tobytes())
    write("text_none", bytes(text_none))
    write("text_offsets", text_offsets.tobytes())
    write("text_blob", text_blob)

    manifest = {
        "segment": segment.name,
        "doc": document.name,
        "seq": document.seq,
        "version": getattr(document, "version", 0),
        "rows": rows,
        "names": list(arena.names),
        "tag_spans": tag_spans,
        "layout": layout,
    }
    return ShmExport(segment, manifest)


class _KindsView:
    """``arena.kinds`` over the shared byte section — indexing returns
    the :class:`NodeKind` *singletons*, so the evaluator's identity
    checks (``kind is NodeKind.ELEMENT``) keep working."""

    __slots__ = ("_raw",)

    def __init__(self, raw: memoryview):
        self._raw = raw

    def __len__(self) -> int:
        return len(self._raw)

    def __getitem__(self, index: int) -> NodeKind:
        return _KIND_BY_CODE[self._raw[index]]

    def __iter__(self):
        by_code = _KIND_BY_CODE
        for code in self._raw:
            yield by_code[code]


class _TextsView:
    """``arena.texts`` decoded lazily from the shared UTF-8 blob, with
    a per-row cache so repeated reads decode once."""

    __slots__ = ("_none", "_offsets", "_blob", "_cache")

    def __init__(self, none_flags: memoryview, offsets: memoryview,
                 blob: memoryview):
        self._none = none_flags
        self._offsets = offsets
        self._blob = blob
        self._cache: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self._none)

    def __getitem__(self, pre: int) -> str | None:
        if self._none[pre]:
            return None
        cached = self._cache.get(pre)
        if cached is None:
            start, stop = self._offsets[pre], self._offsets[pre + 1]
            cached = bytes(self._blob[start:stop]).decode("utf-8")
            self._cache[pre] = cached
        return cached

    def __iter__(self):
        return (self[pre] for pre in range(len(self)))


class ShmArena(Arena):
    """A read-only :class:`Arena` whose columns are memoryview casts
    over a shared segment.  Drop-in for every read the evaluator,
    engines, indexes and cost model perform; building one copies no
    column data."""

    __slots__ = ("_segment", "_raw_kinds", "_views")

    def __init__(self, segment: shared_memory.SharedMemory,
                 manifest: dict):
        super().__init__(document=None)
        self._segment = segment
        buf = memoryview(segment.buf)
        #: every view handed out over the segment, so :meth:`detach`
        #: can release them all and let the segment close cleanly
        self._views = [buf]

        def raw(name: str) -> memoryview:
            start, nbytes = manifest["layout"][name]
            view = buf[start:start + nbytes]
            self._views.append(view)
            return view

        def ints(name: str) -> memoryview:
            view = raw(name).cast(_INT)
            self._views.append(view)
            return view

        self._raw_kinds = raw("kinds")
        self.kinds = _KindsView(self._raw_kinds)
        self.name_ids = ints("name_ids")
        self.posts = ints("posts")
        self.levels = ints("levels")
        self.parents = ints("parents")
        self.ends = ints("ends")
        self.child_counts = ints("child_counts")
        self._elem_pres = ints("elem_pres")
        self._text_pres = ints("text_pres")
        self.texts = _TextsView(raw("text_none"), ints("text_offsets"),
                                raw("text_blob"))
        self.names = list(manifest["names"])
        self._name_to_id = {name: i for i, name in enumerate(self.names)}
        tag_concat = ints("tag_concat")
        self._tag_pres = {tag: tag_concat[start:stop]
                          for tag, (start, stop)
                          in manifest["tag_spans"].items()}
        self._views.extend(self._tag_pres.values())

    def __len__(self) -> int:
        return len(self._raw_kinds)

    def detach(self) -> None:
        """Release every view over the segment and close the local
        mapping (the parent still owns — and unlinks — the segment).
        The arena is unusable afterwards; callers drop it."""
        if self._segment is None:
            return
        self._tag_pres = {}
        self.name_ids = self.posts = self.levels = self.parents = \
            self.ends = self.child_counts = self._elem_pres = \
            self._text_pres = ()
        self.kinds = ()
        self.texts = ()
        self._raw_kinds = b""
        views, self._views = self._views, []
        for view in reversed(views):
            try:
                view.release()
            except (BufferError, ValueError):  # pragma: no cover
                pass
        segment, self._segment = self._segment, None
        try:
            segment.close()
        except BufferError:  # pragma: no cover - stray caller view
            pass


def attach_document(manifest: dict):
    """Worker side: attach the segment named by ``manifest`` and
    rebuild a :class:`~repro.xmldb.document.Document` shell whose arena
    is the shared view.  The shell carries the parent's ``seq`` so
    global document-order keys agree across processes."""
    from repro.xmldb.document import Document

    segment = _attach_segment(manifest["segment"])
    arena = ShmArena(segment, manifest)
    document = Document.__new__(Document)
    document.name = manifest["doc"]
    document.dtd = None
    document.schema = None
    document.seq = manifest["seq"]
    document.order_guarantees = {}
    # Version-chain bookkeeping is parent-side state; the worker shell
    # is a single frozen version, so it reports a bare chain.
    document.version = manifest.get("version", 0)
    document.base_rows = manifest.get("rows", 0)
    document.delta_counts = {"insert": 0, "delete": 0, "replace": 0}
    document.delta_chain = []
    document.compaction_watermark = document.version
    document.arena = arena
    arena.document = document
    document.root = arena.nodes[0] if len(arena) else None
    return document
