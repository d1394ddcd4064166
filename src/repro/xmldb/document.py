"""Documents and the named document store.

:class:`DocumentStore` is the "database" of this reproduction: XQuery's
``doc("bib.xml")`` resolves against it.  Besides holding parsed documents it
keeps *scan statistics*: every time the XPath evaluator walks a whole
document (a ``//tag`` or a path from the root), the store records one scan
for that document.  The paper's performance argument is exactly about these
scan counts — a nested plan scans the inner document once per outer tuple
while an unnested plan scans each document a constant number of times — so
the statistics make the asymptotic claim checkable without a stopwatch.
"""

from __future__ import annotations

import fnmatch
import itertools
import sys
import threading
import weakref

from repro.errors import (
    DuplicateDocumentError,
    UnknownDocumentError,
    XMLParseError,
)
from repro.xmldb.arena import Arena
from repro.xmldb.delta import Delete, Insert, Replace, affected_names, \
    apply_delta
from repro.xmldb.dtd import DTD, SchemaInfo, parse_dtd
from repro.xmldb.node import Node
from repro.xmldb.parser import parse_document

#: registration sequence shared by all stores in the process — the
#: deterministic multi-document order behind the evaluator's dedup
#: (``(document.seq, pre)`` replaces the old ``id(document)`` key)
_DOC_SEQ = itertools.count()


class Document:
    """One immutable *version* of a named XML document plus its
    (optional) DTD-derived schema.

    Construction adopts an interval-ordered
    :class:`~repro.xmldb.arena.Arena` (struct-of-arrays columns,
    interned tag names, pre/post/level numbering — parsed straight
    from text, or encoded from a builder tree) whose rows are reached
    through frozen handles.  Mutating a handle raises
    :class:`~repro.errors.FrozenDocumentError` — live data goes
    through :meth:`DocumentStore.update`, which splices a *new*
    ``Document`` version (fresh ``seq``, ``version + 1``) out of this
    one via :mod:`repro.xmldb.delta` and publishes it in the store.
    A reference to an old version keeps reading its own frozen columns:
    holding a ``Document`` *is* holding an MVCC snapshot of it.

    The Document is also what *pins* a version's handle tables: the
    arena only refers back to it weakly, so once the store has moved on
    and no :class:`StoreSnapshot`, query or caller holds the Document
    any more it dies by reference count, and its last act is to turn
    the arena's handle tables weak (:meth:`~repro.xmldb.arena.Arena.
    release_handles`) — the version's columns are then freed with the
    last handle anyone still holds, without waiting for the cyclic
    garbage collector.
    """

    def __init__(self, name: str, arena: Arena, dtd: DTD | None = None):
        self.name = name
        self.dtd = dtd
        #: process-wide registration rank; nodes of earlier-registered
        #: documents sort first in multi-document sequences.  Every
        #: version gets a fresh ``seq`` — caches key on ``(name, seq)``.
        self.seq = next(_DOC_SEQ)
        self.arena = arena
        arena.document = self
        self.root = arena.nodes[0]
        self.schema: SchemaInfo | None = None
        if dtd is not None:
            self.schema = SchemaInfo(dtd, root=self.root.name)
        #: cached data-derived order guarantees, keyed by
        #: ``(context steps, relative steps)`` — see
        #: :func:`repro.optimizer.properties.order_guarantee`.
        #: Living on the document (not the store) makes the cache's
        #: lifetime the version's, and the freeze makes it sound;
        #: delta versions carry entries forward when the splice provably
        #: did not touch the named tags.
        self.order_guarantees: dict[tuple, bool] = {}
        #: version-chain bookkeeping (see ``docs/updates.md``)
        self.version = 0
        self.base_rows = len(self.arena.kinds)
        self.delta_counts = {"insert": 0, "delete": 0, "replace": 0}
        self.delta_chain: list[dict] = []
        self.compaction_watermark = 0

    @classmethod
    def _next_version(cls, old: "Document", arena: Arena,
                      records) -> "Document":
        """Wrap a spliced arena as the successor version of ``old``:
        no re-parse, no re-encode, caches carried forward where the
        splice records prove them untouched."""
        doc = cls.__new__(cls)
        doc.name = old.name
        doc.dtd = old.dtd
        doc.schema = old.schema
        doc.seq = next(_DOC_SEQ)
        doc.arena = arena
        arena.document = doc
        doc.root = arena.nodes[0]
        structural, value = affected_names(records)
        doc.order_guarantees = {
            key: verdict
            for key, verdict in old.order_guarantees.items()
            if _carries_forward(key, value)
        }
        # Flatness only depends on which rows carry a tag, so verdicts
        # survive for tags with no removed/inserted rows.  (A delete can
        # leave a stale ``False`` for an untouched tag — flatness may
        # only *improve* — which is conservative: the range partitioner
        # just declines an optimization it could now take.)
        arena._flat_tags = {
            tag: flat for tag, flat in old.arena._flat_tags.items()
            if tag not in structural
        }
        doc.version = old.version + 1
        doc.base_rows = old.base_rows
        counts = dict(old.delta_counts)
        ops = {"insert": 0, "delete": 0, "replace": 0}
        for record in records:
            counts[record.kind] += 1
            ops[record.kind] += 1
        doc.delta_counts = counts
        entry = {"version": doc.version, "rows": len(arena.kinds),
                 "ops": ops}
        doc.delta_chain = old.delta_chain + [entry]
        doc.compaction_watermark = old.compaction_watermark
        return doc

    def __del__(self):
        arena = getattr(self, "arena", None)
        if arena is not None and not sys.is_finalizing():
            arena.release_handles()

    def compact(self) -> None:
        """Fold the recorded delta chain into the current version.

        Versions are fully materialized (readers never chase an overlay
        chain), so compaction is pure bookkeeping: the chain resets, the
        watermark advances to this version, and the current row count
        becomes the new base size that future ``repro stats`` chains
        report against."""
        self.delta_chain = []
        self.compaction_watermark = self.version
        self.base_rows = len(self.arena.kinds)

    def version_stats(self) -> dict:
        """Version-chain summary for ``repro stats`` and ``/stats``."""
        return {
            "seq": self.seq,
            "version": self.version,
            "rows": len(self.arena.kinds),
            "base_rows": self.base_rows,
            "delta_counts": dict(self.delta_counts),
            "chain_length": len(self.delta_chain),
            "delta_chain": [dict(entry) for entry in self.delta_chain],
            "compaction_watermark": self.compaction_watermark,
        }

    @property
    def element_count(self) -> int:
        """Number of element nodes (used in Fig. 6-style size tables)."""
        return self.arena.element_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Document {self.name!r} root={self.root.name!r} " \
               f"v{self.version}>"


def _carries_forward(key: tuple, affected_value: frozenset) -> bool:
    """Does a cached order-guarantee entry survive an update?  Only when
    every tag the key's context and relative steps name is provably
    untouched (rows and string values alike); wildcard or unrecognized
    steps are dropped rather than guessed about."""
    for steps in key:
        for step in steps:
            try:
                _axis, name = step
            except (TypeError, ValueError):
                return False
            if not isinstance(name, str) or name in affected_value:
                return False
    return True


class ScanStats:
    """Mutable counters describing how much work an execution did.

    ``document_scans`` counts full-document walks (what nested plans
    repeat per outer tuple); ``index_probes`` counts index lookups —
    the machine-independent evidence that an :class:`~repro.nal.
    unary_ops.IndexScan` plan did sub-linear work where a scan plan
    read the whole document.
    """

    def __init__(self):
        self.document_scans: dict[str, int] = {}
        self.index_probes: dict[str, int] = {}
        self.node_visits: int = 0
        #: path evaluations that skipped the dedup-sort pass because the
        #: arena/order analysis proved the stream born ordered
        self.order_fastpath_hits: int = 0
        #: path evaluations that paid the full document-order dedup
        self.order_dedup_passes: int = 0

    def record_scan(self, document_name: str, count: int = 1) -> None:
        self.document_scans[document_name] = \
            self.document_scans.get(document_name, 0) + count

    def record_probe(self, document_name: str) -> None:
        self.index_probes[document_name] = \
            self.index_probes.get(document_name, 0) + 1

    def record_visits(self, count: int) -> None:
        self.node_visits += count

    def record_order_fastpath(self, hit: bool) -> None:
        if hit:
            self.order_fastpath_hits += 1
        else:
            self.order_dedup_passes += 1

    def mark(self) -> tuple:
        """What path walks count, right now, for :meth:`rollback`."""
        return (self.node_visits, self.order_fastpath_hits,
                dict(self.document_scans))

    def rollback(self, mark: tuple) -> None:
        """Forget the walks recorded since :meth:`mark` — a columnar
        pass that bailed out hands its input to the row interpreter,
        which records the same walks for itself."""
        self.node_visits, self.order_fastpath_hits, \
            self.document_scans = mark

    @property
    def total_scans(self) -> int:
        return sum(self.document_scans.values())

    @property
    def total_probes(self) -> int:
        return sum(self.index_probes.values())

    def reset(self) -> None:
        self.document_scans.clear()
        self.index_probes.clear()
        self.node_visits = 0
        self.order_fastpath_hits = 0
        self.order_dedup_passes = 0

    def absorb(self, other: "ScanStats") -> None:
        """Add another collection's counters into this one — how the
        store's shared instance accumulates a process-wide tally from
        the request-scoped statistics each ``execute()`` collects."""
        for name, count in other.document_scans.items():
            self.document_scans[name] = \
                self.document_scans.get(name, 0) + count
        for name, count in other.index_probes.items():
            self.index_probes[name] = \
                self.index_probes.get(name, 0) + count
        self.node_visits += other.node_visits
        self.order_fastpath_hits += other.order_fastpath_hits
        self.order_dedup_passes += other.order_dedup_passes

    def snapshot(self) -> dict:
        return {
            "document_scans": dict(self.document_scans),
            "total_scans": self.total_scans,
            "index_probes": dict(self.index_probes),
            "total_probes": self.total_probes,
            "node_visits": self.node_visits,
            "order_fastpath_hits": self.order_fastpath_hits,
            "order_dedup_passes": self.order_dedup_passes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ScanStats scans={self.document_scans} " \
               f"probes={self.index_probes} " \
               f"visits={self.node_visits}>"


class DocumentStore:
    """A named collection of XML documents with scan accounting.

    Documents can be registered from text (DTD in the DOCTYPE is picked up
    automatically), from an already-built :class:`Node` tree, or from a
    generator in :mod:`repro.datagen`.

    ``index_mode`` is the store's physical-design switch: ``"off"`` (the
    default — pure scans, the paper's setting), ``"lazy"`` (indexes built
    on first probe) or ``"eager"`` (built at registration).  See
    :mod:`repro.index`.

    **Concurrency contract.**  The store is safe to share between
    threads and asyncio tasks under one rule: *mutation replaces,
    readers pin.*

    - :meth:`register_text` / :meth:`register_tree` / :meth:`update` /
      :meth:`unregister` serialize under an internal :class:`threading.
      RLock`; each mutation bumps :attr:`epoch` (a monotone counter
      cache layers key on) and notifies registered listeners *while
      still holding the lock* — listeners may re-enter store methods on
      the same thread (the lock is reentrant) but must not block.
    - Reads (:meth:`get`, :meth:`names`, :meth:`schema_for`, arena
      column access, name-table lookups) are lock-free: a
      :class:`Document` version is fully finalized — arena columns
      built, tag names interned into the arena's private table,
      string-value cache populated lazily but idempotently — *before*
      it is published into the name map, and is immutable afterwards
      (:class:`~repro.errors.FrozenDocumentError` guards in-place
      mutation; :meth:`update` publishes a brand-new version instead),
      so a reader either sees a complete version or none at all.
    - **Snapshot isolation.**  :meth:`snapshot` captures the name→
      version map at one instant; executions run against the snapshot
      (the executor pins one per query), so a concurrent :meth:`update`
      never changes what a running query reads — it reads version N
      throughout even while the store moves on to N+1.  Holding any
      ``Document`` reference gives the same guarantee per document.
    - The shared cumulative :attr:`stats` tally is only mutated through
      :meth:`absorb_stats`, which takes the same lock; per-request
      :class:`ScanStats` instances are never shared, so execution never
      contends on counters.
    """

    def __init__(self, index_mode: str = "off", compact_every: int = 16):
        from repro.index.manager import IndexManager
        self._documents: dict[str, Document] = {}
        self.stats = ScanStats()
        self.indexes = IndexManager(self, index_mode)
        #: bumped on every register/update/unregister — a monotone
        #: "something changed" counter (snapshots carry it; a session
        #: files a priced plan only if it did not move while compiling)
        self.epoch = 0
        #: fold a document's delta chain once it reaches this many
        #: update entries (see :meth:`Document.compact`)
        self.compact_every = compact_every
        self._lock = threading.RLock()
        self._listeners: list = []
        self._snapshots: "weakref.WeakSet[StoreSnapshot]" = \
            weakref.WeakSet()

    # ------------------------------------------------------------------
    # Mutation listeners (cache invalidation hooks)
    # ------------------------------------------------------------------
    def add_listener(self, callback) -> None:
        """Register ``callback(event, name)`` to run on every mutation
        (``event`` is ``"register"``, ``"update"`` or ``"unregister"``),
        under the store lock — sessions use this to evict cache entries
        of superseded document versions."""
        with self._lock:
            self._listeners.append(callback)

    def remove_listener(self, callback) -> None:
        with self._lock:
            if callback in self._listeners:
                self._listeners.remove(callback)

    def _notify(self, event: str, name: str) -> None:
        for callback in list(self._listeners):
            callback(event, name)

    def absorb_stats(self, stats: ScanStats) -> None:
        """Fold a request's scan statistics into the shared cumulative
        tally, serialized so concurrent request completions cannot lose
        increments."""
        with self._lock:
            self.stats.absorb(stats)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_text(self, name: str, text: str,
                      dtd_text: str | None = None) -> Document:
        """Parse ``text`` and register it under ``name``.

        A DTD given either via ``dtd_text`` or inline in a DOCTYPE becomes
        the document's schema (used by the optimizer's side conditions).
        """
        result = parse_document(text)
        dtd = None
        effective_dtd_text = dtd_text or result.dtd_text
        if effective_dtd_text:
            dtd = parse_dtd(effective_dtd_text)
        return self._publish(name, result.arena, dtd)

    def register_tree(self, name: str, root: Node,
                      dtd: DTD | None = None) -> Document:
        """Register an already-built node tree under ``name``.

        Raises :class:`~repro.errors.DuplicateDocumentError` if ``name``
        is already registered — replacing a document under a running
        optimizer would silently invalidate cached schema facts.

        Registration encodes the tree into the document's arena
        (:meth:`~repro.xmldb.arena.Arena.from_tree`); the arena's
        ``pre`` numbering becomes the nodes' ``order_key`` and the tree
        is frozen against mutation.
        """
        with self._lock:
            # checked before freezing, so a refused tree stays mutable
            if name in self._documents:
                raise DuplicateDocumentError(name)
            return self._publish(name, Arena.from_tree(root, freeze=True),
                                 dtd)

    def _publish(self, name: str, arena: Arena,
                 dtd: DTD | None) -> Document:
        with self._lock:
            if name in self._documents:
                raise DuplicateDocumentError(name)
            document = Document(name, arena, dtd)
            self._documents[name] = document
            self.indexes.on_register(document)
            self.epoch += 1
            self._notify("register", name)
        return document

    def unregister(self, name: str) -> None:
        """Remove a document (and its indexes) from the store.

        Long-lived processes can rotate documents in and out without
        leaking memory; raises :class:`~repro.errors.
        UnknownDocumentError` for names never registered."""
        with self._lock:
            if name not in self._documents:
                raise UnknownDocumentError(name, list(self._documents))
            del self._documents[name]
            self.indexes.on_unregister(name)
            self.stats.document_scans.pop(name, None)
            self.stats.index_probes.pop(name, None)
            self.epoch += 1
            self._notify("unregister", name)

    # ------------------------------------------------------------------
    # Updates (copy-on-write versioning)
    # ------------------------------------------------------------------
    def update(self, name: str, ops) -> Document:
        """Apply insert/delete/replace-subtree operations to ``name``
        and publish the result as a new document version.

        ``ops`` is one :class:`~repro.xmldb.delta.Insert` /
        :class:`~repro.xmldb.delta.Delete` /
        :class:`~repro.xmldb.delta.Replace` or a sequence of them,
        applied atomically: readers see either the old version or the
        new one, never an intermediate state.  The old version stays
        fully readable for whoever pinned it (MVCC); indexes are
        maintained incrementally from the splice records instead of
        being rebuilt; the delta chain is compacted every
        :attr:`compact_every` updates.  Returns the new version."""
        if isinstance(ops, (Insert, Delete, Replace)):
            ops = [ops]
        with self._lock:
            if name not in self._documents:
                raise UnknownDocumentError(name, list(self._documents))
            old = self._documents[name]
            arena, records = apply_delta(old, ops)
            new = Document._next_version(old, arena, records)
            if len(new.delta_chain) >= self.compact_every:
                new.compact()
            self._documents[name] = new
            self.indexes.on_update(old, new, records)
            self.epoch += 1
            self._notify("update", name)
        return new

    def snapshot(self) -> "StoreSnapshot":
        """Pin the current version of every document.

        The returned :class:`StoreSnapshot` resolves names against the
        captured version map no matter what the store does afterwards —
        the executor takes one per query so concurrent updates cannot
        tear a running execution across versions."""
        with self._lock:
            snap = StoreSnapshot(self, dict(self._documents), self.epoch)
            self._snapshots.add(snap)
        return snap

    def live_snapshot_count(self) -> int:
        """Snapshots currently held somewhere (weakly tracked — exposed
        by ``repro serve`` ``/stats`` as a gauge of pinned versions)."""
        return len(self._snapshots)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> Document:
        if name not in self._documents:
            raise UnknownDocumentError(name, list(self._documents))
        return self._documents[name]

    def __contains__(self, name: str) -> bool:
        return name in self._documents

    def names(self) -> list[str]:
        return sorted(self._documents)

    def collection(self, pattern: str) -> list[Document]:
        """Documents whose registered name matches the shell-style
        ``pattern`` (``fnmatch``: ``*``, ``?``, ``[...]``), in
        registration (``seq``) order — the order ``collection()``
        sequences and global document order agree on.  An unmatched
        pattern is an empty collection, not an error."""
        matches = [doc for name, doc in self._documents.items()
                   if fnmatch.fnmatchcase(name, pattern)]
        matches.sort(key=lambda doc: doc.seq)
        return matches

    def collection_names(self, pattern: str) -> list[str]:
        """Names of :meth:`collection` matches, in ``seq`` order."""
        return [doc.name for doc in self.collection(pattern)]

    def schema_for(self, name: str) -> SchemaInfo | None:
        """The document's schema, or ``None`` if it had no DTD."""
        return self.get(name).schema

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def validate_well_formed(self, text: str) -> bool:
        """Cheap check used by tests and the data generators."""
        try:
            parse_document(text)
        except XMLParseError:
            return False
        return True


class StoreSnapshot:
    """An immutable view of a :class:`DocumentStore` at one instant.

    Name resolution (:meth:`get`, :meth:`collection`, membership) runs
    against the captured name→version map, so a query executing over a
    snapshot reads one consistent set of versions end to end.  Index
    probes resolve against the *pinned* versions
    (:class:`_SnapshotIndexes`); statistics accounting delegates to the
    live store (:attr:`store`), which is deliberate — counters are
    process-wide, only *data* is version-pinned.  ``snapshot()``
    returns ``self`` so the executor can pin uniformly whether handed a
    store or an already-pinned snapshot."""

    __slots__ = ("store", "documents", "epoch", "_indexes", "__weakref__")

    def __init__(self, store: DocumentStore,
                 documents: dict[str, Document], epoch: int):
        self.store = store
        self.documents = documents
        self.epoch = epoch
        self._indexes = None

    # -- pinned resolution -------------------------------------------------
    def get(self, name: str) -> Document:
        if name not in self.documents:
            raise UnknownDocumentError(name, list(self.documents))
        return self.documents[name]

    def __contains__(self, name: str) -> bool:
        return name in self.documents

    def names(self) -> list[str]:
        return sorted(self.documents)

    def collection(self, pattern: str) -> list[Document]:
        matches = [doc for name, doc in self.documents.items()
                   if fnmatch.fnmatchcase(name, pattern)]
        matches.sort(key=lambda doc: doc.seq)
        return matches

    def collection_names(self, pattern: str) -> list[str]:
        return [doc.name for doc in self.collection(pattern)]

    def schema_for(self, name: str) -> SchemaInfo | None:
        return self.get(name).schema

    def versions(self) -> dict[str, int]:
        """``name → seq`` of every pinned version (cache keys)."""
        return {name: doc.seq for name, doc in self.documents.items()}

    def snapshot(self) -> "StoreSnapshot":
        return self

    # -- live-store delegation ---------------------------------------------
    @property
    def stats(self) -> ScanStats:
        return self.store.stats

    def absorb_stats(self, stats: ScanStats) -> None:
        self.store.absorb_stats(stats)

    @property
    def indexes(self) -> "_SnapshotIndexes":
        if self._indexes is None:
            self._indexes = _SnapshotIndexes(self)
        return self._indexes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StoreSnapshot epoch={self.epoch} " \
               f"versions={self.versions()}>"


class _SnapshotIndexes:
    """Index facade of a snapshot: probes resolve against the pinned
    document versions; everything else (mode flags, estimates, build
    counters) delegates to the live :class:`~repro.index.manager.
    IndexManager`."""

    __slots__ = ("_snapshot",)

    def __init__(self, snapshot: StoreSnapshot):
        self._snapshot = snapshot

    def probe_rows(self, probe, stats: ScanStats | None = None):
        snap = self._snapshot
        return snap.store.indexes.probe_rows(
            probe, stats, snap.documents.get(probe.doc))

    def probe(self, probe, stats: ScanStats | None = None):
        snap = self._snapshot
        return snap.store.indexes.probe(
            probe, stats, snap.documents.get(probe.doc))

    def __getattr__(self, attr):
        return getattr(self._snapshot.store.indexes, attr)
