"""The per-store index manager.

:class:`~repro.xmldb.document.DocumentStore` owns one
:class:`IndexManager`.  Its ``mode`` is the store's physical-design
switch:

- ``"off"`` — no indexes; the optimizer never emits ``IndexScan`` plans
  (the seed behaviour, and the right setting for reproducing the
  paper's scan-count tables);
- ``"lazy"`` — indexes are built on first probe (including the
  planning-time cardinality estimates of the cost model);
- ``"eager"`` — indexes are built when a document is registered.

Probes are answered here so that scan accounting stays in one place:
every probe records one ``index_probe`` for its document plus one node
visit per result node — the index-side counterpart of the document-scan
counters the paper's argument is phrased in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EvaluationError
from repro.index.probes import IndexProbe
from repro.index.structural import ElementIndex, PathIndex, TagPath
from repro.index.value import ValueIndex
from repro.xmldb.node import Node

MODES = ("off", "lazy", "eager")


@dataclass
class DocumentIndexes:
    """All indexes of one document, built in a single pass."""

    element: ElementIndex
    path: PathIndex
    value: ValueIndex
    #: DataGuide paths the document's DTD does not license (empty when
    #: consistent or when the document has no DTD)
    dtd_violations: tuple[TagPath, ...]


def build_indexes(document) -> DocumentIndexes:
    """Build element/path/value indexes for a registered document.

    All three are views over the document's interval-encoded arena
    (storing ``pre`` row ids, not object references), so they share the
    columns the document already owns."""
    root = document.root
    arena = document.arena
    path_index = PathIndex(root, arena)
    violations: tuple[TagPath, ...] = ()
    if document.dtd is not None:
        violations = path_index.validate_against_dtd(document.dtd)
    return DocumentIndexes(ElementIndex(root, arena), path_index,
                           ValueIndex(root, arena), violations)


class IndexManager:
    """Builds, caches and probes the indexes of one document store.

    Indexes are cached per document *version* — keyed ``(name, seq)`` —
    so a query pinned to an old version probes structures that describe
    exactly what it reads.  :meth:`on_update` maintains the current
    version's indexes *incrementally* from the update's splice records
    (:meth:`~repro.index.structural.PathIndex.with_records` /
    :meth:`~repro.index.value.ValueIndex.with_records`) instead of
    rebuilding; :attr:`incremental_applies` / :attr:`full_builds` count
    which path was taken."""

    def __init__(self, store, mode: str = "off"):
        if mode not in MODES:
            raise ValueError(f"unknown index mode {mode!r}; use one of "
                             f"{MODES}")
        self.store = store
        self.mode = mode
        self._built: dict[tuple[str, int], DocumentIndexes] = {}
        self._estimates: dict[IndexProbe, int] = {}
        #: updates whose indexes were spliced forward from the previous
        #: version's (vs rebuilt from the arena)
        self.incremental_applies = 0
        #: from-scratch index builds (registration, lazy first probe,
        #: or an update arriving before any index existed)
        self.full_builds = 0

    @property
    def enabled(self) -> bool:
        """Whether the optimizer may plan index-based access paths."""
        return self.mode != "off"

    # ------------------------------------------------------------------
    # Lifecycle (called by the store)
    # ------------------------------------------------------------------
    def on_register(self, document) -> None:
        if self.mode == "eager":
            self.for_version(document)

    def on_unregister(self, name: str) -> None:
        for key in [k for k in self._built if k[0] == name]:
            del self._built[key]
        self._estimates = {probe: size for probe, size
                           in self._estimates.items()
                           if probe.doc != name}

    def on_update(self, old, new, records) -> None:
        """Roll the document's indexes forward to the new version.

        If the old version's indexes exist they are spliced forward
        from the update's records (new index objects — the old entry is
        dropped, never mutated, so concurrent probes against it stay
        sound); otherwise the new version builds lazily/eagerly exactly
        as a fresh registration would.  Planning-time cardinality
        memos for the document are flushed either way."""
        name = new.name
        self._estimates = {probe: size for probe, size
                           in self._estimates.items()
                           if probe.doc != name}
        entry = self._built.pop((name, old.seq), None)
        for key in [k for k in self._built if k[0] == name]:
            del self._built[key]
        if entry is not None:
            self._built[(name, new.seq)] = \
                self._apply_records(entry, new, records)
            self.incremental_applies += 1
        elif self.mode == "eager":
            self.for_version(new)

    def _apply_records(self, entry: DocumentIndexes, document,
                       records) -> DocumentIndexes:
        arena = document.arena
        path_index, touched = entry.path.with_records(records, arena)
        value_touched = set(touched)
        for record in records:
            value_touched.add(record.parent_path)
        value_index = entry.value.with_records(records, arena,
                                               path_index, value_touched)
        violations: tuple[TagPath, ...] = ()
        if document.dtd is not None:
            violations = path_index.validate_against_dtd(document.dtd)
        return DocumentIndexes(ElementIndex(document.root, arena),
                               path_index, value_index, violations)

    def built(self, name: str) -> bool:
        return any(key[0] == name for key in self._built)

    def for_document(self, name: str) -> DocumentIndexes:
        """The current version's indexes, building them if necessary
        (explicit calls build even under mode="off" — asking is opting
        in)."""
        return self.for_version(self.store.get(name))

    def for_version(self, document) -> DocumentIndexes:
        """Indexes of one pinned document version, built on demand."""
        key = (document.name, document.seq)
        entry = self._built.get(key)
        if entry is None:
            entry = build_indexes(document)
            self._built[key] = entry
            self.full_builds += 1
        return entry

    def dtd_violations(self, name: str) -> tuple[TagPath, ...]:
        return self.for_document(name).dtd_violations

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe_rows(self, probe: IndexProbe, stats=None, document=None):
        """Answer a probe as ``(arena, pre rows)`` of the probed
        document version, in document order — ints only, no handle (the
        rows may be an index's own list: do not mutate).  ``stats`` (a
        :class:`~repro.xmldb.document.ScanStats`) receives one
        ``index_probe`` plus one visit per result row.  ``document``
        pins the probe to one version (snapshot executions pass their
        pinned :class:`~repro.xmldb.document.Document`); without it the
        store's current version answers."""
        if document is None:
            document = self.store.get(probe.doc)
        indexes = self.for_version(document)
        if probe.kind == "element":
            pres = indexes.element.lookup_rows(probe.steps[0][1])
        elif probe.kind == "path":
            pres = indexes.path.lookup_rows(probe.steps)
        elif probe.kind == "value":
            pres = self._value_probe(indexes, probe, document.arena)
        else:
            raise EvaluationError(f"unknown probe kind {probe.kind!r}")
        if stats is not None:
            stats.record_probe(probe.doc)
            stats.record_visits(len(pres))
        return document.arena, pres

    def probe(self, probe: IndexProbe, stats=None,
              document=None) -> list[Node]:
        """:meth:`probe_rows` materialized into node handles."""
        arena, pres = self.probe_rows(probe, stats, document)
        nodes = arena.nodes
        return [nodes[pre] for pre in pres]

    def _value_probe(self, indexes: DocumentIndexes, probe: IndexProbe,
                     arena) -> list[int]:
        pres: list[int] = []
        paths = indexes.path.matching_paths(probe.steps)
        for path in paths:
            if not indexes.value.is_indexed(path):
                raise EvaluationError(
                    f"value probe {probe.describe()} matched the "
                    f"non-atomic path {'/'.join(path)}")
            pres.extend(indexes.value.probe_pres(path, probe.op,
                                                 probe.value))
        if probe.lift:
            return _lift(pres, probe.lift, arena.parents)
        if len(paths) > 1:
            pres.sort()
        return pres

    def can_value_probe(self, doc: str, steps) -> bool:
        """Planning-time eligibility: every concrete path the pattern
        matches must be value-indexed (atomic)."""
        if doc not in self.store:
            return False
        indexes = self.for_document(doc)
        return all(indexes.value.is_indexed(path)
                   for path in indexes.path.matching_paths(tuple(steps)))

    def estimate(self, probe: IndexProbe) -> int:
        """Planning-time result cardinality, computed from bucket
        lengths and bisect indices — no node list is materialized,
        lifted or sorted, so pricing a probe the planner then discards
        stays cheap.  For lifted value probes the count skips the
        ancestor dedup (an upper bound, which only overprices the
        index side).  Memoized per probe; document versions are
        immutable and :meth:`on_update` flushes the changed document's
        memos, so entries never go stale."""
        if probe not in self._estimates:
            if len(self._estimates) >= 4096:   # planning-only cache
                self._estimates.clear()
            self._estimates[probe] = self._count(probe)
        return self._estimates[probe]

    def _count(self, probe: IndexProbe) -> int:
        indexes = self.for_document(probe.doc)
        if probe.kind == "element":
            return len(indexes.element.lookup_rows(probe.steps[0][1]))
        if probe.kind == "path":
            return indexes.path.count(probe.steps)
        if probe.kind == "value":
            return sum(
                indexes.value.count(path, probe.op, probe.value)
                for path in indexes.path.matching_paths(probe.steps))
        raise EvaluationError(f"unknown probe kind {probe.kind!r}")


def _lift(pres: list[int], levels: int, parents) -> list[int]:
    """Replace each row by its ancestor ``levels`` steps up the
    arena's ``parents`` column (stopping at the root), dropping
    duplicates and restoring document order (several qualifying leaves
    may share one ancestor)."""
    lifted: set[int] = set()
    for pre in pres:
        for _ in range(levels):
            parent = parents[pre]
            if parent < 0:
                break
            pre = parent
        lifted.add(pre)
    return sorted(lifted)
