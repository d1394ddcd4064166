"""In-memory XML document store (the Natix stand-in).

This subpackage provides:

- :mod:`repro.xmldb.node` — the node model (elements, text, attributes)
  with global document order: lightweight ``(arena, pre)`` handles, and
  mutable builder trees that freeze into handles at registration;
- :mod:`repro.xmldb.arena` — the interval-encoded (pre/post/level)
  struct-of-arrays document storage behind finalized documents;
- :mod:`repro.xmldb.parser` — a from-scratch, non-validating XML parser
  that fills arena columns in one tokenizing pass;
- :mod:`repro.xmldb.serialize` — serialization back to XML text;
- :mod:`repro.xmldb.dtd` — a DTD parser and the :class:`SchemaInfo`
  structural reasoner used by the unnesting optimizer's side conditions;
- :mod:`repro.xmldb.document` — :class:`Document` and the named
  :class:`DocumentStore` with per-document scan statistics, versioned
  updates (:meth:`DocumentStore.update`) and MVCC snapshots
  (:class:`StoreSnapshot`);
- :mod:`repro.xmldb.delta` — the copy-on-write delta operations
  (:class:`Insert`, :class:`Delete`, :class:`Replace`) and the
  columnar splice that turns them into a successor arena version.
"""

from repro.xmldb.node import Node, NodeKind
from repro.xmldb.arena import Arena
from repro.xmldb.parser import parse_document
from repro.xmldb.serialize import serialize
from repro.xmldb.dtd import DTD, SchemaInfo, parse_dtd
from repro.xmldb.delta import (
    Delete,
    DeltaError,
    Insert,
    Replace,
    apply_delta,
)
from repro.xmldb.document import Document, DocumentStore, StoreSnapshot

__all__ = [
    "Node",
    "NodeKind",
    "Arena",
    "parse_document",
    "serialize",
    "DTD",
    "SchemaInfo",
    "parse_dtd",
    "Delete",
    "DeltaError",
    "Insert",
    "Replace",
    "apply_delta",
    "Document",
    "DocumentStore",
    "StoreSnapshot",
]
