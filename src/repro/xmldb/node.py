"""XML node model with document order.

NAL (the paper's algebra) manipulates *node handles* pointing into
documents stored in the database, rather than materialized trees.  Our
:class:`Node` is that handle, and it lives in one of two modes:

- **builder mode** — while a tree is being constructed (by the data
  generators, :func:`element` or tests) a node is a small mutable
  object with ``parent``/``children``/``attributes`` links;
- **frozen mode** — a lightweight handle ``(arena, pre)`` into an
  interval-encoded :class:`~repro.xmldb.arena.Arena`: its axis methods
  and properties read the arena's struct-of-arrays columns, and any
  mutation raises :class:`~repro.errors.FrozenDocumentError` (which is
  what makes the ``string_value`` cache safe — a frozen subtree's text
  can never change under the cache).  Parsed text is only ever handles
  (the parser fills arena columns, no tree); a builder tree becomes
  handles when it is registered with a
  :class:`~repro.xmldb.document.DocumentStore`.

Node identity is object identity in both modes (handles are interned in
the arena, one per row); node equality in the algebra layer is *by
identity*, while value comparison uses the string value (atomization),
as in XQuery.

Three node kinds are supported: elements, text nodes and attribute
nodes.  Attributes participate in document order right after their
owner element (their exact rank relative to siblings never matters for
the paper's queries, but a total order keeps sorting well-defined).
"""

from __future__ import annotations

import enum
from typing import Iterator, Sequence

from repro.errors import FrozenDocumentError


class NodeKind(enum.Enum):
    """Kind tag for :class:`Node`."""

    ELEMENT = "element"
    TEXT = "text"
    ATTRIBUTE = "attribute"


class Node:
    """A node handle inside one XML document.

    Parameters
    ----------
    kind:
        One of :class:`NodeKind`.
    name:
        Element tag name or attribute name; ``None`` for text nodes.
    text:
        Text content for text nodes and attribute values; ``None`` for
        elements (element string values are computed from descendants).
    """

    __slots__ = ("_kind", "_name", "_text", "_children",
                 "_attributes", "order_key", "arena", "pre", "_strval",
                 "__weakref__")

    def __init__(self, kind: NodeKind, name: str | None = None,
                 text: str | None = None):
        self._kind = kind
        self._name = name
        self._text = text
        self._children: list[Node] = []
        self._attributes: list[Node] = []
        self.order_key: int = -1
        #: the owning Arena once the document is finalized; None while
        #: the tree is still a mutable builder graph
        self.arena = None
        #: this node's row in the arena (== order_key once frozen)
        self.pre: int = -1
        # Cached string value for elements; safe because finalized
        # documents are immutable (mutation raises) and builder trees
        # only cache on explicit string_value() calls.
        self._strval: str | None = None

    # ------------------------------------------------------------------
    # Finalization (called by Arena.from_tree and LazyNodes)
    # ------------------------------------------------------------------
    def _freeze(self, arena, pre: int) -> None:
        """Turn this builder node into an arena handle: drop the object
        links and route all further reads through the columns."""
        self.arena = arena
        self.pre = pre
        self.order_key = pre
        self._kind = None
        self._name = None
        self._text = None
        self._children = None  # type: ignore[assignment]
        self._attributes = None  # type: ignore[assignment]
        # A value cached while the tree was still mutable may predate
        # later builder-mode edits; recompute from the columns.
        self._strval = None

    # ------------------------------------------------------------------
    # Columnar properties (builder slots before freeze, arena after)
    # ------------------------------------------------------------------
    @property
    def kind(self) -> NodeKind:
        arena = self.arena
        return self._kind if arena is None else arena.kinds[self.pre]

    @property
    def name(self) -> str | None:
        arena = self.arena
        if arena is None:
            return self._name
        name_id = arena.name_ids[self.pre]
        return None if name_id < 0 else arena.names[name_id]

    @property
    def text(self) -> str | None:
        arena = self.arena
        return self._text if arena is None else arena.texts[self.pre]

    @property
    def parent(self) -> Node | None:
        """The parent of a frozen node (None for a root)."""
        arena = self.arena
        parent_pre = arena.parents[self.pre]
        return None if parent_pre < 0 else arena.nodes[parent_pre]

    @property
    def children(self) -> "Sequence[Node]":
        """Child nodes in document order (a mutable list while
        building; the arena's immutable tuple once frozen)."""
        arena = self.arena
        if arena is None:
            return self._children
        return arena.child_lists[self.pre]

    @property
    def attributes(self) -> "Sequence[Node]":
        """Attribute nodes in document order (list while building,
        immutable tuple once frozen)."""
        arena = self.arena
        if arena is None:
            return self._attributes
        return arena.attr_lists[self.pre]

    @property
    def document(self):
        """The owning Document of a frozen node — None for an arena no
        document owns (a parsed fragment), and None again once nothing
        pins the version: a handle keeps its arena's columns readable,
        not the Document alive (the store's current map, a
        ``StoreSnapshot`` or a ``Document`` reference pin a version;
        see ``docs/updates.md``)."""
        return self.arena.document

    @property
    def level(self) -> int:
        """Depth of a frozen node below the document root."""
        return self.arena.levels[self.pre]

    # ------------------------------------------------------------------
    # Tree construction (builder mode only)
    # ------------------------------------------------------------------
    def _require_mutable(self) -> None:
        if self.arena is not None:
            raise FrozenDocumentError(self.arena.doc_name or "<anonymous>")

    def append_child(self, child: Node) -> Node:
        """Attach ``child`` as the last child of this element."""
        self._require_mutable()
        if self._kind is not NodeKind.ELEMENT:
            raise ValueError("only elements can have children")
        self._children.append(child)
        return child

    def set_attribute(self, name: str, value: str) -> Node:
        """Attach an attribute node ``name="value"`` to this element."""
        self._require_mutable()
        if self._kind is not NodeKind.ELEMENT:
            raise ValueError("only elements can have attributes")
        attr = Node(NodeKind.ATTRIBUTE, name=name, text=value)
        self._attributes.append(attr)
        return attr

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def child_elements(self, name: str | None = None) -> list[Node]:
        """Child elements, optionally filtered by tag name."""
        result = [c for c in self.children if c.kind is NodeKind.ELEMENT]
        if name is not None:
            result = [c for c in result if c.name == name]
        return result

    def attribute(self, name: str) -> Node | None:
        """The attribute node called ``name``, or ``None``."""
        for attr in self.attributes:
            if attr.name == name:
                return attr
        return None

    def iter_descendants(self, include_self: bool = False) -> Iterator[Node]:
        """Pre-order (document-order) iterator over descendant elements
        and text nodes.  Attribute nodes are not yielded (XPath's
        descendant axis excludes them).

        Frozen nodes iterate their contiguous arena row interval; the
        pointer walk is the builder-mode path."""
        if include_self:
            yield self
        arena = self.arena
        if arena is not None:
            nodes = arena.nodes
            for row in arena.iter_descendant_rows(self.pre):
                yield nodes[row]
            return
        for child in self.children:
            yield child
            if child.kind is NodeKind.ELEMENT:
                yield from child.iter_descendants(include_self=False)

    # ------------------------------------------------------------------
    # Values
    # ------------------------------------------------------------------
    def string_value(self) -> str:
        """XQuery string value: concatenation of all descendant text.

        Cached for element nodes; finalized documents are immutable
        (mutation raises :class:`~repro.errors.FrozenDocumentError`),
        so the cache can never serve stale text.
        """
        kind = self.kind
        if kind is NodeKind.TEXT or kind is NodeKind.ATTRIBUTE:
            return self.text or ""
        if self._strval is None:
            arena = self.arena
            if arena is not None:
                self._strval = arena.string_value(self.pre)
            else:
                parts: list[str] = []
                for node in self.iter_descendants():
                    if node.kind is NodeKind.TEXT:
                        parts.append(node.text or "")
                self._strval = "".join(parts)
        return self._strval

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind is NodeKind.ELEMENT:
            return f"<Node element {self.name!r} #{self.order_key}>"
        if self.kind is NodeKind.ATTRIBUTE:
            return f"<Node @{self.name}={self.text!r} #{self.order_key}>"
        return f"<Node text {self.text!r} #{self.order_key}>"


def element(name: str, *children: Node | str, **attrs: str) -> Node:
    """Convenience constructor used by tests and data generators.

    String arguments become text children; keyword arguments become
    attributes.  Example::

        element("book", element("title", "TCP/IP"), year="1994")
    """
    node = Node(NodeKind.ELEMENT, name=name)
    for key, value in attrs.items():
        node.set_attribute(key, value)
    for child in children:
        if isinstance(child, str):
            node.append_child(Node(NodeKind.TEXT, text=child))
        else:
            node.append_child(child)
    return node


class NodeSequence(list):
    """A list of :class:`Node` handles *certified flat*: no nested
    sequences, no NULLs — exactly what every XPath evaluation returns.

    The certificate lets sequence consumers trust the shape instead of
    re-scanning it: ``count()``/``exists()``/``empty()`` over a path
    result become O(1)/O(1)/O(1) and ``iter_items`` a C-speed copy,
    which matters once the order-property fast path has reduced a
    ``//tag`` evaluation itself to a bare arena slice.  Constructors
    must only wrap sequences that already satisfy the invariant, and
    consumers must not mutate one (the evaluator hands out fresh
    instances, so nothing in the engine does)."""

    __slots__ = ()


def global_order_key(node: Node) -> tuple[int, int]:
    """A total order over nodes of *any* number of documents:
    ``(document registration sequence, pre)``.  Unregistered trees sort
    before all documents, by their local order keys — deterministic
    across runs, unlike the ``id(document)`` tie-break this replaces."""
    arena = node.arena
    return (-1 if arena is None else arena.doc_seq, node.order_key)


def document_order(nodes: list[Node]) -> list[Node]:
    """Return ``nodes`` sorted by document order (stable for equal keys)."""
    return sorted(nodes, key=global_order_key)
