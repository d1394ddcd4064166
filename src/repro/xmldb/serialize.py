"""Serialization of the node model back to XML text."""

from __future__ import annotations

from repro.xmldb.node import Node, NodeKind


def escape_text(text: str) -> str:
    """Character data as XML text: ``& < >`` escaped."""
    return (text.replace("&", "&amp;")
                .replace("<", "&lt;")
                .replace(">", "&gt;"))


def _escape_attr(text: str) -> str:
    return escape_text(text).replace('"', "&quot;")


def serialize(node: Node, indent: int | None = None) -> str:
    """Serialize ``node`` (and its subtree) to XML text.

    With ``indent=None`` (the default) the output is compact and
    round-trips exactly through :func:`repro.xmldb.parser.parse_document`
    for documents without mixed content.  With an integer ``indent``,
    element-only content is pretty-printed.
    """
    parts: list[str] = []
    _serialize_into(node, parts, indent, 0)
    return "".join(parts)


def _attribute(name: str, text: str | None) -> str:
    return f' {name}="{_escape_attr(text or "")}"'


def _serialize_rows(arena, pre: int, parts: list[str]) -> None:
    """Compact serialization of a frozen element or text subtree — the
    only compact walk frozen nodes take — straight off the arena
    columns: one pass over the row interval ``[pre, ends[pre])`` with
    a stack of pending close tags — no handle, no child list
    (attribute rows directly follow their element, children follow
    those)."""
    kinds, ends, texts = arena.kinds, arena.ends, arena.texts
    names, name_ids = arena.names, arena.name_ids
    text_kind, attribute = NodeKind.TEXT, NodeKind.ATTRIBUTE
    closing: list[tuple[int, str]] = []
    row, stop = pre, ends[pre]
    while row < stop:
        while closing and closing[-1][0] <= row:
            parts.append(closing.pop()[1])
        if kinds[row] is text_kind:
            parts.append(escape_text(texts[row] or ""))
            row += 1
            continue
        name = names[name_ids[row]]
        parts.append(f"<{name}")
        end = ends[row]
        row += 1
        while row < end and kinds[row] is attribute:
            parts.append(_attribute(names[name_ids[row]], texts[row]))
            row += 1
        if row == end:
            parts.append("/>")
        else:
            parts.append(">")
            closing.append((end, f"</{name}>"))
    while closing:
        parts.append(closing.pop()[1])


def render_rows(arena, pres) -> list[str]:
    """What result construction writes for every row of a node column:
    an element row serializes compact (:func:`_serialize_rows`; the
    ``<tag>text</tag>`` leaf is one format), a text or attribute row
    contributes its escaped string value.  Reads the arena columns
    only — no handle is created."""
    kinds, ends, texts = arena.kinds, arena.ends, arena.texts
    names, name_ids = arena.names, arena.name_ids
    element, text_kind = NodeKind.ELEMENT, NodeKind.TEXT
    out: list[str] = []
    append = out.append
    for pre in pres:
        if kinds[pre] is not element:
            append(escape_text(texts[pre] or ""))
        elif ends[pre] == pre + 2 and kinds[pre + 1] is text_kind:
            name = names[name_ids[pre]]
            append(f"<{name}>{escape_text(texts[pre + 1] or '')}</{name}>")
        else:
            parts: list[str] = []
            _serialize_rows(arena, pre, parts)
            append("".join(parts))
    return out


def _has_element_children(node: Node) -> bool:
    return any(c.kind is NodeKind.ELEMENT for c in node.children)


def _serialize_into(node: Node, parts: list[str], indent: int | None,
                    depth: int) -> None:
    """The pointer walk: builder trees, and the pretty-printed levels
    of frozen ones (their compact subtrees go through
    :func:`_serialize_rows`)."""
    if indent is None and node.arena is not None \
            and node.kind is not NodeKind.ATTRIBUTE:
        _serialize_rows(node.arena, node.pre, parts)
        return
    pad = "" if indent is None else " " * (indent * depth)
    newline = "" if indent is None else "\n"
    if node.kind is NodeKind.TEXT:
        parts.append(escape_text(node.text or ""))
        return
    if node.kind is NodeKind.ATTRIBUTE:
        parts.append(f'{node.name}="{_escape_attr(node.text or "")}"')
        return
    parts.append(f"{pad}<{node.name}")
    for attr in node.attributes:
        parts.append(_attribute(attr.name, attr.text))
    if not node.children:
        parts.append(f"/>{newline}")
        return
    parts.append(">")
    pretty_children = indent is not None and _has_element_children(node)
    if pretty_children:
        parts.append("\n")
        for child in node.children:
            if child.kind is NodeKind.TEXT and not (child.text or "").strip():
                continue
            _serialize_into(child, parts, indent, depth + 1)
            if child.kind is NodeKind.TEXT:
                parts.append("\n")
        parts.append(pad)
    else:
        for child in node.children:
            _serialize_into(child, parts, None, 0)
    parts.append(f"</{node.name}>{newline}")
