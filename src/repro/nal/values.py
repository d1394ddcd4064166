"""Values of the NAL data model.

NAL works on *sequences of tuples*; a tuple maps attribute names to values.
Values are:

- atomics: ``str``, ``int``, ``float``, ``bool``;
- ``NULL`` (the ⊥ of the paper's outer join / empty-group handling);
- XML node handles (:class:`repro.xmldb.node.Node`);
- nested sequences of tuples (``list[Tup]``) — e.g. the group attribute a
  Γ operator produces, or a `let`-bound sequence.

Comparison semantics
--------------------
XQuery general comparisons atomize nodes and compare typed values.  Our
untyped documents store everything as strings, so we use the following
deterministic rule (documented deviation from full XQuery typing): two
atomized values compare *numerically* when both parse as numbers, otherwise
as strings.  Booleans are their own atomic type: a boolean compares equal
only to another boolean — never to the numbers 0/1 or the strings
"true"/"false" — and supports only ``=`` and ``!=``.  ``NULL`` compares
false against everything (including itself).
:func:`canonical_key` maps a value to a hashable key consistent with that
equality, which is what the hash-based row kernels and the
duplicate-eliminating projection use.  NULL is the one deliberate
exception: ``canonical_key(NULL)`` is well-defined (hashing needs it) but
``compare_atomic(NULL, '=', NULL)`` is false, so hash-based operators must
treat NULL keys as matching nothing (see ``repro.engine.kernels``).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import EvaluationError
from repro.xmldb.node import Node, NodeSequence


class _Null:
    """Singleton NULL (the paper's ⊥)."""

    _instance: "_Null | None" = None

    def __new__(cls) -> "_Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False


NULL = _Null()


class Tup:
    """An immutable tuple (set of attribute bindings) with stable attribute
    order.  Concatenation ``◦`` is :meth:`concat`; projection and renaming
    mirror the paper's Π variants."""

    __slots__ = ("_data",)

    def __init__(self, data: dict[str, Any] | None = None):
        self._data: dict[str, Any] = dict(data) if data else {}

    @classmethod
    def adopt(cls, data: dict[str, Any]) -> "Tup":
        """A tuple over ``data`` itself, not a copy: for constructors
        that just built the dict and keep no other reference to it."""
        self = cls.__new__(cls)
        self._data = data
        return self

    # -- mapping protocol ------------------------------------------------
    def __getitem__(self, attr: str) -> Any:
        try:
            return self._data[attr]
        except KeyError:
            raise EvaluationError(
                f"tuple has no attribute {attr!r}; available: "
                f"{sorted(self._data)}") from None

    def get(self, attr: str, default: Any = None) -> Any:
        return self._data.get(attr, default)

    def __contains__(self, attr: str) -> bool:
        return attr in self._data

    def attrs(self) -> tuple[str, ...]:
        return tuple(self._data)

    def items(self):
        return self._data.items()

    def __len__(self) -> int:
        return len(self._data)

    # -- constructors ----------------------------------------------------
    def concat(self, other: "Tup") -> "Tup":
        """Tuple concatenation ``self ◦ other`` (right side wins on
        duplicate attribute names, which the algebra never relies on)."""
        merged = dict(self._data)
        merged.update(other._data)
        return Tup.adopt(merged)

    def extend(self, attr: str, value: Any) -> "Tup":
        """``self ◦ [attr: value]``."""
        merged = dict(self._data)
        merged[attr] = value
        return Tup.adopt(merged)

    def project(self, attrs: Iterable[str]) -> "Tup":
        """Π over a list of attributes, in the order given."""
        return Tup.adopt({a: self[a] for a in attrs})

    def project_away(self, attrs: Iterable[str]) -> "Tup":
        drop = set(attrs)
        return Tup.adopt(
            {a: v for a, v in self._data.items() if a not in drop})

    def rename(self, mapping: dict[str, str]) -> "Tup":
        """Rename attributes ``old -> new``; other attributes untouched."""
        return Tup.adopt(
            {mapping.get(a, a): v for a, v in self._data.items()})

    # -- equality --------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tup):
            return NotImplemented
        if set(self._data) != set(other._data):
            return False
        return all(deep_equal(v, other._data[a])
                   for a, v in self._data.items())

    def __hash__(self) -> int:
        return hash(frozenset(
            (a, canonical_key(v)) for a, v in self._data.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}: {v!r}" for a, v in self._data.items())
        return f"[{inner}]"


EMPTY_TUPLE = Tup()


def null_tuple(attrs: Iterable[str]) -> Tup:
    """The paper's ⊥_A constructor: every attribute bound to NULL."""
    return Tup({a: NULL for a in attrs})


# ----------------------------------------------------------------------
# Atomization
# ----------------------------------------------------------------------
def atomize(value: Any) -> Any:
    """XQuery atomization of a single item: nodes become their string
    value; atomics pass through.  Sequences are not accepted here — use
    :func:`atomize_sequence`."""
    if isinstance(value, Node):
        return value.string_value()
    if isinstance(value, (list, tuple)):
        raise EvaluationError(
            "cannot atomize a sequence where a single item is required")
    return value


def atomize_sequence(value: Any) -> list[Any]:
    """Atomize a value that may be a single item or a sequence.

    Sequences of tuples (e.g. a ``let``-bound inner query result) atomize
    item-wise: a single-attribute tuple contributes its attribute's
    atomized value."""
    if value is NULL or value is None:
        return []
    if isinstance(value, (list, tuple)):
        result: list[Any] = []
        for item in value:
            result.extend(atomize_sequence(item))
        return result
    if isinstance(value, Tup):
        values = [v for _, v in value.items()]
        if len(values) != 1:
            raise EvaluationError(
                f"cannot atomize a {len(values)}-attribute tuple")
        return atomize_sequence(values[0])
    return [atomize(value)]


def iter_items(value: Any) -> list[Any]:
    """Flatten a value into a list of items (nodes/atomics/tuples kept
    as-is), for `for`-clause iteration and function arguments.

    Flat sequences (the common case: a path result is a plain list of
    nodes) append item-wise instead of recursing, so flattening a
    12000-node sequence is one pass, not 12000 single-item lists; a
    :class:`~repro.xmldb.node.NodeSequence` is certified flat and
    copies without any scan."""
    if value is NULL or value is None:
        return []
    if type(value) is NodeSequence:
        return list(value)
    if isinstance(value, (list, tuple)):
        result: list[Any] = []
        append = result.append
        for item in value:
            if item is NULL or item is None:
                continue
            if isinstance(item, (list, tuple)):
                result.extend(iter_items(item))
            else:
                append(item)
        return result
    return [value]


def count_items(value: Any) -> int:
    """``len(iter_items(value))`` without materializing the flat list
    (the ``count()``/``exists()``/``empty()`` hot path: a 10⁴-node path
    result should cost one scan, not one scan plus one copy — and a
    certified-flat :class:`~repro.xmldb.node.NodeSequence` no scan at
    all)."""
    if value is NULL or value is None:
        return 0
    if type(value) is NodeSequence:
        return len(value)
    if isinstance(value, (list, tuple)):
        total = 0
        for item in value:
            if item is NULL or item is None:
                continue
            if isinstance(item, (list, tuple)):
                total += count_items(item)
            else:
                total += 1
        return total
    return 1


def has_items(value: Any) -> bool:
    """``bool(iter_items(value))`` with an early exit on the first
    item."""
    if value is NULL or value is None:
        return False
    if type(value) is NodeSequence:
        return len(value) > 0
    if isinstance(value, (list, tuple)):
        for item in value:
            if item is NULL or item is None:
                continue
            if isinstance(item, (list, tuple)):
                if has_items(item):
                    return True
            else:
                return True
        return False
    return True


# ----------------------------------------------------------------------
# Comparison and keys
# ----------------------------------------------------------------------
def _as_number(value: Any) -> int | float | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        # Keep integers exact: ints and floats compare and hash
        # consistently in Python, and float() of a huge int would raise
        # OverflowError mid-comparison.
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def text_key(text: str) -> tuple:
    """``canonical_key`` of a string (and so of a node's string
    value): numeric text keys as the number, anything else as the
    text — the one rule column-wise key builders share with the
    row-wise one."""
    if text[:1].isalpha() and text[:3].lower() not in ("inf", "nan"):
        # The only float literals that start with a letter: identifiers
        # like "I00042" skip the raise-and-catch.
        return ("s", text)
    try:
        return ("n", float(text))
    except ValueError:
        return ("s", text)


def canonical_key(value: Any) -> Any:
    """A hashable key such that ``compare_atomic(a, '=', b)`` iff
    ``canonical_key(a) == canonical_key(b)`` (for atomizable non-NULL
    values; NULL keys hash together but compare false, so hash-based
    operators NULL-guard their probes)."""
    if value is NULL or value is None:
        return ("null",)
    if isinstance(value, Node):
        return text_key(value.string_value())
    if isinstance(value, str):
        return text_key(value)
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, (int, float)):
        # Integers stay exact: ints and floats compare and hash
        # consistently in Python, and float() of a huge int would
        # raise OverflowError.
        return ("n", value)
    if isinstance(value, Tup):
        return ("t", frozenset(
            (a, canonical_key(v)) for a, v in value.items()))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(canonical_key(v) for v in value))
    raise EvaluationError(f"cannot build a key for value {value!r}")


def compare_atomic(left: Any, op: str, right: Any) -> bool:
    """Compare two single items under the documented coercion rule."""
    if left is NULL or right is NULL or left is None or right is None:
        return False
    left = atomize(left)
    right = atomize(right)
    left_is_bool = isinstance(left, bool)
    right_is_bool = isinstance(right, bool)
    if left_is_bool or right_is_bool:
        # Booleans form their own type: equal only to another boolean,
        # matching canonical_key's ("b", v) keying — the invariant every
        # hash-based operator relies on.
        if op not in ("=", "!="):
            raise EvaluationError("booleans only support = and !=")
        equal = left_is_bool and right_is_bool and left == right
        return equal if op == "=" else not equal
    left_num = _as_number(left)
    right_num = _as_number(right)
    a: Any
    b: Any
    if left_num is not None and right_num is not None:
        a, b = left_num, right_num
    else:
        a, b = str(left), str(right)
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise EvaluationError(f"unknown comparison operator {op!r}")


def general_compare(left: Any, op: str, right: Any) -> bool:
    """XQuery general comparison: existentially quantified over both
    sides' items (``$a = $seq`` is true iff some item matches)."""
    left_items = iter_items(left)
    right_items = iter_items(right)
    for left_item in left_items:
        left_value = _item_value(left_item)
        for right_item in right_items:
            if compare_atomic(left_value, op, _item_value(right_item)):
                return True
    return False


def _item_value(item: Any) -> Any:
    if isinstance(item, Tup):
        values = [v for _, v in item.items()]
        if len(values) != 1:
            raise EvaluationError(
                "general comparison over multi-attribute tuples")
        return values[0]
    return item


def deep_equal(left: Any, right: Any) -> bool:
    """Structural equality used for tuple equality and tests: sequences
    element-wise, everything else via canonical keys (NULL equals NULL
    here, unlike in comparisons)."""
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        if len(left) != len(right):
            return False
        return all(deep_equal(a, b) for a, b in zip(left, right))
    if isinstance(left, Tup) and isinstance(right, Tup):
        return left == right
    if (left is NULL) != (right is NULL):
        return False
    if left is NULL:
        return True
    if isinstance(left, Node) and isinstance(right, Node):
        return left is right
    try:
        return canonical_key(left) == canonical_key(right)
    except EvaluationError:
        return left == right


def effective_boolean(value: Any) -> bool:
    """XQuery effective boolean value of a value or sequence."""
    if value is NULL or value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        return len(value) > 0
    if isinstance(value, Node):
        return True
    if isinstance(value, Tup):
        return True
    if isinstance(value, (list, tuple)):
        return len(value) > 0
    raise EvaluationError(f"no effective boolean value for {value!r}")


def sort_key(value: Any) -> tuple:
    """A *total* order key over atomized values (used by the Sort
    operator and the order-property subsystem), with an explicit type
    rank so mixed-type key columns never fall into Python's raising
    cross-type comparison:

    ====  ==============================================================
    rank  values
    ====  ==============================================================
    0     NULL and the empty sequence ("empty least", both directions)
    1     NaN (every NaN ties — deterministic, unlike raw float NaN,
          which is incomparable and would corrupt the sort order)
    2     numbers, and strings that parse as numbers, numerically
          (consistent with ``compare_atomic``'s coercion; integers are
          kept exact, so huge ints cannot overflow ``float``)
    3     booleans (False < True; ``compare_atomic`` declines to order
          booleans at all, so any deterministic placement is sound)
    4     strings, by code point
    5     sequences of ≥2 items, item-wise (a 1-item sequence keys as
          its item — the node list a path-valued order-by key yields)
    6     tuples, value-wise
    ====  ==============================================================

    Ranking numbers as a block before strings is a deliberate deviation
    from ``compare_atomic``'s pairwise number-vs-string fallback (which
    is not transitive and therefore cannot induce a total order);
    within each rank the two agree."""
    if value is NULL or value is None:
        return (0, 0.0)
    if isinstance(value, (list, tuple)):
        if not value:
            return (0, 0.0)
        if len(value) == 1:
            return sort_key(value[0])
        return (5, tuple(sort_key(v) for v in value))
    if isinstance(value, Tup):
        return (6, tuple(sort_key(v) for _, v in value.items()))
    if isinstance(value, Node):
        value = value.string_value()
    if isinstance(value, str):
        return text_sort_key(value)
    number = _as_number(value)
    if number is not None:
        if number != number:  # NaN: give it one deterministic slot
            return (1, 0.0)
        return (2, number)
    if isinstance(value, bool):
        return (3, value)
    return (4, str(value))


def text_sort_key(text: str) -> tuple:
    """:func:`sort_key` of a string (and so of a node's string value)
    — what a whole string column is keyed through; text that cannot be
    a number skips the ``float()`` raise-and-catch, as in
    :func:`text_key`."""
    kind, value = text_key(text)
    if kind == "s":
        return (4, text)
    return (1, 0.0) if value != value else (2, value)
