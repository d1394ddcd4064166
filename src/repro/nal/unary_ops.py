"""Leaf and unary NAL operators: □, Table, IndexScan, σ, Π variants, χ,
Υ, µ, Sort."""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.errors import EvaluationError
from repro.nal.algebra import Operator, bind_item, scalar_env
from repro.nal.scalar import ScalarExpr
from repro.nal.values import (
    EMPTY_TUPLE,
    Tup,
    canonical_key,
    effective_boolean,
    iter_items,
    null_tuple,
    sort_key,
)


class Singleton(Operator):
    """The paper's □: a singleton sequence holding the empty tuple.  It
    anchors the translation of FLWR expressions."""

    def __init__(self):
        self.children = ()

    def attrs(self) -> frozenset[str]:
        return frozenset()

    def params(self) -> tuple:
        return ()

    def rebuild(self, children: tuple) -> "Singleton":
        return Singleton()

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        return [EMPTY_TUPLE]

    def label(self) -> str:
        return "□"


class Table(Operator):
    """A literal sequence of tuples (used by tests, examples and the
    property-based equivalence checks, mirroring the paper's R1/R2
    examples)."""

    def __init__(self, name: str, attributes: Sequence[str],
                 rows: Iterable[Tup]):
        self.name = name
        self.attributes = tuple(attributes)
        self.rows = [r if isinstance(r, Tup) else Tup(r) for r in rows]
        for row in self.rows:
            if set(row.attrs()) != set(self.attributes):
                raise EvaluationError(
                    f"table {name!r}: row {row!r} does not match declared "
                    f"attributes {self.attributes}")
        self.children = ()

    def attrs(self) -> frozenset[str]:
        return frozenset(self.attributes)

    def params(self) -> tuple:
        return (self.name, self.attributes, tuple(self.rows))

    def rebuild(self, children: tuple) -> "Table":
        return Table(self.name, self.attributes, self.rows)

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        return list(self.rows)

    def label(self) -> str:
        return f"Table({self.name})"


class IndexScan(Operator):
    """A leaf that answers a path/value pattern from the document
    store's indexes instead of walking the document.

    It emits one single-attribute tuple per matching node, in document
    order — exactly the sequence the equivalent Υ-over-scan produces —
    and charges ``index_probes`` (not ``document_scans``) to the stats.
    The access-path pass of :mod:`repro.optimizer.access_paths`
    introduces it where the cost model prefers a probe over a scan.
    """

    def __init__(self, attr: str, probe):
        self.attr = attr
        #: an :class:`repro.index.probes.IndexProbe`
        self.probe = probe
        self.children = ()

    def attrs(self) -> frozenset[str]:
        return frozenset({self.attr})

    def params(self) -> tuple:
        return (self.attr, self.probe)

    def rebuild(self, children: tuple) -> "IndexScan":
        return IndexScan(self.attr, self.probe)

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        nodes = ctx.store.indexes.probe(self.probe, ctx.stats)
        return [Tup({self.attr: node}) for node in nodes]

    def label(self) -> str:
        return f"IdxScan[{self.attr}:{self.probe.describe()}]"


class Select(Operator):
    """Order-preserving selection σ_p."""

    def __init__(self, child: Operator, pred: ScalarExpr):
        self.children = (child,)
        self.pred = pred

    @property
    def child(self) -> Operator:
        return self.children[0]

    def attrs(self) -> frozenset[str]:
        return self.child.attrs()

    def scalar_exprs(self) -> tuple:
        return (self.pred,)

    def params(self) -> tuple:
        return (self.pred,)

    def rebuild(self, children: tuple) -> "Select":
        return Select(children[0], self.pred)

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        return [t for t in self.child.evaluate(ctx, env)
                if effective_boolean(
                    self.pred.evaluate(scalar_env(env, t), ctx))]

    def label(self) -> str:
        return f"σ[{self.pred!r}]"


class Project(Operator):
    """Π_A: keep exactly the listed attributes (order-preserving on
    tuples; attribute order follows the list)."""

    def __init__(self, child: Operator, attributes: Sequence[str]):
        self.children = (child,)
        self.attributes = tuple(attributes)

    @property
    def child(self) -> Operator:
        return self.children[0]

    def attrs(self) -> frozenset[str]:
        return frozenset(self.attributes)

    def params(self) -> tuple:
        return (self.attributes,)

    def rebuild(self, children: tuple) -> "Project":
        return Project(children[0], self.attributes)

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        return [t.project(self.attributes)
                for t in self.child.evaluate(ctx, env)]

    def label(self) -> str:
        return f"Π[{', '.join(self.attributes)}]"


class ProjectAway(Operator):
    """Π with an elimination list (the paper's Π-bar)."""

    def __init__(self, child: Operator, attributes: Sequence[str]):
        self.children = (child,)
        self.attributes = tuple(attributes)

    @property
    def child(self) -> Operator:
        return self.children[0]

    def attrs(self) -> frozenset[str]:
        return self.child.attrs() - frozenset(self.attributes)

    def params(self) -> tuple:
        return (self.attributes,)

    def rebuild(self, children: tuple) -> "ProjectAway":
        return ProjectAway(children[0], self.attributes)

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        return [t.project_away(self.attributes)
                for t in self.child.evaluate(ctx, env)]

    def label(self) -> str:
        return f"Π̄[{', '.join(self.attributes)}]"


class Rename(Operator):
    """Π_{A':A}: rename attributes ``old -> new``, others untouched."""

    def __init__(self, child: Operator, mapping: dict[str, str]):
        self.children = (child,)
        self.mapping = dict(mapping)

    @property
    def child(self) -> Operator:
        return self.children[0]

    def attrs(self) -> frozenset[str]:
        return frozenset(self.mapping.get(a, a)
                         for a in self.child.attrs())

    def params(self) -> tuple:
        return (tuple(sorted(self.mapping.items())),)

    def rebuild(self, children: tuple) -> "Rename":
        return Rename(children[0], self.mapping)

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        return [t.rename(self.mapping)
                for t in self.child.evaluate(ctx, env)]

    def label(self) -> str:
        inner = ", ".join(f"{v}:{k}" for k, v in self.mapping.items())
        return f"Π[{inner}]"


class DistinctProject(Operator):
    """ΠD: duplicate-eliminating projection, optionally renaming.

    Per the paper it need not preserve order but must be deterministic and
    idempotent: we keep the first occurrence of each value combination.
    """

    def __init__(self, child: Operator, attributes: Sequence[str],
                 rename: dict[str, str] | None = None):
        self.children = (child,)
        self.attributes = tuple(attributes)
        self.renaming = dict(rename or {})

    @property
    def child(self) -> Operator:
        return self.children[0]

    def attrs(self) -> frozenset[str]:
        return frozenset(self.renaming.get(a, a) for a in self.attributes)

    def params(self) -> tuple:
        return (self.attributes, tuple(sorted(self.renaming.items())))

    def rebuild(self, children: tuple) -> "DistinctProject":
        return DistinctProject(children[0], self.attributes, self.renaming)

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        seen: set = set()
        result: list[Tup] = []
        for t in self.child.evaluate(ctx, env):
            projected = t.project(self.attributes)
            key = tuple(canonical_key(projected[a])
                        for a in self.attributes)
            if key not in seen:
                seen.add(key)
                if self.renaming:
                    projected = projected.rename(self.renaming)
                result.append(projected)
        return result

    def label(self) -> str:
        if self.renaming:
            inner = ", ".join(f"{self.renaming.get(a, a)}:{a}"
                              for a in self.attributes)
        else:
            inner = ", ".join(self.attributes)
        return f"ΠD[{inner}]"


class Map(Operator):
    """χ_{a:e}: extend every input tuple by attribute ``a`` computed by a
    subscript expression — the carrier of nested algebraic expressions."""

    def __init__(self, child: Operator, attr: str, expr: ScalarExpr,
                 origin=None, item_attr: str | None = None):
        self.children = (child,)
        self.attr = attr
        self.expr = expr
        #: optional ColumnOrigin provenance (set by the translator)
        self.origin = origin
        #: for sequence-valued attributes: the attribute name of the
        #: nested tuples (the paper's e[a] tupling), used by the µD the
        #: Eqv. 4/5 rewrites introduce
        self.item_attr = item_attr

    @property
    def child(self) -> Operator:
        return self.children[0]

    def attrs(self) -> frozenset[str]:
        return self.child.attrs() | {self.attr}

    def scalar_exprs(self) -> tuple:
        return (self.expr,)

    def params(self) -> tuple:
        return (self.attr, self.expr)

    def rebuild(self, children: tuple) -> "Map":
        return Map(children[0], self.attr, self.expr, origin=self.origin,
                   item_attr=self.item_attr)

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        result = []
        for t in self.child.evaluate(ctx, env):
            value = self.expr.evaluate(scalar_env(env, t), ctx)
            result.append(t.extend(self.attr, value))
        return result

    def label(self) -> str:
        return f"χ[{self.attr}:{self.expr!r}]"


class UnnestMap(Operator):
    """Υ_{a:e}: evaluate the subscript per tuple and emit one output tuple
    per item of the result (µ(χ(e[a]))).  This is the translation of XQuery
    ``for`` clauses; following XQuery semantics the empty sequence yields
    no tuples (see DESIGN.md on the µ/⊥ subtlety)."""

    def __init__(self, child: Operator, attr: str, expr: ScalarExpr,
                 origin=None):
        self.children = (child,)
        self.attr = attr
        self.expr = expr
        self.origin = origin

    @property
    def child(self) -> Operator:
        return self.children[0]

    def attrs(self) -> frozenset[str]:
        return self.child.attrs() | {self.attr}

    def scalar_exprs(self) -> tuple:
        return (self.expr,)

    def params(self) -> tuple:
        return (self.attr, self.expr)

    def rebuild(self, children: tuple) -> "UnnestMap":
        return UnnestMap(children[0], self.attr, self.expr,
                         origin=self.origin)

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        result = []
        for t in self.child.evaluate(ctx, env):
            items = iter_items(self.expr.evaluate(scalar_env(env, t), ctx))
            for item in items:
                result.append(t.extend(self.attr, bind_item(item)))
        return result

    def label(self) -> str:
        return f"Υ[{self.attr}:{self.expr!r}]"


class Unnest(Operator):
    """µ_g / µD_g: unnest a sequence-valued attribute.

    ``item_attrs`` declares the attributes of the nested tuples (needed
    for A(e) and for the ⊥ padding of empty groups when
    ``preserve_empty`` is true, which is the paper's definition).
    ``dedup`` gives µD: duplicates *within* each nested sequence are
    removed by value before unnesting.
    """

    def __init__(self, child: Operator, attr: str,
                 item_attrs: Sequence[str], dedup: bool = False,
                 preserve_empty: bool = False, origin=None):
        self.children = (child,)
        self.attr = attr
        self.item_attrs = tuple(item_attrs)
        self.dedup = dedup
        self.preserve_empty = preserve_empty
        self.origin = origin

    @property
    def child(self) -> Operator:
        return self.children[0]

    def attrs(self) -> frozenset[str]:
        return (self.child.attrs() - {self.attr}) | set(self.item_attrs)

    def params(self) -> tuple:
        return (self.attr, self.item_attrs, self.dedup,
                self.preserve_empty)

    def rebuild(self, children: tuple) -> "Unnest":
        return Unnest(children[0], self.attr, self.item_attrs,
                      dedup=self.dedup, preserve_empty=self.preserve_empty,
                      origin=self.origin)

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        result: list[Tup] = []
        for t in self.child.evaluate(ctx, env):
            rest = t.project_away([self.attr])
            items = self._items(t.get(self.attr))
            if not items:
                if self.preserve_empty:
                    result.append(rest.concat(null_tuple(self.item_attrs)))
                continue
            for item in items:
                result.append(rest.concat(self._as_tuple(item)))
        return result

    def _items(self, value: Any) -> list[Any]:
        items = iter_items(value)
        if not self.dedup:
            return items
        seen: set = set()
        unique: list[Any] = []
        for item in items:
            key = canonical_key(item)
            if key not in seen:
                seen.add(key)
                unique.append(item)
        return unique

    def _as_tuple(self, item: Any) -> Tup:
        if isinstance(item, Tup):
            return item
        if len(self.item_attrs) != 1:
            raise EvaluationError(
                f"µ[{self.attr}]: non-tuple item {item!r} but "
                f"{len(self.item_attrs)} item attributes declared")
        return Tup({self.item_attrs[0]: item})

    def label(self) -> str:
        name = "µD" if self.dedup else "µ"
        return f"{name}[{self.attr}]"


class Sort(Operator):
    """Stable sort on the atomized values of the listed attributes.

    Used to make groups consecutive before the group-detecting Ξ (the
    paper stresses the sort must be *stable* so that within a group the
    input (document) order survives) and by the ``order by`` extension.

    ``descending`` gives a per-attribute direction; ``None`` means all
    ascending.  Stability holds in either direction (descending keys are
    inverted rather than the sort reversed).
    """

    def __init__(self, child: Operator, attributes: Sequence[str],
                 descending: Sequence[bool] | None = None):
        self.children = (child,)
        self.attributes = tuple(attributes)
        if descending is None:
            self.descending: tuple[bool, ...] = (False,) * \
                len(self.attributes)
        else:
            self.descending = tuple(descending)
        if len(self.descending) != len(self.attributes):
            raise EvaluationError(
                "Sort: descending flags must match the attribute list")

    @property
    def child(self) -> Operator:
        return self.children[0]

    def attrs(self) -> frozenset[str]:
        return self.child.attrs()

    def params(self) -> tuple:
        return (self.attributes, self.descending)

    def rebuild(self, children: tuple) -> "Sort":
        return Sort(children[0], self.attributes, self.descending)

    def sort_tuple(self, t: Tup) -> tuple:
        """The comparison key for one tuple (shared with the engines
        so every execution mode orders identically)."""
        return tuple(
            _invert(sort_key(t[a])) if desc else sort_key(t[a])
            for a, desc in zip(self.attributes, self.descending))

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        rows = self.child.evaluate(ctx, env)
        return sorted(rows, key=self.sort_tuple)

    def label(self) -> str:
        keys = ", ".join(
            a + (" desc" if d else "")
            for a, d in zip(self.attributes, self.descending))
        return f"Sort[{keys}]"


class ElidedSort(Sort):
    """A Sort the optimizer proved redundant: its input is already
    sorted on the requested keys (see
    :mod:`repro.optimizer.elide_order`), so evaluation is the identity
    and no n·log n is paid.

    The operator is kept in the plan — rather than dropped — so that
    EXPLAIN, provenance and the cost model still see where the ordering
    obligation was discharged (``Sort[elided: …]``).  Under the order
    subsystem's debug switch (``REPRO_ORDER_DEBUG`` /
    ``properties.debug_checks``) every engine re-verifies the claim
    differentially: each adjacent pair of the actual tuple stream is
    compared under the original sort key, and a violation raises
    instead of silently reordering output.

    ``proof`` records what a *data-derived* elision rests on: the
    ``(document name, guarantee key)`` of the sortedness guarantee
    (:func:`repro.optimizer.properties.guarantee_key`).  A plan outlives
    the version it was compiled against — a session keeps it across
    content updates — so every execution asks the version it runs on
    (:meth:`proof_holds`; answered from the version's cache after the
    first ask), and an elided sort whose guarantee no longer holds
    *falls back to actually sorting* rather than silently mis-ordering.
    Structural elisions (≤1 row, sorted-prefix) carry no proof and stay
    unconditional.
    """

    def __init__(self, child: Operator, attributes: Sequence[str],
                 descending: Sequence[bool] | None = None,
                 proof: tuple[str, tuple] | None = None):
        super().__init__(child, attributes, descending)
        self.proof = proof

    def params(self) -> tuple:
        return (self.attributes, self.descending, self.proof)

    def rebuild(self, children: tuple) -> "ElidedSort":
        return ElidedSort(children[0], self.attributes, self.descending,
                          proof=self.proof)

    def _debug(self) -> bool:
        from repro.optimizer import properties
        return properties.debug_enabled()

    def proof_holds(self, ctx) -> bool:
        """Whether the guarantee the elision rests on holds in the
        document version ``ctx`` reads (always true for structural
        elisions)."""
        if self.proof is None:
            return True
        from repro.optimizer.properties import order_guarantee
        doc_name, key = self.proof
        return doc_name in ctx.store \
            and order_guarantee(ctx.store.get(doc_name), key)

    def _record_elision(self, ctx, taken: bool) -> None:
        # Metrics are request-scoped and optional (ctx may be any
        # evaluation context); elisions that streamed vs. elisions
        # forced back into a real sort are the order subsystem's
        # health signal.
        metrics = getattr(ctx, "metrics", None)
        if metrics is not None:
            metrics.counter("elision.sorts_taken" if taken
                            else "elision.sorts_forced").inc()

    def checked_rows(self, rows: list[Tup], ctx) -> list[Tup]:
        """Materialized identity pass (shared with the vectorized
        engine); verifies sortedness pairwise when debug checks are on,
        and sorts for real if its guarantee does not hold in this
        version."""
        if not self.proof_holds(ctx):
            self._record_elision(ctx, taken=False)
            return sorted(rows, key=self.sort_tuple)
        self._record_elision(ctx, taken=True)
        if self._debug():
            keys = list(map(self.sort_tuple, rows))
            for previous, key, t in zip(keys, keys[1:], rows[1:]):
                if key < previous:
                    raise EvaluationError(
                        f"elided sort {self.label()} received an "
                        f"unsorted stream at tuple {t!r} — the "
                        "order-property inference is wrong for this plan")
        return rows

    def evaluate(self, ctx, env: Tup = EMPTY_TUPLE) -> list[Tup]:
        return self.checked_rows(self.child.evaluate(ctx, env), ctx)

    def label(self) -> str:
        keys = ", ".join(
            a + (" desc" if d else "")
            for a, d in zip(self.attributes, self.descending))
        return f"Sort[elided: {keys}]"


class _Inverted:
    """Wrapper inverting the order of a sort key (descending sort that
    keeps the underlying sort stable).

    Hashable and consistent with ``__eq__`` so that an instance can
    never poison a hash-based operator: sort keys are built from
    :func:`~repro.nal.values.sort_key` tuples, which are hashable, and
    two inverted keys are equal exactly when the wrapped keys are.
    (Descending ties stay stable because the *key* is inverted rather
    than the sort reversed.)"""

    __slots__ = ("key",)

    def __init__(self, key: tuple):
        self.key = key

    def __lt__(self, other: "_Inverted") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Inverted) and self.key == other.key

    def __hash__(self) -> int:
        return hash(("_Inverted", self.key))


def _invert(key: tuple) -> _Inverted:
    return _Inverted(key)
