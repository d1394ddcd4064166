"""Kernels of the batch engine: hash-based, order-preserving
algorithms — row kernels for the joins, column kernels for grouping,
ΠD, Sort and µ.

The reference semantics in :mod:`repro.nal` transcribe the paper's
recursive definitions (binary operators are nested loops).  These are
the algorithms a real system would run — the paper's Natix executes
unnested plans with a Grace hash join plus an order-restoring sort; we
use the equivalent *order-preserving hash join* (build a hash table on
the right input, probe in left order, emit matches in right order),
which produces exactly the left-major sequence the join definition
σ_p(e1 × e2) prescribes, in O(|e1| + |e2| + |output|).

Hash probes are NULL-guarded: ``compare_atomic`` makes NULL equal to
nothing (itself included), while ``canonical_key(NULL)`` necessarily
hashes all NULLs together, so a key tuple containing NULL must neither
probe nor be probed (see :func:`probe_keys`).

Hash keys are built *column-wise*: :func:`probe_keys` turns the key
columns of a :class:`~repro.engine.batch.Batch` into one key per row
(:func:`~repro.engine.batch.key_column`), and a node-valued
:class:`~repro.engine.batch.NodeColumn` is keyed straight off the
arena's string-value kernel, once per arena version — no handle, no
``Tup``.
Every hash operator builds through it (:func:`_hash_buckets`); a
semijoin/antijoin whose predicate is bare equalities never looks at a
row at all (:func:`semi_anti_selection`).

The join kernels (⋈, ⟕, binary Γ, a ⋉/▷ with a residual) take
batches and return materialized rows: their output pairs whole tuples.
The kernels under unary Γ, ΓSelf, ΠD, Sort and µ / µD never see a
tuple: key columns go in, and what comes out is dense group ids and
first rows (:func:`group_ids`), one aggregate value per group
(:func:`group_values`), a permutation (:func:`sort_permutation`) or
item owners (:func:`unnest_batch`) for ``Batch.take`` / ``replicate``.
This is the one place the hard semantics of the hash operators live —
NULL and NaN keys, boolean coercion, mixed-type keys — for top-level
plans and, through :func:`~repro.engine.pipeline.stream_plan`'s batch
arm, for the blocking operators of nested subscript plans alike.

Crucially, *nested algebraic expressions keep their shape under this
layer*: a χ or σ whose subscript contains a
:class:`~repro.nal.scalar.NestedPlan` or quantifier re-evaluates the
inner plan once per outer tuple no matter how clever the outer
operators are.  What the engine decides is only what each of those
runs costs: a boolean subscript stops at its first witness (residual
predicates are tested through
:func:`~repro.engine.pipeline.boolean_subscript`), a value subscript's
plan runs on these same kernels.  The asymmetry — quadratic work for
nested plans, linear work after unnesting — is the paper's
experimental story, and it is now a gap between plans on one engine.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress

from repro.engine.batch import (
    Batch,
    NodeColumn,
    SeqColumn,
    _take,
    key_column,
    numeric_column,
)
from repro.engine.pipeline import boolean_subscript
from repro.nal.algebra import scalar_env
from repro.nal.functions import call_function
from repro.nal.group_ops import AggSpec, GroupBinary
from repro.nal.join_ops import Join, OuterJoin
from repro.nal.scalar import AttrRef, Comparison, ScalarExpr, conjuncts
from repro.nal.unary_ops import Sort, Unnest, _invert
from repro.nal.values import (
    NULL,
    Tup,
    canonical_key,
    general_compare,
    iter_items,
    null_tuple,
    sort_key,
    text_sort_key,
)

#: the tree position of a plan's root operator: EXPLAIN ANALYZE counts,
#: spans and metrics key every operator by its pre-order path of child
#: indices from the root (``(0, 1)`` is the second child of the first
#: child), so an operator instance shared between two positions of a
#: rewritten tree reports each position separately
ROOT_PATH: tuple[int, ...] = ()


# ----------------------------------------------------------------------
# Equi-join detection
# ----------------------------------------------------------------------
def split_equi_conjuncts(pred: ScalarExpr, left_attrs: frozenset[str],
                         right_attrs: frozenset[str]
                         ) -> tuple[list[tuple[str, str]],
                                    list[ScalarExpr]]:
    """Split a join predicate into hashable equality pairs
    ``(left_attr, right_attr)`` and residual conjuncts."""
    pairs: list[tuple[str, str]] = []
    residual: list[ScalarExpr] = []
    for conjunct in conjuncts(pred):
        pair = _as_equi_pair(conjunct, left_attrs, right_attrs)
        if pair is not None:
            pairs.append(pair)
        else:
            residual.append(conjunct)
    return pairs, residual


def _as_equi_pair(conjunct: ScalarExpr, left_attrs: frozenset[str],
                  right_attrs: frozenset[str]) -> tuple[str, str] | None:
    if not isinstance(conjunct, Comparison) or conjunct.op != "=":
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(left, AttrRef) and isinstance(right, AttrRef):
        if left.name in left_attrs and right.name in right_attrs:
            return (left.name, right.name)
        if right.name in left_attrs and left.name in right_attrs:
            return (right.name, left.name)
    return None


_NULL_KEY = canonical_key(NULL)


def _zip_rows(columns: list[list], count: int) -> list[tuple]:
    return list(zip(*columns)) if columns else [()] * count


def row_keys(batch: Batch, attrs) -> list[tuple]:
    """The key of every row of ``batch`` over ``attrs``: one
    ``canonical_key`` per attribute, built column-wise."""
    return _zip_rows([key_column(batch.column(a)) for a in attrs],
                     len(batch))


def probe_keys(batch: Batch, attrs: list[str]) -> list[tuple | None]:
    """The hash key of every row of ``batch`` over ``attrs``, or None
    where any component is NULL — NULL equals nothing under
    ``compare_atomic``, so NULL keys must neither enter a hash table
    nor probe it."""
    return [None if _NULL_KEY in key else key
            for key in row_keys(batch, attrs)]


def matches_nothing(key: tuple) -> bool:
    """Whether a row key holds a component that ``=`` nothing, itself
    included: NULL or NaN.  Such rows still form groups (distinctness
    is by canonical key) but no row is a member of them."""
    for part in key:
        if part[0] == "null" or part[0] == "n" and part[1] != part[1]:
            return True
    return False


def _hash_buckets(batch: Batch, attrs: list[str]
                  ) -> dict[tuple, list[Tup]]:
    buckets: dict[tuple, list[Tup]] = {}
    for row, key in zip(batch.to_rows(), probe_keys(batch, attrs)):
        if key is not None:
            buckets.setdefault(key, []).append(row)
    return buckets


def _residual_ok(residual: list[ScalarExpr], combined: Tup, env: Tup,
                 ctx) -> bool:
    bound = scalar_env(env, combined)
    return all(boolean_subscript(r, bound, ctx) for r in residual)


# ----------------------------------------------------------------------
# Hash-based joins
# ----------------------------------------------------------------------
def join_rows(plan: Join, left: Batch, right: Batch, env: Tup,
              ctx) -> list[Tup]:
    """Order-preserving hash join of two batches."""
    pairs, residual = split_equi_conjuncts(
        plan.pred, plan.left.attrs(), plan.right.attrs())
    result = []
    if pairs:
        buckets = _hash_buckets(right, [p[1] for p in pairs])
        keys = probe_keys(left, [p[0] for p in pairs])
        for l, key in zip(left.to_rows(), keys):
            if key is None:
                continue
            for r in buckets.get(key, ()):
                combined = l.concat(r)
                if _residual_ok(residual, combined, env, ctx):
                    result.append(combined)
    else:
        right_rows = right.to_rows()
        for l in left.to_rows():
            for r in right_rows:
                combined = l.concat(r)
                if _residual_ok([plan.pred], combined, env, ctx):
                    result.append(combined)
    return result


def semi_anti_selection(plan, left: Batch, right: Batch,
                        keep_matched: bool) -> list[int] | None:
    """The left rows a ⋉ (``keep_matched``) / ▷ keeps, as a selection
    over ``left`` — computed on the key columns alone when the
    predicate is bare equalities (what the rewriter's pushed ⋉/▷
    alternatives carry), or None when a residual needs the combined
    tuples (:func:`semi_anti_rows`)."""
    pairs, residual = split_equi_conjuncts(
        plan.pred, plan.left.attrs(), plan.right.attrs())
    if not pairs or residual:
        return None
    present = set(probe_keys(right, [p[1] for p in pairs]))
    present.discard(None)
    keys = probe_keys(left, [p[0] for p in pairs])
    return [i for i, key in enumerate(keys)
            if (key in present) == keep_matched]


def semi_anti_rows(plan, left: Batch, right: Batch, env: Tup, ctx,
                   keep_matched: bool) -> list[Tup]:
    """Hash semi/anti join with a residual predicate."""
    pairs, residual = split_equi_conjuncts(
        plan.pred, plan.left.attrs(), plan.right.attrs())
    result = []
    if pairs:
        buckets = _hash_buckets(right, [p[1] for p in pairs])
        keys = probe_keys(left, [p[0] for p in pairs])
        for l, key in zip(left.to_rows(), keys):
            matched = key is not None and any(
                _residual_ok(residual, l.concat(r), env, ctx)
                for r in buckets.get(key, ()))
            if matched == keep_matched:
                result.append(l)
    else:
        right_rows = right.to_rows()
        for l in left.to_rows():
            matched = any(
                _residual_ok([plan.pred], l.concat(r), env, ctx)
                for r in right_rows)
            if matched == keep_matched:
                result.append(l)
    return result


def outer_join_rows(plan: OuterJoin, left: Batch, right: Batch,
                    env: Tup, ctx) -> list[Tup]:
    """Order-preserving hash outer join of two batches."""
    pairs, residual = split_equi_conjuncts(
        plan.pred, plan.left.attrs(), plan.right.attrs())
    pad_attrs = [a for a in plan.right.attrs() if a != plan.group_attr]
    left_rows = left.to_rows()
    if pairs:
        buckets = _hash_buckets(right, [p[1] for p in pairs])
        candidates = [buckets.get(key, ()) for key in
                      probe_keys(left, [p[0] for p in pairs])]
    else:
        residual = [plan.pred]
        candidates = [right.to_rows()] * len(left_rows)
    result = []
    for l, matches in zip(left_rows, candidates):
        matched = False
        for r in matches:
            combined = l.concat(r)
            if _residual_ok(residual, combined, env, ctx):
                result.append(combined)
                matched = True
        if not matched:
            default_value = plan.default.evaluate(scalar_env(env, l), ctx)
            result.append(l.concat(null_tuple(pad_attrs))
                           .extend(plan.group_attr, default_value))
    return result


# ----------------------------------------------------------------------
# Grouping, ΠD, Sort and µ on key columns (blocking in every engine)
# ----------------------------------------------------------------------
def group_ids(keys: list) -> tuple[list[int], list[int]]:
    """Dense group ids for a column of hashable keys, numbered in
    first-occurrence order, and the first row of every group — the one
    kernel under Γ (θ ``=``), ΓSelf, ΠD and µD's duplicate removal."""
    index: dict = {}
    ids = [index.setdefault(key, len(index)) for key in keys]
    # walking backwards, the last write per id is its earliest row
    first = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
    return ids, [first[group] for group in range(len(index))]


def group_values(agg: AggSpec, batch: Batch, ids: list[int], groups: int,
                 mask: list[bool] | None) -> list:
    """``agg`` of every group (``AggSpec.apply``, for all groups at
    once): ``ids[i]`` is the group of row ``i``, ``mask`` the
    aggregate's σ decided per row (None: no filter).  A group without
    rows gets f(ε).

    ``min`` / ``max`` / ``sum`` / ``avg`` of a column that is one
    number per row fold each group's floats, in row order, with the
    builtin ``min`` / ``max`` / ``sum`` that ``fn_min`` / ``fn_max`` /
    ``fn_sum`` / ``fn_avg`` apply to ``_numbers`` — so NaN, ±0.0 and
    summation order come out identical; any other column takes
    ``call_function`` per group, which also raises the proper
    errors."""
    rows = range(len(ids))
    if mask is not None:
        rows, ids = list(compress(rows, mask)), list(compress(ids, mask))
    if agg.kind == "count":
        tally = Counter(ids)
        return [tally[group] for group in range(groups)]
    column = batch.to_rows() if agg.kind == "id" \
        else batch.column(agg.attr)
    fold = _NUMBER_FOLDS.get(agg.kind)
    if fold is not None:
        # numeric_column never yields a boolean; None is an empty row
        numbers = numeric_column(column)
        if numbers is None or None in numbers:
            fold = None
        else:
            column = list(map(float, numbers))
    members: list[list] = [[] for _ in range(groups)]
    for group, row in zip(ids, rows):
        members[group].append(column[row])
    if fold is not None:
        return list(map(fold, members))
    if agg.kind == "id":
        return members
    if agg.kind == "project":
        return [[Tup.adopt({agg.attr: value}) for value in group]
                for group in members]
    return [call_function(agg.kind, [group]) for group in members]


#: the number-column folds of :func:`group_values`: f of one group's
#: floats, f(ε) for an empty group
_NUMBER_FOLDS = {
    "min": lambda numbers: min(numbers) if numbers else NULL,
    "max": lambda numbers: max(numbers) if numbers else NULL,
    "sum": sum,
    "avg": lambda numbers: sum(numbers) / len(numbers) if numbers else NULL,
}


def sort_permutation(plan: Sort, batch: Batch) -> list[int]:
    """The row order ``sorted(rows, key=plan.sort_tuple)`` puts the
    batch in — stable, so equal keys keep their input order — with the
    keys built once per column instead of once per row and attribute."""
    columns = []
    for attr, descending in zip(plan.attributes, plan.descending):
        values = batch.column(attr)
        keys = map(text_sort_key, values.string_values()) \
            if type(values) is NodeColumn else map(sort_key, values)
        columns.append(list(map(_invert, keys) if descending else keys))
    keys = _zip_rows(columns, len(batch))
    return sorted(range(len(batch)), key=keys.__getitem__)


def unnest_batch(plan: Unnest, batch: Batch) -> Batch:
    """µ / µD: one output row per item of the sequence-valued
    attribute.  Works on the flat form — item columns plus each item's
    owning row — which a :class:`SeqColumn` already is; any other
    column (groups, nested-plan results) is flattened into it first."""
    sequences = batch.column(plan.attr)
    if type(sequences) is SeqColumn \
            and plan.item_attrs == (sequences.attr,):
        owners, columns = sequences.owners, [sequences.items]
    else:
        owners, columns = [], [[] for _ in plan.item_attrs]
        for row, value in enumerate(sequences):
            for item in map(plan._as_tuple, iter_items(value)):
                owners.append(row)
                for column, attr in zip(columns, plan.item_attrs):
                    column.append(item[attr])
    if plan.dedup:  # by value, inside each owner
        _, keep = group_ids(list(zip(owners, *map(key_column, columns))))
        owners = [owners[i] for i in keep]
        columns = [_take(column, keep) for column in columns]
    empty = sorted(set(range(len(batch))).difference(owners)) \
        if plan.preserve_empty else []
    if empty:  # ⊥-padded rows, merged back into input order
        merged = owners + empty
        order = sorted(range(len(merged)), key=merged.__getitem__)
        owners = [merged[i] for i in order]
        columns = [_take(list(column) + [NULL] * len(empty), order)
                   for column in columns]
    result = batch.project_away((plan.attr,)).take(owners)
    for attr, column in zip(plan.item_attrs, columns):
        result = result.with_column(attr, column)
    return result


def group_binary_rows(plan: GroupBinary, left: Batch, right: Batch,
                      env: Tup, ctx) -> list[Tup]:
    """Hash implementation of the binary Γ (nest-join)."""
    left_rows = left.to_rows()
    if plan.theta == "=":
        buckets = _hash_buckets(right, list(plan.right_attrs))
        keys = probe_keys(left, list(plan.left_attrs))
        return [l.extend(plan.group_attr,
                         plan.agg.apply(buckets.get(key, []), env, ctx))
                for l, key in zip(left_rows, keys)]
    right_rows = right.to_rows()
    result = []
    for l in left_rows:
        group = [r for r in right_rows
                 if all(general_compare(l[a], plan.theta, r[b])
                        for a, b in zip(plan.left_attrs,
                                        plan.right_attrs))]
        result.append(l.extend(plan.group_attr,
                               plan.agg.apply(group, env, ctx)))
    return result
