"""The unnesting equivalences (Fig. 4 + Eqvs. 8/9) as guarded rewrites.

Each rule has a *matcher* that recognizes the left-hand side in a plan
and a *builder* that constructs the right-hand side, guarded by the side
conditions of :mod:`repro.optimizer.conditions`.

Matched shapes (produced by the translator from normalized queries):

- χ sites (Eqvs. 1–5)::

      Map(e1, g, [agg](NestedPlan(Project_cols(Select(e2, pred)))))

  where ``pred`` contains exactly one correlation conjunct — either
  ``A1 θ A2`` (attribute of e1 vs. attribute of e2) or ``A1 ∈ a2`` (a2 a
  sequence-valued attribute of e2) — and any further conjuncts reference
  e2 only (they are pushed into e2 as a σ).

- σ-quantifier sites (Eqvs. 6/7)::

      Select(e1, ∃/∀ x ∈ NestedPlan(Project_[x'](Select(e2, pred))): p)

Eqvs. 8/9 then rewrite the resulting semijoin/antijoin into a counting
grouping when the left operand provably equals the distinct projection of
the right; the §5.4 *self* variant recognizes that the two operands are
the same scan and collapses them into one pass (``SelfGroup``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nal.algebra import Operator
from repro.nal.construct import Construct, GroupConstruct, Lit, Out
from repro.nal.functions import AGGREGATE_FUNCTIONS
from repro.nal.group_ops import AggSpec, GroupBinary, GroupUnary, SelfGroup
from repro.nal.join_ops import AntiJoin, OuterJoin, SemiJoin
from repro.nal.scalar import (
    AttrRef,
    Comparison,
    Const,
    Exists,
    Forall,
    FuncCall,
    In,
    NestedPlan,
    ScalarExpr,
    TRUE,
    conjuncts,
    make_conjunction,
    negate,
    rename_attrs,
)
from repro.nal.unary_ops import (
    Map,
    Project,
    ProjectAway,
    Rename,
    Select,
    Sort,
    Unnest,
)
from repro.optimizer import conditions
from repro.optimizer.provenance import attr_origin, pure_scan_signature
from repro.xmldb.document import DocumentStore

_FLIP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def fresh_attr(base: str, taken: frozenset[str]) -> str:
    if base not in taken:
        return base
    i = 2
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


# ======================================================================
# χ sites — Eqvs. 1–5
# ======================================================================
@dataclass
class MapSite:
    """A matched nested χ."""

    map_op: Map
    e1: Operator
    group_attr: str
    agg: AggSpec
    e2: Operator               # residual conjuncts already pushed as σ
    e2_base: Operator          # e2 without the residual σ
    corr_kind: str             # "theta" | "in"
    theta: str                 # normalized to: outer θ inner
    outer_attr: str
    inner_attr: str            # A2, or the sequence attribute for "in"
    item_attr: str | None      # the e[a] item attribute for "in"
    inner_origin: object       # ColumnOrigin of the values grouped on


def match_map_site(map_op: Map) -> MapSite | None:
    """Recognize the left-hand side of Eqvs. 1–5."""
    expr = map_op.expr
    agg_name: str | None = None
    if isinstance(expr, FuncCall) and expr.name in AGGREGATE_FUNCTIONS \
            and len(expr.args) == 1 and isinstance(expr.args[0],
                                                   NestedPlan):
        agg_name = expr.name
        inner = expr.args[0].plan
    elif isinstance(expr, NestedPlan):
        inner = expr.plan
    else:
        return None

    project_col: str | None = None
    core = inner
    if isinstance(core, Project) and len(core.attributes) == 1:
        project_col = core.attributes[0]
        core = core.children[0]
    if not isinstance(core, Select):
        return None
    e2 = core.children[0]
    pred = core.pred
    e1 = map_op.children[0]
    e1_attrs = e1.attrs()
    e2_attrs = e2.attrs()

    correlation = None
    residual: list[ScalarExpr] = []
    for conjunct in conjuncts(pred):
        free = conjunct.free_attrs()
        if free & e1_attrs:
            if correlation is not None:
                return None  # more than one correlation conjunct
            correlation = conjunct
        elif free <= e2_attrs:
            residual.append(conjunct)
        else:
            return None
    if correlation is None:
        return None
    if not conditions.independent(e2, e1_attrs):
        return None

    corr = _normalize_correlation(correlation, e1_attrs, e2_attrs)
    if corr is None:
        return None
    corr_kind, theta, outer_attr, inner_attr = corr

    agg = _make_agg(agg_name, project_col)
    if agg is None:
        return None

    item_attr = None
    inner_origin = None
    if corr_kind == "in":
        seq_map = _find_defining_map(e2, inner_attr)
        if seq_map is None or seq_map.item_attr is None:
            return None
        item_attr = seq_map.item_attr
        inner_origin = seq_map.origin
        if not conditions.f_independent(agg, {inner_attr, item_attr}):
            return None
    else:
        inner_origin = attr_origin(e2, inner_attr)

    e2_filtered = Select(e2, make_conjunction(residual)) if residual \
        else e2
    return MapSite(map_op, e1, map_op.attr, agg, e2_filtered, e2,
                   corr_kind, theta, outer_attr, inner_attr, item_attr,
                   inner_origin)


def _normalize_correlation(conjunct: ScalarExpr,
                           e1_attrs: frozenset[str],
                           e2_attrs: frozenset[str]):
    if isinstance(conjunct, Comparison):
        left, right = conjunct.left, conjunct.right
        if not (isinstance(left, AttrRef) and isinstance(right, AttrRef)):
            return None
        if left.name in e1_attrs and right.name in e2_attrs:
            return ("theta", conjunct.op, left.name, right.name)
        if right.name in e1_attrs and left.name in e2_attrs:
            return ("theta", _FLIP[conjunct.op], right.name, left.name)
        return None
    if isinstance(conjunct, In):
        if not (isinstance(conjunct.item, AttrRef)
                and isinstance(conjunct.seq, AttrRef)):
            return None
        if conjunct.item.name in e1_attrs and \
                conjunct.seq.name in e2_attrs:
            return ("in", "=", conjunct.item.name, conjunct.seq.name)
    return None


def _make_agg(agg_name: str | None, project_col: str | None
              ) -> AggSpec | None:
    if agg_name is None:
        if project_col is not None:
            return AggSpec("project", project_col)
        return AggSpec("id")
    if agg_name == "count":
        return AggSpec("count")
    if project_col is not None:
        return AggSpec(agg_name, project_col)
    return None


def _find_defining_map(plan: Operator, attr: str) -> Map | None:
    for node in plan.walk():
        if isinstance(node, Map) and node.attr == attr:
            return node
    return None


# ----------------------------------------------------------------------
# Builders for Eqvs. 1–5
# ----------------------------------------------------------------------
def apply_eqv1(site: MapSite) -> Operator:
    """χ_{g:f(σ_{A1θA2}(e2))}(e1) = e1 Γ_{g;A1θA2;f} e2."""
    if site.corr_kind != "theta":
        raise_not_applicable("eqv1", "requires a θ correlation")
    return GroupBinary(site.e1, site.e2, site.group_attr,
                       [site.outer_attr], site.theta, [site.inner_attr],
                       site.agg)


def apply_eqv2(site: MapSite) -> Operator:
    """The outer-join form for equality correlations (Eqv. 2)."""
    if site.corr_kind != "theta" or site.theta != "=":
        raise_not_applicable("eqv2", "requires an equality correlation")
    return _outer_join_form(site, site.e2, site.inner_attr)


def apply_eqv4(site: MapSite) -> Operator:
    """The outer-join form for ∈ correlations (Eqv. 4): unnest the
    sequence attribute with µD first."""
    if site.corr_kind != "in":
        raise_not_applicable("eqv4", "requires an ∈ correlation")
    unnested = _unnest_sequence(site)
    return _outer_join_form(site, unnested, site.item_attr)


def _outer_join_form(site: MapSite, right_input: Operator,
                     key_attr: str) -> Operator:
    grouped = GroupUnary(right_input, site.group_attr, [key_attr], "=",
                         site.agg)
    join_pred = Comparison(AttrRef(site.outer_attr), "=",
                           AttrRef(key_attr))
    joined = OuterJoin(site.e1, grouped, join_pred, site.group_attr,
                       Const(site.agg.empty_value()))
    return ProjectAway(joined, [key_attr])


def eqv3_applicable(site: MapSite, store: DocumentStore,
                    needed: frozenset[str]) -> bool:
    if site.corr_kind != "theta":
        return False
    if not needed - {site.group_attr} <= {site.outer_attr}:
        return False
    outer_origin = attr_origin(site.e1, site.outer_attr)
    return conditions.distinct_projection_holds(
        outer_origin, site.inner_origin, store)


def apply_eqv3(site: MapSite, store: DocumentStore,
               needed: frozenset[str]) -> Operator:
    """χ_{g:f(σ_{A1θA2}(e2))}(e1) = Π_{A1:A2}(Γ_{g;θA2;f}(e2)) when e1 is
    the distinct projection of e2's column."""
    if not eqv3_applicable(site, store, needed):
        raise_not_applicable("eqv3", "side condition not established")
    outer_origin = attr_origin(site.e1, site.outer_attr)
    group_input, key_attr = _atomized_key(site.e2, site.inner_attr,
                                          site.inner_origin, outer_origin)
    grouped = GroupUnary(group_input, site.group_attr, [key_attr],
                         site.theta, site.agg)
    return Rename(grouped, {key_attr: site.outer_attr})


def eqv5_applicable(site: MapSite, store: DocumentStore,
                    needed: frozenset[str]) -> bool:
    if site.corr_kind != "in":
        return False
    if not needed - {site.group_attr} <= {site.outer_attr}:
        return False
    outer_origin = attr_origin(site.e1, site.outer_attr)
    return conditions.distinct_projection_holds(
        outer_origin, site.inner_origin, store)


def apply_eqv5(site: MapSite, store: DocumentStore,
               needed: frozenset[str]) -> Operator:
    """The pure-grouping form for ∈ correlations (Eqv. 5) — the rewrite
    whose missing side condition the paper highlights."""
    if not eqv5_applicable(site, store, needed):
        raise_not_applicable("eqv5", "side condition not established")
    unnested = _unnest_sequence(site)
    outer_origin = attr_origin(site.e1, site.outer_attr)
    group_input, key_attr = _atomized_key(unnested, site.item_attr,
                                          site.inner_origin, outer_origin)
    grouped = GroupUnary(group_input, site.group_attr, [key_attr], "=",
                         site.agg)
    return Rename(grouped, {key_attr: site.outer_attr})


def _unnest_sequence(site: MapSite) -> Operator:
    """µD over the sequence attribute (value-level dedup per tuple)."""
    assert site.item_attr is not None
    return Unnest(site.e2, site.inner_attr, [site.item_attr], dedup=True,
                  origin=site.inner_origin)


def _atomized_key(group_input: Operator, inner_attr: str, inner_origin,
                  outer_origin) -> tuple[Operator, str]:
    """When the outer column holds atomized values (``distinct-values``)
    but the inner column holds nodes, the grouping key — which *replaces*
    the outer column under Eqvs. 3/5/8/9 — must be atomized, or result
    construction would serialize whole elements where the original plan
    printed string values."""
    inner_is_values = inner_origin is not None and inner_origin.values
    outer_is_values = outer_origin is not None and outer_origin.values
    if not outer_is_values or inner_is_values:
        return group_input, inner_attr
    key_attr = fresh_attr(f"{inner_attr}_v", group_input.attrs())
    atomized = Map(group_input, key_attr,
                   FuncCall("string", [AttrRef(inner_attr)]))
    return atomized, key_attr


# ======================================================================
# σ-quantifier sites — Eqvs. 6/7
# ======================================================================
@dataclass
class QuantifierSite:
    select_op: Select
    e1: Operator
    e2: Operator
    kind: str                   # "some" | "every"
    corr: Comparison            # outer = inner
    outer_attr: str
    inner_attr: str
    residual: list[ScalarExpr]  # inner-only conjuncts of the range
    satisfies: ScalarExpr       # p' (variable already renamed to x')


def match_quantifier_site(select_op: Select) -> QuantifierSite | None:
    pred = select_op.pred
    if not isinstance(pred, (Exists, Forall)):
        return None
    if not isinstance(pred.source, NestedPlan):
        return None
    inner = pred.source.plan
    if not isinstance(inner, Project) or len(inner.attributes) != 1:
        return None
    proj_attr = inner.attributes[0]
    core = inner.children[0]
    if not isinstance(core, Select):
        return None
    e2 = core.children[0]
    e1 = select_op.children[0]
    e1_attrs = e1.attrs()
    e2_attrs = e2.attrs()

    correlation = None
    residual: list[ScalarExpr] = []
    for conjunct in conjuncts(core.pred):
        free = conjunct.free_attrs()
        if free & e1_attrs:
            if correlation is not None:
                return None
            correlation = conjunct
        elif free <= e2_attrs:
            residual.append(conjunct)
        else:
            return None
    if correlation is None:
        return None
    corr = _normalize_correlation(correlation, e1_attrs, e2_attrs)
    if corr is None or corr[0] != "theta" or corr[1] != "=":
        return None
    if not conditions.independent(e2, e1_attrs):
        return None

    satisfies = rename_attrs(pred.pred, {pred.var: proj_attr})
    kind = "some" if isinstance(pred, Exists) else "every"
    return QuantifierSite(select_op, e1, e2, kind,
                          Comparison(AttrRef(corr[2]), "=",
                                     AttrRef(corr[3])),
                          corr[2], corr[3], residual, satisfies)


def apply_eqv6(site: QuantifierSite) -> Operator:
    """σ_{∃x∈Πx'(σ_{A1=A2}(e2)) p}(e1) = e1 ⋉_{A1=A2 ∧ p'} e2."""
    if site.kind != "some":
        raise_not_applicable("eqv6", "requires an existential quantifier")
    parts: list[ScalarExpr] = [site.corr, *site.residual]
    if site.satisfies != TRUE:
        parts.append(site.satisfies)
    return SemiJoin(site.e1, site.e2, make_conjunction(parts))


def apply_eqv7(site: QuantifierSite) -> Operator:
    """σ_{∀x∈Πx'(σ_{A1=A2}(e2)) p}(e1) = e1 ▷_{A1=A2 ∧ ¬p'} e2."""
    if site.kind != "every":
        raise_not_applicable("eqv7", "requires a universal quantifier")
    parts: list[ScalarExpr] = [site.corr, *site.residual,
                               negate(site.satisfies)]
    return AntiJoin(site.e1, site.e2, make_conjunction(parts))


# ======================================================================
# Predicate pushdown into semijoin/antijoin operands
# ======================================================================
def push_into_right(join) -> Operator:
    """e1 ⋉_{c ∧ q} e2 = e1 ⋉_c σ_q(e2) when F(q) ⊆ A(e2); same for ▷.

    Applied to every ⋉/▷ the rewriter emits (the paper's §5.5 hand
    push): the filter runs once over e2 instead of once per probe, and
    the remaining predicate is what the engines hash on.  It is also
    the left-hand side Eqvs. 8/9 match: ⋉/▷ over σ_p(e2)."""
    assert isinstance(join, (SemiJoin, AntiJoin))
    right_attrs = join.children[1].attrs()
    keep: list[ScalarExpr] = []
    push: list[ScalarExpr] = []
    for conjunct in conjuncts(join.pred):
        if conjunct.free_attrs() <= right_attrs:
            push.append(conjunct)
        else:
            keep.append(conjunct)
    if not push:
        return join
    new_right = Select(join.children[1], make_conjunction(push))
    cls = type(join)
    return cls(join.children[0], new_right, make_conjunction(keep))


# ======================================================================
# Eqvs. 8/9 — semijoin/antijoin to counting grouping
# ======================================================================
def _split_counted(join):
    """Decompose a (pushed-down) ⋉/▷ into (e2, filter, outer, inner)
    when its predicate is a single equality correlation."""
    parts = conjuncts(join.pred)
    if len(parts) != 1 or not isinstance(parts[0], Comparison) \
            or parts[0].op != "=":
        return None
    corr = parts[0]
    if not (isinstance(corr.left, AttrRef)
            and isinstance(corr.right, AttrRef)):
        return None
    left_attrs = join.children[0].attrs()
    right = join.children[1]
    if corr.left.name in left_attrs:
        outer, inner = corr.left.name, corr.right.name
    elif corr.right.name in left_attrs:
        outer, inner = corr.right.name, corr.left.name
    else:
        return None
    filter_pred: ScalarExpr | None = None
    e2 = right
    if isinstance(right, Select):
        filter_pred = right.pred
        e2 = right.children[0]
    return e2, filter_pred, outer, inner


def eqv89_applicable(join, store: DocumentStore,
                     needed: frozenset[str]) -> bool:
    parts = _split_counted(join)
    if parts is None:
        return False
    e2, _, outer, inner = parts
    if not needed <= {outer}:
        return False
    outer_origin = attr_origin(join.children[0], outer)
    if not conditions.duplicate_free(outer_origin):
        return False
    inner_origin = attr_origin(e2, inner)
    return conditions.distinct_projection_holds(outer_origin,
                                                inner_origin, store)


def apply_eqv8_or_9(join, store: DocumentStore,
                    needed: frozenset[str]) -> Operator:
    """ΠD(e1) ⋉_{A1=A2} σ_p(e2) = σ_{c>0}(Π_{A1:A2}(Γ_{c;=A2;count∘σp}(e2)))
    and the c=0 antijoin counterpart (Eqvs. 8/9)."""
    if not eqv89_applicable(join, store, needed):
        raise_not_applicable("eqv8/9", "side condition not established")
    e2, filter_pred, outer, inner = _split_counted(join)
    outer_origin = attr_origin(join.children[0], outer)
    inner_origin = attr_origin(e2, inner)
    group_input, key_attr = _atomized_key(e2, inner, inner_origin,
                                          outer_origin)
    count_attr = fresh_attr("c", group_input.attrs()
                            | join.children[0].attrs())
    agg = AggSpec("count", filter_pred=filter_pred)
    grouped = GroupUnary(group_input, count_attr, [key_attr], "=", agg)
    renamed = Rename(grouped, {key_attr: outer})
    op = ">" if isinstance(join, SemiJoin) else "="
    return Select(renamed,
                  Comparison(AttrRef(count_attr), op, Const(0)))


# ----------------------------------------------------------------------
# The §5.4 self variant: semijoin of a scan with (a filter of) itself
# ----------------------------------------------------------------------
def self_group_applicable(join) -> bool:
    return _self_group_mapping(join) is not None


def _self_group_mapping(join) -> dict[str, str] | None:
    if not isinstance(join, SemiJoin):
        return None
    parts = _split_counted(join)
    if parts is None:
        return None
    e2, _, outer, inner = parts
    left_sig = pure_scan_signature(join.children[0])
    right_sig = pure_scan_signature(e2)
    if left_sig is None or right_sig is None:
        return None
    if len(left_sig) != len(right_sig):
        return None
    mapping: dict[str, str] = {}
    for (lk, lattr, lorigin), (rk, rattr, rorigin) in zip(left_sig,
                                                          right_sig):
        if lk != rk or lorigin != rorigin:
            return None
        mapping[rattr] = lattr
    if mapping.get(inner) != outer:
        return None
    return mapping


def apply_self_group(join) -> Operator:
    """e1 ⋉_{A1=A2} σ_p(e2) with e1 ≅ e2 (same pure scan, renamed):
    σ_{c>0}(ΓSelf_{c;=A1;count∘σ_{p[A2→A1]}}(e1)) — one scan instead of
    two (the paper's §5.4 "grouping" plan; see DESIGN.md E4)."""
    mapping = _self_group_mapping(join)
    if mapping is None:
        raise_not_applicable("self-group",
                             "operands are not the same pure scan")
    e2, filter_pred, outer, _inner = _split_counted(join)
    del e2
    renamed_filter = None if filter_pred is None else \
        rename_attrs(filter_pred, mapping)
    e1 = join.children[0]
    count_attr = fresh_attr("c", e1.attrs())
    agg = AggSpec("count", filter_pred=renamed_filter)
    grouped = SelfGroup(e1, count_attr, [outer], agg)
    return Select(grouped, Comparison(AttrRef(count_attr), ">", Const(0)))


# ======================================================================
# Γ + Ξ fusion into the group-detecting Ξ
# ======================================================================
def fuse_group_construct(plan: Operator) -> Operator | None:
    """Ξ_{s1;Out(g);s3}(Π_{A1:A2}(Γ_{g;=A2;Π_col}(e2))) =
    s1' Ξ^{s3}_{A2; Out(col)}(Sort_{A2}(e2)).

    The group-detecting Ξ saves materializing the sequence-valued group
    attribute; it needs groups consecutive, hence the stable sort (§2).
    Returns ``None`` when the plan does not have the required shape."""
    if not isinstance(plan, Construct):
        return None
    child = plan.children[0]
    rename_map: dict[str, str] = {}
    if isinstance(child, Rename):
        rename_map = dict(child.mapping)
        grouped = child.children[0]
    else:
        grouped = child
    if not isinstance(grouped, GroupUnary) or grouped.theta != "=":
        return None
    if grouped.agg.kind != "project" or grouped.agg.filter_pred is not None:
        return None
    group_attr = grouped.group_attr
    out_positions = [i for i, c in enumerate(plan.commands)
                     if isinstance(c, Out) and isinstance(c.expr, AttrRef)
                     and c.expr.name == group_attr]
    if len(out_positions) != 1:
        return None
    split = out_positions[0]
    reverse = {new: old for old, new in rename_map.items()}

    def remap(command):
        if isinstance(command, Lit):
            return command
        if isinstance(command, Out) and isinstance(command.expr, AttrRef):
            name = reverse.get(command.expr.name, command.expr.name)
            return Out(AttrRef(name))
        return None

    s1 = [remap(c) for c in plan.commands[:split]]
    s3 = [remap(c) for c in plan.commands[split + 1:]]
    if any(c is None for c in s1 + s3):
        return None
    s2 = [Out(AttrRef(grouped.agg.attr))]
    sorted_input = Sort(grouped.children[0], list(grouped.by_attrs))
    return GroupConstruct(sorted_input, list(grouped.by_attrs),
                          s1, s2, s3)


def raise_not_applicable(rule: str, reason: str):
    from repro.errors import ConditionViolation
    raise ConditionViolation(f"{rule} not applicable: {reason}")
