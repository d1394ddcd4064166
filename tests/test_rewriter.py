"""Optimizer driver: which equivalences apply to which paper query, the
DBLP refusal, and structural properties of the rewritten plans."""

import pytest

from repro.bench.queries import PAPER_QUERIES
from repro.api import Database, compile_query
from repro.datagen import BIDS_DTD, ITEMS_DTD, generate_bids, \
    generate_items
from repro.nal.construct import GroupConstruct
from repro.nal.group_ops import GroupBinary, GroupUnary, SelfGroup
from repro.nal.join_ops import AntiJoin, OuterJoin, SemiJoin
from repro.nal.scalar import AttrRef, Comparison, NestedPlan, conjuncts
from repro.nal.unary_ops import Select, Sort, Unnest
from tests.conftest import ledger, ledger_query


def compiled(key: str):
    spec = PAPER_QUERIES[key]
    db = spec.build_db()
    return compile_query(spec.text, db), db


def labels(q):
    return [alt.label for alt in q.plans()]


def contains_op(plan, cls) -> bool:
    return any(isinstance(op, cls) for op in plan.walk())


def has_nested_subscript(plan) -> bool:
    for op in plan.walk():
        for expr in op.scalar_exprs():
            stack = [expr]
            while stack:
                e = stack.pop()
                if isinstance(e, NestedPlan):
                    return True
                stack.extend(e.children())
    return False


# ----------------------------------------------------------------------
# Per-query rule application (the paper's §5 plan sets)
# ----------------------------------------------------------------------
def test_q1_alternatives():
    q, _ = compiled("q1")
    assert labels(q) == ["group-xi", "grouping", "outerjoin", "nested"]
    assert q.plan_named("grouping").applied == ("eqv5",)
    assert q.plan_named("outerjoin").applied == ("eqv4",)
    assert q.plan_named("group-xi").applied == ("eqv5", "fuse-xi")


def test_q1_grouping_plan_structure():
    q, _ = compiled("q1")
    plan = q.plan_named("grouping").plan
    assert contains_op(plan, GroupUnary)
    assert contains_op(plan, Unnest)  # the µD of Eqv. 5
    assert not has_nested_subscript(plan)


def test_q1_group_xi_plan_structure():
    q, _ = compiled("q1")
    plan = q.plan_named("group-xi").plan
    assert isinstance(plan, GroupConstruct)
    assert isinstance(plan.children[0], Sort)  # stable sort on authors


def test_q1_outerjoin_plan_structure():
    q, _ = compiled("q1")
    plan = q.plan_named("outerjoin").plan
    assert contains_op(plan, OuterJoin)
    assert not has_nested_subscript(plan)


def test_q1_dblp_refuses_eqv5():
    """On DBLP-shaped data //author ≠ //book/author, so only the
    outer-join plan may be offered (the paper's §5.1 DBLP paragraph)."""
    q, _ = compiled("q1_dblp")
    available = labels(q)
    assert "grouping" not in available
    assert "group-xi" not in available
    assert "outerjoin" in available


def test_q2_applies_eqv3():
    q, _ = compiled("q2")
    grouping = q.plan_named("grouping")
    assert grouping.applied == ("eqv3",)
    assert contains_op(grouping.plan, GroupUnary)
    assert not has_nested_subscript(grouping.plan)


def test_q2_also_offers_eqv1_and_eqv2():
    q, _ = compiled("q2")
    assert q.plan_named("outerjoin").applied == ("eqv2",)
    assert q.plan_named("nestjoin").applied == ("eqv1",)
    assert contains_op(q.plan_named("nestjoin").plan, GroupBinary)


def test_q3_applies_eqv6():
    q, _ = compiled("q3")
    semijoin = q.plan_named("semijoin")
    assert semijoin.applied == ("eqv6",)
    assert contains_op(semijoin.plan, SemiJoin)
    # Eqv. 8 must NOT fire: $t1 ranges over a non-distinct title list.
    assert "grouping" not in labels(q)


def test_q4_applies_self_grouping():
    q, _ = compiled("q4")
    grouping = q.plan_named("grouping")
    assert grouping.applied == ("eqv6", "eqv8-self")
    assert contains_op(grouping.plan, SelfGroup)
    assert contains_op(q.plan_named("semijoin").plan, SemiJoin)


def test_q5_applies_eqv7_and_eqv9():
    q, _ = compiled("q5")
    assert q.plan_named("antijoin").applied == ("eqv7",)
    assert contains_op(q.plan_named("antijoin").plan, AntiJoin)
    grouping = q.plan_named("grouping")
    assert grouping.applied == ("eqv7", "eqv9")
    assert contains_op(grouping.plan, GroupUnary)


def test_q5_antijoin_predicate_negated():
    """Eqv. 7 negates the satisfies predicate: y > 1993 → y <= 1993 —
    and the negated filter sits in a σ on the ▷'s right operand (the
    paper's §5.5 push), leaving the bare correlation to hash on."""
    q, _ = compiled("q5")
    plan = q.plan_named("antijoin").plan
    anti = next(op for op in plan.walk() if isinstance(op, AntiJoin))
    right = anti.children[1]
    assert isinstance(right, Select)
    assert "<=" in repr(right.pred)
    assert isinstance(anti.pred, Comparison) and anti.pred.op == "="
    assert isinstance(anti.pred.left, AttrRef)
    assert isinstance(anti.pred.right, AttrRef)


#: the ledger's semijoin shape, as ``update-mix`` instantiates it
ITEMS_WITH_BID = ledger_query(ledger.ITEMS_WITH_BID, 900)


def _quantifier_queries():
    for key in ("q3", "q4", "q5"):
        yield (key,) + compiled(key)
    db = Database()
    db.register_tree("items.xml", generate_items(10), dtd_text=ITEMS_DTD)
    db.register_tree("bids.xml", generate_bids(30, items=10),
                     dtd_text=BIDS_DTD)
    yield "items-with-bid", compile_query(ITEMS_WITH_BID, db), db


def test_semijoin_antijoin_alternatives_are_pushed():
    """Every ⋉/▷ alternative is emitted in pushed form: no conjunct of
    the join predicate ranges over the right operand alone, the label
    and provenance are those of Eqv. 6/7, and each label appears once
    (the un-pushed tree is not kept as an extra alternative)."""
    expected = {"q3": ["semijoin", "nested"],
                "q4": ["grouping", "semijoin", "nested"],
                "q5": ["grouping", "antijoin", "nested"],
                "items-with-bid": ["semijoin", "nested"]}
    for key, q, _db in _quantifier_queries():
        assert labels(q) == expected[key], key
        for alt in q.plans():
            if alt.label not in ("semijoin", "antijoin"):
                continue
            assert alt.applied == \
                (("eqv6",) if alt.label == "semijoin" else ("eqv7",))
            assert alt.rank == 4
            joins = [op for op in alt.plan.walk()
                     if isinstance(op, (SemiJoin, AntiJoin))]
            assert len(joins) == 1
            right_attrs = joins[0].children[1].attrs()
            for conjunct in conjuncts(joins[0].pred):
                assert not conjunct.free_attrs() <= right_attrs, \
                    f"{key}/{alt.label}: {conjunct!r} not pushed"


def test_q6_applies_eqv3():
    q, _ = compiled("q6")
    assert q.plan_named("grouping").applied == ("eqv3",)


def test_nested_always_last():
    for key in PAPER_QUERIES:
        q, _ = compiled(key)
        assert labels(q)[-1] == "nested"


def test_unnested_plans_have_no_nested_subscripts():
    for key in PAPER_QUERIES:
        q, _ = compiled(key)
        for alt in q.plans():
            if alt.label == "nested":
                assert has_nested_subscript(alt.plan)
            else:
                assert not has_nested_subscript(alt.plan), \
                    f"{key}/{alt.label} still nested"


def test_plan_named_unknown_label():
    q, _ = compiled("q2")
    with pytest.raises(KeyError):
        q.plan_named("holographic")


def test_best_plan_is_first():
    q, _ = compiled("q1")
    assert q.best().label == labels(q)[0]
