"""Order-property inference, sort elision and the ordering bugfixes.

Differential pins: elided plan ≡ un-elided plan ≡ reference ≡
vectorized ≡ the subscript streamer, byte for byte — including
mixed-type and NULL order-by keys, descending ties, and the evaluator's
dedup-skip fast path (against a brute-force document-order walk) on
documents with recursive (nested) tags.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, compile_query
from repro.datagen import BIDS_DTD, ITEMS_DTD
from repro.datagen.auction import generate_bids, generate_items
from repro.engine.context import EvalContext
from repro.engine.pipeline import stream_plan
from repro.engine.vectorized import run_vectorized
from repro.errors import EvaluationError
from repro.nal.unary_ops import (
    DistinctProject,
    ElidedSort,
    Sort,
    Table,
    _Inverted,
)
from repro.nal.values import NULL, Tup, sort_key
from repro.optimizer import properties
from repro.optimizer.cost import CostModel
from repro.optimizer.elide_order import elide_sorts, elided_sorts
from repro.optimizer.properties import (
    OrderProperties,
    properties_of,
    properties_to_string,
    satisfies_sort,
)
from repro.xmldb.document import DocumentStore
from repro.xmldb.node import NodeKind, element
from repro.xpath.ast import AnyTest, TextTest
from repro.xpath.evaluator import evaluate_path
from repro.xpath.parser import parse_path

MODES = ("reference", "vectorized")


@pytest.fixture(scope="module")
def auction_db() -> Database:
    db = Database()
    db.register_tree("items.xml", generate_items(40, seed=11),
                     dtd_text=ITEMS_DTD)
    db.register_tree("bids.xml", generate_bids(200, items=40, seed=11),
                     dtd_text=BIDS_DTD)
    return db


def force_sorts(plan):
    """``plan`` with every ``Sort[elided: …]`` turned back into the
    real Sort it was proven equal to."""
    children = tuple(force_sorts(child) for child in plan.children)
    if isinstance(plan, ElidedSort):
        return Sort(children[0], plan.attributes, plan.descending)
    return plan if children == plan.children else plan.rebuild(children)


def run_everywhere(db: Database, text: str) -> dict[str, str]:
    """The query's nested-plan output under every engine, as the
    optimizer emits it (``…/on``: redundant Sorts elided) and with
    every Sort forced (``…/off``)."""
    elided = compile_query(text, db).plan_named("nested").plan
    forced = force_sorts(elided)
    assert not elided_sorts(forced)
    return {f"{mode}/{key}": db.execute(plan, mode=mode).output
            for key, plan in (("off", forced), ("on", elided))
            for mode in MODES}


# ---------------------------------------------------------------------------
# Inference rules (unit level)
# ---------------------------------------------------------------------------
def table(rows, attrs=("a", "b")) -> Table:
    return Table("t", attrs, [Tup(dict(zip(attrs, r))) for r in rows])


def test_singleton_like_table_satisfies_any_sort():
    store = DocumentStore()
    props = properties_of(table([(1, 2)]), store)
    assert props.at_most_one
    assert satisfies_sort(props, (("a", False), ("b", True)))


def test_sort_establishes_and_distinct_preserves():
    store = DocumentStore()
    plan = DistinctProject(Sort(table([(2, "x"), (1, "y")]), ["a"]),
                           ["a"])
    props = properties_of(plan, store)
    assert props.sorted_on == (("a", False),)
    assert props.duplicate_free
    assert satisfies_sort(props, (("a", False),))
    assert not satisfies_sort(props, (("a", True),))
    assert not satisfies_sort(props, (("a", False), ("b", False)))


def test_alias_resolution_through_map():
    from repro.nal.scalar import AttrRef
    from repro.nal.unary_ops import Map
    store = DocumentStore()
    plan = Map(Sort(table([(2, "x"), (1, "y")]), ["a"]), "k",
               AttrRef("a"))
    props = properties_of(plan, store)
    assert props.resolve("k") == "a"
    assert satisfies_sort(props, (("k", False),))


def test_elide_sorts_removes_redundant_stacked_sort():
    store = DocumentStore()
    plan = Sort(Sort(table([(2, "x"), (1, "y")]), ["a", "b"]), ["a"])
    elided = elide_sorts(plan, store)
    assert isinstance(elided, ElidedSort)
    assert isinstance(elided.children[0], Sort)
    ctx = EvalContext(store)
    assert elided.evaluate(ctx) == plan.evaluate(ctx)


def test_elide_sorts_keeps_required_sort():
    store = DocumentStore()
    plan = Sort(table([(2, "x"), (1, "y")]), ["a"])
    assert elide_sorts(plan, store) is plan


def test_rebound_attribute_does_not_inherit_stale_sortedness():
    """Project away a sorted column, then χ-rebind the same name to an
    unsorted one: the old fact must not justify eliding the new Sort
    (regression — value-sequence facts survive projections, but a
    rebinding retires them)."""
    from repro.nal.scalar import AttrRef
    from repro.nal.unary_ops import Map, ProjectAway
    store = DocumentStore()
    rows = [(1, 9), (3, 1), (7, 7), (9, 3)]
    inner = ProjectAway(Sort(table(rows, ("a", "c")), ["a"]), ["a"])
    plan = Sort(Map(inner, "a", AttrRef("c")), ["a"])
    optimized = elide_sorts(plan, store)
    assert not elided_sorts(optimized)
    ctx = EvalContext(store)
    assert [t["a"] for t in optimized.evaluate(ctx)] == [1, 3, 7, 9]


# ---------------------------------------------------------------------------
# End-to-end elision on the auction data
# ---------------------------------------------------------------------------
ORDER_BY_ITEMNO = '''
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple
let $n1 := zero-or-one($i1/itemno)
order by $n1
return <i>{ $n1 }</i>
'''


#: the report of the retired ``bench_q10_order.py``: the same order by,
#: each item carrying two market-wide denominators (nested
#: ``count(//…)`` subscripts re-evaluated per item)
Q10_REPORT = '''
let $d1 := doc("items.xml")
let $b1 := doc("bids.xml")
for $i1 in $d1//itemtuple
let $n1 := zero-or-one($i1/itemno)
order by $n1
return <item><i>{ $n1 }</i>
  <market-bids>{ count($b1//bid) }</market-bids>
  <market-days>{ count($b1//biddate) }</market-days></item>
'''


@pytest.mark.parametrize("text", (ORDER_BY_ITEMNO, Q10_REPORT),
                         ids=("orderonly", "report"))
def test_itemno_order_by_is_elided_and_identical(auction_db, text):
    query = compile_query(text, auction_db)
    plan = query.plan_named("nested").plan
    assert [op.label() for op in elided_sorts(plan)] \
        == ["Sort[elided: __ord1]"], \
        "itemno is born sorted — exactly the order-by Sort must elide"
    # the translated plan still holds the real Sort the pass replaced
    assert [op.label() for op in query.plan.walk()
            if isinstance(op, Sort)] == ["Sort[__ord1]"]
    outputs = run_everywhere(auction_db, text)
    assert len(set(outputs.values())) == 1, outputs.keys()
    values = outputs["reference/on"]
    nos = [b.split("</i>")[0] for b in values.split("<i>")[1:]]
    assert len(nos) == 40 and nos == sorted(nos)


def test_descending_order_by_is_not_elided(auction_db):
    text = ORDER_BY_ITEMNO.replace("order by $n1",
                                   "order by $n1 descending")
    plan = compile_query(text, auction_db).plan_named("nested").plan
    assert not elided_sorts(plan)
    outputs = run_everywhere(auction_db, text)
    assert len(set(outputs.values())) == 1


def test_unsorted_column_is_not_elided(auction_db):
    """bids.xml itemno values arrive in random bid order — the
    data-derived guarantee must refuse."""
    text = '''
let $b1 := doc("bids.xml")
for $t1 in $b1//bidtuple
let $n1 := zero-or-one($t1/itemno)
order by $n1
return <i>{ $n1 }</i>
'''
    plan = compile_query(text, auction_db).plan_named("nested").plan
    assert not elided_sorts(plan)
    outputs = run_everywhere(auction_db, text)
    assert len(set(outputs.values())) == 1


def test_guarantee_is_cached_on_the_document(auction_db):
    compile_query(ORDER_BY_ITEMNO, auction_db).plans()
    cache = auction_db.store.get("items.xml").order_guarantees
    assert any(verdict is True for verdict in cache.values())


def test_null_keys_order_empty_least_in_both_directions(auction_db):
    """reserveprice is optional: missing values bind NULL.  "Empty
    least" must hold identically across engines, elided or not — NULLs
    first ascending, last descending, ties in document order."""
    base = '''
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple
let $r1 := $i1/reserveprice
order by $r1 {dir}
return <p>{ $r1 }#</p>
'''
    for direction in ("", "descending"):
        text = base.replace("{dir}", direction)
        outputs = run_everywhere(auction_db, text)
        assert len(set(outputs.values())) == 1, direction
        values = [b.split("#</p>")[0] for b in
                  outputs["reference/on"].split("<p>")[1:]]
        empties = [i for i, v in enumerate(values) if v == ""]
        if direction:
            assert empties == list(range(len(values) - len(empties),
                                         len(values)))
        else:
            assert empties == list(range(len(empties)))


def test_properties_to_string_annotates_operators(auction_db):
    plan = compile_query(ORDER_BY_ITEMNO,
                        auction_db).plan_named("nested").plan
    text = properties_to_string(plan, auction_db.store)
    assert "Sort[elided: __ord1]" in text
    assert "sorted_on=[n1]" in text
    assert "doc-order(i1)" in text
    assert "dup-free" in text


# ---------------------------------------------------------------------------
# The ordering bugfixes
# ---------------------------------------------------------------------------
MIXED_VALUES = [3, "x", 1, True, False, NULL, [], "2.5", 2.5, -7,
                10 ** 400, "nan", ["a", "b"], [1, 2], "", "10"]


def test_sort_key_is_total_over_mixed_values():
    keys = [sort_key(v) for v in MIXED_VALUES]
    ordered = sorted(keys)  # raises if any pair is incomparable
    assert sorted(ordered) == ordered
    # explicit rank expectations
    assert sort_key(NULL) == sort_key([]) == (0, 0.0)
    assert sort_key("nan") == sort_key(float("nan"))
    assert sort_key(5) == sort_key("5.0") == sort_key("5")
    assert sort_key(NULL) < sort_key("nan") < sort_key(-10) \
        < sort_key(False) < sort_key("") < sort_key([1, 2])


def test_sort_key_huge_int_does_not_overflow():
    assert sort_key(10 ** 400) < sort_key(10 ** 401)
    assert sort_key(10 ** 400) > sort_key(1.5)


def test_mixed_type_sort_is_identical_across_engines():
    rows = [(v, i) for i, v in enumerate(MIXED_VALUES)]
    store = DocumentStore()
    for descending in (False, True):
        plan = Sort(table(rows, ("k", "i")), ["k"], [descending])
        results = {
            "reference": plan.evaluate(EvalContext(store)),
            "vectorized": run_vectorized(
                plan, EvalContext(store)).to_rows(),
        }
        first = results["reference"]
        assert results["vectorized"] == first
        # stability: equal keys keep input order
        tags = [t["i"] for t in first if t["k"] in (5, "5.0", "5")]
        assert tags == sorted(tags)


def test_descending_ties_are_stable():
    rows = [(1, i) for i in range(5)] + [(2, i) for i in range(5, 8)]
    plan = Sort(table(rows, ("k", "i")), ["k"], [True])
    result = plan.evaluate(EvalContext(DocumentStore()))
    assert [t["i"] for t in result] == [5, 6, 7, 0, 1, 2, 3, 4]


def test_inverted_is_hashable_and_consistent_with_eq():
    a, b = _Inverted((2, 5.0)), _Inverted((2, 5.0))
    assert a == b and hash(a) == hash(b)
    assert a != (2, 5.0)
    assert len({a, b}) == 1


def test_descending_order_by_composes_with_distinct_project():
    """ΠD above a descending Sort: _Inverted keys must never leak into
    the hash-based dedup, ties stay stable, all engines agree."""
    rows = [(2, "b"), (1, "a"), (2, "b"), (NULL, "n"), (1, "c"),
            ("x", "s"), (2, "d")]
    store = DocumentStore()
    plan = DistinctProject(Sort(table(rows, ("k", "v")), ["k"], [True]),
                           ["k", "v"])
    reference = plan.evaluate(EvalContext(store))
    assert run_vectorized(plan, EvalContext(store)).to_rows() \
        == reference
    keys = [t["k"] for t in reference]
    assert keys[0] == "x" and keys[-1] is NULL  # strings > numbers > ⊥


# ---------------------------------------------------------------------------
# Hypothesis: random rows, random order-by specs, every engine agrees
# ---------------------------------------------------------------------------
VALUE_POOL = st.one_of(
    st.integers(-5, 5),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-5, max_value=5),
    st.sampled_from(["a", "b", "10", "-3.5", "", "z"]),
    st.booleans(),
    st.just(NULL),
    st.just([]),
    st.lists(st.integers(-3, 3), min_size=1, max_size=2),
)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(VALUE_POOL, VALUE_POOL, st.integers()),
                     max_size=12),
       descending=st.tuples(st.booleans(), st.booleans()),
       distinct=st.booleans())
def test_random_order_by_plans_agree_everywhere(rows, descending,
                                                distinct):
    store = DocumentStore()
    plan = Sort(table(rows, ("k1", "k2", "i")), ["k1", "k2"],
                list(descending))
    if distinct:
        plan = DistinctProject(plan, ["k1", "i"])
    first = plan.evaluate(EvalContext(store))
    for candidate in (plan, elide_sorts(plan, store)):
        assert run_vectorized(
            candidate, EvalContext(store)).to_rows() == first
        assert list(stream_plan(candidate, EvalContext(store))) == first


# ---------------------------------------------------------------------------
# The evaluator's dedup-skip fast path
# ---------------------------------------------------------------------------
def recursive_db() -> Database:
    """A document whose ``b`` tags nest (so ``//b`` results are not an
    antichain) next to a flat ``c`` level."""
    root = element(
        "a",
        element("b", element("b", element("c", "1", x="1"),
                             element("d", "2")),
                element("c", "3", x="2")),
        element("b", element("c", "4"), element("d", "5")),
        element("d", "6"))
    db = Database()
    db.register_tree("r.xml", root)
    return db


RECURSIVE_PATHS = ("//b", "//c", "//d", "//b/c", "//b//c", "//b/b",
                   "//b/@x", "//c/@x", "b/c", "b/b/c", "//b/c/text()",
                   "//text()", "//*", "//b/*")


def brute_force(root, path) -> list:
    """The path's result with no order reasoning at all: per step, one
    walk over *every* node of the document in document order, keeping
    those the node test accepts and whose parent (child / attribute
    axis) or some ancestor (descendant axis) was selected before."""
    def ancestors(node):
        while node.parent is not None:
            node = node.parent
            yield node

    def accepted(node, step) -> bool:
        is_attribute = node.kind is NodeKind.ATTRIBUTE
        if is_attribute != (step.axis == "attribute"):
            return False
        if isinstance(step.test, TextTest):
            return node.kind is NodeKind.TEXT
        return (is_attribute or node.kind is NodeKind.ELEMENT) and (
            isinstance(step.test, AnyTest)
            or node.name == step.test.name)

    selected = [root]
    for step in path.steps:
        reach = ancestors if step.axis == "descendant" \
            else lambda node: [node.parent]
        chosen = {id(n) for n in selected}
        selected = [n for n in root.arena.nodes if accepted(n, step)
                    and any(id(a) in chosen for a in reach(n))]
    return selected


@pytest.mark.parametrize("path_text", RECURSIVE_PATHS)
def test_dedup_skip_is_differentially_safe(path_text):
    db = recursive_db()
    root = db.store.get("r.xml").root
    path = parse_path(path_text)
    with properties.debug_checks(True):
        fast = list(evaluate_path(root, path))
    assert fast == brute_force(root, path)


def test_flat_tag_check_blocks_nested_tags():
    db = recursive_db()
    arena = db.store.get("r.xml").arena
    assert not arena.tag_is_flat("b")
    assert arena.tag_is_flat("c") and arena.tag_is_flat("d")


def test_multi_context_paths_still_dedup():
    """Overlapping context nodes (parent and child both in context)
    must fall back to the dedup pass."""
    db = recursive_db()
    root = db.store.get("r.xml").root
    outer = evaluate_path(root, parse_path("//b"))  # nested b's
    result = evaluate_path(list(outer), parse_path("//c"))
    seen = set()
    assert all(id(n) not in seen and not seen.add(id(n))
               for n in result)
    keys = [n.order_key for n in result]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# Debug switch: elided sorts are re-verified differentially
# ---------------------------------------------------------------------------
def test_debug_checks_catch_a_wrong_elision():
    store = DocumentStore()
    bogus = ElidedSort(table([(2, "x"), (1, "y")]), ["a"])
    ctx = EvalContext(store)
    with properties.debug_checks(True):
        with pytest.raises(EvaluationError, match="elided sort"):
            run_vectorized(bogus, EvalContext(store))
        with pytest.raises(EvaluationError, match="elided sort"):
            list(stream_plan(bogus, EvalContext(store)))
    # without the debug switch the (incorrectly) elided sort is the
    # identity — garbage in, garbage out, but no crash
    with properties.debug_checks(False):
        assert run_vectorized(bogus, ctx).column("a") == [2, 1]


def test_rotated_document_degrades_elision_to_a_real_sort():
    """A data-derived elision carries the (document, seq) it was
    proven against; rotating different content in under the same name
    (the supported unregister + re-register workflow) must make the
    held plan sort for real instead of silently mis-ordering."""
    db = Database()
    db.register_tree("items.xml", generate_items(15, seed=5),
                     dtd_text=ITEMS_DTD)
    plan = compile_query(ORDER_BY_ITEMNO, db).plan_named("nested").plan
    elided = elided_sorts(plan)
    assert elided and elided[0].proof is not None
    assert elided[0].proof[0] == "items.xml"

    db.unregister("items.xml")
    root = element("items")
    for no in ("I00009", "I00002", "I00007"):
        root.append_child(element("itemtuple", element("itemno", no),
                                  element("description", "x"),
                                  element("offered_by", "U00001")))
    db.register_tree("items.xml", root, dtd_text=ITEMS_DTD)
    for mode in MODES:
        out = db.execute(plan, mode=mode).output
        nos = [b.split("</i>")[0] for b in out.split("<i>")[1:]]
        assert nos == sorted(nos), (mode, nos)


def test_structural_elision_carries_no_proof():
    store = DocumentStore()
    plan = elide_sorts(Sort(table([(1, "x")]), ["a"]), store)
    assert isinstance(plan, ElidedSort) and plan.proof is None


def test_debug_checks_accept_a_correct_elision(auction_db):
    plan = compile_query(ORDER_BY_ITEMNO,
                         auction_db).plan_named("nested").plan
    with properties.debug_checks(True):
        for mode in MODES:
            auction_db.execute(plan, mode=mode)


# ---------------------------------------------------------------------------
# Cost model: elided sorts lose the n·log n term
# ---------------------------------------------------------------------------
def test_elided_sort_is_costed_as_identity():
    store = DocumentStore()
    rows = [(i, i) for i in range(64)]
    sort = Sort(table(rows), ["a"])
    elided = ElidedSort(table(rows), ["a"])
    model = CostModel(store)
    full = model.estimate(sort)
    none = model.estimate(elided)
    assert none.total < full.total
    assert none.cardinality == full.cardinality


def test_order_properties_dataclass_describe():
    props = OrderProperties(sorted_on=(("a", True),),
                            duplicate_free=True, at_most_one=True)
    text = props.describe()
    assert "a desc" in text and "dup-free" in text and "<=1 row" in text
    assert OrderProperties().describe() == "{-}"
