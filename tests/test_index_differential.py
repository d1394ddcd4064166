"""Differential testing of index-based plans (test_engine_differential
style, lifted to whole queries over randomized documents).

For random documents and random constant predicates, the ``+index``
plan alternatives must return *byte-identical* output — content, order
and duplicate handling — to their scan-based base plans, in the
default and reference execution modes.  Documents mix numeric,
numeric-looking and textual values to stress the coercion-faithful
sorted structures of the value index, plus empty leaves, repeated
values (duplicate-elimination after the ancestor lift) and items with
several matching leaves (existential semantics)."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.api import Database, compile_query
from repro.xmldb.node import element

LEAF_TEXTS = ["1", "2", "10", "007", "2.0", "-3", "x", "y2", "zz",
              "2x", " 2", "nan", "inf"]
# the front end has no unary minus; negative values appear only as data
CONSTANTS = [2, 10, 0.5, "2", "007", "x", "y2", "a"]
OPS = ["=", "<", "<=", ">", ">="]


@st.composite
def documents(draw):
    """<r> with it children; each it has 0–3 v leaves and maybe @k."""
    root = element("r")
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        item = element("it")
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            item.append_child(
                element("v", draw(st.sampled_from(LEAF_TEXTS))))
        if draw(st.booleans()):
            item.set_attribute("k", draw(st.sampled_from(LEAF_TEXTS)))
        root.append_child(item)
    return root


def run_differential(root, query_text):
    """Execute every +index alternative against its base; assert byte
    equality in both modes.  Returns the number of indexed variants."""
    db = Database(index_mode="lazy")
    db.register_tree("r.xml", root)
    query = compile_query(query_text, db)
    indexed = [a for a in query.plans() if a.label.endswith("+index")]
    for alt in indexed:
        base_label = alt.label[:-len("+index")]
        base = db.execute(query.plan_named(base_label).plan)
        probed = db.execute(alt.plan)
        assert probed.output == base.output, alt.label
        assert probed.rows == base.rows, alt.label
        reference = db.execute(alt.plan, mode="reference")
        assert reference.output == base.output, alt.label
    return len(indexed)


@settings(max_examples=60, deadline=None)
@given(root=documents())
def test_structural_probes(root):
    # the cost model may refuse the probe on trivially small documents
    # (a log₂ descent does not beat a four-node scan); whenever it is
    # offered, run_differential asserts byte equality
    run_differential(root, """
let $d := doc("r.xml")
for $x in $d//v
return <o> { $x } </o>
""")


def test_structural_probe_offered_on_nontrivial_document():
    root = element("r", *[element("it", element("v", str(i)))
                          for i in range(20)])
    assert run_differential(root, """
let $d := doc("r.xml")
for $x in $d//v
return <o> { $x } </o>
""") >= 1


@settings(max_examples=60, deadline=None)
@given(root=documents())
def test_path_probes(root):
    run_differential(root, """
let $d := doc("r.xml")
for $x in $d/it/v
return <o> { $x } </o>
""")


@settings(max_examples=120, deadline=None)
@given(root=documents(), op=st.sampled_from(OPS),
       const=st.sampled_from(CONSTANTS))
def test_value_probes_existential_over_leaves(root, op, const):
    value = f'"{const}"' if isinstance(const, str) else repr(const)
    run_differential(root, f"""
let $d := doc("r.xml")
for $x in $d//it
where $x/v {op} {value}
return <o> {{ $x }} </o>
""")


@settings(max_examples=80, deadline=None)
@given(root=documents(), op=st.sampled_from(OPS),
       const=st.sampled_from(CONSTANTS))
def test_value_probes_on_attributes(root, op, const):
    value = f'"{const}"' if isinstance(const, str) else repr(const)
    run_differential(root, f"""
let $d := doc("r.xml")
for $x in $d//it
where $x/@k {op} {value}
return <o> {{ $x }} </o>
""")


@settings(max_examples=60, deadline=None)
@given(root=documents(), const=st.sampled_from(CONSTANTS))
def test_value_probe_with_residual_conjunct(root, const):
    value = f'"{const}"' if isinstance(const, str) else repr(const)
    run_differential(root, f"""
let $d := doc("r.xml")
for $x in $d//it
where $x/v >= {value} and $x/@k = "2"
return <o> {{ $x }} </o>
""")


@settings(max_examples=40, deadline=None)
@given(root=documents())
def test_document_order_after_lift(root):
    """Qualifying items come out in document order even though the
    value index groups leaves by value, not position."""
    db = Database(index_mode="lazy")
    db.register_tree("r.xml", root)
    query = compile_query("""
let $d := doc("r.xml")
for $x in $d//it
where $x/v >= "0"
return <o> { $x } </o>
""", db)
    labels = [a.label for a in query.plans()]
    if "nested+index" not in labels:
        return
    rows = db.execute(query.plan_named("nested+index").plan).rows
    keys = [row["x"].order_key for row in rows]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))   # duplicates eliminated


def test_empty_document_and_empty_results():
    root = element("r")
    assert run_differential(root, """
let $d := doc("r.xml")
for $x in $d//it
where $x/v = 1
return <o> { $x } </o>
""") >= 1


def test_selective_value_probe_offered_and_empty_result_exact():
    root = element("r", *[element("it", element("v", str(i)))
                          for i in range(30)])
    db = Database(index_mode="lazy")
    db.register_tree("r.xml", root)
    query = compile_query("""
let $d := doc("r.xml")
for $x in $d//it
where $x/v = 999
return <o> { $x } </o>
""", db)
    assert "nested+index" in [a.label for a in query.plans()]
    result = db.execute(query.plan_named("nested+index").plan)
    assert result.output == "" and result.rows == []
    assert result.stats["total_scans"] == 0
