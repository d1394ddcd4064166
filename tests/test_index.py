"""Unit tests for the index subsystem (`repro.index`): element index,
path index (DataGuide) with DTD validation, sorted value index, and the
per-store IndexManager lifecycle."""

from __future__ import annotations

import pytest

from repro.engine.context import EvalContext
from repro.engine.vectorized import run_vectorized
from repro.errors import EvaluationError, UnknownDocumentError
from repro.index import (
    ElementIndex,
    IndexProbe,
    PathIndex,
    ValueIndex,
    build_indexes,
)
from repro.nal.unary_ops import IndexScan
from repro.xmldb.delta import Insert
from repro.xmldb.document import DocumentStore, ScanStats
from repro.xmldb.node import assign_order_keys, element


def tree():
    """<r><it><v>10</v><v>x</v></it><it k="5"><v>2</v></it><n/></r>"""
    root = element(
        "r",
        element("it", element("v", "10"), element("v", "x")),
        element("it", element("v", "2"), k="5"),
        element("n"),
    )
    assign_order_keys(root)
    return root


# ----------------------------------------------------------------------
# Element index
# ----------------------------------------------------------------------
def test_element_index_counts_and_order():
    idx = ElementIndex(tree())
    assert idx.count("it") == 2
    assert idx.count("v") == 3
    assert idx.count("missing") == 0
    nodes = idx.lookup("v")
    assert [n.string_value() for n in nodes] == ["10", "x", "2"]
    assert [n.order_key for n in nodes] == sorted(
        n.order_key for n in nodes)


def test_element_index_excludes_root_by_default():
    root = element("a", element("a"), element("b"))
    assign_order_keys(root)
    idx = ElementIndex(root)
    assert len(idx.lookup("a")) == 1           # //a from the root
    assert len(idx.lookup("a", include_root=True)) == 2
    assert idx.tags() == ["a", "b"]


# ----------------------------------------------------------------------
# Path index
# ----------------------------------------------------------------------
def test_path_index_dataguide_paths():
    idx = PathIndex(tree())
    assert idx.paths() == [
        ("r",),
        ("r", "it"),
        ("r", "it", "@k"),
        ("r", "it", "v"),
        ("r", "n"),
    ]
    assert len(idx.nodes_at(("r", "it", "v"))) == 3
    assert len(idx.nodes_at(("r", "it", "@k"))) == 1
    assert idx.nodes_at(("r", "nope")) == []


def test_path_index_pattern_lookup():
    idx = PathIndex(tree())
    child = idx.lookup((("child", "it"), ("child", "v")))
    descendant = idx.lookup((("descendant", "v"),))
    assert child == descendant
    attr = idx.lookup((("child", "it"), ("attribute", "k")))
    assert [a.text for a in attr] == ["5"]
    # descendant steps never match attribute components
    assert idx.lookup((("descendant", "k"),)) == []


def test_path_index_descendant_repeated_tags():
    root = element("a", element("a", element("a")))
    assign_order_keys(root)
    idx = PathIndex(root)
    # //a from the root: both nested a elements, in document order
    assert len(idx.lookup((("descendant", "a"),))) == 2
    # //a/a: the innermost only
    assert len(idx.lookup((("descendant", "a"), ("child", "a")))) == 1


def test_path_index_merges_multiple_paths_in_document_order():
    root = element("r", element("x", element("v", "1")),
                   element("y", element("v", "2")),
                   element("x", element("v", "3")))
    assign_order_keys(root)
    idx = PathIndex(root)
    nodes = idx.lookup((("descendant", "v"),))
    assert [n.string_value() for n in nodes] == ["1", "2", "3"]


# ----------------------------------------------------------------------
# DTD validation
# ----------------------------------------------------------------------
def test_dataguide_validates_against_conforming_dtd():
    from repro.xmldb.dtd import parse_dtd
    dtd = parse_dtd("""
<!ELEMENT r (it*, n?)>
<!ELEMENT it (v*)>
<!ATTLIST it k CDATA #IMPLIED>
<!ELEMENT v (#PCDATA)>
<!ELEMENT n EMPTY>
""")
    assert PathIndex(tree()).validate_against_dtd(dtd) == ()


def test_dataguide_reports_dtd_violations():
    from repro.xmldb.dtd import parse_dtd
    dtd = parse_dtd("<!ELEMENT r (it*)>\n<!ELEMENT it (#PCDATA)>")
    violations = PathIndex(tree()).validate_against_dtd(dtd)
    # v under it, the k attribute and the undeclared n are all illegal
    assert ("r", "it", "v") in violations
    assert ("r", "it", "@k") in violations
    assert ("r", "n") in violations
    assert ("r", "it") not in violations


# ----------------------------------------------------------------------
# Value index
# ----------------------------------------------------------------------
def values_tree():
    root = element("r", *[element("v", t) for t in
                          ["10", "2", "x", "007", "2.0", "y", "2"]])
    assign_order_keys(root)
    return root


def test_value_index_equality_numeric_coercion():
    idx = ValueIndex(values_tree())
    path = ("r", "v")
    # "2" and "2.0" compare equal numerically; "007" equals 7
    assert [n.string_value() for n in idx.probe(path, "=", 2)] == \
        ["2", "2.0", "2"]
    assert [n.string_value() for n in idx.probe(path, "=", "2")] == \
        ["2", "2.0", "2"]
    assert [n.string_value() for n in idx.probe(path, "=", 7)] == ["007"]
    assert [n.string_value() for n in idx.probe(path, "=", "x")] == ["x"]
    assert idx.probe(path, "=", "missing") == []


def test_value_index_range_numeric_constant():
    idx = ValueIndex(values_tree())
    path = ("r", "v")
    # numeric entries compare numerically; "x"/"y" fall back to string
    # comparison against "3" and both exceed it
    got = sorted(n.string_value() for n in idx.probe(path, ">", 3))
    assert got == sorted(["10", "007", "x", "y"])
    got = sorted(n.string_value() for n in idx.probe(path, "<=", 2))
    assert got == sorted(["2", "2.0", "2"])


def test_value_index_range_string_constant():
    idx = ValueIndex(values_tree())
    path = ("r", "v")
    # a non-numeric constant makes every comparison textual
    got = sorted(n.string_value() for n in idx.probe(path, ">", "a1"))
    assert got == sorted(["x", "y"])
    got = sorted(n.string_value() for n in idx.probe(path, "<", "a1"))
    assert got == sorted(["10", "2", "007", "2.0", "2"])
    # a numeric *string* constant still compares numerically against
    # numeric entries: 007 < "1" is 7 < 1, false
    assert idx.probe(path, "<", "1") == []


def test_value_index_results_in_document_order():
    idx = ValueIndex(values_tree())
    nodes = idx.probe(("r", "v"), ">=", 2)
    assert [n.order_key for n in nodes] == sorted(
        n.order_key for n in nodes)


def test_value_index_probe_range():
    idx = ValueIndex(values_tree())
    got = sorted(n.string_value()
                 for n in idx.probe_range(("r", "v"), 2, 9))
    assert got == sorted(["2", "2.0", "2", "007"])
    got = sorted(n.string_value()
                 for n in idx.probe_range(("r", "v"), 2, 9,
                                          low_inclusive=False))
    assert got == ["007"]


def test_value_index_skips_non_atomic_paths():
    root = element("r", element("it", element("v", "1")))
    assign_order_keys(root)
    idx = ValueIndex(root)
    assert idx.is_indexed(("r", "it", "v"))
    assert not idx.is_indexed(("r", "it"))    # has element children
    assert not idx.is_indexed(("r",))
    assert idx.probe(("r", "it"), "=", 1) == []


def test_value_index_indexes_attributes():
    idx = ValueIndex(tree())
    nodes = idx.probe(("r", "it", "@k"), "=", 5)
    assert [n.text for n in nodes] == ["5"]


def test_value_index_rejects_bool_and_unknown_ops():
    idx = ValueIndex(values_tree())
    with pytest.raises(EvaluationError, match="boolean"):
        idx.probe(("r", "v"), "=", True)
    with pytest.raises(EvaluationError, match="ranges"):
        idx.probe(("r", "v"), "!=", 2)


def test_value_index_nan_text_never_matches_numerically():
    # "nan" parses as float NaN: it must not poison the sorted numeric
    # arrays, and every numeric comparison against it is false
    root = element("r", *[element("v", t) for t in
                          ["5", "nan", "1", "x"]])
    assign_order_keys(root)
    idx = ValueIndex(root)
    path = ("r", "v")
    assert [n.string_value() for n in idx.probe(path, "<=", 2)] == ["1"]
    assert [n.string_value() for n in idx.probe(path, ">", 2)] == \
        ["5", "x"]
    assert idx.probe(path, "=", float("nan")) == []
    # string-typed constants still reach the "nan" text via str compare
    got = [n.string_value() for n in idx.probe(path, ">=", "m")]
    assert got == ["nan", "x"]


def test_value_index_counts():
    idx = ValueIndex(values_tree())
    assert idx.entry_count(("r", "v")) == 7
    assert idx.distinct_count(("r", "v")) == 5   # 2≡2.0≡2 collapse
    assert idx.entry_count(("r", "nope")) == 0


# ----------------------------------------------------------------------
# Manager lifecycle and probes
# ----------------------------------------------------------------------
def make_store(mode: str) -> DocumentStore:
    store = DocumentStore(index_mode=mode)
    store.register_tree("t.xml", tree())
    return store


def test_manager_eager_builds_at_register():
    store = make_store("eager")
    assert store.indexes.built("t.xml")


def test_manager_lazy_builds_on_first_probe():
    store = make_store("lazy")
    assert not store.indexes.built("t.xml")
    nodes = store.indexes.probe(
        IndexProbe("t.xml", "element", (("descendant", "v"),)))
    assert len(nodes) == 3
    assert store.indexes.built("t.xml")


def test_manager_off_is_disabled_but_explicit_build_works():
    store = make_store("off")
    assert not store.indexes.enabled
    assert not store.indexes.built("t.xml")
    indexes = store.indexes.for_document("t.xml")
    assert indexes.element.count("it") == 2


def test_manager_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown index mode"):
        DocumentStore(index_mode="turbo")


def test_manager_probe_records_stats():
    store = make_store("lazy")
    probe = IndexProbe("t.xml", "element", (("descendant", "v"),))
    store.indexes.probe(probe, store.stats)
    snap = store.stats.snapshot()
    assert snap["index_probes"] == {"t.xml": 1}
    assert snap["total_probes"] == 1
    assert snap["node_visits"] == 3
    store.stats.reset()
    assert store.stats.snapshot()["index_probes"] == {}


def test_manager_value_probe_lifts_ancestors():
    store = make_store("lazy")
    probe = IndexProbe("t.xml", "value",
                       (("descendant", "it"), ("child", "v")),
                       op=">=", value=2, lift=1)
    nodes = store.indexes.probe(probe)
    # both "10" and "2" qualify numerically; their it parents dedup
    assert [n.name for n in nodes] == ["it", "it"]
    assert nodes[0].order_key < nodes[1].order_key


def test_manager_probe_rows_are_the_probe_without_handles():
    """``probe_rows`` answers in pre rows of the probed version's arena
    — lifted and merged as ints — with the same statistics; ``probe``
    is its handle form."""
    store = make_store("lazy")
    store.update("t.xml", Insert(0, 0, element(
        "it", element("v", "3"), element("v", "30"), k="9")))
    arena = store.get("t.xml").arena
    probes = [
        IndexProbe("t.xml", "element", (("descendant", "v"),)),
        IndexProbe("t.xml", "path", (("descendant", "it"),
                                     ("attribute", "k"))),
        IndexProbe("t.xml", "value", (("descendant", "v"),),
                   op=">=", value=3),
        IndexProbe("t.xml", "value", (("descendant", "it"),
                                      ("child", "v")),
                   op=">=", value=2, lift=1),
        IndexProbe("t.xml", "value", (("descendant", "v"),),
                   op="=", value=2, lift=5),
    ]
    for probe in probes:
        store.indexes.probe(probe)      # builds / warms the indexes
    handles = set(arena.nodes._cache)
    for probe in probes:
        stats = ScanStats()
        got_arena, pres = store.indexes.probe_rows(probe, stats)
        assert got_arena is arena
        assert list(pres) == sorted(set(pres)), "document order, no dups"
        assert set(arena.nodes._cache) == handles, "ints only"
        reference = ScanStats()
        nodes = store.indexes.probe(probe, reference)
        assert [node.pre for node in nodes] == list(pres)
        assert stats.snapshot() == reference.snapshot()
        assert stats.snapshot()["node_visits"] == len(pres)
    # lifting past the root stops at the root
    assert list(store.indexes.probe_rows(probes[-1])[1]) == [0]
    # a snapshot probes its pinned version
    snapshot = store.snapshot()
    store.update("t.xml", Insert(0, 0, element("it", element("v", "99"))))
    assert snapshot.indexes.probe_rows(probes[0])[0] is arena
    assert store.indexes.probe_rows(probes[0])[0] \
        is store.get("t.xml").arena


def test_manager_value_probe_rejects_non_atomic_pattern():
    store = make_store("lazy")
    probe = IndexProbe("t.xml", "value", (("descendant", "it"),),
                       op="=", value=2)
    with pytest.raises(EvaluationError, match="non-atomic"):
        store.indexes.probe(probe)
    assert not store.indexes.can_value_probe(
        "t.xml", (("descendant", "it"),))
    assert store.indexes.can_value_probe(
        "t.xml", (("descendant", "v"),))


def test_manager_unregister_drops_indexes():
    store = make_store("eager")
    store.unregister("t.xml")
    assert not store.indexes.built("t.xml")
    with pytest.raises(UnknownDocumentError):
        store.unregister("t.xml")


def test_build_indexes_reports_dtd_violations_via_manager():
    store = DocumentStore(index_mode="lazy")
    store.register_text("bad.xml", "<r><odd/></r>",
                        dtd_text="<!ELEMENT r EMPTY>")
    assert ("r", "odd") in store.indexes.dtd_violations("bad.xml")
    doc = store.get("bad.xml")
    assert build_indexes(doc).dtd_violations == \
        store.indexes.dtd_violations("bad.xml")


# ----------------------------------------------------------------------
# IndexScan operator
# ----------------------------------------------------------------------
def test_index_scan_reference_and_vectorized_agree():
    store = make_store("lazy")
    scan = IndexScan("x", IndexProbe("t.xml", "path",
                                     (("child", "it"), ("child", "v"))))
    ctx = EvalContext(store)
    reference = scan.evaluate(ctx)
    vectorized = run_vectorized(scan, ctx).to_rows()
    assert vectorized == reference
    assert [t["x"].string_value() for t in vectorized] == ["10", "x", "2"]
    assert scan.attrs() == frozenset({"x"})
    assert scan == scan.rebuild(())


def test_index_scan_label_and_estimate():
    from repro.optimizer.cost import CostModel
    store = make_store("lazy")
    probe = IndexProbe("t.xml", "value", (("descendant", "v"),),
                       op=">", value=5)
    scan = IndexScan("x", probe)
    assert "IdxScan" in scan.label() and "t.xml" in scan.label()
    cost = CostModel(store).estimate(scan)
    assert cost.cardinality == len(store.indexes.probe(probe))
    assert cost.total < store.get("t.xml").element_count * 2
