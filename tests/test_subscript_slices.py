"""Boolean subscripts pulled a slice at a time, at the slice boundaries.

A nested plan under ∃ / ∀ / ``exists`` / ``empty`` / a bare plan runs on
the column engine over slices of its driving leaf's rows — ``[0, s)``,
``[s, 3s)``, ``[3s, 7s)`` … with ``s`` = 46 — and stops at the first
slice that decides (:mod:`repro.engine.pipeline`).  Off-by-one territory:
documents whose driving step has 0, 1, s−1, s, s+1, 3s−1, 3s, 3s+1 and
7s+2 rows, the witness (or counter-example) first, on either side of a
slice edge, last or absent, every tuple-wise operator above the leaf,
and every kind of store.  Against ``mode="reference"``: output and rows
equal, document scans equal, node visits at most the definition's —
exactly the definition's when nothing stops early — and never fewer
when the witness sits later.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.engine import pipeline, vectorized
from repro.engine.pipeline import FIRST_SLICE as S
from repro.index import IndexProbe
from repro.nal import (
    Construct,
    IndexScan,
    Lit,
    Map,
    Project,
    ProjectAway,
    Rename,
    Select,
    Singleton,
    Table,
    Unnest,
    UnnestMap,
)
from repro.nal.scalar import (
    AttrRef,
    Comparison,
    Const,
    DocAccess,
    Exists,
    Forall,
    FuncCall,
    NestedPlan,
    PathApply,
    TupledSeq,
)
from repro.nal.unary_ops import ElidedSort
from repro.obs.metrics import MetricsRegistry
from repro.xmldb.delta import Delete, Insert, Replace
from repro.xmldb.node import element
from repro.xmldb.serialize import serialize
from repro.xpath.ast import Path
from repro.xpath.parser import parse_path

SIZES = (0, 1, S - 1, S, S + 1, 3 * S - 1, 3 * S, 3 * S + 1, 7 * S + 2)


def test_first_slice_covers_the_batch_setup():
    """⌈BATCH_SETUP_COST / VECTORIZED_TUPLE_DISCOUNT⌉ — no constant of
    its own."""
    assert S == 46


def _children(count: int) -> list:
    """``count`` items ``<it n="0007"><k>7</k></it>``, a filler ``<x/>``
    after every other one (children a ``child::it`` walk visits and
    skips) and one at the end."""
    kids = []
    for i in range(count):
        kids.append(element("it", element("k", str(i)), n=f"{i:04d}"))
        if i % 2 == 0:
            kids.append(element("x"))
    return kids + [element("x")]


def _database(kind: str, count: int) -> Database:
    """The same ``t.xml`` reached five ways: a registered tree, parsed
    text, and a version published by an Insert, a Delete or a
    Replace."""
    db = Database(index_mode="lazy")
    kids = _children(count)
    if kind == "tree":
        db.register_tree("t.xml", element("r", *kids))
    elif kind == "parsed":
        db.register_text("t.xml", serialize(element("r", *kids)))
    elif kind == "insert":
        db.register_tree("t.xml", element("r", *kids[:-1]))
        db.update("t.xml", Insert(0, len(kids) - 1, kids[-1]))
    elif kind == "delete":
        db.register_tree("t.xml", element("r", element("junk"), *kids))
        db.update("t.xml", Delete(db.store.get("t.xml").root.children[0]))
    else:
        db.register_tree("t.xml", element("r", *kids[:-1], element("y")))
        db.update("t.xml", Replace(
            db.store.get("t.xml").root.children[-1], kids[-1]))
    return db


def _leaf(kind: str, db: Database):
    """A driving leaf binding ``i`` to every item, in document order."""
    if kind in ("child", "descendant"):
        # relative, as the translator builds doc("t.xml")//it
        path = Path(parse_path("it" if kind == "child" else "//it").steps,
                    absolute=False)
        return UnnestMap(Singleton(), "i", PathApply(DocAccess("t.xml"),
                                                     path))
    if kind == "index":
        return IndexScan("i", IndexProbe("t.xml", "element",
                                         (("descendant", "it"),)))
    items = [n for n in db.store.get("t.xml").root.children
             if n.name == "it"]
    return Table("T", ["i"], [{"i": node} for node in items])


def _one(var: str, path: str):
    return FuncCall("zero-or-one", [PathApply(AttrRef(var),
                                              parse_path(path))])


#: tuple-wise operators above the leaf, each binding ``w`` to the
#: item's ``k``
CHAINS = {
    "χ": lambda leaf: Map(leaf, "w", _one("i", "k")),
    "Υ": lambda leaf: UnnestMap(leaf, "w", PathApply(AttrRef("i"),
                                                     parse_path("k"))),
    "µ": lambda leaf: Unnest(Map(leaf, "s", TupledSeq(PathApply(
        AttrRef("i"), parse_path("k")), "w")), "s", ["w"]),
    "ρ": lambda leaf: Rename(Map(leaf, "x", _one("i", "k")), {"x": "w"}),
    "Π̄": lambda leaf: ProjectAway(Map(leaf, "w", _one("i", "k")), ["i"]),
    "σ": lambda leaf: Select(Map(leaf, "w", _one("i", "k")),
                             Comparison(AttrRef("w"), "!=", Const(-2))),
    "sort": lambda leaf: ElidedSort(Map(Map(
        leaf, "n", _one("i", "@n")), "w", _one("i", "k")), ["n"]),
}

HIT = Comparison(AttrRef("w"), "=", AttrRef("o"))

#: boolean subscripts over a chain, decided by the item whose ``k`` is
#: the outer ``o`` (its witness — for ∀ its counter-example)
CONSUMERS = {
    "∃": lambda plan: Exists("q", NestedPlan(Project(plan, ["w"])),
                             Comparison(AttrRef("q"), "=", AttrRef("o"))),
    "∀": lambda plan: Forall("q", NestedPlan(Project(plan, ["w"])),
                             Comparison(AttrRef("q"), "!=", AttrRef("o"))),
    "exists": lambda plan: FuncCall("exists", [NestedPlan(Select(plan,
                                                                 HIT))]),
    "empty": lambda plan: FuncCall("empty", [NestedPlan(Select(plan,
                                                               HIT))]),
    "bare": lambda plan: NestedPlan(Select(plan, HIT)),
}


def _host(pred, witness: int):
    outer = Table("O", ["o"], [{"o": witness}])
    return Construct(Select(outer, pred), [Lit("<hit/>")])


def _witnesses(count: int) -> list[int]:
    """Positions around the slice edges that exist, then -1: absent."""
    return sorted({p for p in (0, S - 1, S, 3 * S - 1, 3 * S, count - 1)
                   if 0 <= p < count}) + [-1]


def _check(db: Database, make_pred, count: int, tag):
    """``make_pred()`` as the σ of one outer tuple ``o`` = each witness
    position in turn, default against reference."""
    visits = []
    for witness in _witnesses(count):
        plan = _host(make_pred(), witness)
        default = db.execute(plan)
        reference = db.execute(plan, mode="reference")
        where = (*tag, count, witness)
        assert default.output == reference.output, where
        assert default.rows == reference.rows, where
        assert default.stats["document_scans"] \
            == reference.stats["document_scans"], where
        assert default.stats["node_visits"] \
            <= reference.stats["node_visits"], where
        visits.append(default.stats["node_visits"])
    # nothing stops early without a witness: every slice ran, and the
    # path evaluations were counted once each
    assert visits[-1] == reference.stats["node_visits"], tag
    assert default.stats["order_fastpath_hits"] \
        == reference.stats["order_fastpath_hits"], tag
    assert visits == sorted(visits), tag
    return visits


def _chain_check(db: Database, leaf, chain: str, consumer: str,
                 count: int):
    _check(db, lambda: CONSUMERS[consumer](CHAINS[chain](leaf)), count,
           (chain, consumer))


@settings(max_examples=150, deadline=None)
@given(count=st.sampled_from(SIZES),
       leaf=st.sampled_from(("child", "descendant", "table", "index")),
       store=st.sampled_from(("tree", "parsed", "insert", "delete",
                              "replace")),
       chain=st.sampled_from(sorted(CHAINS)),
       consumer=st.sampled_from(sorted(CONSUMERS)))
def test_slices_agree_with_the_definition(count, leaf, store, chain,
                                          consumer):
    """Registered-tree, parsed and updated stores; Υ (child and descendant
    steps), Table and IndexScan leaves."""
    db = _database(store, count)
    _chain_check(db, _leaf(leaf, db), chain, consumer, count)


@pytest.mark.parametrize("store", ("tree", "parsed", "insert", "delete",
                                   "replace"))
@pytest.mark.parametrize("leaf", ("descendant", "table", "index"))
def test_slices_cut_lists(monkeypatch, leaf, store):
    """Every row sequence the driving leaves hand to the slicer — a
    table's rows, an index probe's rows, a descendant step's per-tag
    rows, on parsed, built and updated arenas — is a ``list``, so a
    slice of it is a list of its own with no copy.  (The child walk
    builds its slices itself.)"""
    seen = []
    cut = pipeline._cut

    def spy(rows):
        seen.append(type(rows))
        return cut(rows)

    monkeypatch.setattr(pipeline, "_cut", spy)
    count = 3 * S + 1
    db = _database(store, count)
    _chain_check(db, _leaf(leaf, db), "χ", "∃", count)
    assert seen and set(seen) == {list}, (leaf, store, seen)


@pytest.mark.parametrize("count", SIZES)
@pytest.mark.parametrize("steps", ("it/k", "//it/k", "//k"))
@pytest.mark.parametrize("quantifier", (Exists, Forall))
def test_path_sources_are_sliced_too(count, steps, quantifier):
    """A quantifier ranging over a path (no nested plan) pulls the
    path's first step in the same slices."""
    db = _database("tree", count)
    source = PathApply(DocAccess("t.xml"), Path(parse_path(steps).steps,
                                                absolute=False))
    op = "=" if quantifier is Exists else "!="
    visits = _check(db, lambda: quantifier("q", source, Comparison(
        AttrRef("q"), op, AttrRef("o"))), count, (steps, quantifier))
    if count > S:   # a witness in the first slice leaves the rest unread
        assert visits[0] < visits[-1]


ALL_SLICES = [S, 2 * S, 4 * S, 2]   # 7s + 2 rows


@pytest.mark.parametrize("witness,slices", (
    pytest.param(0, [S], id="first"),
    pytest.param(S - 1, [S], id="end-of-first-slice"),
    pytest.param(S, [S, 2 * S], id="start-of-second-slice"),
    pytest.param(7 * S + 1, ALL_SLICES, id="last"),
    pytest.param(-1, ALL_SLICES, id="absent")))
@pytest.mark.parametrize("leaf", ("child", "descendant"))
def test_later_slices_never_run(witness, slices, leaf, monkeypatch):
    """A spy on the chain kernel: the slices that ran are exactly those
    up to the one holding the witness — with the witness in the first
    slice, no later slice runs."""
    ran = []
    real = vectorized.run_chain
    monkeypatch.setattr(vectorized, "run_chain", lambda chain, batch, *a:
                        ran.append(len(batch)) or real(chain, batch, *a))
    db = _database("tree", 7 * S + 2)
    plan = _host(CONSUMERS["∃"](CHAINS["χ"](_leaf(leaf, db))), witness)
    assert db.execute(plan).output == ("" if witness < 0 else "<hit/>")
    assert ran == slices


def test_boolean_subscripts_are_counted():
    """With a metrics registry attached: one evaluation per outer tuple,
    the slices it ran and the driving rows they held."""
    db = _database("tree", 7 * S + 2)
    leaf = _leaf("descendant", db)
    outer = Table("O", ["o"], [{"o": 0}, {"o": S}, {"o": -1}])
    plan = Select(outer, CONSUMERS["exists"](CHAINS["Υ"](leaf)))
    metrics = MetricsRegistry()
    assert len(db.execute(plan, metrics=metrics).rows) == 2
    counters = metrics.snapshot()["counters"]
    assert counters["subscript.boolean.evaluations"] == 3
    assert counters["subscript.boolean.slices"] == 1 + 2 + 4
    assert counters["subscript.boolean.driving_rows"] \
        == S + 3 * S + 7 * S + 2


def test_elisions_are_counted_once_per_inner_evaluation():
    """An elided Sort above the driving leaf is the identity for every
    slice: it is counted once per inner evaluation, as the definition
    counts it, however many slices ran."""
    db = _database("tree", 7 * S + 2)
    outer = Table("O", ["o"], [{"o": 0}, {"o": S}, {"o": -1}])
    plan = Select(outer, CONSUMERS["exists"](CHAINS["sort"](
        _leaf("descendant", db))))
    taken = []
    for mode in ("vectorized", "reference"):
        metrics = MetricsRegistry()
        db.execute(plan, mode=mode, metrics=metrics)
        taken.append(metrics.snapshot()["counters"]["elision.sorts_taken"])
    assert taken == [3, 3]


@pytest.mark.parametrize("steps", ("//b", "//b/c", "//b//c", "//c", "b/b"))
def test_nested_tags_keep_document_order(steps):
    """``b`` elements nest, so a step after ``descendant::b`` would see
    an ancestor's results after its descendant's: such a path runs
    whole, a slice-able one in slices — either way the sequence is the
    definition's, order included, and no row is visited twice."""
    from repro.engine.context import EvalContext
    from repro.engine.pipeline import stream_plan
    nest = element("b", element("c", "3"), *(
        element("b", element("b", element("c", str(i))), element("c", "x"))
        for i in range(S)))
    db = Database()
    db.register_tree("t.xml", element("r", nest, element("b", element("c"))))
    plan = UnnestMap(Singleton(), "x", PathApply(DocAccess("t.xml"), Path(
        parse_path(steps).steps, absolute=False)))
    assert list(stream_plan(plan, EvalContext(db.store))) \
        == plan.evaluate(EvalContext(db.store))
    host = _host(FuncCall("exists", [NestedPlan(plan)]), 0)
    default = db.execute(host)
    reference = db.execute(host, mode="reference")
    assert default.output == reference.output == "<hit/>"
    assert default.stats["document_scans"] \
        == reference.stats["document_scans"]
    assert default.stats["node_visits"] <= reference.stats["node_visits"]
