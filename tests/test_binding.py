"""Tests for per-shape plan compilation (:mod:`repro.optimizer.binding`,
the plan cache of :mod:`repro.session`): a text that differs from a
cached template only in constants gets the template's plans bound to
its constants, and that must be indistinguishable from compiling it."""

from __future__ import annotations

import html

import pytest
from hypothesis import given, settings, strategies as st

import repro.api
from repro.api import Database, compile_query
from repro.bench.queries import PAPER_QUERIES
from repro.datagen import (
    BIB_DTD,
    BIDS_DTD,
    ITEMS_DTD,
    PRICES_DTD,
    REVIEWS_DTD,
    generate_bib,
    generate_bids,
    generate_items,
    generate_prices,
    generate_reviews,
)
from repro.engine.executor import MODES
from repro.errors import TranslationError
from repro.nal.pretty import plan_to_string
from repro.optimizer.access_paths import ProbeChoice
from repro.xquery.lexer import query_shape
from repro.xquery.parser import parse_query

# The four request templates of the ledger's serve-http workload.
BIDS_SCAN = '''
let $d1 := doc("bids.xml")
for $b1 in $d1//bidtuple
where $b1/bid >= {}
return <big>{{ $b1/itemno }}</big>
'''

ITEMS_SCAN = '''
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple
where $i1/reserveprice >= {}
return <pricey>{{ $i1/itemno }}</pricey>
'''

POPULAR_ITEMS = '''
let $d1 := doc("bids.xml")
for $i1 in distinct-values($d1//itemno)
where count($d1//bidtuple[itemno = $i1]) >= {}
return <popular-item>{{ $i1 }}</popular-item>
'''

ITEMS_WITH_BID = '''
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple/itemno
where some $b2 in doc("bids.xml")//bidtuple[bid >= {}]/itemno
      satisfies $i1 = $b2
return <wanted>{{ $i1 }}</wanted>
'''

SERVE_TEMPLATES = (BIDS_SCAN, ITEMS_SCAN, POPULAR_ITEMS, ITEMS_WITH_BID)


def _paper_template(key: str, literal: str) -> str:
    text = PAPER_QUERIES[key].text
    assert text.count(literal) == 1
    return text.replace("{", "{{").replace("}", "}}").replace(literal,
                                                              "{}")


#: (template, constant strategy): every template takes one constant
TEMPLATES = [(t, st.integers(0, 1100)) for t in SERVE_TEMPLATES] + [
    (_paper_template("q5", "1993"), st.integers(1980, 2010)),
    (_paper_template("q6", "3"), st.integers(0, 6)),
    (_paper_template("q4", '"Suciu"'),
     st.sampled_from(['"Suciu"', '"Buneman"', "'Abiteboul'", '""'])),
]


def _database(index_mode: str) -> Database:
    db = Database(index_mode=index_mode)
    db.register_tree("bib.xml", generate_bib(12, 2, seed=3),
                     dtd_text=BIB_DTD)
    db.register_tree("prices.xml", generate_prices(12, seed=3),
                     dtd_text=PRICES_DTD)
    db.register_tree("reviews.xml", generate_reviews(6, seed=3),
                     dtd_text=REVIEWS_DTD)
    db.register_tree("bids.xml", generate_bids(60, items=20, seed=3),
                     dtd_text=BIDS_DTD)
    db.register_tree("items.xml", generate_items(20, seed=3),
                     dtd_text=ITEMS_DTD)
    return db


DATABASES = {mode: _database(mode) for mode in ("off", "lazy")}


# ----------------------------------------------------------------------
# A bound plan is the plan a compile would give
# ----------------------------------------------------------------------
@pytest.mark.parametrize("index_mode", sorted(DATABASES))
@pytest.mark.parametrize("template, constants", TEMPLATES)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_bound_plan_equals_a_fresh_compile(index_mode, template,
                                           constants, data):
    db = DATABASES[index_mode]
    first, second = (data.draw(constants) for _ in range(2))
    text = template.format(second)
    with db.session() as session:
        session.prepare(template.format(first))
        bound = session.prepare(text)
        assert session.cache_stats()["plan_cache"]["hits"] == 1
        fresh = compile_query(text, db)
        assert [a.label for a in bound.alternatives] == \
            [a.label for a in fresh.plans()]
        # EXPLAIN shows constants and probes: equal text is the same
        # access-path choice bound to the same values.
        assert [plan_to_string(a.plan) for a in bound.alternatives] == \
            [plan_to_string(a.plan) for a in fresh.plans()]
        assert bound.explain() == fresh.explain()
        for mode in (None, "reference"):
            kwargs = {} if mode is None else {"mode": mode}
            assert bound.execute(use_result_cache=False,
                                 **kwargs).output == \
                db.execute(fresh.best().plan, **kwargs).output


@pytest.mark.parametrize("template", SERVE_TEMPLATES)
def test_a_hit_binds_nothing_and_a_miss_binds_one_alternative(template):
    db = DATABASES["lazy"]
    with db.session() as session:
        session.execute(template.format(1))
        session.execute(template.format(2))
        bound, _, hit = session.lookup(template.format(2))
        assert hit.cached and bound.template is not bound
        assert bound._alternatives is None and not bound._bound
        bound.execute(use_result_cache=False)
        assert len(bound._bound) == 1 and bound._alternatives is None


# ----------------------------------------------------------------------
# What never shares a template
# ----------------------------------------------------------------------
def _templates(session, *texts) -> list:
    return [session.prepare(text).template for text in texts]


def test_document_names_are_part_of_the_shape():
    db = DATABASES["off"]
    texts = ['for $t in doc("bib.xml")//title return $t',
             'for $t in doc("reviews.xml")//title return $t']
    with db.session() as session:
        first, second = _templates(session, *texts)
        assert first is not second
        outputs = [session.execute(text).output for text in texts]
        assert outputs == [db.execute(compile_query(t, db).best().plan)
                           .output for t in texts]


@pytest.mark.parametrize("template", [
    'for $t in doc("bib.xml")//title (: {} :) return $t',
    'for $t in doc("bib.xml")//title return <a>{}</a>',
    'for $t in doc("bib.xml")//title return <a x="{}">{{ $t }}</a>',
    'for $t in doc("bib.xml")//book[@year > {}] return <a>{}</a>',
])
def test_literals_the_parser_does_not_read_as_values_fix_the_text(
        template):
    db = DATABASES["off"]
    texts = [template.format(5, 7), template.format(6, 8)]
    with db.session() as session:
        first, second = _templates(session, *texts)
        assert first is not second
        assert session.cache_stats()["plan_cache"]["misses"] == 2
        for text in texts:
            assert session.execute(text).output == \
                db.execute(compile_query(text, db).best().plan).output
        # The same text again is still one template.
        assert _templates(session, texts[0]) == [first]


@pytest.mark.parametrize("mode", MODES)
def test_a_constructor_attribute_keeps_the_text_bindable(mode):
    """A quoted attribute value is constructor text, not a literal: a
    text with one (Q2's ``title="{ $t1 }"``) binds its constants like
    any other."""
    template = ('for $t in distinct-values(doc("bib.xml")//book'
                '[@year > {}]/title) return <r title="{{ $t }}"/>')
    db = DATABASES["off"]
    texts = [template.format(1990), template.format(1995)]
    with db.session() as session:
        first, second = _templates(session, *texts)
        assert first is second and first.bindable
        assert session.cache_stats()["plan_cache"]["bindings"] == 1
        for text in texts:
            assert session.execute(text, mode=mode).output == \
                db.execute(compile_query(text, db).best().plan,
                           mode=mode).output


def test_integer_and_decimal_literals_are_different_shapes():
    db = DATABASES["off"]
    with db.session() as session:
        first, second = _templates(
            session, ITEMS_SCAN.format(5), ITEMS_SCAN.format("5.0"))
        assert first is not second


def test_integer_and_decimal_literals_never_share_a_result():
    """``5`` and ``5.0`` are equal values that print differently, so
    their texts must not share a result (nor a coalesced execution:
    the server keys in-flight work the same way)."""
    db = DATABASES["off"]
    template = ('for $t in doc("bib.xml")//book[@year > 1990] '
                'return <a>{{ concat("v", {}) }}</a>')
    texts = [template.format(5), template.format("5.0")]
    with db.session() as session:
        results = [session.execute(text) for text in texts]
        assert not results[1].cached
        assert [r.output for r in results] == \
            [db.execute(compile_query(t, db).best().plan).output
             for t in texts]
        assert "v5.0" in results[1].output and \
            "v5.0" not in results[0].output
        keys = [session.lookup(text)[1] for text in texts]
        assert keys[0] != keys[1]


def test_equal_literals_that_are_compared_by_text_are_fixed():
    """Normalization compares the ∀ predicate's paths by their text:
    with equal constants they are one path, with different ones two
    (which it rejects) — so those values are part of the plan's key,
    never rebound."""
    db = DATABASES["off"]
    template = ('for $a1 in distinct-values(doc("bib.xml")//author) '
                'where every $b2 in doc("bib.xml")//book[author = $a1] '
                'satisfies exists($b2/author[last = "{}"]) '
                'or exists($b2/author[last = "{}"]) '
                'return <a>{{ $a1 }}</a>')
    with db.session() as session:
        assert session.prepare(template.format("X", "X")).fixed == (0, 1)
        with pytest.raises(TranslationError):
            session.prepare(template.format("X", "Y"))
        same = template.format("Y", "Y")
        assert session.prepare(same).template.values == ("Y", "Y")


def test_cost_ranking_fixes_the_literals_it_prices():
    """``ranking="cost"`` orders alternatives by estimates that read a
    value probe's constant, so that constant is part of the key; a
    constant no probe reads still binds."""
    db = DATABASES["lazy"]
    with db.session(ranking="cost") as session:
        first = session.prepare(ITEMS_SCAN.format(100))
        assert first.fixed == (0,)
        text = ITEMS_SCAN.format(200)
        assert session.prepare(text).template is not first
        fresh = compile_query(text, db, ranking="cost")
        assert [a.label for a in session.prepare(text).alternatives] == \
            [a.label for a in fresh.plans()]
        popular = session.prepare(POPULAR_ITEMS.format(2))
        assert popular.fixed == ()
        assert session.prepare(POPULAR_ITEMS.format(3)).template is popular


def test_texts_differing_in_a_constant_never_share_a_result():
    db = DATABASES["lazy"]
    with db.session() as session:
        low = session.execute(ITEMS_SCAN.format(10))
        high = session.execute(ITEMS_SCAN.format(10_000))
        assert not high.cached and low.output != high.output
        assert len(session._result_cache) == 2
        assert session.execute(ITEMS_SCAN.format(10)).output == \
            low.output
        stats = session.cache_stats()["plan_cache"]
        assert (stats["hits"], stats["misses"], stats["bindings"]) == \
            (2, 1, 1)


# ----------------------------------------------------------------------
# The pre-scan reads every literal the way the parser does
# ----------------------------------------------------------------------
#: what a string literal in each quote is drawn from: text, the other
#: quote, the doubled quote, references, and characters that mean
#: something outside a literal
_LITERAL_PIECES = {
    q: ["a", " ", other, q * 2, "&amp;", "&lt;", "&gt;", "&quot;",
        "&apos;", "&#65;", "&#x42;", "{", "}", "<", "(:", "1"]
    for q, other in (('"', "'"), ("'", '"'))}


@st.composite
def _escaped_literal(draw):
    quote = draw(st.sampled_from(sorted(_LITERAL_PIECES)))
    body = "".join(draw(st.lists(st.sampled_from(_LITERAL_PIECES[quote]),
                                 max_size=6)))
    return quote + body + quote, html.unescape(body.replace(quote * 2,
                                                            quote))


@settings(max_examples=40, deadline=None)
@given(first=_escaped_literal(), second=_escaped_literal(),
       number=st.integers(0, 2100))
def test_the_pre_scan_reads_escaped_literals_as_the_parser_does(
        first, second, number):
    def text(title, year, word):
        return ('for $b in doc("bib.xml")//book[title != ' + title
                + '] where $b/@year > ' + str(year) + ' and contains('
                + '$b/title, ' + word + ') return <r>{{ { $b/title } }}</r>')

    query = text(first[0], number, second[0])
    shape = query_shape(query)
    slots = parse_query(query)[1]
    assert shape.values == tuple(slot.value for slot in slots) == \
        (first[1], number, second[1])
    assert shape.spans == tuple((slot.start, slot.end) for slot in slots)
    db = DATABASES["off"]
    with db.session() as session:
        session.prepare(text('"x"', 0, '""'))
        bound = session.prepare(query)
        assert session.cache_stats()["plan_cache"]["hits"] == 1
        assert bound.execute(use_result_cache=False).output == \
            db.execute(compile_query(query, db).best().plan).output


# ----------------------------------------------------------------------
# One compile per shape
# ----------------------------------------------------------------------
def test_four_shapes_compile_four_times(monkeypatch):
    compiles = []
    real = repro.api.compile_query

    def counting(*args, **kwargs):
        compiles.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.api, "compile_query", counting)
    db = DATABASES["lazy"]
    with db.session(plan_cache_size=8) as session:
        for constant in range(100):
            for template in SERVE_TEMPLATES:
                session.prepare(template.format(constant * 11))
        assert len(compiles) == 4
        stats = session.cache_stats()["plan_cache"]
        assert (stats["misses"], stats["hits"]) == (4, 396)
        # Executions bind; they do not compile either.
        for template in SERVE_TEMPLATES:
            session.execute(template.format(503))
        assert len(compiles) == 4


def test_a_disabled_plan_cache_does_no_shape_work(monkeypatch):
    import repro.session
    monkeypatch.setattr(repro.session, "query_shape", lambda text: (
        pytest.fail("scanned a text for a disabled plan cache")))
    db = DATABASES["lazy"]
    with db.session(plan_cache_size=0, result_cache_size=0) as session:
        session.execute(ITEMS_SCAN.format(100))
        session.execute(ITEMS_SCAN.format(100))
        assert session.cache_stats()["plan_cache"]["misses"] == 2


def test_a_flipped_access_path_choice_compiles_the_text(monkeypatch):
    """When re-pricing the probe for the new constants reverses the
    template's decision, the text is compiled afresh and its result is
    not filed under the template's key."""
    db = DATABASES["lazy"]
    with db.session() as session:
        template = session.prepare(ITEMS_SCAN.format(100))
        assert template._choices, "the value probe read a constant"
        monkeypatch.setattr(ProbeChoice, "holds",
                            lambda self, values, model: False)
        text = ITEMS_SCAN.format(200)
        bound = session.prepare(text)
        result = bound.execute()
        assert bound._flipped() is not None
        assert result.output == db.execute(
            compile_query(text, db).best().plan).output
        assert not session.execute(text).cached
        assert len(session._result_cache) == 0


def test_a_label_only_the_repriced_binding_has_is_found(monkeypatch):
    """A template that did not take the value probe has no ``+index``
    alternative; a text whose constant makes the probe win has one, and
    requesting it by label runs it — the lookup cannot tell without
    re-pricing, so it misses with no key instead of raising."""
    from repro.optimizer import access_paths
    db = DATABASES["lazy"]
    with db.session() as session:
        with monkeypatch.context() as patch:
            patch.setattr(access_paths, "_probe_wins",
                          lambda probe_cost, scan_cost: False)
            template = session.prepare(ITEMS_SCAN.format(100))
        assert [a.label for a in template.alternatives] == ["nested"]
        text = ITEMS_SCAN.format(200)
        fresh = compile_query(text, db)
        label = fresh.best().label
        assert label == "nested+index"
        bound, key, hit = session.lookup(text, label=label)
        assert bound.template is template and key is hit is None
        result = bound.execute(label=label)
        assert bound._flipped() is not None
        assert result.output == db.execute(fresh.best().plan).output
        with pytest.raises(KeyError):
            bound.execute(label="grouping+index")

