"""Tests for the ``order by`` extension (the clause the paper leaves
untreated; see DESIGN.md)."""

from __future__ import annotations

import pytest

from repro import Database, compile_query
from repro.datagen import BIB_DTD, generate_bib
from repro.errors import TranslationError
from repro.xquery import ast
from repro.xquery.parser import parse_xquery


@pytest.fixture
def db() -> Database:
    database = Database()
    database.register_tree("bib.xml", generate_bib(12, 2, seed=9),
                           dtd_text=BIB_DTD)
    return database


def prices_from(output: str) -> list[float]:
    parts = output.split("<price>")[1:]
    return [float(p.split("</price>")[0]) for p in parts]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_order_by_single_key():
    query = parse_xquery(
        'for $x in doc("a.xml")//b order by $x/p return $x')
    assert len(query.order_by) == 1
    assert not query.order_by[0].descending


def test_parse_order_by_descending():
    query = parse_xquery(
        'for $x in doc("a.xml")//b order by $x/p descending return $x')
    assert query.order_by[0].descending


def test_parse_order_by_explicit_ascending():
    query = parse_xquery(
        'for $x in doc("a.xml")//b order by $x/p ascending return $x')
    assert not query.order_by[0].descending


def test_parse_order_by_multiple_keys():
    query = parse_xquery(
        'for $x in doc("a.xml")//b '
        'order by $x/p descending, $x/q return $x')
    assert len(query.order_by) == 2
    assert query.order_by[0].descending
    assert not query.order_by[1].descending


def test_parse_stable_order_by():
    query = parse_xquery(
        'for $x in doc("a.xml")//b stable order by $x/p return $x')
    assert len(query.order_by) == 1


def test_order_by_str_roundtrip_mentions_keys():
    query = parse_xquery(
        'for $x in doc("a.xml")//b order by $x/p descending return $x')
    assert "order by" in str(query)
    assert "descending" in str(query)


def test_queries_without_order_by_unchanged():
    query = parse_xquery('for $x in doc("a.xml")//b return $x')
    assert query.order_by == ()


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def test_order_by_ascending(db):
    query = compile_query('''
let $d1 := doc("bib.xml")
for $b1 in $d1//book
order by decimal($b1/price)
return <p> { $b1/price } </p>
''', db)
    values = prices_from(query.run("nested").output)
    assert values == sorted(values)
    assert len(values) == 12


def test_order_by_descending(db):
    query = compile_query('''
let $d1 := doc("bib.xml")
for $b1 in $d1//book
order by decimal($b1/price) descending
return <p> { $b1/price } </p>
''', db)
    values = prices_from(query.run("nested").output)
    assert values == sorted(values, reverse=True)


def test_order_by_secondary_key(db):
    query = compile_query('''
let $d1 := doc("bib.xml")
for $b1 in $d1//book
order by $b1/@year, decimal($b1/price) descending
return <p><y>{ $b1/@year }</y><price>{ decimal($b1/price) }</price></p>
''', db)
    output = query.run("nested").output
    years = [int(p.split("</y>")[0]) for p in output.split("<y>")[1:]]
    assert years == sorted(years)
    prices = prices_from(output)
    by_year: dict[int, list[float]] = {}
    for year, price in zip(years, prices):
        by_year.setdefault(year, []).append(price)
    for group in by_year.values():
        assert group == sorted(group, reverse=True)


def test_order_by_is_stable(db):
    """Equal keys keep document order — the clause sorts by year only,
    so books within one year must stay in document order."""
    baseline = compile_query('''
let $d1 := doc("bib.xml")
for $b1 in $d1//book
return <p><y>{ $b1/@year }</y><t>{ $b1/title }</t></p>
''', db).run("nested").output
    ordered = compile_query('''
let $d1 := doc("bib.xml")
for $b1 in $d1//book
order by $b1/@year
return <p><y>{ $b1/@year }</y><t>{ $b1/title }</t></p>
''', db).run("nested").output

    def pairs(output):
        result = []
        for block in output.split("<p>")[1:]:
            year = block.split("<y>")[1].split("</y>")[0]
            title = block.split("<t>")[1].split("</t>")[0]
            result.append((year, title))
        return result

    base_pairs = pairs(baseline)
    for year in {y for y, _ in base_pairs}:
        doc_order = [t for y, t in base_pairs if y == year]
        sorted_order = [t for y, t in pairs(ordered) if y == year]
        assert doc_order == sorted_order


def test_order_by_composes_with_unnesting(db):
    """A nested query with a top-level order by still unnests, and all
    plans produce identically ordered output."""
    query = compile_query('''
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
order by string($a1)
return
  <author><name> { $a1 } </name>
  { let $d2 := doc("bib.xml")
    for $b2 in $d2/book[$a1 = author]
    return $b2/title }
  </author>
''', db)
    labels = {alt.label for alt in query.plans()}
    assert "grouping" in labels or "outerjoin" in labels
    outputs = {label: db.execute(query.plan_named(label).plan).output
               for label in labels}
    reference = outputs.pop("nested")
    for label, output in outputs.items():
        assert output == reference, label
    names = [b.split("</name>")[0].strip()
             for b in reference.split("<name>")[1:]]
    assert names == sorted(names)


def test_reference_and_default_agree_on_order_by(db):
    query = compile_query('''
let $d1 := doc("bib.xml")
for $b1 in $d1//book
order by decimal($b1/price) descending
return <p> { $b1/price } </p>
''', db)
    plan = query.plan_named("nested").plan
    assert db.execute(plan).output == \
        db.execute(plan, mode="reference").output


# ---------------------------------------------------------------------------
# Restrictions
# ---------------------------------------------------------------------------

def test_inner_order_by_rejected(db):
    with pytest.raises(TranslationError, match="outermost"):
        compile_query('''
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
return
  <author>
  { for $b2 in doc("bib.xml")//book
    order by $b2/title
    return $b2/title }
  </author>
''', db)


def test_order_spec_defaults():
    spec = ast.OrderSpec(ast.VarRef("x"))
    assert not spec.descending
    assert "descending" not in str(spec)
