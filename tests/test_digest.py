"""Tests for the canonical, process-stable plan digest
(:mod:`repro.optimizer.digest`) — the result cache's identity half."""

from __future__ import annotations

import subprocess
import sys
import textwrap

from repro.api import Database, compile_query
from repro.datagen import BIB_DTD, REVIEWS_DTD, generate_bib, \
    generate_reviews
from repro.optimizer.digest import (
    canonical_plan_text,
    plan_digest,
    referenced_documents,
)

NESTED_QUERY = '''
let $d1 := doc("bib.xml")
for $a1 in distinct-values($d1//author)
return
  <author><name> { $a1 } </name>
  { let $d2 := doc("bib.xml")
    for $b2 in $d2/book[$a1 = author]
    return $b2/title }
  </author>
'''

TWO_DOC_QUERY = '''
let $d1 := document("bib.xml")
for $t1 in $d1//book/title
where some $t2 in document("reviews.xml")//entry/title
      satisfies $t1 = $t2
return <book-with-review>{ $t1 }</book-with-review>
'''


def bib_db() -> Database:
    db = Database()
    db.register_tree("bib.xml", generate_bib(8, 2, seed=3),
                     dtd_text=BIB_DTD)
    db.register_tree("reviews.xml", generate_reviews(8, seed=3),
                     dtd_text=REVIEWS_DTD)
    return db


def test_digest_is_deterministic_within_a_process():
    db = bib_db()
    first = compile_query(NESTED_QUERY, db)
    second = compile_query(NESTED_QUERY, db)
    for a, b in zip(first.plans(), second.plans()):
        assert a.label == b.label
        assert canonical_plan_text(a.plan) == canonical_plan_text(b.plan)
        assert a.digest() == b.digest()


def test_digest_distinguishes_alternatives_and_queries():
    db = bib_db()
    query = compile_query(NESTED_QUERY, db)
    digests = {alt.digest() for alt in query.plans()}
    assert len(digests) == len(query.plans()), \
        "every plan alternative must have a distinct digest"
    other = compile_query(
        'for $t in doc("bib.xml")//title return $t', db)
    assert other.best().digest() not in digests


def test_digest_is_memoized_and_versioned():
    db = bib_db()
    alt = compile_query(NESTED_QUERY, db).best()
    assert alt.digest() is alt.digest()
    text = canonical_plan_text(alt.plan)
    assert text.startswith("#digest-v2\n")
    assert len(alt.digest()) == 64  # sha-256 hex
    assert alt.digest() == plan_digest(alt.plan)


def test_referenced_documents_walks_nested_plans():
    db = bib_db()
    nested = compile_query(NESTED_QUERY, db)
    assert referenced_documents(nested.plan) == {"bib.xml"}
    two_docs = compile_query(TWO_DOC_QUERY, db)
    for alt in two_docs.plans():
        assert referenced_documents(alt.plan) \
            == {"bib.xml", "reviews.xml"}


_STABILITY_SCRIPT = textwrap.dedent('''
    from repro.api import Database, compile_query
    from repro.datagen import BIB_DTD, generate_bib

    QUERY = """{query}"""
    db = Database(index_mode="lazy")
    db.register_tree("bib.xml", generate_bib(8, 2, seed=3),
                     dtd_text=BIB_DTD)
    for alt in compile_query(QUERY, db).plans():
        print(alt.label, alt.digest())
''').format(query=NESTED_QUERY)


def _digests_under_hashseed(seed: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", _STABILITY_SCRIPT],
        capture_output=True, text=True,
        env={"PYTHONHASHSEED": seed, "PYTHONPATH": "src",
             "PATH": "/usr/bin:/bin"},
        cwd=str(__import__("pathlib").Path(__file__).parent.parent),
        check=True)
    return result.stdout


def test_digest_stable_across_interpreter_runs():
    """The cache-key contract: digests must not depend on string-hash
    randomization, ``id()`` values or set iteration order, so two
    interpreter runs with different PYTHONHASHSEED agree exactly."""
    assert _digests_under_hashseed("1") == _digests_under_hashseed("2")
