"""The ledger's five workloads: corpora, request shapes and schedules.

Everything here is a pure function of ``(workload, scale, seed)``: the
parent process uses it to write the input files and to pick the texts
the oracle verifies, the worker subprocess uses it to rebuild the same
request schedule.  The program under test only ever sees the generated
XML files and query texts.

No execution mode, index mode, ranking or engine is named anywhere in
this file: the workloads drive ``Database()``, ``db.session(...)``,
``session.execute(text)``, ``db.update(...)`` and ``python -m repro
serve --docs DIR --port 0`` with their defaults, so a later change of a
default is measured rather than broken.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field

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
from repro.xmldb.node import element
from repro.xmldb.serialize import serialize

#: placeholder a shape's template carries where its constant goes
#: (XQuery text is full of braces and percent signs are legal in
#: strings, so neither ``str.format`` nor ``%`` is safe)
SLOT = "@K@"

BIDS_SCAN = '''
let $d1 := doc("bids.xml")
for $b1 in $d1//bidtuple
where $b1/bid >= @K@
return <big>{ $b1/itemno }</big>
'''

ITEMS_SCAN = '''
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple
where $i1/reserveprice >= @K@
return <pricey>{ $i1/itemno }</pricey>
'''

POPULAR_ITEMS = '''
let $d1 := doc("bids.xml")
for $i1 in distinct-values($d1//itemno)
where count($d1//bidtuple[itemno = $i1]) >= @K@
return <popular-item>{ $i1 }</popular-item>
'''

ITEMS_WITH_BID = '''
let $d1 := doc("items.xml")
for $i1 in $d1//itemtuple/itemno
where some $b2 in doc("bids.xml")//bidtuple[bid >= @K@]/itemno
      satisfies $i1 = $b2
return <wanted>{ $i1 }</wanted>
'''

ORDER_REPORT = '''
let $d1 := doc("items.xml")
let $b1 := doc("bids.xml")
for $i1 in $d1//itemtuple
let $n1 := zero-or-one($i1/itemno)
order by $n1
return <item><no>{ $n1 }</no>
  <market-bids>{ count($b1//bid) }</market-bids>
  <market-days>{ count($b1//biddate) }</market-days></item>
'''

SHARDS_SCAN = '''
for $i1 in collection("shard-*.xml")//itemtuple
where $i1/reserveprice >= 250
return <pricey>{ $i1/itemno }</pricey>
'''


@dataclass(frozen=True)
class Shape:
    """One request shape: a query template plus the pool of constants
    it is instantiated with (empty pool: the template is the text)."""

    name: str
    template: str
    pool: tuple[int, ...] = ()
    #: plan alternative requested by label (None: the program's choice)
    label: str | None = None
    #: how many distinct texts of this shape the oracle verifies at
    #: full size / on the tenth-size corpus (None: all of them).  The
    #: definitional evaluator is quadratic on joins, so the expensive
    #: shapes of the large corpora are verified on fewer texts.
    oracle_full: int | None = None
    oracle_tenth: int | None = None

    def text(self, constant: int | None = None) -> str:
        if constant is None:
            return self.template
        return self.template.replace(SLOT, str(constant))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "session" (in-process queries), "http" (server subprocess) or
    #: "update" (in-process updates beside reads)
    kind: str
    shapes: tuple[Shape, ...]
    #: corpus sizes per scale: books / bids / items / shards
    sizes: dict = field(default_factory=dict)
    #: keyword arguments of ``db.session(...)`` — cache sizes only
    session_kwargs: dict = field(default_factory=dict)
    clients: int = 1

    def shape(self, name: str) -> Shape:
        return next(s for s in self.shapes if s.name == name)


def _paper_shapes(label: str | None) -> tuple[Shape, ...]:
    return tuple(Shape(key, PAPER_QUERIES[key].text, label=label)
                 for key in ("q1", "q2", "q3", "q4", "q5", "q6"))


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "paper-unnested",
        "the paper's fast side at its middle size: time is hash "
        "join/group/construct kernels in engine+nal, compile is ~0",
        "session", _paper_shapes(None),
        sizes={"full": {"books": 1000, "bids": 1000},
               "smoke": {"books": 20, "bids": 20}},
        session_kwargs={"result_cache_size": 0}),
    Workload(
        "paper-nested",
        "the cost the paper is about: nested subscripts re-evaluated "
        "per outer tuple through nal evaluate + xpath",
        "session", _paper_shapes("nested"),
        sizes={"full": {"books": 32, "bids": 32},
               "smoke": {"books": 10, "bids": 10}},
        session_kwargs={"result_cache_size": 0}),
    Workload(
        "cold-compile",
        "every request pays xquery+optimizer on a tiny corpus; the "
        "engine does almost nothing, so compile cost is what shows",
        "session",
        _paper_shapes(None) + (
            Shape("items-scan", ITEMS_SCAN.replace(SLOT, "250")),
            Shape("bids-scan", BIDS_SCAN.replace(SLOT, "500")),
            Shape("order-report", ORDER_REPORT),
            Shape("shards-scan", SHARDS_SCAN)),
        sizes={"full": {"books": 4, "bids": 4, "items": 4, "shards": 4},
               "smoke": {"books": 4, "bids": 4, "items": 4,
                         "shards": 2}},
        session_kwargs={"plan_cache_size": 0, "result_cache_size": 0}),
    Workload(
        "serve-http",
        "the deployed path (server+session+lazy index) over loopback "
        "with a Zipf working set larger than both caches",
        "http",
        (Shape("bid-threshold", BIDS_SCAN, tuple(range(5, 1000, 2)),
               oracle_full=28, oracle_tenth=28),
         Shape("reserve-price", ITEMS_SCAN, tuple(range(10, 500)),
               oracle_full=28, oracle_tenth=28),
         Shape("popular-items", POPULAR_ITEMS, tuple(range(1, 201)),
               oracle_full=1, oracle_tenth=4),
         Shape("items-with-bid", ITEMS_WITH_BID,
               tuple(range(300, 1000, 2)),
               oracle_full=1, oracle_tenth=4)),
        sizes={"full": {"items": 400, "bids": 2000},
               "smoke": {"items": 20, "bids": 60}},
        clients=1),
    Workload(
        "update-mix",
        "writes beside reads on the same arenas: first read of a new "
        "version vs repeat read, compaction, per-version cache "
        "eviction",
        "update",
        (Shape("update", ""),
         Shape("read-scan", ITEMS_SCAN.replace(SLOT, "450")),
         Shape("read-scan-repeat", ITEMS_SCAN.replace(SLOT, "450"),
               oracle_full=0, oracle_tenth=0),
         Shape("read-semijoin", ITEMS_WITH_BID.replace(SLOT, "900"),
               oracle_full=0)),
        sizes={"full": {"items": 2000, "bids": 4000},
               "smoke": {"items": 30, "bids": 60}}),
)}

SCALES = ("full", "smoke")


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------
def document_text(root_name: str, dtd: str, body: str) -> str:
    """XML text with the DTD inlined as a DOCTYPE, so the program's
    own parser derives the schema from what it is handed."""
    return (f'<?xml version="1.0"?>\n<!DOCTYPE {root_name} [{dtd}]>\n'
            f'{body}\n')


def _document(root_name: str, dtd: str, tree) -> str:
    return document_text(root_name, dtd, serialize(tree))


def corpus(sizes: dict, seed: int, divisor: int = 1) -> dict[str, str]:
    """File name → XML text for one workload's documents.  ``divisor``
    shrinks every size (the oracle's tenth-size corpus uses 10)."""
    def scaled(key: str) -> int:
        return max(2, sizes[key] // divisor)

    docs: dict[str, str] = {}
    if "books" in sizes:
        books = scaled("books")
        docs["bib.xml"] = _document(
            "bib", BIB_DTD, generate_bib(books, 2, seed=seed))
        docs["prices.xml"] = _document(
            "prices", PRICES_DTD, generate_prices(books, seed=seed))
        docs["reviews.xml"] = _document(
            "reviews", REVIEWS_DTD,
            generate_reviews(max(1, books // 2), seed=seed))
    if "bids" in sizes:
        bids = scaled("bids")
        items = scaled("items") if "items" in sizes \
            else max(1, bids // 5)
        docs["bids.xml"] = _document(
            "bids", BIDS_DTD, generate_bids(bids, items=items, seed=seed))
    if "items" in sizes:
        docs["items.xml"] = _document(
            "items", ITEMS_DTD, generate_items(scaled("items"),
                                               seed=seed))
    for shard in range(sizes.get("shards", 0)):
        docs[f"shard-{shard}.xml"] = _document(
            "items", ITEMS_DTD,
            generate_items(scaled("items"), seed=seed * 31 + shard))
    return docs


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def _rng(seed: int, *scope) -> random.Random:
    return random.Random("/".join(str(part) for part in (seed,) + scope))


def ranked_pool(shape: Shape, seed: int) -> list[int]:
    """The shape's constants in popularity order (rank 0 is the hottest
    key); which constant holds which rank depends on the seed."""
    pool = list(shape.pool)
    _rng(seed, "pool", shape.name).shuffle(pool)
    return pool


def cycle_order(workload: Workload, seed: int) -> list[Shape]:
    """The fixed per-cycle request order of a single-client workload
    (update-mix keeps its declared order: the cycle is a story)."""
    shapes = list(workload.shapes)
    if workload.kind == "session":
        _rng(seed, "order", workload.name).shuffle(shapes)
    return shapes


#: step of the Weyl sequence the Zipf draws walk (golden ratio)
_PHI = 0.6180339887498949


def http_requests(workload: Workload, seed: int):
    """Endless ``(shape, text)`` stream the HTTP clients share (each
    takes the next request when its previous one completed).  Shapes
    rotate in a seeded order; each shape's constants follow Zipf(1.0)
    over its ranked pool, drawn by inverse CDF from a low-discrepancy
    (Weyl) sequence instead of a random one: every run sends the same
    mix of ranks, so run-to-run differences are the program's, not the
    dice's.  The seed decides which constant holds which rank, the
    shape order and each shape's starting phase."""
    rng = _rng(seed, "http", workload.name)
    draws = []
    for shape in workload.shapes:
        pool = ranked_pool(shape, seed)
        cumulative = list(itertools.accumulate(
            1.0 / rank for rank in range(1, len(pool) + 1)))
        draws.append((shape, pool, cumulative, rng.random()))
    rng.shuffle(draws)
    for step in itertools.count(1):
        for shape, pool, cumulative, phase in draws:
            point = (phase + step * _PHI) % 1.0
            rank = bisect.bisect_left(cumulative, point * cumulative[-1])
            yield shape, shape.text(pool[rank])


def oracle_texts(workload: Workload, seed: int
                 ) -> list[tuple[Shape, str, bool, bool]]:
    """``(shape, text, verify_full, verify_tenth)`` for every text the
    oracle looks at: the hottest keys of each pooled shape (64 texts on
    serve-http), the single text of every other shape."""
    out = []
    for shape in workload.shapes:
        if not shape.template:
            continue
        if shape.pool:
            constants = ranked_pool(shape, seed)
        else:
            constants = [None]
        full = len(constants) if shape.oracle_full is None \
            else shape.oracle_full
        tenth = len(constants) if shape.oracle_tenth is None \
            else shape.oracle_tenth
        for rank, constant in enumerate(constants[:max(full, tenth)]):
            out.append((shape, shape.text(constant),
                        rank < full, rank < tenth))
    return out


# ----------------------------------------------------------------------
# update-mix operations
# ----------------------------------------------------------------------
UPDATE_KINDS = ("replace", "insert", "delete")


def update_stream(seed: int):
    """Endless ``(kind, position draw, fresh itemtuple tree)`` stream.
    The kind rotates (offset by the seed) so the document keeps its
    size; ``position`` is a float in [0, 1) the worker scales to the
    current child count.  Fresh items carry a reserve price inside the
    read-scan's range, so every update changes what the reads return."""
    rng = _rng(seed, "updates")
    for step in itertools.count():
        kind = UPDATE_KINDS[(step + seed) % len(UPDATE_KINDS)]
        tree = element(
            "itemtuple",
            element("itemno", f"N{step:06d}"),
            element("description", f"refreshed item {step}"),
            element("offered_by", "U00001"),
            element("reserveprice", str(rng.randrange(450, 500))))
        yield kind, rng.random(), tree
