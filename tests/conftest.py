"""Shared fixtures: the paper's Fig. 1/2 relations, a small bib database,
and helpers for comparing plan outputs."""

from __future__ import annotations

import importlib.util
import pathlib
import re
import sys

import pytest
from hypothesis import settings

from repro.api import Database
from repro.datagen import (
    BIB_DTD,
    BIDS_DTD,
    PRICES_DTD,
    REVIEWS_DTD,
    generate_bib,
    generate_bids,
    generate_prices,
    generate_reviews,
)
from repro.nal.unary_ops import Table
from repro.xmldb.document import DocumentStore
from repro.xmldb.node import Node, NodeKind


def _load_ledger_workloads():
    """``benchmarks/ledger/workloads.py`` — the one definition of the
    ledger's corpora and request shapes — loaded by file path under its
    own module name, so no test copies a shape or edits ``sys.path``."""
    path = pathlib.Path(__file__).resolve().parents[1] \
        / "benchmarks" / "ledger" / "workloads.py"
    spec = importlib.util.spec_from_file_location("ledger_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve through it
    spec.loader.exec_module(module)
    return module


ledger = _load_ledger_workloads()

#: CI runs ``pytest --hypothesis-profile=ci``: the same example counts,
#: derandomized, so a red run reproduces; locally the seed stays random
settings.register_profile("ci", derandomize=True, deadline=None)


def exact(value):
    """A value as something ``==`` compares exactly: ``Tup`` equality
    goes through canonical keys, under which ``"NaN"`` differs from
    itself and ``1`` equals ``"1.0"`` — here atoms compare by type and
    spelling, nodes by identity, tuples by their bindings."""
    from repro.nal.values import Tup
    from repro.xmldb.node import Node
    if isinstance(value, Tup):
        return tuple(sorted((a, exact(v)) for a, v in value.items()))
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    return id(value) if isinstance(value, Node) else repr(value)


def ledger_query(template: str, constant: int) -> str:
    """A ledger request shape instantiated with one constant."""
    return template.replace(ledger.SLOT, str(constant))


@pytest.fixture
def r1():
    """The paper's R1 (Fig. 1/2)."""
    return Table("R1", ["A1"], [{"A1": 1}, {"A1": 2}, {"A1": 3}])


@pytest.fixture
def r2():
    """The paper's R2 (Fig. 1/2)."""
    return Table("R2", ["A2", "B"], [
        {"A2": 1, "B": 2},
        {"A2": 1, "B": 3},
        {"A2": 2, "B": 4},
        {"A2": 2, "B": 5},
    ])


@pytest.fixture
def empty_store():
    return DocumentStore()


@pytest.fixture
def bib_db() -> Database:
    db = Database()
    db.register_tree("bib.xml", generate_bib(books=10, authors_per_book=2),
                     dtd_text=BIB_DTD)
    return db


@pytest.fixture
def full_db() -> Database:
    """bib + reviews + prices + bids, all from the same seed."""
    db = Database()
    db.register_tree("bib.xml", generate_bib(books=10, authors_per_book=2),
                     dtd_text=BIB_DTD)
    db.register_tree("reviews.xml", generate_reviews(entries=5),
                     dtd_text=REVIEWS_DTD)
    db.register_tree("prices.xml", generate_prices(books=10),
                     dtd_text=PRICES_DTD)
    db.register_tree("bids.xml", generate_bids(bids=30),
                     dtd_text=BIDS_DTD)
    return db


def output_blocks(text: str) -> list[str]:
    """Split constructed output into its top-level element blocks, sorted
    (for comparing plans whose group order legitimately differs)."""
    match = re.search(r"<([a-zA-Z][\w-]*)[ >]", text)
    if match is None:
        return [text]
    tag = match.group(1)
    return sorted(re.findall(rf"<{tag}[ >].*?</{tag}>|<{tag}>.*?</{tag}>",
                             text))


def assign_order_keys(root: Node, start: int = 0) -> int:
    """Number an unregistered builder tree in document order — the
    ``pre`` numbering an arena gives it (attributes right after their
    element, before its children) — so the XPath evaluator's pointer
    walk can order its results.  Returns the next free key."""
    counter = start
    stack = [root]
    while stack:
        node = stack.pop()
        node.order_key = counter
        counter += 1
        for attr in node.attributes:
            attr.order_key = counter
            counter += 1
        stack.extend(reversed(node.children))
    return counter


def builder_copy(node: Node) -> Node:
    """A mutable builder tree equal to ``node``'s subtree (parsing
    yields arena handles; this is how a test gets a pointer-walk tree
    out of text), numbered by :func:`assign_order_keys`."""
    def copy(node: Node) -> Node:
        if node.kind is NodeKind.TEXT:
            return Node(NodeKind.TEXT, text=node.text)
        twin = Node(NodeKind.ELEMENT, name=node.name)
        for attr in node.attributes:
            twin.set_attribute(attr.name, attr.text)
        for child in node.children:
            twin.append_child(copy(child))
        return twin

    root = copy(node)
    assign_order_keys(root)
    return root
