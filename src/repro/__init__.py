"""repro — a reproduction of May, Helmer & Moerkotte,
"Nested Queries and Quantifiers in an Ordered Context" (ICDE 2004).

The package implements the paper's full pipeline (see the top-level
README.md for the layer diagram):

- an XML document store with DTD-derived schema reasoning
  (:mod:`repro.xmldb`) and an XPath subset (:mod:`repro.xpath`);
- the index subsystem — element index, DataGuide path index and sorted
  value index — with the store's ``index_mode`` physical-design switch
  (:mod:`repro.index`);
- NAL, the order-preserving algebra over sequences of tuples
  (:mod:`repro.nal`), with both definitional and hash-based
  semantics (:mod:`repro.engine`);
- the XQuery front end: parser, normalizer, translator
  (:mod:`repro.xquery`);
- the unnesting optimizer implementing equivalences 1–9, a cost model,
  and cost-based access-path selection that turns scans into
  ``IndexScan`` probes (:mod:`repro.optimizer`);
- data generators and the benchmark harness regenerating every table of
  the paper's evaluation, with machine-readable JSON output
  (:mod:`repro.datagen`, :mod:`repro.bench`).

Quick start::

    from repro import Database, compile_query
    from repro.datagen import generate_bib, BIB_DTD

    db = Database(index_mode="lazy")   # "off" reproduces the paper
    db.register_tree("bib.xml", generate_bib(100, 2), dtd_text=BIB_DTD)
    q = compile_query('... XQuery ...', db)
    for alt in q.plans():              # ranked alternatives
        print(alt.label, alt.applied)  # e.g. grouping+index, grouping…
    result = db.execute(q.best().plan)
    print(result.output, result.stats)
"""

from repro.api import CompiledQuery, Database, compile_query
from repro.engine.executor import (
    ExecutionResult,
    analyze_to_string,
    execute,
)
from repro.errors import ReproError
from repro.optimizer.digest import canonical_plan_text, plan_digest
from repro.session import PreparedQuery, Session
from repro.index import IndexManager, IndexProbe
from repro.nal.pretty import plan_to_dot, plan_to_string
from repro.optimizer.access_paths import apply_access_paths
from repro.optimizer.cost import CostModel, PlanCost
from repro.optimizer.pushdown import push_selections, reassociate_left
from repro.optimizer.rewriter import RewriteResult, unnest_plan
from repro.xmldb import Delete, Insert, Replace, StoreSnapshot

__version__ = "1.0.0"

__all__ = [
    "Database",
    "CompiledQuery",
    "compile_query",
    "Session",
    "PreparedQuery",
    "plan_digest",
    "canonical_plan_text",
    "ExecutionResult",
    "execute",
    "analyze_to_string",
    "plan_to_dot",
    "plan_to_string",
    "CostModel",
    "PlanCost",
    "IndexManager",
    "IndexProbe",
    "apply_access_paths",
    "push_selections",
    "reassociate_left",
    "ReproError",
    "RewriteResult",
    "unnest_plan",
    "Insert",
    "Delete",
    "Replace",
    "StoreSnapshot",
    "__version__",
]
