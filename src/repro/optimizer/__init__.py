"""The unnesting optimizer.

- :mod:`repro.optimizer.provenance` — column origins (document + path +
  duplicate status), derived by the translator and propagated through
  plans; the raw material of the equivalences' side conditions;
- :mod:`repro.optimizer.conditions` — the side-condition checkers
  (``e1 = ΠD_{A1:A2}(Π_{A2}(e2))`` via DTD path reasoning, duplicate
  freeness, f-independence);
- :mod:`repro.optimizer.equivalences` — Eqvs. 1–9 of the paper as guarded
  rewrite rules, plus the supporting rewrites (predicate pushdown into
  semijoin/antijoin operands, Γ+Ξ fusion into the group-detecting Ξ,
  the §5.4 self-grouping);
- :mod:`repro.optimizer.rewriter` — the driver that finds nested sites,
  enumerates applicable rules and returns ranked plan alternatives;
- :mod:`repro.optimizer.access_paths` — access-path selection: replaces
  document scans with :class:`~repro.nal.unary_ops.IndexScan` probes
  when the store has indexes and the cost model prefers them;
- :mod:`repro.optimizer.properties` — the order-property subsystem:
  bottom-up inference of ``sorted_on`` / document-order /
  duplicate-freeness per operator, data-derived sortedness guarantees
  off the frozen arena, and the ``debug_checks`` run-time verification;
- :mod:`repro.optimizer.elide_order` — the pass that downgrades
  provably redundant Sorts to ``Sort[elided: …]`` no-ops.
"""

from repro.optimizer.access_paths import apply_access_paths
from repro.optimizer.elide_order import elide_sorts
from repro.optimizer.properties import (
    OrderProperties,
    properties_of,
    properties_to_string,
)
from repro.optimizer.provenance import ColumnOrigin, attr_origin
from repro.optimizer.rewriter import RewriteResult, unnest_plan

__all__ = ["ColumnOrigin", "attr_origin", "RewriteResult", "unnest_plan",
           "apply_access_paths", "OrderProperties", "properties_of",
           "properties_to_string", "elide_sorts"]
