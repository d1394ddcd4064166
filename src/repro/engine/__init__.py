"""Execution engine (the Natix stand-in).

- :mod:`repro.engine.context` — evaluation context (document store, scan
  statistics, output stream);
- :mod:`repro.engine.kernels` — hash-based, order-preserving row
  algorithms for joins and groupings, shared by both engines;
- :mod:`repro.engine.vectorized` — the materializing (default)
  evaluator: batches of arena columns, the kernels for joins/groupings;
- :mod:`repro.engine.pipeline` — the pipelined evaluator: the same
  kernels behind generators, with first-witness short-circuiting for
  quantifier subscripts;
- :mod:`repro.engine.executor` — the user-facing ``execute`` entry point
  returning rows, constructed output and statistics.
"""

from repro.engine.context import EvalContext
from repro.engine.executor import ExecutionResult, execute
from repro.engine.pipeline import run_pipelined
from repro.engine.vectorized import run_vectorized

__all__ = ["EvalContext", "ExecutionResult", "execute", "run_pipelined",
           "run_vectorized"]
