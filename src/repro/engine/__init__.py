"""Execution engine (the Natix stand-in).

- :mod:`repro.engine.context` — evaluation context (document store, scan
  statistics, output stream);
- :mod:`repro.engine.kernels` — hash-based, order-preserving row
  algorithms for joins and groupings;
- :mod:`repro.engine.vectorized` — the evaluator: batches of arena
  columns, the kernels for joins/groupings;
- :mod:`repro.engine.pipeline` — first-witness evaluation of boolean
  subscripts: the nested plan under a quantifier or ``exists()`` is
  pulled only as far as the answer needs;
- :mod:`repro.engine.executor` — the user-facing ``execute`` entry point
  returning rows, constructed output and statistics.
"""

from repro.engine.context import EvalContext
from repro.engine.executor import ExecutionResult, execute
from repro.engine.vectorized import run_vectorized

__all__ = ["EvalContext", "ExecutionResult", "execute", "run_vectorized"]
