"""Evaluation harness: the code that regenerates the paper's tables and figures.

* :mod:`repro.evaluation.table3` — achieved vs. estimated speedups for every
  (kernel, optimization) pair of Table 3;
* :mod:`repro.evaluation.figure7` — single-dependency coverage before and
  after pruning cold edges (Figure 7);
* :mod:`repro.evaluation.figure1` — the PC-sampling mental model of Figure 1
  (stall/active ratios from round-robin scheduler sampling);
* :mod:`repro.evaluation.metrics` — shared helpers (geometric mean, error)
  and the one Table 3 row and aggregate computation, which the fleet
  (:mod:`repro.evaluation.fleet`) shares.

The ``benchmarks/`` directory wraps these entry points with pytest-benchmark;
``examples/`` and ``EXPERIMENTS.md`` use them directly.
"""

from repro.evaluation.metrics import geometric_mean, relative_error
from repro.evaluation.table3 import Table3Result, Table3Row, evaluate_case, evaluate_table3, format_table3
from repro.evaluation.figure7 import CoverageRow, evaluate_figure7, format_figure7
from repro.evaluation.figure1 import sampling_model_demo

__all__ = [
    "CoverageRow",
    "Table3Result",
    "Table3Row",
    "evaluate_case",
    "evaluate_figure7",
    "evaluate_table3",
    "format_figure7",
    "format_table3",
    "geometric_mean",
    "relative_error",
    "sampling_model_demo",
]
