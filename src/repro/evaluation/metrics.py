"""Shared evaluation metrics and the one Table 3 computation.

:func:`case_outcome` derives a Table 3 row from the two advising results
of a case, and :func:`table3_aggregate` folds rows into the paper's
aggregates.  The Table 3 harness and the fleet both call them, so the two
sweeps cannot drift apart.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.result import AdvisingResult
    from repro.workloads.base import BenchmarkCase


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (1.0 for an empty sequence)."""
    values = [float(v) for v in values if v > 0]
    if not values:
        return 1.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def relative_error(estimated: float, achieved: float) -> float:
    """The paper's estimate error: ``|estimated - achieved| / achieved``."""
    if achieved == 0:
        return 0.0
    return abs(estimated - achieved) / abs(achieved)


def case_outcome(
    case: "BenchmarkCase", baseline: "AdvisingResult", optimized: "AdvisingResult"
) -> dict:
    """One Table 3 row, as a plain dict, from a case's two advising results.

    The *achieved* speedup is the ratio of the baseline's and the
    hand-optimized variant's kernel cycles; the *estimated* speedup is the
    baseline advice of the case's optimizer; the rank is that optimizer's
    position among the applicable advice (1 = top).  Raises
    :class:`~repro.api.result.AdvisingError` if either result failed.
    """
    baseline_report = baseline.require_report()
    baseline_cycles = baseline_report.profile.statistics.kernel_cycles
    optimized_cycles = optimized.require_report().profile.statistics.kernel_cycles
    achieved = baseline_cycles / optimized_cycles if optimized_cycles else 1.0

    advice = baseline_report.advice_for(case.optimizer_name)
    estimated = advice.estimated_speedup if advice is not None else 1.0
    applicable = [item.optimizer for item in baseline_report.advice if item.applicable]
    rank = (
        applicable.index(case.optimizer_name) + 1
        if case.optimizer_name in applicable
        else None
    )
    return {
        "case_id": case.case_id,
        "baseline_cycles": baseline_cycles,
        "optimized_cycles": optimized_cycles,
        "achieved_speedup": achieved,
        "estimated_speedup": estimated,
        "error": relative_error(estimated, achieved),
        "optimizer_rank": rank,
        "total_samples": baseline_report.profile.total_samples,
    }


def table3_aggregate(rows: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    """The paper's Table 3 aggregates over rows shaped like :func:`case_outcome`."""
    rows = list(rows)
    errors = [row["error"] for row in rows]
    return {
        "geomean_achieved": geometric_mean(row["achieved_speedup"] for row in rows),
        "geomean_estimated": geometric_mean(row["estimated_speedup"] for row in rows),
        # Floored: a perfect estimate must not zero out the geomean.
        "geomean_error": geometric_mean(max(error, 1e-4) for error in errors),
        "mean_error": sum(errors) / len(errors) if errors else 0.0,
    }
