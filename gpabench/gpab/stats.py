"""Order statistics shared by every workload."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (not interpolated)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    # The epsilon keeps float error from pushing an exact rank up by one.
    rank = max(1, math.ceil(pct / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Nearest-rank median, so the tail is never below it."""
    return percentile(values, 50.0)


def tail_percentile(count: int) -> float:
    """The highest percentile with at least ten of ``count`` samples
    beyond it: ``100 * (count - 10) / count``.

    With fewer than twenty samples that would fall below the median; the
    median is used instead, and the report states the sample count.
    """
    return max(50.0, 100.0 * (count - TAIL_BEYOND) / count) if count else 50.0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the tail of ``values``."""
    pct = tail_percentile(len(values))
    return pct, percentile(values, pct)
