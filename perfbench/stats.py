"""Percentiles with an explicit sample-count rule.

A percentile is only reported when at least :data:`MIN_TAIL` samples
lie beyond it (so p90 needs 100 samples and p99 needs 1000); otherwise
the caller gets ``None`` and the metric is left out of the result.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

MIN_TAIL = 10


def median(samples: Sequence[float]) -> Optional[float]:
    if not samples:
        return None
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_supported(n: int, pct: float) -> bool:
    """True when ``n`` samples leave at least MIN_TAIL beyond ``pct``."""
    return n * (100.0 - pct) / 100.0 >= MIN_TAIL


def percentile(samples: Sequence[float], pct: float) -> Optional[float]:
    """Nearest-rank percentile, or None when the tail is too thin.

    The median is always reported (it needs no tail beyond one sample).
    """
    n = len(samples)
    if n == 0:
        return None
    if pct == 50:
        return median(samples)
    if not tail_supported(n, pct):
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return float(ordered[rank - 1])


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
