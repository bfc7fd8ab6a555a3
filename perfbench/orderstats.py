"""Exact order statistics over raw samples.

Every percentile the benchmark reports is one of the samples it
measured (nearest-rank), never a histogram bucket edge: a bucketed
histogram with 25%-wide buckets reports a 44 ms read as 51.7 ms.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

#: ``tail`` reports the highest percentile that still has at least
#: this many samples beyond it.
TAIL_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile: the sample of rank ceil(p·n/100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    """The nearest-rank 50th percentile (the lower middle for even n)."""
    return percentile(samples, 50)


def tail(
    samples: Sequence[float], beyond: int = TAIL_BEYOND
) -> Optional[Tuple[float, float]]:
    """``(value, p)`` of the highest percentile with ``beyond`` samples above.

    That is the order statistic of rank ``n - beyond``; ``p`` is its
    percentile, ``100 * (n - beyond) / n``.  ``None`` when there are
    not more than ``beyond`` samples.
    """
    n = len(samples)
    if n <= beyond:
        return None
    return sorted(samples)[n - beyond - 1], 100.0 * (n - beyond) / n

