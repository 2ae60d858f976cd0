"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it, so one slow sample cannot set it alone.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def nearest_rank(values: Sequence[float], p: float) -> Tuple[float, int]:
    """The ``p``-th percentile by nearest rank, and its 1-based rank."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    # round first: 99.9 / 100 * 10000 is 9990.000000000002 in floats
    rank = max(1, math.ceil(round(p / 100.0 * len(ordered), 9)))
    return float(ordered[rank - 1]), rank


def tail_percentile(values: Sequence[float]
                    ) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``MIN_BEYOND`` samples beyond it.

    Returns ``(p, value, samples_beyond)``, or ``None`` when even the
    median lacks that many samples above it.
    """
    for p in TAIL_PERCENTILES:
        if not values:
            break
        value, rank = nearest_rank(values, p)
        beyond = len(values) - rank
        if beyond >= MIN_BEYOND:
            return p, value, beyond
    return None
