"""Summaries of latency samples: median, nearest-rank percentile, geomean."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the sample at rank ⌈fraction·n⌉)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Iterable[float]) -> float:
    positive = [value for value in values if value > 0.0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(value) for value in positive) / len(positive))


def normalised(samples_by_name: Dict[str, List[float]]) -> List[float]:
    """Every sample divided by the median of its own statement: what is left
    is stalls and jitter, not the mix of cheap and expensive statements."""
    ratios: List[float] = []
    for samples in samples_by_name.values():
        centre = median(samples)
        if centre > 0.0:
            ratios.extend(sample / centre for sample in samples)
    return ratios
