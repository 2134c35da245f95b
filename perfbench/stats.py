"""Order statistics and seed derivation shared by every workload."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

import numpy as np

#: Tail percentiles considered, highest first.  A timing is reported as its
#: median plus the highest of these that has at least ``MIN_BEYOND``
#: samples above it, so a tail figure never rests on a handful of samples.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0)
MIN_BEYOND = 10


def _rank(percent: float, count: int) -> int:
    """1-based nearest rank; rounding first keeps 99.9% of 10000 at 9990."""
    return max(1, math.ceil(round(percent / 100.0 * count, 9)))


def nearest_rank(values: Sequence[float], percent: float) -> float:
    """The nearest-rank percentile: the smallest sample with at least
    ``percent`` % of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[_rank(percent, len(ordered)) - 1]


def tail_percent(count: int) -> Optional[float]:
    """Highest :data:`TAIL_LADDER` percentile with at least
    :data:`MIN_BEYOND` samples above its rank among ``count`` samples, or
    None when the sample is too small."""
    for percent in TAIL_LADDER:
        if count - _rank(percent, count) >= MIN_BEYOND:
            return percent
    return None


def summarize(values: Sequence[float]) -> Dict:
    """Median, the supported tail percentile and the sample count."""
    summary: Dict = {"n": len(values)}
    if not values:
        return summary
    summary["p50"] = statistics.median(values)
    percent = tail_percent(len(values))
    if percent is not None:
        summary["tail_percent"] = percent
        summary["tail"] = nearest_rank(values, percent)
    return summary


def describe(values: Sequence[float], unit: str = "s") -> str:
    """One-line rendering of :func:`summarize` for the console."""
    summary = summarize(values)
    if summary["n"] == 0:
        return "n=0"
    text = f"p50={summary['p50']:.6g}{unit}"
    if "tail" in summary:
        text += f" p{summary['tail_percent']:g}={summary['tail']:.6g}{unit}"
    return f"{text} (n={summary['n']})"


def derive_seed(seed: int, stream: int, index: int = 0) -> int:
    """A 31-bit seed for input ``stream``/``index`` drawn from the workload
    seed alone, so every generated input follows ``--seed``."""
    state = np.random.SeedSequence([seed, stream, index]).generate_state(1)
    return int(state[0] & 0x7FFFFFFF)
