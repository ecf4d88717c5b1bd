"""Measurement helpers and the result record shared by the workloads."""

from __future__ import annotations

import math
import resource
import statistics
from typing import Sequence


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.metrics: dict[str, float] = {}
        self.report: dict = {}

    def check(self, count: int, failures: list[str]) -> None:
        self.attempted += count
        self.failures += failures


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it.

    Nearest rank always returns a measured sample (no interpolation), so
    a p99 over fewer than 100 samples is simply the maximum.  Empty input
    reads as ``0.0``: the layer did no work.
    """
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values: Sequence[float]) -> float:
    """Median, ``0.0`` for no samples."""
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
