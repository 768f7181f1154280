"""Latency statistics: summaries and running averages (Fig. 7).

Latency series flow through here as columnar ``array('d')`` stores
(see ``repro.hypervisor.hypervisor.LatencyColumns``): :func:`summarize`
has a single-sort fast path for them that skips the per-element
``float()`` boxing pass, and :func:`sample_array` converts arbitrary
float sequences into the columnar form.  Both paths produce
bit-identical results — pinned by ``tests/test_stats.py`` against
golden values and ``statistics.quantiles``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence


def sample_array(values: Iterable[float]) -> array:
    """Pack a latency sample into the columnar ``array('d')`` form."""
    if isinstance(values, array) and values.typecode == "d":
        return values
    return array("d", values)


@dataclass(frozen=True)
class LatencySummary:
    """Five-number-plus summary of a latency sample."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float
    stddev: float


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of a pre-sorted sample."""
    if not sorted_values:
        raise ValueError("cannot take a percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = fraction * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return float(sorted_values[lower])
    weight = position - lower
    return float(sorted_values[lower] * (1 - weight)
                 + sorted_values[upper] * weight)


def summarize(values: Sequence[float]) -> LatencySummary:
    """Compute a :class:`LatencySummary` of a latency sample."""
    if isinstance(values, array) and values.typecode == "d":
        # Columnar fast path: the elements are already C doubles, so a
        # single sort suffices — the float() boxing pass below would
        # reproduce the same objects element for element.
        ordered = sorted(values)
    else:
        ordered = sorted(float(v) for v in values)
    return summarize_sorted(ordered)


def summarize_sorted(ordered: Sequence[float]) -> LatencySummary:
    """:func:`summarize` of a sample already sorted ascending as floats.

    For callers that need the sorted sample themselves (for further
    percentiles), so it is sorted once.
    """
    if not ordered:
        raise ValueError("cannot summarize an empty sample")
    count = len(ordered)
    mean = sum(ordered) / count
    variance = sum((v - mean) ** 2 for v in ordered) / count
    return LatencySummary(
        count=count,
        mean=mean,
        minimum=ordered[0],
        maximum=ordered[-1],
        p50=percentile(ordered, 0.50),
        p95=percentile(ordered, 0.95),
        p99=percentile(ordered, 0.99),
        stddev=math.sqrt(variance),
    )


def running_average(values: Sequence[float],
                    window: "int | None" = None) -> list[float]:
    """Running average over a sample — the y-axis of Fig. 7.

    With ``window=None`` the cumulative mean up to each index is
    returned (matching the figure's "average IRQ latency over events"
    presentation); with an integer window, a sliding-window mean.
    """
    if window is not None and window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    result: list[float] = []
    if window is None:
        total = 0.0
        for i, value in enumerate(values, start=1):
            total += value
            result.append(total / i)
        return result
    total = 0.0
    for i, value in enumerate(values):
        total += value
        if i >= window:
            total -= values[i - window]
            result.append(total / window)
        else:
            result.append(total / (i + 1))
    return result


def improvement_factor(baseline_mean: float, improved_mean: float) -> float:
    """Ratio of average latencies (the paper's ~16x headline metric)."""
    if improved_mean <= 0:
        raise ValueError(f"improved mean must be positive, got {improved_mean}")
    return baseline_mean / improved_mean
