"""Latency histograms (the Fig. 6 presentation).

Fixed-width binning of IRQ latencies, separable by handling mode so
the direct / interposed / delayed clusters of the paper's figures can
be rendered and asserted on individually.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class HistogramBin:
    """One half-open bin ``[low, high)`` with its count."""

    low: float
    high: float
    count: int


class LatencyHistogram:
    """Fixed-width histogram over a bounded range.

    Values at or above ``high`` land in a dedicated overflow bucket
    (they are never silently dropped).
    """

    def __init__(self, low: float, high: float, bin_width: float):
        if high <= low:
            raise ValueError(f"need high > low, got [{low}, {high})")
        if bin_width <= 0:
            raise ValueError(f"bin width must be positive, got {bin_width}")
        self.low = low
        self.high = high
        self.bin_width = bin_width
        self._num_bins = math.ceil((high - low) / bin_width)
        self._counts = [0] * self._num_bins
        self._overflow = 0
        self._underflow = 0
        self._total = 0

    def add(self, value: float) -> None:
        self._total += 1
        if value < self.low:
            self._underflow += 1
            return
        if value >= self.high:
            self._overflow += 1
            return
        index = int((value - self.low) / self.bin_width)
        index = min(index, self._num_bins - 1)
        self._counts[index] += 1

    def add_all(self, values: Iterable[float]) -> None:
        """:meth:`add` each value, in one loop over local accumulators.

        A value :meth:`add` raises on (NaN) leaves the same state behind
        as it would there.
        """
        low, high, width = self.low, self.high, self.bin_width
        last = self._num_bins - 1
        counts = self._counts
        total = self._total
        underflow, overflow = self._underflow, self._overflow
        try:
            for value in values:
                total += 1
                if value < low:
                    underflow += 1
                elif value >= high:
                    overflow += 1
                else:
                    index = int((value - low) / width)
                    counts[index if index < last else last] += 1
        finally:
            self._total = total
            self._underflow, self._overflow = underflow, overflow

    @property
    def total(self) -> int:
        return self._total

    @property
    def overflow(self) -> int:
        return self._overflow

    @property
    def underflow(self) -> int:
        return self._underflow

    def bins(self) -> list[HistogramBin]:
        result = []
        for i, count in enumerate(self._counts):
            low = self.low + i * self.bin_width
            result.append(HistogramBin(low, low + self.bin_width, count))
        return result

    def counts(self) -> list[int]:
        return list(self._counts)

    def render(self, width: int = 60, unit: str = "us",
               log_scale: bool = False) -> str:
        """ASCII rendering in the style of the paper's Fig. 6.

        ``log_scale`` emulates the paper's broken/dual-scale y-axis:
        bars are proportional to log10(1 + count), keeping both the
        tall direct-latency spike and the flat delayed plateau visible.
        """
        lines = []
        peak = max(self._counts) if any(self._counts) else 1
        scale = (math.log10(1 + peak) if log_scale else peak) or 1
        for bin_ in self.bins():
            magnitude = math.log10(1 + bin_.count) if log_scale else bin_.count
            bar = "#" * int(round(width * magnitude / scale))
            lines.append(
                f"[{bin_.low:>9.1f}, {bin_.high:>9.1f}) {unit} "
                f"{bin_.count:>7d} {bar}"
            )
        if self._overflow:
            lines.append(f"overflow (>= {self.high} {unit}): {self._overflow}")
        return "\n".join(lines)


def fig6_histogram(latencies_us: Sequence[float],
                   tdma_cycle_us: float = 14_000.0,
                   bin_width_us: float = 250.0) -> LatencyHistogram:
    """Histogram with the Fig. 6 axis (0 to the TDMA-bounded maximum)."""
    histogram = LatencyHistogram(0.0, tdma_cycle_us, bin_width_us)
    histogram.add_all(latencies_us)
    return histogram
