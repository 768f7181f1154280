"""Export measurement data to CSV for external analysis.

Downstream users typically post-process the results with pandas or
gnuplot; these helpers write stable, documented formats:

* histograms — one row per bin;
* Fig. 7-style series — one row per event index.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence, Union

from repro.metrics.histogram import LatencyHistogram

PathLike = Union[str, Path]


def write_histogram_csv(path: PathLike,
                        histogram: LatencyHistogram) -> int:
    """Write a histogram to CSV (bin_low, bin_high, count)."""
    bins = histogram.bins()
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["bin_low", "bin_high", "count"])
        for bin_ in bins:
            writer.writerow([bin_.low, bin_.high, bin_.count])
        writer.writerow(["overflow", "", histogram.overflow])
        writer.writerow(["underflow", "", histogram.underflow])
    return len(bins)


def write_series_csv(path: PathLike, series: Sequence[float],
                     column: str = "value") -> int:
    """Write an indexed series (e.g. the Fig. 7 running average)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", column])
        for index, value in enumerate(series):
            writer.writerow([index, value])
    return len(series)
