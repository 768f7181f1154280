"""Export measurement data to CSV/JSON for external analysis.

Downstream users typically post-process latency records with pandas or
gnuplot; these helpers write stable, documented formats:

* latency records — one row per IRQ with arrival/completion/mode;
* histograms — one row per bin;
* Fig. 7-style series — one row per event index.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from repro.metrics.histogram import LatencyHistogram
from repro.sim.clock import Clock

if TYPE_CHECKING:
    from repro.hypervisor.hypervisor import LatencyRecord

PathLike = Union[str, Path]


def write_latency_csv(path: PathLike, records: Iterable[LatencyRecord],
                      clock: "Clock | None" = None) -> int:
    """Write latency records to CSV; returns the number of rows.

    Columns: source, seq, arrival, completed_at, latency (cycles),
    latency_us (when a clock is given), mode, enforced_cut.
    """
    rows = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        header = ["source", "seq", "arrival", "completed_at",
                  "latency_cycles", "mode", "enforced_cut"]
        if clock is not None:
            header.insert(5, "latency_us")
        writer.writerow(header)
        for record in records:
            row = [record.source, record.seq, record.arrival,
                   record.completed_at, record.latency,
                   record.mode.value, int(record.enforced_cut)]
            if clock is not None:
                row.insert(5, f"{clock.cycles_to_us(record.latency):.3f}")
            writer.writerow(row)
            rows += 1
    return rows


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


def write_records_json(path: PathLike, records: Iterable[LatencyRecord],
                       metadata: "dict | None" = None) -> int:
    """Write latency records (plus free-form metadata) as JSON."""
    payload = {
        "format": "repro-latency-records-v1",
        "metadata": metadata or {},
        "records": [
            {
                "source": record.source,
                "seq": record.seq,
                "arrival": record.arrival,
                "completed_at": record.completed_at,
                "mode": record.mode.value,
                "enforced_cut": record.enforced_cut,
            }
            for record in records
        ],
    }
    Path(path).write_text(json.dumps(payload))
    return len(payload["records"])


def read_records_json(path: PathLike) -> list[LatencyRecord]:
    """Load latency records written by :func:`write_records_json`."""
    from repro.core.policy import HandlingMode
    from repro.hypervisor.hypervisor import LatencyRecord

    payload = json.loads(Path(path).read_text())
    if payload.get("format") != "repro-latency-records-v1":
        raise ValueError(f"{path} is not a repro latency-record file")
    return [
        LatencyRecord(
            source=entry["source"],
            seq=entry["seq"],
            arrival=entry["arrival"],
            completed_at=entry["completed_at"],
            mode=HandlingMode(entry["mode"]),
            enforced_cut=entry["enforced_cut"],
        )
        for entry in payload["records"]
    ]
