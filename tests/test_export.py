"""Tests for the CSV writers behind ``--export``: histogram bins and
indexed series."""

import csv

from repro.metrics.export import write_histogram_csv, write_series_csv
from repro.metrics.histogram import LatencyHistogram


class TestHistogramCsv:
    def test_writes_bins(self, tmp_path):
        histogram = LatencyHistogram(0, 100, 50)
        histogram.add_all([10, 60, 150])
        path = tmp_path / "hist.csv"
        assert write_histogram_csv(path, histogram) == 2
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert [float(rows[1][0]), float(rows[1][1]), int(rows[1][2])] == [0.0, 50.0, 1]
        assert rows[-2][0] == "overflow"
        assert rows[-2][2] == "1"


class TestSeriesCsv:
    def test_writes_indexed_values(self, tmp_path):
        path = tmp_path / "series.csv"
        assert write_series_csv(path, [1.5, 2.5], column="avg_us") == 2
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["index", "avg_us"]
        assert rows[2] == ["1", "2.5"]
