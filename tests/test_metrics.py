"""Tests for histograms, statistics and report rendering."""

import math
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.metrics.histogram import LatencyHistogram, fig6_histogram
from repro.metrics.report import (
    render_mode_breakdown,
    render_series,
    render_table,
)
from repro.metrics.stats import (
    improvement_factor,
    percentile,
    running_average,
    summarize,
)


class TestHistogram:
    def test_binning(self):
        histogram = LatencyHistogram(0, 100, 25)
        histogram.add_all([0, 10, 30, 55, 99])
        assert histogram.counts() == [2, 1, 1, 1]

    def test_overflow_and_underflow(self):
        histogram = LatencyHistogram(10, 100, 10)
        histogram.add(5)
        histogram.add(150)
        assert histogram.underflow == 1
        assert histogram.overflow == 1
        assert histogram.total == 2

    def test_value_at_upper_edge_overflows(self):
        histogram = LatencyHistogram(0, 100, 10)
        histogram.add(100)
        assert histogram.overflow == 1

    def test_statistics(self):
        histogram = LatencyHistogram(0, 100, 10)
        histogram.add_all([10, 20, 30])
        assert histogram.mean == 20
        assert histogram.min_value == 10
        assert histogram.max_value == 30

    def test_empty_statistics_raise(self):
        with pytest.raises(ValueError):
            LatencyHistogram(0, 10, 1).mean

    def test_fraction_below(self):
        histogram = LatencyHistogram(0, 100, 10)
        histogram.add_all([5, 15, 25, 95])
        assert histogram.fraction_below(30) == pytest.approx(0.75)

    def test_bins_metadata(self):
        histogram = LatencyHistogram(0, 30, 10)
        bins = histogram.bins()
        assert [(b.low, b.high) for b in bins] == [(0, 10), (10, 20), (20, 30)]

    def test_render(self):
        histogram = LatencyHistogram(0, 20, 10)
        histogram.add_all([1, 2, 3, 15])
        text = histogram.render(width=10)
        assert "3" in text and "#" in text

    def test_render_log_scale(self):
        histogram = LatencyHistogram(0, 20, 10)
        histogram.add_all([1] * 1000 + [15])
        text = histogram.render(width=10, log_scale=True)
        # log scale keeps the single-count bin visible
        lines = text.splitlines()
        assert "#" in lines[1]

    def test_fig6_histogram_axis(self):
        histogram = fig6_histogram([100.0, 7999.0], tdma_cycle_us=14_000.0)
        assert histogram.high == 14_000.0
        assert histogram.total == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(10, 10, 1)
        with pytest.raises(ValueError):
            LatencyHistogram(0, 10, 0)


#: Histogram ranges for the add_all oracle; (0, 3.5, 0.7) has a value
#: below ``high`` whose bin index rounds past the last bin.
_RANGES = [(0.0, 100.0, 25.0), (10.0, 100.0, 10.0), (0.0, 3.5, 0.7),
           (-50.0, 50.0, 7.0)]

_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 3.5,
            math.nextafter(3.5, -math.inf), 100.0, 10.0, -50.0, 50.0]


def _histogram_state(histogram):
    # repr keeps -0.0 apart from 0.0 and compares NaN with itself.
    return (histogram.counts(), histogram.total, histogram.underflow,
            histogram.overflow, repr(histogram._sum), repr(histogram._max),
            repr(histogram._min))


def _fill(bounds, values, bulk):
    histogram = LatencyHistogram(*bounds)
    raised = False
    try:
        if bulk:
            histogram.add_all(values)
        else:
            for value in values:
                histogram.add(value)
    except ValueError:
        raised = True
    return raised, _histogram_state(histogram)


@settings(deadline=None, max_examples=200)
@given(bounds=st.sampled_from(_RANGES),
       values=st.lists(st.one_of(
           st.floats(), st.floats(min_value=-60.0, max_value=110.0),
           st.sampled_from(_SPECIAL))),
       columnar=st.booleans(), prefill=st.booleans())
@example(bounds=_RANGES[0], values=[0.0, -0.0, 5.0, -0.0], columnar=False,
         prefill=False)
@example(bounds=_RANGES[0], values=[-0.0, 0.0], columnar=True,
         prefill=False)
@example(bounds=_RANGES[2], values=[1.0, math.nan, 2.0], columnar=False,
         prefill=True)
def test_add_all_matches_per_value_add(bounds, values, columnar, prefill):
    """``add_all`` leaves exactly the state of one ``add`` per value, in
    order: bins, under/overflow, the bit pattern of the running sum and
    the extremes, and the state at a NaN that raises."""
    if prefill:
        values = [1.0, -1.0] + values
    sample = array("d", values) if columnar else values
    assert _fill(bounds, sample, bulk=True) == _fill(bounds, values,
                                                     bulk=False)


def test_add_all_clamps_into_the_last_bin():
    value = math.nextafter(3.5, -math.inf)
    histogram = LatencyHistogram(0.0, 3.5, 0.7)
    assert int((value - 0.0) / 0.7) == len(histogram.counts())
    histogram.add_all([value])
    assert histogram.counts()[-1] == 1 and histogram.overflow == 0


class TestStats:
    def test_summarize(self):
        summary = summarize([1, 2, 3, 4, 5])
        assert summary.count == 5
        assert summary.mean == 3
        assert summary.minimum == 1
        assert summary.maximum == 5
        assert summary.p50 == 3

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_percentile_interpolation(self):
        assert percentile([0, 10], 0.5) == 5
        assert percentile([0, 10, 20], 0.25) == 5

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    def test_running_average_cumulative(self):
        assert running_average([2, 4, 6]) == [2, 3, 4]

    def test_running_average_windowed(self):
        assert running_average([2, 4, 6, 8], window=2) == [2, 3, 5, 7]

    def test_running_average_validation(self):
        with pytest.raises(ValueError):
            running_average([1], window=0)

    def test_improvement_factor(self):
        assert improvement_factor(2400, 150) == 16
        with pytest.raises(ValueError):
            improvement_factor(100, 0)


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0]

    def test_render_table_row_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_render_table_title(self):
        text = render_table(["x"], [[1]], title="My Table")
        assert text.startswith("My Table")

    def test_mode_breakdown(self):
        text = render_mode_breakdown(
            {"direct": 40, "interposed": 40, "delayed": 20}
        )
        assert "direct 40.0% (40)" in text
        assert "delayed 20.0% (20)" in text

    def test_mode_breakdown_empty(self):
        assert "no IRQs" in render_mode_breakdown({})

    def test_render_series(self):
        text = render_series([1.0, 5.0, 2.0, 8.0], width=20, height=5,
                             label="latency")
        assert "latency" in text
        assert "*" in text

    def test_render_series_empty(self):
        assert "empty" in render_series([])
