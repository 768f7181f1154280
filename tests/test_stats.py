"""Golden-value and property tests for :mod:`repro.metrics.stats`.

The columnar-latency refactor gave :func:`summarize` a single-sort
fast path for ``array('d')`` samples; this file pins that the fast
path is bit-identical to the generic one, that :func:`percentile`
matches known closed-form values, and — via hypothesis — that the
linear-interpolation percentiles agree with the standard library's
``statistics.quantiles(..., method='inclusive')``, which implements
the same interpolation rule.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.stats import (
    LatencySummary,
    percentile,
    summarize,
)


# ----------------------------------------------------------- golden values

class TestPercentileGolden:
    def test_quartiles_of_0_to_100(self):
        values = list(range(101))           # 0..100: position == percentile
        assert percentile(values, 0.00) == 0.0
        assert percentile(values, 0.25) == 25.0
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.95) == 95.0
        assert percentile(values, 1.00) == 100.0

    def test_interpolation_between_elements(self):
        assert percentile([10.0, 20.0], 0.75) == 17.5
        assert percentile([0.0, 1.0, 100.0], 0.5) == 1.0
        assert percentile([0.0, 1.0, 100.0], 0.75) == 50.5

    def test_single_element_is_every_percentile(self):
        for fraction in (0.0, 0.37, 0.5, 0.99, 1.0):
            assert percentile([42.0], fraction) == 42.0

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], -0.01)
        with pytest.raises(ValueError):
            percentile([1.0], 1.01)


class TestSummarizeGolden:
    def test_known_sample(self):
        summary = summarize([4.0, 1.0, 3.0, 2.0, 5.0])
        assert summary == LatencySummary(
            count=5, mean=3.0, minimum=1.0, maximum=5.0,
            p50=3.0, p95=4.8, p99=4.96,
            stddev=math.sqrt(2.0),
        )

    def test_constant_sample_has_zero_spread(self):
        summary = summarize([7.0] * 10)
        assert summary.mean == 7.0
        assert summary.p50 == summary.p95 == summary.p99 == 7.0
        assert summary.stddev == 0.0

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            summarize(array("d"))


# ------------------------------------------------------------- properties

_SAMPLES = st.lists(
    st.floats(min_value=-1e9, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=200,
)


@settings(max_examples=200, deadline=None)
@given(values=_SAMPLES)
def test_array_fast_path_is_bit_identical(values):
    """summarize(array('d', xs)) takes the single-sort fast path; the
    result must be indistinguishable from the generic iterable path."""
    generic = summarize(values)
    columnar = summarize(array("d", values))
    assert dataclasses.astuple(columnar) == dataclasses.astuple(generic)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(
    st.floats(min_value=-1e9, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    min_size=2, max_size=200,
))
def test_percentiles_match_statistics_quantiles(values):
    """The linear-interpolation rule is exactly ``method='inclusive'``:
    cut point k of n=100 is the k-th percentile."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    summary = summarize(values)
    # Interpolating between neighbours of opposite sign cancels: the
    # rounding error scales with the inputs' magnitude, not the result's.
    tolerance = 1e-9 + 1e-12 * max(abs(value) for value in values)
    assert summary.p50 == pytest.approx(cuts[49], rel=1e-12, abs=tolerance)
    assert summary.p95 == pytest.approx(cuts[94], rel=1e-12, abs=tolerance)
    assert summary.p99 == pytest.approx(cuts[98], rel=1e-12, abs=tolerance)


@settings(max_examples=100, deadline=None)
@given(values=_SAMPLES)
def test_summary_invariants(values):
    summary = summarize(values)
    assert summary.count == len(values)

    # Float rounding can push an interpolated percentile (or the
    # summed mean) a few ulp past its neighbours, so the ordering
    # invariants only hold to rounding error.
    def leq(a: float, b: float) -> bool:
        return a <= b or math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)

    for value in (summary.p50, summary.p95, summary.p99, summary.mean):
        assert leq(summary.minimum, value)
        assert leq(value, summary.maximum)
    assert leq(summary.p50, summary.p95)
    assert leq(summary.p95, summary.p99)
    assert summary.stddev >= 0.0
