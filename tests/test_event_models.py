"""Tests for arrival curves and minimum-distance functions."""

from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from event_model_oracle import DeltaTableEventModel, check_duality
from repro.analysis.event_models import (
    PeriodicEventModel,
    TraceEventModel,
    sporadic,
)


class TestPeriodicEventModel:
    def test_strictly_periodic_eta(self):
        model = PeriodicEventModel(100)
        assert model.eta_plus(0) == 0
        assert model.eta_plus(1) == 1
        assert model.eta_plus(100) == 1
        assert model.eta_plus(101) == 2
        assert model.eta_plus(1000) == 10

    def test_strictly_periodic_delta(self):
        model = PeriodicEventModel(100)
        assert model.delta_minus(0) == 0
        assert model.delta_minus(1) == 0
        assert model.delta_minus(2) == 100
        assert model.delta_minus(11) == 1000

    def test_jitter_increases_eta(self):
        base = PeriodicEventModel(100)
        jittered = PeriodicEventModel(100, jitter=50)
        for dt in (1, 99, 100, 250, 1000):
            assert jittered.eta_plus(dt) >= base.eta_plus(dt)

    def test_jitter_decreases_delta(self):
        jittered = PeriodicEventModel(100, jitter=30)
        assert jittered.delta_minus(2) == 70

    def test_dmin_caps_burst(self):
        model = PeriodicEventModel(100, jitter=1_000, dmin=10)
        # without dmin: ceil((5+1000)/100) = 11; dmin caps at ceil(5/10)=1
        assert model.eta_plus(5) == 1
        assert model.delta_minus(3) == 20

    def test_sporadic_helper(self):
        model = sporadic(500)
        assert model.eta_plus(500) == 1
        assert model.eta_plus(501) == 2
        assert model.delta_minus(4) == 1500

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicEventModel(0)
        with pytest.raises(ValueError):
            PeriodicEventModel(100, jitter=-1)
        with pytest.raises(ValueError):
            PeriodicEventModel(100, dmin=0)
        with pytest.raises(ValueError):
            PeriodicEventModel(100, dmin=200)
        with pytest.raises(ValueError):
            PeriodicEventModel(100).eta_plus(-1)
        with pytest.raises(ValueError):
            PeriodicEventModel(100).delta_minus(-1)


class TestDeltaTableModel:
    def test_l1_table_is_sporadic(self):
        table = DeltaTableEventModel([100])
        reference = sporadic(100)
        for q in range(1, 20):
            assert table.delta_minus(q) == reference.delta_minus(q)
        for dt in (1, 50, 100, 101, 999, 1000):
            assert table.eta_plus(dt) == reference.eta_plus(dt)

    def test_superadditive_extension(self):
        # δ(2)=10, δ(3)=100 -> δ(4) >= δ(3)+δ(2) = 110, δ(5) >= 200
        model = DeltaTableEventModel([10, 100])
        assert model.delta_minus(4) == 110
        assert model.delta_minus(5) == 200
        assert model.delta_minus(7) == 300

    def test_extension_monotone(self):
        model = DeltaTableEventModel([10, 100, 150])
        values = [model.delta_minus(q) for q in range(1, 40)]
        assert values == sorted(values)

    def test_eta_from_table(self):
        model = DeltaTableEventModel([10, 100])
        # in a window of 100: δ(3)=100 not < 100 -> 2 events max
        assert model.eta_plus(100) == 2
        assert model.eta_plus(101) == 3

    def test_zero_dmin_table_has_unbounded_eta(self):
        model = DeltaTableEventModel([0, 100])
        with pytest.raises(ValueError):
            model.eta_plus(50)

    def test_normalizes_non_monotone(self):
        # [100, 50] is normalized to [100, 100] and then closed:
        # two consecutive 100-gaps imply δ(3) >= 200.
        model = DeltaTableEventModel([100, 50])
        assert model.delta_minus(2) == 100
        assert model.delta_minus(3) == 200

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            DeltaTableEventModel([])


class TestTraceEventModel:
    def test_delta_from_trace(self):
        model = TraceEventModel([0, 100, 150, 400])
        assert model.delta_minus(2) == 50
        assert model.delta_minus(3) == 150
        assert model.delta_minus(4) == 400

    def test_eta_from_trace(self):
        model = TraceEventModel([0, 100, 150, 400])
        assert model.eta_plus(51) == 2
        assert model.eta_plus(151) == 3
        assert model.eta_plus(50) == 1

    def test_span_exceeding_trace(self):
        model = TraceEventModel([0, 100])
        with pytest.raises(ValueError):
            model.delta_minus(3)

    def test_interarrivals(self):
        model = TraceEventModel([0, 100, 150])
        assert model.interarrivals() == [100, 50]

    def test_learned_delta_table_matches_learner(self):
        from repro.core.learning import DeltaLearner
        times = [0, 30, 100, 160, 300, 320]
        model = TraceEventModel(times)
        learner = DeltaLearner(3)
        for t in times:
            learner.observe(t)
        assert model.learned_delta_table(3) == learner.table()

    def test_too_short(self):
        with pytest.raises(ValueError):
            TraceEventModel([5])


class TestDuality:
    def test_periodic_duality(self):
        assert check_duality(PeriodicEventModel(100))
        assert check_duality(PeriodicEventModel(100, jitter=40))
        assert check_duality(PeriodicEventModel(100, jitter=250, dmin=20))

    def test_table_duality(self):
        assert check_duality(DeltaTableEventModel([10, 100, 300]))


@settings(max_examples=100, deadline=None)
@given(
    period=st.integers(min_value=1, max_value=1_000),
    jitter=st.integers(min_value=0, max_value=2_000),
    dt=st.integers(min_value=0, max_value=10_000),
)
def test_property_periodic_eta_delta_consistency(period, jitter, dt):
    """η⁺(δ⁻(q)) <= q for all models (no window holds more than its span
    allows)."""
    model = PeriodicEventModel(period, jitter=jitter)
    q = model.eta_plus(dt)
    if q >= 2:
        assert model.delta_minus(q) < max(dt, 1)


@settings(max_examples=100, deadline=None)
@given(table=st.lists(st.integers(min_value=1, max_value=500),
                      min_size=1, max_size=4),
       a=st.integers(min_value=2, max_value=12),
       b=st.integers(min_value=2, max_value=12))
def test_property_table_extension_superadditive(table, a, b):
    """δ(a+b-1) >= δ(a) + δ(b) — the defining property of the extension."""
    model = DeltaTableEventModel(table)
    assert (model.delta_minus(a + b - 1)
            >= model.delta_minus(a) + model.delta_minus(b))


@st.composite
def periodic_models(draw):
    period = draw(st.integers(1, 500))
    jitter = draw(st.integers(0, 1_000))
    dmin = draw(st.integers(1, period))
    return PeriodicEventModel(period, jitter, dmin)


@st.composite
def delta_table_models(draw):
    # first entry >= 1 keeps η⁺ bounded
    table = draw(st.lists(st.integers(1, 300), min_size=1, max_size=6))
    return DeltaTableEventModel(table)


@st.composite
def trace_models(draw):
    gaps = draw(st.lists(st.integers(1, 200), min_size=1, max_size=40))
    return TraceEventModel([0] + list(accumulate(gaps)))


@given(model=st.one_of(periodic_models(), delta_table_models(),
                       trace_models()))
@settings(max_examples=100, deadline=None)
def test_memoized_model_duality_and_monotonicity(model):
    """δ⁻ and η⁺ are non-decreasing and pseudo-inverse for random
    periodic, table and trace models."""
    max_q = model.count if isinstance(model, TraceEventModel) else 30
    deltas = [model.delta_minus(q) for q in range(1, max_q + 1)]
    assert deltas == sorted(deltas)                 # δ⁻ non-decreasing
    etas = [model.eta_plus(dt) for dt in range(0, 600, 7)]
    assert etas == sorted(etas)                     # η⁺ non-decreasing
    assert check_duality(model, max_q=max_q)


@given(times=st.lists(st.integers(0, 10_000), min_size=2, max_size=60,
                      unique=True))
@settings(max_examples=100, deadline=None)
def test_trace_delta_prefix_table_matches_point_queries(times):
    """The reusable δ⁻ prefix table equals fresh per-q scans."""
    cached = TraceEventModel(times)
    table = cached.delta_prefix_table(cached.count)
    assert len(table) == cached.count - 1
    for q in range(2, cached.count + 1):
        fresh = TraceEventModel(times)     # no prefix table filled yet
        assert table[q - 2] == fresh.delta_minus(q) == cached.delta_minus(q)
    assert cached.delta_prefix_table(1) == ()
