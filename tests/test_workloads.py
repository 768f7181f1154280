"""Tests for workload generators and trace containers."""

import pytest

from repro.hypervisor.config import CostModel
from repro.sim.clock import Clock
from repro.workloads.automotive import (
    AutomotiveTraceConfig,
    generate_automotive_trace,
)
from repro.workloads.synthetic import (
    bursty_interarrivals,
    clip_to_dmin,
    exponential_interarrivals,
    lambda_for_load,
)
from repro.workloads.traces import ActivationTrace


class TestActivationTrace:
    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            ActivationTrace([10, 5])

    def test_stats(self):
        trace = ActivationTrace([0, 10, 40, 45])
        assert trace.distance_array() == [10, 30, 5]
        assert trace.min_distance() == 5
        assert trace.mean_distance() == 15


class TestExponential:
    def test_eq17_lambda_for_load(self):
        costs = CostModel()
        c_bh = 8_000
        lam = lambda_for_load(c_bh, 0.10, costs)
        assert lam == round(costs.effective_bottom_handler_cycles(c_bh) / 0.10)

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            lambda_for_load(8_000, 0.0)
        with pytest.raises(ValueError):
            lambda_for_load(8_000, 1.5)

    def test_deterministic_for_seed(self):
        a = exponential_interarrivals(100, 10_000, seed=42)
        b = exponential_interarrivals(100, 10_000, seed=42)
        c = exponential_interarrivals(100, 10_000, seed=43)
        assert a == b
        assert a != c

    def test_mean_roughly_matches(self):
        values = exponential_interarrivals(20_000, 10_000, seed=1)
        mean = sum(values) / len(values)
        assert 0.95 * 10_000 < mean < 1.05 * 10_000

    def test_minimum_floor(self):
        values = exponential_interarrivals(1_000, 5, seed=1, minimum=3)
        assert min(values) >= 3

    def test_clip_to_dmin(self):
        assert clip_to_dmin([5, 100, 50], 60) == [60, 100, 60]

    def test_clip_validation(self):
        with pytest.raises(ValueError):
            clip_to_dmin([5], 0)


class TestBursty:
    def test_structure(self):
        values = bursty_interarrivals(50, burst_length=5, intra_burst=10,
                                      inter_burst=10_000, seed=3)
        assert len(values) == 50
        assert values.count(10) >= 30   # most gaps are intra-burst

    def test_validation(self):
        with pytest.raises(ValueError):
            bursty_interarrivals(10, 0, 10, 100, seed=1)
        with pytest.raises(ValueError):
            bursty_interarrivals(10, 5, 0, 100, seed=1)


class TestAutomotiveTrace:
    def test_default_size(self):
        trace = generate_automotive_trace(
            AutomotiveTraceConfig(activation_count=2_000)
        )
        assert len(trace.times) == 2_000

    def test_deterministic(self):
        config = AutomotiveTraceConfig(activation_count=500)
        assert (generate_automotive_trace(config).times
                == generate_automotive_trace(config).times)

    def test_seed_changes_trace(self):
        a = generate_automotive_trace(AutomotiveTraceConfig(
            activation_count=500, seed=1))
        b = generate_automotive_trace(AutomotiveTraceConfig(
            activation_count=500, seed=2))
        assert a.times != b.times

    def test_min_separation_respected(self):
        config = AutomotiveTraceConfig(activation_count=1_000)
        trace = generate_automotive_trace(config)
        clock = Clock()
        assert trace.min_distance() >= clock.us_to_cycles(
            config.min_separation_us) - 1

    def test_bursty_but_not_poisson(self):
        """The trace must have a small learned d_min relative to its
        mean gap — that's the structure Appendix A's learning needs."""
        trace = generate_automotive_trace(
            AutomotiveTraceConfig(activation_count=2_000)
        )
        assert trace.min_distance() < trace.mean_distance() / 5

    def test_too_few_activations_rejected(self):
        with pytest.raises(ValueError):
            generate_automotive_trace(AutomotiveTraceConfig(activation_count=1))
