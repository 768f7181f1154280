"""Tests for the boost and throttling baselines."""

import pytest

from conftest import build_system, run_system, us
from repro.baselines.boost import BoostPolicy
from repro.baselines.throttling import MinDistanceThrottle
from repro.core.independence import DminInterferenceBound, InterferenceKind
from repro.core.monitor import DeltaMinusMonitor
from repro.core.policy import MonitoredInterposing


class TestMinDistanceThrottle:
    def test_admits_spaced_arrivals(self):
        throttle = MinDistanceThrottle(100)
        assert throttle.admit(0)
        assert throttle.admit(100)
        assert throttle.admit(250)
        assert throttle.suppressed_count == 0

    def test_suppresses_dense_arrivals(self):
        throttle = MinDistanceThrottle(100)
        assert throttle.admit(0)
        assert not throttle.admit(50)
        assert not throttle.admit(99)
        assert throttle.admit(100)
        assert throttle.suppressed_count == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            MinDistanceThrottle(0)


class TestBoostInSystem:
    def test_boost_gives_low_latency(self):
        hv, timer = build_system(subscriber="P2", policy=BoostPolicy(),
                                 intervals=[us(100), us(300), us(300)])
        run_system(hv, timer, 3)
        assert all(record.latency < us(200)
                   for record in hv.latency_records)

    def test_boost_breaks_interference_budget_under_bursts(self):
        """The Section 2 critique: boost has no shaping, so dense
        arrivals inject unbounded interference into foreign slots."""
        gaps = [us(100)] + [us(150)] * 10
        hv, timer = build_system(subscriber="P2", policy=BoostPolicy(),
                                 intervals=gaps)
        run_system(hv, timer, len(gaps))
        dmin = us(1_000)
        bound = DminInterferenceBound(
            dmin, hv.config.costs.effective_bottom_handler_cycles(us(40))
        )
        width = us(2_000)
        measured = hv.ledger.max_window_interference(
            "P1", width, (InterferenceKind.INTERPOSED_BH,)
        )
        assert measured > bound.max_interference(width)

    def test_monitor_keeps_budget_on_same_bursts(self):
        gaps = [us(100)] + [us(150)] * 10
        dmin = us(1_000)
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(dmin))
        hv, timer = build_system(subscriber="P2", policy=policy,
                                 intervals=gaps)
        run_system(hv, timer, len(gaps))
        bound = DminInterferenceBound(
            dmin, hv.config.costs.effective_bottom_handler_cycles(us(40))
        )
        width = us(2_000)
        measured = hv.ledger.max_window_interference(
            "P1", width, (InterferenceKind.INTERPOSED_BH,)
        )
        assert measured <= bound.max_interference(width)


class TestThrottleInSystem:
    def test_throttled_irqs_are_suppressed(self):
        hv, timer = build_system(subscriber="P2",
                                 intervals=[us(100)] * 10)
        throttle = MinDistanceThrottle(us(500))
        hv.irq_source("irq").throttle = throttle
        run_system(hv, timer, 10, limit_us=50_000)
        assert hv.stats.irqs_throttled > 0
        assert (len(hv.latency_records) + hv.stats.irqs_throttled
                == 10)

    def test_throttle_does_not_reduce_latency(self):
        """Admitted IRQs still take the delayed TDMA path."""
        hv, timer = build_system(subscriber="P2",
                                 intervals=[us(100)] * 6)
        hv.irq_source("irq").throttle = MinDistanceThrottle(us(500))
        run_system(hv, timer, 6, limit_us=50_000)
        assert hv.latency_records
        assert max(record.latency for record in hv.latency_records) > us(500)
