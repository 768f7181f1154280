"""Miscellaneous API-surface tests (small helpers and conveniences)."""

import pytest

from conftest import build_system, run_system, us
from repro.core.monitor import DeltaMinusMonitor
from repro.core.policy import HandlingMode, MonitoredInterposing


class TestRunHelpers:
    def test_run_until_irq_count_with_source_filter(self):
        hv, timer = build_system(subscriber="P1",
                                 intervals=[us(100), us(100)])
        hv.start()
        timer.arm_next()
        completed = hv.run_until_irq_count(2, source="irq",
                                           limit_cycles=us(50_000))
        assert completed == 2

    def test_run_until_irq_count_limit(self):
        hv, timer = build_system(subscriber="P2", intervals=[us(100)])
        hv.start()
        timer.arm_next()
        # The limit is reached before the delayed BH completes.
        completed = hv.run_until_irq_count(1, limit_cycles=us(200))
        assert completed == 0

    def test_latencies_us_source_filter(self):
        hv, timer = build_system(subscriber="P1", intervals=[us(100)])
        run_system(hv, timer, 1)
        assert hv.latencies_us(source="irq") == hv.latencies_us()
        assert hv.latencies_us(source="other") == []

    def test_repr_smoke(self):
        hv, timer = build_system(subscriber="P1", intervals=[us(100)])
        run_system(hv, timer, 1)
        assert "Hypervisor" in repr(hv)
        assert "Cpu" in repr(hv.cpu)
        assert "TdmaScheduler" in repr(hv.scheduler)
        assert "SimulationEngine" in repr(hv.engine)


class TestMonitorConveniences:
    def test_policy_repr(self):
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(100))
        assert "MonitoredInterposing" in repr(policy)


class TestPartitionStats:
    def test_slots_entered_counts(self):
        hv, timer = build_system(subscriber="P1", intervals=[us(100)])
        hv.start()
        timer.arm_next()
        hv.run_until(us(4_500))
        # P1: initial dispatch + slots at 2000 and 4000 us
        assert hv.partition("P1").slots_entered == 3
        assert hv.partition("P2").slots_entered == 2

    def test_bottom_handlers_completed(self):
        hv, timer = build_system(subscriber="P1",
                                 intervals=[us(100), us(100)])
        run_system(hv, timer, 2)
        assert hv.partition("P1").bottom_handlers_completed == 2


class TestReportFormatting:
    def test_format_cell_variants(self):
        from repro.metrics.report import render_table
        text = render_table(
            ["x"], [[0.0], [12345.6], [42.5], [0.123456], [7]]
        )
        assert "12,346" in text
        assert "42.5" in text
        assert "0.123" in text
