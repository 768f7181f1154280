"""Failure-injection and edge-case tests for the full system."""

import pytest

from conftest import build_system, of_kind, run_system, us
from repro.core.monitor import DeltaMinusMonitor
from repro.core.policy import MonitoredInterposing, NeverInterpose
from repro.hypervisor.config import HypervisorConfig, SlotConfig
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.irq import IrqQueueOverflow, IrqSource
from repro.hypervisor.partition import Partition
from repro.sim.timers import IntervalSequenceTimer


class TestQueueOverflow:
    def test_bounded_queue_overflows_under_flood(self):
        """A bounded IRQ queue refuses pushes past its capacity —
        surfaced as an explicit error, never silent loss."""
        slots = [SlotConfig("P1", us(1_000)), SlotConfig("P2", us(1_000))]
        hv = Hypervisor(slots, HypervisorConfig(trace_enabled=False))
        hv.add_partition(Partition("P1"))
        hv.add_partition(Partition("P2", irq_queue_capacity=3))
        source = IrqSource(name="flood", line=5, subscriber="P2",
                           top_handler_cycles=us(1),
                           bottom_handler_cycles=us(40))
        hv.add_irq_source(source)
        timer = IntervalSequenceTimer(hv.engine, hv.intc, 5, [us(50)] * 10)
        source.on_top_handler = lambda event: timer.arm_next()
        hv.start()
        timer.arm_next()
        with pytest.raises(IrqQueueOverflow):
            hv.run_until(us(5_000))

    def test_unbounded_queue_absorbs_flood(self):
        hv, timer = build_system(subscriber="P2", intervals=[us(50)] * 10)
        run_system(hv, timer, 10, limit_us=100_000)
        assert len(hv.latency_records) == 10


class TestSpuriousIrqs:
    def test_unregistered_line_is_counted_and_survived(self):
        hv, timer = build_system(subscriber="P1", intervals=[us(100)])
        hv.start()
        timer.arm_next()
        hv.engine.schedule(us(50), lambda: hv.intc.raise_line(9))
        hv.run_until_irq_count(1, limit_cycles=us(50_000))
        assert hv.stats.spurious_irqs == 1
        assert len(hv.latency_records) == 1   # real IRQ unaffected


class TestDegenerateCosts:
    def test_zero_top_handler_cost(self):
        hv, timer = build_system(subscriber="P1", intervals=[us(100)],
                                 c_th_us=0.0)
        run_system(hv, timer, 1)
        (record,) = hv.latency_records
        assert record.latency == us(40)

    def test_zero_bottom_handler_cost(self):
        hv, timer = build_system(subscriber="P1", intervals=[us(100)],
                                 c_bh_us=0.0)
        run_system(hv, timer, 1, limit_us=50_000)
        (record,) = hv.latency_records
        assert record.latency == us(2)

    def test_zero_bottom_handler_foreign_interposed(self):
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(500)))
        hv, timer = build_system(subscriber="P2", policy=policy,
                                 intervals=[us(100)], c_bh_us=0.0)
        run_system(hv, timer, 1, limit_us=50_000)
        assert len(hv.latency_records) == 1


class TestSlotSkipping:
    def test_huge_bottom_handler_skips_whole_slots(self):
        """A home bottom handler longer than the following slot defers
        the boundary past it entirely; the schedule catches up on the
        nominal grid instead of drifting."""
        hv, timer = build_system(subscriber="P1", intervals=[us(900)],
                                 c_bh_us=1_500.0)
        run_system(hv, timer, 1, limit_us=100_000)
        (record,) = hv.latency_records
        assert record.latency == us(2) + us(1_500)
        assert hv.scheduler.slots_skipped >= 1
        # After catching up, slot ownership matches the nominal grid.
        hv.run_until(us(10_000))
        hv.engine.run_until(hv.engine.now)   # settle
        owner_now = hv.scheduler.current_owner
        assert owner_now in ("P1", "P2")

    def test_nominal_grid_preserved_after_deferral(self):
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(200)))
        hv, timer = build_system(subscriber="P2", policy=policy,
                                 intervals=[us(990), us(990)])
        run_system(hv, timer, 2, limit_us=100_000)
        hv.run_until(us(20_000))
        from repro.sim.trace import TraceKind
        switches = of_kind(hv.trace, TraceKind.SLOT_SWITCH)
        # Boundaries stay near the nominal 1000us grid (within C'_BH).
        c_bh_eff = hv.config.costs.effective_bottom_handler_cycles(us(40))
        for event in switches:
            offset = event.time % us(1_000)
            assert offset <= c_bh_eff or offset >= us(1_000) - 1


class TestTraceCapacity:
    def test_capacity_bound_respected_in_system(self):
        slots = [SlotConfig("P1", us(500)), SlotConfig("P2", us(500))]
        config = HypervisorConfig(trace_enabled=True, trace_capacity=50)
        hv = Hypervisor(slots, config)
        hv.add_partition(Partition("P1"))
        hv.add_partition(Partition("P2"))
        source = IrqSource(name="irq", line=5, subscriber="P1",
                           top_handler_cycles=us(2),
                           bottom_handler_cycles=us(10))
        hv.add_irq_source(source)
        timer = IntervalSequenceTimer(hv.engine, hv.intc, 5, [us(100)] * 50)
        source.on_top_handler = lambda event: timer.arm_next()
        hv.start()
        timer.arm_next()
        hv.run_until(us(10_000))
        assert len(hv.trace) <= 50
        assert hv.trace.dropped > 0


class TestExhaustedWorkload:
    def test_system_idles_gracefully_after_last_irq(self):
        hv, timer = build_system(subscriber="P1", intervals=[us(100)])
        run_system(hv, timer, 1)
        before = len(hv.latency_records)
        hv.run_until(us(50_000))
        assert len(hv.latency_records) == before
        assert hv.engine.now >= us(50_000)
