"""Behavioral tests: FIFO ordering, window draining, slot deferral,
classification and accounting invariants."""

import pytest

from conftest import build_system, of_kind, run_system, us
from repro.core.monitor import DeltaMinusMonitor
from repro.core.policy import HandlingMode, MonitoredInterposing, NeverInterpose
from repro.hypervisor.config import HypervisorConfig, SlotConfig
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.irq import IrqSource
from repro.hypervisor.partition import Partition
from repro.sim.timers import IntervalSequenceTimer

C_TH = us(2)
C_BH = us(40)
C_CTX = 10_000


class TestFifoOrdering:
    def test_bottom_handlers_complete_in_arrival_order(self):
        """Section 5: the queues prevent out-of-order BH execution."""
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(300)))
        gaps = [us(g) for g in (100, 50, 400, 20, 900, 10, 10, 700)]
        hv, timer = build_system(subscriber="P2", policy=policy,
                                 intervals=gaps)
        run_system(hv, timer, len(gaps))
        seqs = [record.seq for record in hv.latency_records]
        assert seqs == sorted(seqs)
        completions = [record.completed_at for record in hv.latency_records]
        assert completions == sorted(completions)

    def test_window_drains_older_delayed_event_first(self):
        """An interposed window runs the queue head — an older delayed
        event — before the accepted one (FIFO), so the delayed event
        completes inside the window and is classified interposed."""
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(500)))
        # IRQ1 at 1100 us (P2's slot is 1000-2000: that's P2's own? No:
        # subscriber P2, slots P1=[0,1000), P2=[1000,2000). Put both
        # IRQs in P1's second slot [2000, 3000): first denied (450 gap
        # after an accepted one at 2050), second accepted.
        hv, timer = build_system(subscriber="P2", policy=policy,
                                 intervals=[us(2050), us(100), us(500)])
        run_system(hv, timer, 3)
        records = hv.latency_records
        assert records[0].mode is HandlingMode.INTERPOSED   # t=2050
        # Event #1 (denied at t=2150) is drained head-first by the
        # window that event #2 opened at t=2650; the window's budget
        # (one C_BH) is then spent, so event #2 itself is delayed.
        assert records[1].mode is HandlingMode.INTERPOSED
        assert records[2].mode is HandlingMode.DELAYED
        assert [r.seq for r in records] == [0, 1, 2]


class TestSlotDeferral:
    def test_window_straddling_boundary_is_deferred(self):
        """A window opened just before the boundary finishes its budget
        before the slot switch happens."""
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(100)))
        # IRQ at 990 us in P1's slot for P2: window runs 990..~1087.
        hv, timer = build_system(subscriber="P2", policy=policy,
                                 intervals=[us(990)])
        run_system(hv, timer, 1)
        (record,) = hv.latency_records
        assert record.mode is HandlingMode.INTERPOSED
        assert not record.enforced_cut
        assert hv.stats.slot_switches_deferred == 1

    def test_home_bh_straddling_boundary_is_deferred(self):
        """A direct bottom handler started just before the slot end
        completes within its C_BH deferral instead of waiting a full
        TDMA rotation."""
        hv, timer = build_system(subscriber="P1", intervals=[us(980)])
        run_system(hv, timer, 1)
        (record,) = hv.latency_records
        assert record.mode is HandlingMode.DIRECT
        assert record.latency == C_TH + C_BH
        assert hv.stats.slot_switches_deferred == 1

    def test_deferral_is_bounded_by_budget(self):
        """Slot start jitter from deferral never exceeds C'_BH: the
        following slot's partition still gets its slot minus a bounded
        perturbation."""
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(100)))
        hv, timer = build_system(subscriber="P2", policy=policy,
                                 intervals=[us(995)])
        run_system(hv, timer, 1)
        hv.run_until(us(1500))   # let the deferred switch happen
        from repro.sim.trace import TraceKind
        slot_switches = of_kind(hv.trace, TraceKind.SLOT_SWITCH)
        # the deferred boundary fired late, but by less than C'_BH
        first = slot_switches[0]
        c_bh_eff = hv.config.costs.effective_bottom_handler_cycles(C_BH)
        assert us(1000) <= first.time <= us(1000) + c_bh_eff


class TestClassification:
    def test_mode_counts_sum_to_records(self):
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(300)))
        gaps = [us(137)] * 20
        hv, timer = build_system(subscriber="P2", policy=policy,
                                 intervals=gaps)
        run_system(hv, timer, len(gaps))
        counts = hv.mode_counts()
        assert sum(counts.values()) == len(hv.latency_records) == len(gaps)

    def test_latencies_us_filtering(self):
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(300)))
        gaps = [us(137)] * 10
        hv, timer = build_system(subscriber="P2", policy=policy,
                                 intervals=gaps)
        run_system(hv, timer, len(gaps))
        total = len(hv.latencies_us())
        by_mode = sum(len(hv.latencies_us(mode=mode)) for mode in HandlingMode)
        assert total == by_mode == 10


class TestAccountingInvariants:
    def test_cpu_time_conservation(self):
        """Every cycle of simulated time is charged to exactly one
        accounting category."""
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(300)))
        gaps = [us(g) for g in (100, 250, 400, 80, 600, 313)]
        hv, timer = build_system(subscriber="P2", policy=policy,
                                 intervals=gaps)
        run_system(hv, timer, len(gaps))
        # Charge the execution currently on the CPU, then compare.
        hv.cpu.preempt()
        assert hv.cpu.total_consumed() == hv.engine.now

    def test_window_closed_after_a_top_handler_keeps_the_mask(self):
        """An IRQ at the instant a window's last bottom handler ends
        closes the window when its top handler returns.  The closing
        context switch (or deferred slot switch) must keep interrupts
        masked: a top handler let in there overlapped the switch, and
        the next charge found the CPU busy."""
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(100)))
        hv, timer = build_system(subscriber="P2", policy=policy,
                                 intervals=[us(10)] * 40, slot_us=300.0)
        run_system(hv, timer, 40)
        hv.cpu.preempt()
        assert hv.cpu.total_consumed() == hv.engine.now

    def test_window_without_budget_keeps_the_mask(self):
        """A window granted with a zero C_BH budget closes as soon as it
        is entered; its closing context switch must keep interrupts
        masked too, whatever the handler's real demand."""
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(100)))
        hv, timer = build_system(subscriber="P2", policy=policy,
                                 intervals=[us(10)] * 40, slot_us=300.0,
                                 c_bh_us=0, trace=False,
                                 bottom_handler_actual=lambda seq: us(20))
        run_system(hv, timer, 40)
        assert len(hv.latency_records) == 40
        hv.cpu.preempt()
        assert hv.cpu.total_consumed() == hv.engine.now

    def test_no_irq_lost(self):
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(300)))
        gaps = [us(g % 700 + 13) for g in range(0, 3000, 97)]
        hv, timer = build_system(subscriber="P2", policy=policy,
                                 intervals=gaps)
        run_system(hv, timer, len(gaps))
        assert len(hv.latency_records) == len(gaps)
        assert hv.partition("P2").irq_queue.empty

    def test_slot_time_within_bounded_interference(self):
        """Over a long run, the victim partition's execution time stays
        within its nominal share minus the bounded interference."""
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(500)))
        gaps = [us(167)] * 60
        hv, timer = build_system(subscriber="P2", policy=policy,
                                 intervals=gaps)
        run_system(hv, timer, len(gaps))
        hv.cpu.preempt()
        elapsed = hv.engine.now
        p1_share = hv.cpu.consumed("task:P1") + hv.cpu.consumed("bh:P1")
        # Nominal share is 1/2; interference budget is C'_BH per dmin
        # plus slot-switch and top-handler overheads.
        assert p1_share >= 0.35 * elapsed


class TestMultipleSources:
    def make_two_source_system(self):
        clock_us = us
        slots = [SlotConfig("P1", clock_us(1000)), SlotConfig("P2", clock_us(1000))]
        hv = Hypervisor(slots, HypervisorConfig(trace_enabled=False))
        hv.add_partition(Partition("P1"))
        hv.add_partition(Partition("P2"))
        src1 = IrqSource(name="a", line=5, subscriber="P2",
                         top_handler_cycles=C_TH, bottom_handler_cycles=C_BH,
                         policy=MonitoredInterposing(
                             DeltaMinusMonitor.from_dmin(us(500))))
        src2 = IrqSource(name="b", line=6, subscriber="P1",
                         top_handler_cycles=C_TH, bottom_handler_cycles=C_BH,
                         policy=NeverInterpose())
        hv.add_irq_source(src1)
        hv.add_irq_source(src2)
        t1 = IntervalSequenceTimer(hv.engine, hv.intc, 5,
                                   [us(100), us(700), us(900)])
        t2 = IntervalSequenceTimer(hv.engine, hv.intc, 6,
                                   [us(150), us(650), us(950)])
        src1.on_top_handler = lambda event: t1.arm_next()
        src2.on_top_handler = lambda event: t2.arm_next()
        return hv, t1, t2

    def test_independent_sources_complete(self):
        hv, t1, t2 = self.make_two_source_system()
        hv.start()
        t1.arm_next()
        t2.arm_next()
        hv.run_until_irq_count(6, limit_cycles=us(100_000))
        assert len([r for r in hv.latency_records if r.source == "a"]) == 3
        assert len([r for r in hv.latency_records if r.source == "b"]) == 3

    def test_per_source_fifo(self):
        hv, t1, t2 = self.make_two_source_system()
        hv.start()
        t1.arm_next()
        t2.arm_next()
        hv.run_until_irq_count(6, limit_cycles=us(100_000))
        for name in ("a", "b"):
            seqs = [r.seq for r in hv.latency_records if r.source == name]
            assert seqs == sorted(seqs)

    def test_line_priority_breaks_simultaneous_ties(self):
        """Lower line number is delivered first on simultaneous raises."""
        slots = [SlotConfig("P1", us(1000))]
        hv = Hypervisor(slots, HypervisorConfig(trace_enabled=True))
        hv.add_partition(Partition("P1"))
        order = []
        for name, line in (("hi", 2), ("lo", 9)):
            source = IrqSource(name=name, line=line, subscriber="P1",
                               top_handler_cycles=C_TH,
                               bottom_handler_cycles=us(1))
            source.on_top_handler = (
                lambda event, n=name: order.append(n)
            )
            hv.add_irq_source(source)
        hv.start()

        def raise_both_latched():
            # Latch both lines while masked so they are truly
            # simultaneous from the CPU's perspective.
            hv.intc.mask_all()
            hv.intc.raise_line(9)
            hv.intc.raise_line(2)
            hv.intc.unmask_all()

        hv.engine.schedule(us(10), raise_both_latched)
        hv.run_until_irq_count(2, limit_cycles=us(10_000))
        assert order == ["hi", "lo"]


class TestConstructionValidation:
    def test_unknown_subscriber_rejected(self):
        hv = Hypervisor([SlotConfig("P1", us(100))])
        hv.add_partition(Partition("P1"))
        with pytest.raises(ValueError):
            hv.add_irq_source(IrqSource(name="x", line=5, subscriber="NOPE",
                                        top_handler_cycles=1,
                                        bottom_handler_cycles=1))

    def test_slot_timer_line_reserved(self):
        hv = Hypervisor([SlotConfig("P1", us(100))])
        hv.add_partition(Partition("P1"))
        with pytest.raises(ValueError):
            hv.add_irq_source(IrqSource(name="x", line=0, subscriber="P1",
                                        top_handler_cycles=1,
                                        bottom_handler_cycles=1))

    def test_partition_without_slot_rejected(self):
        hv = Hypervisor([SlotConfig("P1", us(100))])
        with pytest.raises(ValueError):
            hv.add_partition(Partition("P2"))

    def test_start_requires_all_partitions(self):
        hv = Hypervisor([SlotConfig("P1", us(100)), SlotConfig("P2", us(100))])
        hv.add_partition(Partition("P1"))
        with pytest.raises(RuntimeError):
            hv.start()

    def test_double_start_rejected(self):
        hv = Hypervisor([SlotConfig("P1", us(100))])
        hv.add_partition(Partition("P1"))
        hv.start()
        with pytest.raises(RuntimeError):
            hv.start()

    def test_run_before_start_rejected(self):
        hv = Hypervisor([SlotConfig("P1", us(100))])
        hv.add_partition(Partition("P1"))
        with pytest.raises(RuntimeError):
            hv.run_until(1000)

    def test_duplicate_line_rejected(self):
        hv = Hypervisor([SlotConfig("P1", us(100))])
        hv.add_partition(Partition("P1"))
        hv.add_irq_source(IrqSource(name="x", line=5, subscriber="P1",
                                    top_handler_cycles=1,
                                    bottom_handler_cycles=1))
        with pytest.raises(ValueError):
            hv.add_irq_source(IrqSource(name="y", line=5, subscriber="P1",
                                        top_handler_cycles=1,
                                        bottom_handler_cycles=1))
