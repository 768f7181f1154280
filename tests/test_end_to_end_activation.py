"""End-to-end IRQ→task activation tests (the full Fig. 2 chain).

An IRQ's bottom handler releases a sporadic guest task — the
application-level reaction.  These tests measure the *end-to-end*
reaction latency (IRQ arrival to task completion) under delayed vs
interposed handling, and verify the exact Fig. 2 event sequence in the
trace.
"""

import pytest

from conftest import us
from repro.core.monitor import DeltaMinusMonitor
from repro.core.policy import MonitoredInterposing, NeverInterpose
from repro.guestos.kernel import GuestKernel
from repro.guestos.tasks import GuestTask
from repro.hypervisor.config import HypervisorConfig, SlotConfig
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.irq import IrqSource
from repro.hypervisor.partition import Partition
from repro.sim.timers import IntervalSequenceTimer
from repro.sim.trace import TraceKind


def build_reactive_system(policy, gaps, trace=False):
    slots = [SlotConfig("P1", us(1_000)), SlotConfig("P2", us(1_000))]
    hv = Hypervisor(slots, HypervisorConfig(trace_enabled=trace))
    kernel = GuestKernel("reactor-os")
    kernel.add_task(GuestTask("reaction", priority=1, wcet_cycles=us(30),
                              deadline_cycles=us(2_500)))
    hv.add_partition(Partition("P1"))
    hv.add_partition(Partition("P2", guest=kernel, busy_background=True))
    source = IrqSource(name="sensor", line=5, subscriber="P2",
                       top_handler_cycles=us(2),
                       bottom_handler_cycles=us(40),
                       policy=policy,
                       activates_task="reaction")
    hv.add_irq_source(source)
    timer = IntervalSequenceTimer(hv.engine, hv.intc, 5, gaps)
    source.on_top_handler = lambda event: timer.arm_next()
    hv.start()
    timer.arm_next()
    return hv, kernel


class TestSporadicActivation:
    def test_each_irq_releases_one_job(self):
        hv, kernel = build_reactive_system(NeverInterpose(),
                                           [us(2_100)] * 5)
        hv.run_until(us(20_000))
        assert kernel.stats("reaction").released == 5

    def test_release_happens_at_bh_completion(self):
        hv, kernel = build_reactive_system(NeverInterpose(), [us(100)])
        hv.run_until(us(5_000))
        (record,) = hv.latency_records
        stats = kernel.stats("reaction")
        assert stats.released == 1
        assert stats.completed == 1
        # the job was released exactly when the BH completed; it runs
        # in P2's own slot so its response starts there.

    def test_interposed_bh_releases_task_early(self):
        """With interposing, the BH (and hence the task release)
        happens during P1's slot; the reaction job is then the first
        thing P2 runs at its slot start."""
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(500)))
        hv_fast, kernel_fast = build_reactive_system(policy, [us(100)])
        hv_fast.run_until(us(5_000))
        hv_slow, kernel_slow = build_reactive_system(NeverInterpose(),
                                                     [us(100)])
        hv_slow.run_until(us(5_000))
        fast = kernel_fast.stats("reaction")
        slow = kernel_slow.stats("reaction")
        assert fast.completed == slow.completed == 1
        # End-to-end completion time: release(t_bh_done) + wait + wcet.
        # The interposed release at ~150us beats the delayed release at
        # ~1090us, so the interposed reaction finishes earlier.
        fast_done = hv_fast.latency_records[0].completed_at
        slow_done = hv_slow.latency_records[0].completed_at
        assert fast_done < slow_done

    def test_reaction_deadlines_met(self):
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(500)))
        hv, kernel = build_reactive_system(policy, [us(700)] * 10)
        hv.run_until(us(60_000))
        assert kernel.stats("reaction").deadline_misses == 0

    def test_activates_task_without_guest_raises(self):
        slots = [SlotConfig("P1", us(1_000))]
        hv = Hypervisor(slots, HypervisorConfig(trace_enabled=False))
        hv.add_partition(Partition("P1"))
        source = IrqSource(name="x", line=5, subscriber="P1",
                           top_handler_cycles=us(1),
                           bottom_handler_cycles=us(10),
                           activates_task="nope")
        hv.add_irq_source(source)
        timer = IntervalSequenceTimer(hv.engine, hv.intc, 5, [us(100)])
        source.on_top_handler = lambda event: timer.arm_next()
        hv.start()
        timer.arm_next()
        with pytest.raises(RuntimeError):
            hv.run_until(us(5_000))

    def test_release_non_sporadic_rejected(self):
        kernel = GuestKernel("g")
        kernel.add_task(GuestTask("periodic", priority=1,
                                  wcet_cycles=us(10),
                                  period_cycles=us(1_000)))
        from repro.sim.engine import SimulationEngine
        kernel.attach(SimulationEngine(), lambda: None)
        with pytest.raises(ValueError):
            kernel.release_task("periodic")


class TestFig2EventSequence:
    def test_direct_irq_trace_sequence(self):
        """The Fig. 2 chain for a direct IRQ: raise -> top handler ->
        bottom handler -> completion, in order."""
        hv, _ = build_reactive_system(NeverInterpose(), [us(1_100)],
                                      trace=True)
        hv.run_until(us(2_500))   # IRQ at 1100us: P2's own slot
        kinds = [
            event.kind for event in hv.trace
            if event.kind in (TraceKind.IRQ_RAISED,
                              TraceKind.TOP_HANDLER_START,
                              TraceKind.TOP_HANDLER_END,
                              TraceKind.BOTTOM_HANDLER_START,
                              TraceKind.BOTTOM_HANDLER_END)
            # exclude the TDMA slot timer's raises on line 0
            and event.data.get("line", 5) == 5
        ]
        assert kinds == [
            TraceKind.IRQ_RAISED,
            TraceKind.TOP_HANDLER_START,
            TraceKind.TOP_HANDLER_END,
            TraceKind.BOTTOM_HANDLER_START,
            TraceKind.BOTTOM_HANDLER_END,
        ]

    def test_interposed_irq_trace_sequence(self):
        """The Fig. 4b/Fig. 5 chain: monitor accept between top handler
        and the interposed window."""
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(500)))
        hv, _ = build_reactive_system(policy, [us(100)], trace=True)
        hv.run_until(us(2_500))
        interesting = (TraceKind.TOP_HANDLER_START, TraceKind.MONITOR_ACCEPT,
                       TraceKind.INTERPOSE_START,
                       TraceKind.BOTTOM_HANDLER_START,
                       TraceKind.BOTTOM_HANDLER_END, TraceKind.INTERPOSE_END)
        kinds = [event.kind for event in hv.trace
                 if event.kind in interesting]
        assert kinds == list(interesting)
