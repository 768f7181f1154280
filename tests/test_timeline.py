"""Tests for CPU segment recording and timeline rendering."""

import pytest

from conftest import us
from repro.core.monitor import DeltaMinusMonitor
from repro.core.policy import MonitoredInterposing
from repro.hypervisor.config import HypervisorConfig, SlotConfig
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.irq import IrqSource
from repro.hypervisor.partition import Partition
from repro.metrics.timeline import TimelineMark, lane_of, render_gantt
from repro.sim.cpu import Cpu, CpuSegment, Execution
from repro.sim.engine import SimulationEngine
from repro.sim.timers import IntervalSequenceTimer


class TestSegmentRecording:
    def test_execution_segments(self):
        engine = SimulationEngine()
        cpu = Cpu(engine, record_segments=True)
        cpu.assign(Execution("w", 100, category="task:P1"))
        engine.run()
        (segment,) = cpu.segments
        assert (segment.start, segment.end) == (0, 100)
        assert segment.category == "task:P1"

    def test_preemption_splits_segments(self):
        engine = SimulationEngine()
        cpu = Cpu(engine, record_segments=True)
        work = Execution("w", 100, category="x")
        cpu.assign(work)
        engine.run_until(30)
        cpu.preempt()
        engine.run_until(50)
        cpu.assign(work)
        engine.run()
        assert [(s.start, s.end) for s in cpu.segments] == [(0, 30), (50, 120)]

    def test_overhead_segments(self):
        engine = SimulationEngine()
        cpu = Cpu(engine, record_segments=True)
        engine.schedule(40, lambda: cpu.charge_overhead(40))
        engine.run()
        (segment,) = cpu.segments
        assert (segment.start, segment.end) == (0, 40)
        assert segment.category == "hypervisor"

    def test_recording_disabled_by_default(self):
        cpu = Cpu(SimulationEngine())
        assert cpu.segments is None

    def test_segments_cover_elapsed_time(self):
        """With recording on, segments partition the simulated time."""
        slots = [SlotConfig("P1", us(500)), SlotConfig("P2", us(500))]
        hv = Hypervisor(slots, HypervisorConfig(record_cpu_segments=True))
        hv.add_partition(Partition("P1"))
        hv.add_partition(Partition("P2"))
        source = IrqSource(
            name="irq", line=5, subscriber="P2",
            top_handler_cycles=us(2), bottom_handler_cycles=us(40),
            policy=MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(100))),
        )
        hv.add_irq_source(source)
        timer = IntervalSequenceTimer(hv.engine, hv.intc, 5,
                                      [us(100), us(300), us(600)])
        source.on_top_handler = lambda event: timer.arm_next()
        hv.start()
        timer.arm_next()
        hv.run_until(us(3_000))
        hv.cpu.preempt()
        total = sum(segment.duration for segment in hv.cpu.segments)
        assert total == hv.engine.now
        # segments are contiguous and non-overlapping
        for a, b in zip(hv.cpu.segments, hv.cpu.segments[1:]):
            assert a.end == b.start


class TestLaneMapping:
    def test_lanes(self):
        assert lane_of("task:P1") == "P1"
        assert lane_of("idle:P2") == "P2"
        assert lane_of("bh:P2") == "P2 BH"
        assert lane_of("hypervisor") == "HV"
        assert lane_of("other") == "other"


class TestRenderGantt:
    def make_segments(self):
        return [
            CpuSegment(0, 50, "task:P1", "bg"),
            CpuSegment(50, 60, "hypervisor", "hv"),
            CpuSegment(60, 100, "bh:P2", "bh"),
        ]

    def test_render_contains_lanes(self):
        text = render_gantt(self.make_segments(), 0, 100, width=50)
        assert "P1" in text and "P2 BH" in text and "HV" in text
        assert "#" in text

    def test_marks(self):
        text = render_gantt(self.make_segments(), 0, 100, width=50,
                            marks=[TimelineMark(50, "v", "IRQ")])
        assert "v" in text
        assert "v=IRQ" in text

    def test_lane_order(self):
        text = render_gantt(self.make_segments(), 0, 100, width=50,
                            lane_order=["HV", "P1"])
        lines = [line for line in text.splitlines() if "|" in line]
        assert lines[0].startswith("HV")

    def test_window_clipping(self):
        text = render_gantt(self.make_segments(), 55, 90, width=40)
        assert "P1" not in text   # the task segment ends at 50

    def test_validation(self):
        with pytest.raises(ValueError):
            render_gantt([], 10, 10)
        with pytest.raises(ValueError):
            render_gantt([], 0, 10, width=0)
