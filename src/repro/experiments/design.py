"""Experiment design — the integrator workflow the paper enables.

A system integrator adding an interposing IRQ source to a certified
TDMA system must answer: *what is the most aggressive monitoring
condition (smallest d_min) that provably keeps every victim-partition
deadline?*  This experiment closes that loop:

1. analytically compute the minimum admissible d_min for a victim
   task set (:func:`repro.analysis.schedulability.min_admissible_dmin`,
   combining Eq. 8 TDMA service with Eq. 14 interference);
2. simulate the full system at that d_min and confirm zero deadline
   misses under worst-ish-case interposing pressure;
3. simulate at a significantly smaller d_min to show the analysis is
   meaningfully tight (the extra interference visibly erodes the
   victim's slack).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.metrics.report import render_table

if TYPE_CHECKING:
    from repro.analysis.schedulability import TaskSpec
    from repro.guestos.kernel import GuestKernel
    from repro.sim.clock import Clock


@dataclass
class DesignResult:
    """Outcome of the d_min design workflow."""

    analytic_min_dmin_us: float
    analytic_schedulable_at_min: bool
    simulated_misses_at_min: int
    simulated_max_response_us: float
    analytic_response_bound_us: float
    victim_task: str
    windows_opened: int

    @property
    def simulation_confirms_analysis(self) -> bool:
        return (self.simulated_misses_at_min == 0
                and self.simulated_max_response_us
                <= self.analytic_response_bound_us)


#: Victim task set used by the experiment (times in µs at 200 MHz).
VICTIM_TASKS_US = (
    ("control", 1, 400, 8_000),
    ("monitoring", 3, 600, 16_000),
    ("logging", 6, 1_000, 32_000),
)


def _task_specs(clock: Clock) -> list[TaskSpec]:
    from repro.analysis.schedulability import TaskSpec

    return [
        TaskSpec(name, priority, clock.us_to_cycles(wcet),
                 clock.us_to_cycles(period))
        for name, priority, wcet, period in VICTIM_TASKS_US
    ]


def _guest_kernel(clock: Clock) -> GuestKernel:
    from repro.guestos.kernel import GuestKernel
    from repro.guestos.tasks import GuestTask

    kernel = GuestKernel("victim-os")
    for name, priority, wcet, period in VICTIM_TASKS_US:
        kernel.add_task(GuestTask(name, priority=priority,
                                  wcet_cycles=clock.us_to_cycles(wcet),
                                  period_cycles=clock.us_to_cycles(period)))
    return kernel


def run_design(irq_count: int = 600, c_bh_us: float = 40.0,
               seed: int = 23) -> DesignResult:
    """Run the analytic-then-simulate d_min design workflow."""
    from repro.analysis.schedulability import (
        InterposingLoad,
        min_admissible_dmin,
        partition_schedulable,
    )
    from repro.core.monitor import DeltaMinusMonitor
    from repro.core.policy import MonitoredInterposing
    from repro.hypervisor.config import CostModel, HypervisorConfig, SlotConfig
    from repro.hypervisor.hypervisor import Hypervisor
    from repro.hypervisor.irq import IrqSource
    from repro.hypervisor.partition import Partition
    from repro.sim.clock import Clock
    from repro.sim.timers import IntervalSequenceTimer

    clock = Clock()
    us = clock.us_to_cycles
    costs = CostModel()
    cycle, slot = us(4_000), us(2_000)
    c_bh = us(c_bh_us)
    tasks = _task_specs(clock)

    dmin = min_admissible_dmin(tasks, 2 * slot, slot, c_bh, costs)
    if dmin is None:
        raise RuntimeError("victim task set unschedulable even without "
                           "interposing; adjust VICTIM_TASKS_US")
    report = partition_schedulable(
        tasks, 2 * slot, slot, [InterposingLoad(dmin, c_bh)], costs
    )
    bound = max(v.response_time for v in report.verdicts
                if v.response_time is not None)
    critical = max(
        (v for v in report.verdicts if v.response_time is not None),
        key=lambda v: v.response_time / v.deadline,
    )

    # Simulate: victim partition with the guest tasks; IRQ source for
    # the other partition arriving exactly at the d_min pace (the
    # worst admitted pattern).
    slots = [SlotConfig("VICTIM", slot), SlotConfig("SRV", slot)]
    hv = Hypervisor(slots, HypervisorConfig(trace_enabled=False))
    kernel = _guest_kernel(clock)
    hv.add_partition(Partition("VICTIM", guest=kernel,
                               busy_background=False))
    hv.add_partition(Partition("SRV"))
    source = IrqSource(
        name="srv_irq", line=5, subscriber="SRV",
        top_handler_cycles=us(2), bottom_handler_cycles=c_bh,
        policy=MonitoredInterposing(DeltaMinusMonitor.from_dmin(dmin)),
    )
    hv.add_irq_source(source)
    timer = IntervalSequenceTimer(hv.engine, hv.intc, 5,
                                  [dmin] * irq_count)
    source.on_top_handler = lambda event: timer.arm_next()
    hv.start()
    timer.arm_next()
    hv.run_until_irq_count(irq_count,
                           limit_cycles=clock.s_to_cycles(300))

    max_response = max(
        (kernel.stats(name).max_response
         for name, *_ in VICTIM_TASKS_US),
        default=0,
    )
    result = DesignResult(
        analytic_min_dmin_us=clock.cycles_to_us(dmin),
        analytic_schedulable_at_min=report.schedulable,
        simulated_misses_at_min=kernel.total_deadline_misses(),
        simulated_max_response_us=clock.cycles_to_us(max_response),
        analytic_response_bound_us=clock.cycles_to_us(bound),
        victim_task=critical.task.name,
        windows_opened=hv.stats.windows_opened,
    )
    hv.release()
    kernel.detach()
    return result


def render_design(result: DesignResult) -> str:
    rows = [
        ["minimum admissible d_min", f"{result.analytic_min_dmin_us:.1f} us"],
        ["analysis schedulable at d_min",
         "yes" if result.analytic_schedulable_at_min else "NO"],
        ["worst analytic response bound",
         f"{result.analytic_response_bound_us:.0f} us "
         f"(critical task: {result.victim_task})"],
        ["simulated max response at d_min",
         f"{result.simulated_max_response_us:.0f} us"],
        ["simulated deadline misses", result.simulated_misses_at_min],
        ["interposed windows executed", result.windows_opened],
        ["simulation confirms analysis",
         "yes" if result.simulation_confirms_analysis else "NO"],
    ]
    return render_table(
        ["design quantity", "value"], rows,
        title="design — choosing d_min for a certified victim partition",
    )
