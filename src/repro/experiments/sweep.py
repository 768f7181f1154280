"""Experiment abl-sweep — design-space sweeps (Sections 3 and 5.1).

Two sweeps substantiate the paper's structural claims:

* **TDMA cycle sweep** — scaling all slot lengths shows that the
  classic worst-case latency grows linearly with the cycle length
  while the interposed worst case is flat (observation 2 of
  Section 5.1: "Worst-case interrupt latencies are independent of the
  TDMA cycle if interrupts arrive according to the specified d_min").
  This is why "reduction of the TDMA cycle length ... is not always an
  option" (Section 1) motivates the mechanism in the first place.
* **d_min sweep** — varying the monitoring condition trades average
  latency against the interference budget C'_BH/d_min that other
  partitions must tolerate (Eq. 2/Eq. 14).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.experiments.common import PaperSystemConfig
from repro.metrics.report import render_table


@dataclass
class CycleSweepPoint:
    """One TDMA-cycle scale factor's bounds and measurements."""

    scale: float
    tdma_cycle_us: float
    classic_bound_us: float
    interposed_bound_us: float
    classic_measured_avg_us: float
    interposed_measured_avg_us: float
    classic_measured_max_us: float
    interposed_measured_max_us: float


def run_cycle_sweep_point(scale: float,
                          system: "PaperSystemConfig | None" = None,
                          dmin_us: float = 1_444.0,
                          irq_count: int = 1_000,
                          seed: int = 17) -> CycleSweepPoint:
    """One TDMA-cycle scale factor (the campaign runner's task unit).

    The interarrival array is deterministic in (irq_count, dmin, seed),
    so every point regenerates the identical stream the serial sweep
    shares across its loop iterations.
    """
    from repro.analysis.event_models import PeriodicEventModel
    from repro.analysis.latency import (
        classic_irq_latency,
        interposed_irq_latency,
    )
    from repro.core.monitor import DeltaMinusMonitor
    from repro.core.policy import MonitoredInterposing, NeverInterpose
    from repro.experiments.common import run_irq_scenario
    from repro.workloads.synthetic import (
        clip_to_dmin,
        exponential_interarrivals,
    )

    base = system or PaperSystemConfig()
    clock = base.clock()
    dmin = clock.us_to_cycles(dmin_us)
    c_th = clock.us_to_cycles(base.top_handler_us)
    c_bh = clock.us_to_cycles(base.bottom_handler_us)
    model = PeriodicEventModel(dmin)
    intervals = clip_to_dmin(
        exponential_interarrivals(irq_count, dmin, seed=seed), dmin
    )
    system_scaled = replace(
        base,
        app_slot_us=base.app_slot_us * scale,
        housekeeping_slot_us=base.housekeeping_slot_us * scale,
    )
    cycle = clock.us_to_cycles(system_scaled.tdma_cycle_us)
    slot = clock.us_to_cycles(system_scaled.app_slot_us)
    classic_bound = classic_irq_latency(
        model, c_th, c_bh, cycle, slot, costs=base.costs
    )
    interposed_bound = interposed_irq_latency(
        model, c_th, c_bh, costs=base.costs
    )
    classic_run = run_irq_scenario(
        system_scaled, NeverInterpose(), intervals).lightweight()
    interposed_run = run_irq_scenario(
        system_scaled,
        MonitoredInterposing(DeltaMinusMonitor.from_dmin(dmin)),
        intervals,
    ).lightweight()
    return CycleSweepPoint(
        scale=scale,
        tdma_cycle_us=system_scaled.tdma_cycle_us,
        classic_bound_us=clock.cycles_to_us(
            classic_bound.response_time_cycles
        ),
        interposed_bound_us=clock.cycles_to_us(
            interposed_bound.response_time_cycles
        ),
        classic_measured_avg_us=classic_run.avg_latency_us,
        interposed_measured_avg_us=interposed_run.avg_latency_us,
        classic_measured_max_us=classic_run.max_latency_us,
        interposed_measured_max_us=interposed_run.max_latency_us,
    )


def run_cycle_sweep(system: "PaperSystemConfig | None" = None,
                    scales: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
                    dmin_us: float = 1_444.0,
                    irq_count: int = 1_000,
                    seed: int = 17) -> list[CycleSweepPoint]:
    """Scale the TDMA slot table and compare both mechanisms."""
    return [
        run_cycle_sweep_point(scale, system, dmin_us, irq_count, seed)
        for scale in scales
    ]


@dataclass
class DminSweepPoint:
    """One monitoring condition's latency/interference trade-off."""

    dmin_us: float
    interference_budget_fraction: float   # C'_BH / d_min
    avg_latency_us: float
    max_latency_us: float
    interposed_fraction: float
    delayed_fraction: float


def run_dmin_sweep_point(multiplier: float,
                         system: "PaperSystemConfig | None" = None,
                         mean_interarrival_us: float = 1_444.0,
                         irq_count: int = 1_000,
                         seed: int = 19) -> DminSweepPoint:
    """One d_min multiplier (the campaign runner's task unit).

    Every point regenerates the identical arrival stream from
    (irq_count, mean_interarrival_us, seed); only the monitoring
    condition differs.
    """
    from repro.core.monitor import DeltaMinusMonitor
    from repro.core.policy import MonitoredInterposing
    from repro.experiments.common import run_irq_scenario
    from repro.workloads.synthetic import exponential_interarrivals

    system = system or PaperSystemConfig()
    clock = system.clock()
    mean = clock.us_to_cycles(mean_interarrival_us)
    c_bh_eff = system.effective_bottom_cycles(clock)
    dmin = round(mean * multiplier)
    intervals = exponential_interarrivals(irq_count, mean, seed=seed)
    run = run_irq_scenario(
        system,
        MonitoredInterposing(DeltaMinusMonitor.from_dmin(dmin)),
        intervals,
    ).lightweight()
    total = len(run.latencies_us) or 1
    return DminSweepPoint(
        dmin_us=clock.cycles_to_us(dmin),
        interference_budget_fraction=c_bh_eff / dmin,
        avg_latency_us=run.avg_latency_us,
        max_latency_us=run.max_latency_us,
        interposed_fraction=run.mode_counts.get("interposed", 0) / total,
        delayed_fraction=run.mode_counts.get("delayed", 0) / total,
    )


def run_dmin_sweep(system: "PaperSystemConfig | None" = None,
                   dmin_multipliers: Sequence[float] = (1.0, 2.0, 4.0, 8.0, 16.0),
                   mean_interarrival_us: float = 1_444.0,
                   irq_count: int = 1_000,
                   seed: int = 19) -> list[DminSweepPoint]:
    """Fix the arrival process, sweep the monitoring condition d_min.

    Larger d_min (a stricter condition) means a smaller interference
    budget for other partitions but more delayed IRQs — the knob a
    system integrator turns to trade latency against independence.
    """
    return [
        run_dmin_sweep_point(multiplier, system, mean_interarrival_us,
                             irq_count, seed)
        for multiplier in dmin_multipliers
    ]


def render_cycle_sweep(points: Sequence[CycleSweepPoint]) -> str:
    rows = [
        [f"{p.scale:g}x", f"{p.tdma_cycle_us:.0f}",
         f"{p.classic_bound_us:.0f}", f"{p.classic_measured_max_us:.0f}",
         f"{p.interposed_bound_us:.0f}", f"{p.interposed_measured_max_us:.0f}"]
        for p in points
    ]
    return render_table(
        ["scale", "T_TDMA (us)", "classic bound", "classic max",
         "interposed bound", "interposed max"],
        rows,
        title="abl-sweep — worst-case latency vs TDMA cycle length (us)",
    )


def render_dmin_sweep(points: Sequence[DminSweepPoint]) -> str:
    rows = [
        [f"{p.dmin_us:.0f}",
         f"{100 * p.interference_budget_fraction:.1f}%",
         f"{p.avg_latency_us:.0f}",
         f"{100 * p.interposed_fraction:.0f}%",
         f"{100 * p.delayed_fraction:.0f}%"]
        for p in points
    ]
    return render_table(
        ["d_min (us)", "interference budget", "avg latency (us)",
         "interposed", "delayed"],
        rows,
        title="abl-sweep — latency vs interference budget (d_min knob)",
    )
