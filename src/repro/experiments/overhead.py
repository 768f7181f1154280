"""Experiment tab62 — memory and runtime overhead (Section 6.2).

Reproduces the paper's overhead accounting:

* static memory: the mechanism's code/data footprint per component
  (paper constants, mapped onto our modules in
  :mod:`repro.hypervisor.footprint`);
* runtime costs: C_Mon (128 instructions), C_sched (877 instructions),
  C_ctx (~10000 cycles incl. cache writebacks) and the derived
  effective costs C'_TH / C'_BH (Eqs. 13/15);
* the dynamic effect: the increase in the total number of context
  switches when interposing is active (paper: ~10 % in scenario 2 with
  d_min = λ), measured by running the same d_min-adherent arrival
  sequence with and without monitoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.common import PaperSystemConfig
from repro.hypervisor.footprint import (
    monitor_data_bytes,
    render_footprint_table,
    total_paper_code_bytes,
    total_paper_data_bytes,
)
from repro.metrics.report import render_table


@dataclass
class ContextSwitchComparison:
    """Context-switch counts with and without interposing, per load."""

    load: float
    switches_without: int
    switches_with: int

    @property
    def increase(self) -> float:
        if self.switches_without == 0:
            return 0.0
        return (self.switches_with - self.switches_without) / self.switches_without


@dataclass
class OverheadResult:
    """Full Section 6.2 reproduction."""

    monitor_cycles: int
    scheduler_cycles: int
    context_switch_cycles: int
    effective_top_cycles: int          # C'_TH for the experiment's C_TH
    effective_bottom_cycles: int       # C'_BH for the experiment's C_BH
    paper_code_bytes: int
    paper_data_bytes: int
    modelled_monitor_data_bytes: int
    context_switch_comparisons: list[ContextSwitchComparison]

    @property
    def overall_context_switch_increase(self) -> float:
        """Aggregate increase across all measured loads."""
        without = sum(c.switches_without for c in self.context_switch_comparisons)
        with_ = sum(c.switches_with for c in self.context_switch_comparisons)
        if without == 0:
            return 0.0
        return (with_ - without) / without


def run_overhead_load(load_index: int,
                      loads: Sequence[float] = (0.01, 0.05, 0.10),
                      irqs_per_load: int = 2_000,
                      seed: int = 1,
                      system: "PaperSystemConfig | None" = None,
                      ) -> ContextSwitchComparison:
    """One interrupt load's with/without-monitoring comparison.

    The campaign runner's unit of parallel work; the per-load seed is
    ``seed + load_index``, matching the serial loop.
    """
    from repro.core.monitor import DeltaMinusMonitor
    from repro.core.policy import MonitoredInterposing, NeverInterpose
    from repro.experiments.common import run_irq_scenario
    from repro.workloads.synthetic import (
        clip_to_dmin,
        exponential_interarrivals,
        lambda_for_load,
    )

    system = system or PaperSystemConfig()
    clock = system.clock()
    costs = system.costs
    c_bh = clock.us_to_cycles(system.bottom_handler_us)
    load = loads[load_index]
    lam = lambda_for_load(c_bh, load, costs)
    intervals = clip_to_dmin(
        exponential_interarrivals(irqs_per_load, lam, seed=seed + load_index),
        lam,
    )
    baseline = run_irq_scenario(system, NeverInterpose(), intervals)
    monitored = run_irq_scenario(
        system,
        MonitoredInterposing(DeltaMinusMonitor.from_dmin(lam)),
        intervals,
    )
    return ContextSwitchComparison(
        load=load,
        switches_without=baseline.lightweight().total_context_switches,
        switches_with=monitored.lightweight().total_context_switches,
    )


def merge_overhead(comparisons: "list[ContextSwitchComparison]",
                   system: "PaperSystemConfig | None" = None,
                   monitor_depth: int = 1) -> OverheadResult:
    """Assemble the static Section 6.2 accounting around the measured
    per-load comparisons."""
    system = system or PaperSystemConfig()
    clock = system.clock()
    costs = system.costs
    c_th = clock.us_to_cycles(system.top_handler_us)
    c_bh = clock.us_to_cycles(system.bottom_handler_us)
    return OverheadResult(
        monitor_cycles=costs.monitor_cycles(),
        scheduler_cycles=costs.scheduler_cycles(),
        context_switch_cycles=costs.context_switch_cycles(),
        effective_top_cycles=costs.effective_top_handler_cycles(c_th),
        effective_bottom_cycles=costs.effective_bottom_handler_cycles(c_bh),
        paper_code_bytes=total_paper_code_bytes(),
        paper_data_bytes=total_paper_data_bytes(),
        modelled_monitor_data_bytes=monitor_data_bytes(monitor_depth),
        context_switch_comparisons=comparisons,
    )


def run_overhead(system: "PaperSystemConfig | None" = None,
                 loads: Sequence[float] = (0.01, 0.05, 0.10),
                 irqs_per_load: int = 2_000,
                 seed: int = 1,
                 monitor_depth: int = 1) -> OverheadResult:
    """Measure the Section 6.2 overheads on the paper system."""
    comparisons = [
        run_overhead_load(index, loads, irqs_per_load, seed, system)
        for index in range(len(loads))
    ]
    return merge_overhead(comparisons, system, monitor_depth)


def render_overhead(result: OverheadResult,
                    system: "PaperSystemConfig | None" = None) -> str:
    """Paper-style text rendering of the Section 6.2 numbers."""
    system = system or PaperSystemConfig()
    clock = system.clock()
    runtime_rows = [
        ["C_Mon (monitoring function)", result.monitor_cycles,
         f"{clock.cycles_to_us(result.monitor_cycles):.2f}",
         "128 instructions"],
        ["C_sched (scheduler manipulation)", result.scheduler_cycles,
         f"{clock.cycles_to_us(result.scheduler_cycles):.2f}",
         "877 instructions"],
        ["C_ctx (context switch)", result.context_switch_cycles,
         f"{clock.cycles_to_us(result.context_switch_cycles):.2f}",
         "~5000 instr + ~5000 cyc writeback"],
        ["C'_TH (Eq. 15)", result.effective_top_cycles,
         f"{clock.cycles_to_us(result.effective_top_cycles):.2f}",
         "C_TH + C_Mon"],
        ["C'_BH (Eq. 13)", result.effective_bottom_cycles,
         f"{clock.cycles_to_us(result.effective_bottom_cycles):.2f}",
         "C_BH + C_sched + 2*C_ctx"],
    ]
    ctx_rows = [
        [f"{100 * comparison.load:.0f}%",
         comparison.switches_without,
         comparison.switches_with,
         f"{100 * comparison.increase:.1f}%"]
        for comparison in result.context_switch_comparisons
    ]
    sections = [
        "Section 6.2 — memory and runtime overhead",
        "",
        render_footprint_table(),
        f"modelled monitor data (l=1, 32-bit timestamps): "
        f"{result.modelled_monitor_data_bytes} bytes (paper: 28 bytes)",
        "",
        render_table(["runtime cost", "cycles", "us @200MHz", "paper basis"],
                     runtime_rows),
        "",
        render_table(["load U_IRQ", "ctx switches (off)", "ctx switches (on)",
                      "increase"],
                     ctx_rows,
                     title="Context-switch increase, d_min-adherent "
                           "arrivals (paper: ~10%)"),
        f"overall increase: "
        f"{100 * result.overall_context_switch_increase:.1f}%",
    ]
    return "\n".join(sections)
