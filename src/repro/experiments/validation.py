"""Experiment eq-analysis — analysis-vs-simulation validation.

The paper's correctness claims (Sections 4 and 5.1) are validated by
checking the analytical worst-case bounds against measured simulation
maxima:

1. **Classic latency bound (Eqs. 11/12)** — for a d_min-sporadic IRQ
   stream handled with delayed processing, every measured latency must
   stay below the busy-window bound, which is dominated by the TDMA
   term.
2. **Interposed latency bound (Eq. 16)** — for the same stream with
   monitoring enabled, every measured latency must stay below the
   TDMA-free bound built from C'_BH and C'_TH.
3. **Interference bound (Eq. 14)** — the interposing interference any
   other partition suffered, measured over sliding windows of many
   widths, must stay below ceil(Δt/d_min) * C'_BH.  This is the
   *sufficient temporal independence* property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.event_models import PeriodicEventModel
from repro.analysis.latency import (
    IrqLatencyBound,
    classic_irq_latency,
    interposed_irq_latency,
)
from repro.core.independence import (
    DminInterferenceBound,
    IndependenceReport,
    verify_sufficient_independence,
)
from repro.experiments.common import PaperSystemConfig, ScenarioSummary
from repro.metrics.report import render_table


@dataclass
class ValidationResult:
    """Outcome of the analysis-vs-simulation comparison."""

    dmin_us: float
    classic_bound_us: float
    classic_measured_max_us: float
    interposed_bound_us: float
    interposed_measured_max_us: float
    independence_reports: list[IndependenceReport]
    classic_result: ScenarioSummary
    interposed_result: ScenarioSummary
    classic_bound: IrqLatencyBound
    interposed_bound: IrqLatencyBound

    @property
    def classic_holds(self) -> bool:
        return self.classic_measured_max_us <= self.classic_bound_us

    @property
    def interposed_holds(self) -> bool:
        return self.interposed_measured_max_us <= self.interposed_bound_us

    @property
    def independence_holds(self) -> bool:
        return all(report.holds for report in self.independence_reports)

    @property
    def all_hold(self) -> bool:
        return (self.classic_holds and self.interposed_holds
                and self.independence_holds)

    @property
    def analytic_improvement(self) -> float:
        """Worst-case improvement factor promised by the analysis."""
        return self.classic_bound_us / self.interposed_bound_us


DEFAULT_WINDOW_WIDTHS_US: Sequence[float] = (
    100.0, 500.0, 2_000.0, 6_000.0, 14_000.0, 50_000.0
)


def _validation_intervals(system: PaperSystemConfig, dmin_us: float,
                          irq_count: int, seed: int) -> list[int]:
    from repro.workloads.synthetic import (
        clip_to_dmin,
        exponential_interarrivals,
    )

    clock = system.clock()
    dmin = clock.us_to_cycles(dmin_us)
    return clip_to_dmin(
        exponential_interarrivals(irq_count, dmin, seed=seed), dmin
    )


def run_validation_classic(system: "PaperSystemConfig | None" = None,
                           dmin_us: float = 1_444.0,
                           irq_count: int = 3_000,
                           seed: int = 7) -> ScenarioSummary:
    """The delayed-handling leg of the validation (campaign task)."""
    from repro.core.policy import NeverInterpose
    from repro.experiments.common import run_irq_scenario

    system = system or PaperSystemConfig()
    intervals = _validation_intervals(system, dmin_us, irq_count, seed)
    return run_irq_scenario(system, NeverInterpose(), intervals).lightweight()


def run_validation_monitored(
        system: "PaperSystemConfig | None" = None,
        dmin_us: float = 1_444.0,
        irq_count: int = 3_000,
        seed: int = 7,
        window_widths_us: Sequence[float] = DEFAULT_WINDOW_WIDTHS_US,
) -> "tuple[ScenarioSummary, list[IndependenceReport]]":
    """The monitored leg plus its Eq. 14 ledger audit (campaign task).

    The independence reports are produced here, inside the task,
    because they need the hypervisor's interference ledger, which does
    not cross process boundaries.
    """
    from repro.core.monitor import DeltaMinusMonitor
    from repro.core.policy import MonitoredInterposing
    from repro.experiments.common import run_irq_scenario

    system = system or PaperSystemConfig()
    clock = system.clock()
    costs = system.costs
    dmin = clock.us_to_cycles(dmin_us)
    c_bh = clock.us_to_cycles(system.bottom_handler_us)
    intervals = _validation_intervals(system, dmin_us, irq_count, seed)
    monitored_run = run_irq_scenario(
        system, MonitoredInterposing(DeltaMinusMonitor.from_dmin(dmin)),
        intervals,
    )
    eq14 = DminInterferenceBound(
        dmin, costs.effective_bottom_handler_cycles(c_bh)
    )
    widths = [clock.us_to_cycles(width) for width in window_widths_us]
    reports = [
        verify_sufficient_independence(
            monitored_run.hypervisor.ledger, victim,
            eq14.max_interference, widths,
        )
        for victim in (system.other_partition, system.housekeeping)
    ]
    return monitored_run.lightweight(), reports


def merge_validation(classic_run: ScenarioSummary,
                     monitored_run: ScenarioSummary,
                     reports: "list[IndependenceReport]",
                     system: "PaperSystemConfig | None" = None,
                     dmin_us: float = 1_444.0) -> ValidationResult:
    """Combine the two measured legs with the (pure) analytic bounds."""
    system = system or PaperSystemConfig()
    clock = system.clock()
    costs = system.costs
    dmin = clock.us_to_cycles(dmin_us)
    c_th = clock.us_to_cycles(system.top_handler_us)
    c_bh = clock.us_to_cycles(system.bottom_handler_us)
    cycle = clock.us_to_cycles(system.tdma_cycle_us)
    slot = clock.us_to_cycles(system.app_slot_us)

    model = PeriodicEventModel(dmin)   # the d_min-sporadic stream
    classic_bound = classic_irq_latency(model, c_th, c_bh, cycle, slot,
                                        costs=costs)
    interposed_bound = interposed_irq_latency(model, c_th, c_bh, costs=costs)

    return ValidationResult(
        dmin_us=dmin_us,
        classic_bound_us=clock.cycles_to_us(classic_bound.response_time_cycles),
        classic_measured_max_us=classic_run.max_latency_us,
        interposed_bound_us=clock.cycles_to_us(
            interposed_bound.response_time_cycles
        ),
        interposed_measured_max_us=monitored_run.max_latency_us,
        independence_reports=reports,
        classic_result=classic_run,
        interposed_result=monitored_run,
        classic_bound=classic_bound,
        interposed_bound=interposed_bound,
    )


def run_validation(system: "PaperSystemConfig | None" = None,
                   dmin_us: float = 1_444.0,
                   irq_count: int = 3_000,
                   seed: int = 7,
                   window_widths_us: Sequence[float] = DEFAULT_WINDOW_WIDTHS_US,
                   ) -> ValidationResult:
    """Run the validation experiment."""
    classic_run = run_validation_classic(system, dmin_us, irq_count, seed)
    monitored_run, reports = run_validation_monitored(
        system, dmin_us, irq_count, seed, window_widths_us
    )
    return merge_validation(classic_run, monitored_run, reports,
                            system, dmin_us)


def render_validation(result: ValidationResult) -> str:
    rows = [
        ["classic (Eqs. 11/12)", f"{result.classic_bound_us:.1f}",
         f"{result.classic_measured_max_us:.1f}",
         "yes" if result.classic_holds else "NO"],
        ["interposed (Eq. 16)", f"{result.interposed_bound_us:.1f}",
         f"{result.interposed_measured_max_us:.1f}",
         "yes" if result.interposed_holds else "NO"],
    ]
    lines = [
        render_table(
            ["analysis", "bound (us)", "measured max (us)", "holds"],
            rows,
            title=f"Worst-case latency bounds vs simulation "
                  f"(d_min = {result.dmin_us:.0f} us)",
        ),
        f"analytic worst-case improvement: {result.analytic_improvement:.1f}x",
        "",
        "Eq. 14 sufficient temporal independence:",
    ]
    for report in result.independence_reports:
        lines.append(
            f"  victim {report.victim}: holds={report.holds} "
            f"(worst measured/bound ratio {report.worst_ratio():.3f})"
        )
    return "\n".join(lines)
