"""Experiments abl-boost / abl-throttle — baseline ablations (Section 2).

Two ablations justify the paper's design against the related work:

* **abl-boost** — a Xen-style boost scheduler (Ongaro et al.)
  interposes every IRQ without shaping.  Under a bursty arrival
  pattern its latency is as good as the monitored mechanism's, but the
  interference injected into other partitions' slots exceeds any
  d_min-style budget — temporal independence is lost, which is exactly
  why the paper adds the monitor.
* **abl-throttle** — source-level throttling (Regehr & Duongsaa)
  bounds the admitted arrival rate, so the *interference* of top
  handlers is controlled and overload is prevented, but admitted IRQs
  still take the delayed TDMA path: average latency stays at the
  unmonitored level, and suppressed IRQs are lost entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    LatencyColumnData,
    PaperSystemConfig,
    ScenarioResult,
    ScenarioSummary,
)
from repro.metrics.report import render_table


@dataclass
class BoostAblationResult:
    """Monitored interposing vs unshaped boost under bursts."""

    dmin_us: float
    window_us: float
    bound_us: float                  # Eq. 14 budget over the window
    monitored: ScenarioSummary
    boosted: ScenarioSummary
    monitored_worst_interference_us: float
    boosted_worst_interference_us: float

    @property
    def monitored_within_budget(self) -> bool:
        return self.monitored_worst_interference_us <= self.bound_us

    @property
    def boost_breaks_budget(self) -> bool:
        return self.boosted_worst_interference_us > self.bound_us


def run_boost_ablation(system: "PaperSystemConfig | None" = None,
                       irq_count: int = 1_500,
                       dmin_us: float = 1_444.0,
                       burst_length: int = 10,
                       intra_burst_us: float = 150.0,
                       inter_burst_us: float = 20_000.0,
                       window_us: float = 2_000.0,
                       seed: int = 11) -> BoostAblationResult:
    """Burst workload through the monitor and through Xen-style boost.

    Both legs run the identical system over the identical bursts and
    differ only in the IRQ source's policy.
    """
    from repro.baselines.boost import BoostPolicy
    from repro.core.independence import DminInterferenceBound, InterferenceKind
    from repro.core.monitor import DeltaMinusMonitor
    from repro.core.policy import MonitoredInterposing
    from repro.experiments.common import run_irq_scenario
    from repro.workloads.synthetic import bursty_interarrivals

    system = system or PaperSystemConfig()
    clock = system.clock()
    dmin = clock.us_to_cycles(dmin_us)
    intervals = bursty_interarrivals(
        irq_count, burst_length,
        clock.us_to_cycles(intra_burst_us),
        clock.us_to_cycles(inter_burst_us),
        seed=seed,
    )
    monitored = run_irq_scenario(
        system, MonitoredInterposing(DeltaMinusMonitor.from_dmin(dmin)),
        intervals,
    )
    boosted = run_irq_scenario(system, BoostPolicy(), intervals)

    c_bh_eff = system.effective_bottom_cycles(clock)
    bound = DminInterferenceBound(dmin, c_bh_eff)
    width = clock.us_to_cycles(window_us)

    def worst(result: ScenarioResult) -> float:
        ledger = result.hypervisor.ledger
        return clock.cycles_to_us(max(
            ledger.max_window_interference(
                victim, width, (InterferenceKind.INTERPOSED_BH,)
            )
            for victim in (system.other_partition, system.housekeeping)
        ))

    # The interference ledger audit needs the live hypervisors, so it
    # happens here; the returned result is fully picklable (campaign
    # task).
    return BoostAblationResult(
        dmin_us=dmin_us,
        window_us=window_us,
        bound_us=clock.cycles_to_us(bound.max_interference(width)),
        monitored=monitored.lightweight(),
        boosted=boosted.lightweight(),
        monitored_worst_interference_us=worst(monitored),
        boosted_worst_interference_us=worst(boosted),
    )


@dataclass
class ThrottleAblationResult:
    """Source throttling vs monitored interposing on the same bursts."""

    throttled: ScenarioSummary
    monitored: ScenarioSummary
    suppressed_irqs: int

    @property
    def throttling_keeps_tdma_latency(self) -> bool:
        """Throttling does not help latency: its average stays at the
        TDMA-bound level, well above the monitored mechanism's."""
        return self.throttled.avg_latency_us > 2 * self.monitored.avg_latency_us


def run_throttle_ablation(system: "PaperSystemConfig | None" = None,
                          irq_count: int = 1_500,
                          dmin_us: float = 1_444.0,
                          seed: int = 13) -> ThrottleAblationResult:
    """Same admitted rate, opposite effects: loss vs latency.

    The workload is a normal d_min-adherent phase (two thirds of the
    IRQs) followed by an overload burst (the remaining third).  The
    throttle neither helps the normal phase (delayed handling keeps
    the TDMA-scale latency) nor preserves the burst (suppressed IRQs
    are lost); the monitor gives the normal phase short interposed
    latencies and merely *delays* the burst.
    """
    from repro.baselines.throttling import MinDistanceThrottle
    from repro.core.monitor import DeltaMinusMonitor
    from repro.core.policy import MonitoredInterposing, NeverInterpose
    from repro.experiments.common import run_irq_scenario
    from repro.metrics.stats import summarize
    from repro.workloads.synthetic import (
        bursty_interarrivals,
        clip_to_dmin,
        exponential_interarrivals,
    )

    system = system or PaperSystemConfig()
    clock = system.clock()
    dmin = clock.us_to_cycles(dmin_us)
    normal_count = 2 * irq_count // 3
    intervals = clip_to_dmin(
        exponential_interarrivals(normal_count, dmin, seed=seed), dmin
    ) + bursty_interarrivals(
        irq_count - normal_count, burst_length=8,
        intra_burst=clock.us_to_cycles(200.0),
        inter_burst=clock.us_to_cycles(15_000.0),
        seed=seed + 1,
    )

    # Throttled system: unmodified delayed handling, throttle at source.
    hv_throttled, timer = system.build(NeverInterpose(), intervals)
    throttle = MinDistanceThrottle(dmin)
    hv_throttled.irq_source(system.irq_name).throttle = throttle
    hv_throttled.start()
    timer.arm_next()
    hv_throttled.run_until_irq_count(
        len(intervals), limit_cycles=round(600.0 * system.frequency_hz)
    )
    latencies = hv_throttled.latency_columns.latencies_us_array(clock)
    throttled = ScenarioSummary(
        columns=LatencyColumnData.of(hv_throttled.latency_columns),
        latencies_us=latencies,
        summary=summarize(latencies),
        mode_counts={m.value: c for m, c in hv_throttled.mode_counts().items()},
        context_switch_counts={
            r.value: c for r, c in hv_throttled.context_switches.counts.items()
        },
        total_context_switches=hv_throttled.context_switches.total,
    )
    hv_throttled.release()

    monitored = run_irq_scenario(
        system, MonitoredInterposing(DeltaMinusMonitor.from_dmin(dmin)),
        intervals,
    )
    return ThrottleAblationResult(
        throttled=throttled,
        monitored=monitored.lightweight(),
        suppressed_irqs=throttle.suppressed_count,
    )


@dataclass
class DepthAblationResult:
    """l = 1 vs l = 5 monitoring at matched long-run admitted rate."""

    shallow_dmin_us: float
    deep_table_us: list[float]
    shallow: ScenarioSummary
    deep: ScenarioSummary

    @property
    def deep_monitor_wins(self) -> bool:
        """The deep table tolerates the trace's bursts (admitting them
        within its long-run budget) that the rate-equivalent single
        d_min must deny, so its average latency is lower."""
        return self.deep.avg_latency_us < self.shallow.avg_latency_us


def run_depth_ablation(system: "PaperSystemConfig | None" = None,
                       activation_count: int = 3_000,
                       depth: int = 5,
                       seed: int = 29) -> DepthAblationResult:
    """Why the monitor supports l > 1 tables (Appendix A setup).

    Both monitors are derived from the same learned trace statistics
    and admit (asymptotically) the same long-run interposing rate:

    * **deep** — the full learned δ⁻[l] table: small consecutive
      distances (bursts pass) bounded by the deeper entries;
    * **shallow** — a single d_min chosen as δ⁻(l+1)/l, the deep
      table's asymptotic rate, which has no burst tolerance.
    """
    from repro.analysis.event_models import TraceEventModel
    from repro.core.monitor import DeltaMinusMonitor
    from repro.core.policy import MonitoredInterposing
    from repro.experiments.common import run_irq_scenario
    from repro.workloads.automotive import (
        AutomotiveTraceConfig,
        generate_automotive_trace,
    )

    system = system or PaperSystemConfig()
    clock = system.clock()
    trace = generate_automotive_trace(
        AutomotiveTraceConfig(activation_count=activation_count, seed=seed),
        clock,
    )
    model = TraceEventModel(trace.times)
    table = model.learned_delta_table(depth)
    shallow_dmin = max(1, round(table[-1] / depth))

    intervals = trace.distance_array()
    deep = run_irq_scenario(
        system, MonitoredInterposing(DeltaMinusMonitor(table)), intervals
    )
    shallow = run_irq_scenario(
        system,
        MonitoredInterposing(DeltaMinusMonitor.from_dmin(shallow_dmin)),
        intervals,
    )
    return DepthAblationResult(
        shallow_dmin_us=clock.cycles_to_us(shallow_dmin),
        deep_table_us=[clock.cycles_to_us(value) for value in table],
        shallow=shallow.lightweight(),
        deep=deep.lightweight(),
    )


def render_depth_ablation(result: DepthAblationResult) -> str:
    rows = [
        [f"δ⁻[l={len(result.deep_table_us)}] table",
         f"{result.deep.avg_latency_us:.0f}",
         result.deep.mode_counts.get("interposed", 0),
         result.deep.mode_counts.get("delayed", 0)],
        [f"single d_min = {result.shallow_dmin_us:.0f} us",
         f"{result.shallow.avg_latency_us:.0f}",
         result.shallow.mode_counts.get("interposed", 0),
         result.shallow.mode_counts.get("delayed", 0)],
    ]
    return render_table(
        ["monitoring condition", "avg latency (us)", "interposed", "delayed"],
        rows,
        title="abl-depth — burst tolerance of deep δ⁻ tables "
              "(same long-run budget)",
    )


def render_boost_ablation(result: BoostAblationResult) -> str:
    rows = [
        ["monitored (paper)",
         f"{result.monitored.avg_latency_us:.0f}",
         f"{result.monitored_worst_interference_us:.0f}",
         "yes" if result.monitored_within_budget else "NO"],
        ["boost (Xen-style)",
         f"{result.boosted.avg_latency_us:.0f}",
         f"{result.boosted_worst_interference_us:.0f}",
         "no" if result.boost_breaks_budget else "YES"],
    ]
    return render_table(
        ["mechanism", "avg latency (us)",
         f"worst interference in {result.window_us:.0f} us window (us)",
         f"within Eq.14 budget ({result.bound_us:.0f} us)"],
        rows,
        title="abl-boost — latency vs temporal independence under bursts",
    )


def render_throttle_ablation(result: ThrottleAblationResult) -> str:
    rows = [
        ["throttled source (R&D)",
         f"{result.throttled.avg_latency_us:.0f}",
         result.suppressed_irqs,
         len(result.throttled.latencies_us)],
        ["monitored interposing (paper)",
         f"{result.monitored.avg_latency_us:.0f}",
         0,
         len(result.monitored.latencies_us)],
    ]
    return render_table(
        ["mechanism", "avg latency (us)", "IRQs suppressed", "IRQs served"],
        rows,
        title="abl-throttle — overload protection is not latency reduction",
    )
