"""Experiment fig6 — IRQ latency histograms (Fig. 6a/6b/6c).

Three scenarios over the same system (Section 6.1):

* **a** — monitoring disabled (unmodified Fig. 4a top handler):
  ~40 % direct IRQs with short latencies, ~60 % delayed IRQs roughly
  uniform up to ``T_TDMA - T_i`` = 8000 µs; average ≈ 2500 µs.
* **b** — monitoring enabled, arbitrary (exponential) arrivals with
  λ = d_min: a large share of previously delayed IRQs becomes
  interposed; average ≈ 1200 µs; worst case still TDMA-bound.
* **c** — monitoring enabled, every interarrival clipped to ≥ d_min:
  no IRQ is delayed; average ≈ 150 µs (≈16× better than (a)); the
  worst case is no longer defined by the TDMA cycle.

For each of the interrupt loads U_IRQ ∈ {1 %, 5 %, 10 %}, the mean
interarrival λ = C'_BH / U_IRQ (Eq. 17); results are cumulative over
all loads, 15000 IRQs total in the paper (5000 per load).

:func:`run_fig6_load` imports the simulator when it runs; the config,
the result, the merge and the renderer do not need it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Sequence

from repro.experiments.common import PaperSystemConfig, ScenarioSummary
from repro.experiments.scale import PAPER as PAPER_SCALE
from repro.metrics.histogram import LatencyHistogram, fig6_histogram
from repro.metrics.report import render_mode_breakdown
from repro.metrics.stats import summarize

SCENARIOS = ("a", "b", "c")

#: Paper-reported reference values for the three scenarios.
PAPER_REFERENCE = {
    "a": {"avg_us": 2500.0, "direct": 0.40, "interposed": 0.00, "delayed": 0.60},
    "b": {"avg_us": 1200.0, "direct": 0.40, "interposed": 0.40, "delayed": 0.20},
    "c": {"avg_us": 150.0, "direct": 0.40, "interposed": 0.60, "delayed": 0.00},
}


@dataclass
class Fig6Config:
    """Parameters of the fig6 experiment."""

    system: PaperSystemConfig = field(default_factory=PaperSystemConfig)
    loads: Sequence[float] = (0.01, 0.05, 0.10)
    #: Paper scale (see :mod:`repro.experiments.scale`): 5000 IRQs per
    #: load x 3 loads = the 15000 IRQs per scenario of Section 6.1.
    irqs_per_load: int = PAPER_SCALE.fig6_irqs_per_load
    seed: int = 1


@dataclass
class Fig6Result:
    """Cumulative result of one Fig. 6 scenario."""

    scenario: str
    per_load: dict[float, ScenarioSummary]
    latencies_us: "array | list[float]"
    avg_latency_us: float
    max_latency_us: float
    mode_counts: dict[str, int]
    histogram: LatencyHistogram

    def mode_fractions(self) -> dict[str, float]:
        total = sum(self.mode_counts.values()) or 1
        return {mode: count / total for mode, count in self.mode_counts.items()}


def run_fig6_load(scenario: str, config: Fig6Config,
                  load_index: int) -> ScenarioSummary:
    """Run one (scenario, interrupt load) cell of the Fig. 6 campaign.

    This is the campaign runner's unit of parallel work: the per-load
    seed is derived deterministically (``config.seed + load_index``,
    exactly as the serial loop always has), so any scheduling of these
    tasks reproduces the serial result bit for bit.
    """
    from repro.core.monitor import DeltaMinusMonitor
    from repro.core.policy import MonitoredInterposing, NeverInterpose
    from repro.experiments.common import run_irq_scenario
    from repro.workloads.synthetic import (
        clip_to_dmin,
        exponential_interarrivals,
        lambda_for_load,
    )

    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    system = config.system
    clock = system.clock()
    c_bh = clock.us_to_cycles(system.bottom_handler_us)
    load = config.loads[load_index]
    lam = lambda_for_load(c_bh, load, system.costs)
    intervals = exponential_interarrivals(
        config.irqs_per_load, lam, seed=config.seed + load_index
    )
    if scenario == "c":
        intervals = clip_to_dmin(intervals, lam)
    if scenario == "a":
        policy = NeverInterpose()
    else:
        # "For the monitored scenarios we have used λ = d_min."
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(lam))
    return run_irq_scenario(system, policy, intervals).lightweight()


def merge_fig6_loads(scenario: str, config: Fig6Config,
                     summaries: "list[ScenarioSummary]") -> Fig6Result:
    """Combine per-load summaries (in load order) into the cumulative
    Fig. 6 result, as the paper accumulates all loads into one
    histogram."""
    if len(summaries) != len(config.loads):
        raise ValueError(
            f"expected {len(config.loads)} per-load results, got {len(summaries)}"
        )
    per_load: dict[float, ScenarioSummary] = {}
    latencies = array("d")         # columnar merge of the per-load arrays
    mode_counts: dict[str, int] = {}
    for load, result in zip(config.loads, summaries):
        per_load[load] = result
        latencies.extend(result.latencies_us)
        for mode, count in result.mode_counts.items():
            mode_counts[mode] = mode_counts.get(mode, 0) + count
    summary = summarize(latencies)
    histogram = fig6_histogram(latencies,
                               tdma_cycle_us=config.system.tdma_cycle_us)
    return Fig6Result(
        scenario=scenario,
        per_load=per_load,
        latencies_us=latencies,
        avg_latency_us=summary.mean,
        max_latency_us=summary.maximum,
        mode_counts=mode_counts,
        histogram=histogram,
    )


def run_fig6(scenario: str, config: "Fig6Config | None" = None) -> Fig6Result:
    """Run one Fig. 6 scenario cumulatively over all interrupt loads."""
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    config = config or Fig6Config()
    summaries = [run_fig6_load(scenario, config, index)
                 for index in range(len(config.loads))]
    return merge_fig6_loads(scenario, config, summaries)


def render_fig6(result: Fig6Result) -> str:
    """Paper-style text rendering of one scenario's histogram."""
    reference = PAPER_REFERENCE[result.scenario]
    lines = [
        f"Fig. 6{result.scenario} — "
        + {
            "a": "monitoring disabled",
            "b": "monitoring enabled",
            "c": "monitoring enabled, no violations",
        }[result.scenario],
        f"IRQs: {len(result.latencies_us)}   "
        f"avg latency: {result.avg_latency_us:.1f} us "
        f"(paper: ~{reference['avg_us']:.0f} us)   "
        f"max: {result.max_latency_us:.1f} us",
        "modes: " + render_mode_breakdown(result.mode_counts),
        "",
        result.histogram.render(log_scale=True),
    ]
    return "\n".join(lines)
