"""Experiment fig7 — self-learning δ⁻ on an automotive trace (App. A).

An ECU task-activation trace (~11000 activations) drives the IRQ
timer.  The first 10 % of the trace is a learning phase: Algorithm 1
records the observed δ⁻ table (l = 5) while only direct and delayed
handling are active, so the average latency sits at the unmonitored
level (~2200 µs in the paper).  Entering run mode, the learned table is
clamped to a configured bound (Algorithm 2) and interposing starts.

Four bound cases, as in the paper's Fig. 7:

* **a** — the bound does not bind the recorded δ⁻: every foreign-slot
  IRQ is interposed, average drops to ~120 µs;
* **b** — bound admits 25 % of the recorded load → ~300 µs;
* **c** — 12.5 % → ~900 µs;
* **d** — 6.25 % → ~1600 µs.

Bounding the admitted load pushes the excess IRQs back to delayed
handling, so the run-mode averages are strictly ordered a < b < c < d.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from array import array
from dataclasses import dataclass, field
from typing import Optional

from repro.core.policy import LearningPhase, SelfLearningInterposing
from repro.experiments.common import (
    PaperSystemConfig,
    ScenarioResult,
    ScenarioSummary,
    run_irq_scenario,
    run_irq_scenario_from,
)
from repro.metrics.report import render_table
from repro.metrics.stats import running_average, summarize
from repro.sim.snapshot import SnapshotError, WorldSnapshot, settle
from repro.sim.worldstore import default_store
from repro.workloads.automotive import AutomotiveTraceConfig, generate_automotive_trace
from repro.workloads.traces import ActivationTrace

#: The paper's four δ⁻ bound cases: label -> admitted load fraction
#: (None = the bound does not bind the recorded table).
FIG7_CASES: dict[str, Optional[float]] = {
    "a": None,
    "b": 0.25,
    "c": 0.125,
    "d": 0.0625,
}

#: Paper-reported run-mode averages (µs) for the four cases.
PAPER_REFERENCE = {"a": 120.0, "b": 300.0, "c": 900.0, "d": 1600.0}

#: Completed-IRQ margin kept between the shared-prefix stopping point
#: and the learning→run transition: completions trail arrivals (queued
#: delayed events), and :func:`repro.sim.snapshot.settle` may step a
#: few more arrivals while hunting for a quiescent point — the margin
#: keeps the fork strictly inside the learning phase, where the four
#: bound cases are still indistinguishable.
PREFIX_MARGIN = 32


@dataclass
class Fig7Config:
    """Parameters of the fig7 experiment."""

    system: PaperSystemConfig = field(default_factory=PaperSystemConfig)
    trace: AutomotiveTraceConfig = field(default_factory=AutomotiveTraceConfig)
    monitor_depth: int = 5
    learn_fraction: float = 0.10
    #: Sliding window of the running-average curve (events).
    average_window: int = 500


@dataclass
class Fig7CaseResult:
    """One curve of Fig. 7 (fully picklable; campaign-task result)."""

    label: str
    load_fraction: Optional[float]
    scenario: ScenarioSummary
    learn_count: int
    learn_avg_us: float
    run_avg_us: float
    #: Sliding-window average latency per IRQ event (the Fig. 7 y-axis),
    #: columnar (``array('d')``).
    series_us: "array | list[float]"
    learned_table: list[int]
    monitor_table: list[int]


@dataclass(frozen=True)
class Fig7Prefix:
    """The shared learning-phase prefix of the four fig7 bound cases.

    ``snapshot`` is the world captured at a quiescent point strictly
    inside the learning phase (``None`` when no usable fork point was
    found — consumers fall back to straight-line execution).  ``key``
    fingerprints the :class:`Fig7Config` the prefix was simulated
    under, so a case is never forked from a mismatched prefix.
    """

    key: str
    learn_count: int
    snapshot: Optional[WorldSnapshot]

    def digest(self) -> str:
        """Content digest folded into child-task cache fingerprints."""
        if self.snapshot is None:
            return hashlib.sha256(
                f"fig7-prefix:straight-line:{self.key}".encode("utf-8")
            ).hexdigest()
        return self.snapshot.digest()


def _prefix_key(config: Fig7Config) -> str:
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True,
                         separators=(",", ":"), default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_fig7_prefix(config: "Fig7Config | None" = None,
                    trace: "ActivationTrace | None" = None) -> Fig7Prefix:
    """Simulate the learning phase once and capture it for forking.

    The four bound cases differ only in the load fraction that is read
    at the learning→run transition, so any quiescent point strictly
    before that transition is case-independent: the learning phase —
    10 % of the trace — is simulated once instead of four times.
    """
    config = config or Fig7Config()
    key = _prefix_key(config)
    if trace is None:
        trace = generate_automotive_trace(config.trace, config.system.clock())
    intervals = trace.distance_array()
    learn_count = max(config.monitor_depth + 1,
                      round(len(intervals) * config.learn_fraction))
    pre_target = learn_count - PREFIX_MARGIN
    if pre_target <= 0:
        return Fig7Prefix(key=key, learn_count=learn_count, snapshot=None)
    policy = SelfLearningInterposing(
        depth=config.monitor_depth,
        learn_count=learn_count,
        load_fraction=None,
    )
    hv, timer = config.system.build(policy, intervals)
    hv.start()
    timer.arm_next()
    hv.run_until_irq_count(pre_target)
    try:
        # Interned into the per-process layered store: the four bound
        # cases (and any deeper tree forked off this prefix) share the
        # prefix's storage instead of each holding a full copy.
        snapshot = settle(hv, {timer.name: timer}, store=default_store())
    except SnapshotError:
        return Fig7Prefix(key=key, learn_count=learn_count, snapshot=None)
    if policy.phase is not LearningPhase.LEARN:
        # The margin was not enough (arrivals overtook completions past
        # the transition); the fork would already be case-specific.
        return Fig7Prefix(key=key, learn_count=learn_count, snapshot=None)
    return Fig7Prefix(key=key, learn_count=learn_count, snapshot=snapshot)


def run_fig7_case(label: str, config: "Fig7Config | None" = None,
                  trace: "ActivationTrace | None" = None,
                  prefix: "Fig7Prefix | None" = None) -> Fig7CaseResult:
    """Run one bound case of the Appendix-A experiment.

    This is the campaign runner's unit of parallel work: trace
    generation is deterministic (and memoized), so a worker process
    regenerating it from ``config.trace`` sees the same activations a
    serial run shares across cases.

    With a ``prefix`` (see :func:`run_fig7_prefix`) the case forks the
    shared learning phase and only simulates its own run mode — the
    result is byte-identical to the straight-line run, which the
    determinism tests pin.
    """
    if label not in FIG7_CASES:
        raise ValueError(f"case must be one of {sorted(FIG7_CASES)}, got {label!r}")
    config = config or Fig7Config()
    if prefix is not None and prefix.snapshot is not None:
        if prefix.key != _prefix_key(config):
            raise ValueError(
                "fig7 prefix was simulated under a different configuration"
            )
        fraction = FIG7_CASES[label]

        def install_case(hv, timer, source) -> None:
            source.policy.set_load_fraction(fraction)

        result = run_irq_scenario_from(prefix.snapshot, config.system,
                                       configure=install_case)
        policy = result.hypervisor.irq_source(config.system.irq_name).policy
        return _assemble_case(label, config, result, prefix.learn_count, policy)
    if trace is None:
        trace = generate_automotive_trace(config.trace, config.system.clock())
    intervals = trace.distance_array()
    learn_count = max(config.monitor_depth + 1,
                      round(len(intervals) * config.learn_fraction))
    policy = SelfLearningInterposing(
        depth=config.monitor_depth,
        learn_count=learn_count,
        load_fraction=FIG7_CASES[label],
    )
    result = run_irq_scenario(config.system, policy, intervals)
    return _assemble_case(label, config, result, learn_count, policy)


def _assemble_case(label: str, config: Fig7Config, result: ScenarioResult,
                   learn_count: int,
                   policy: SelfLearningInterposing) -> Fig7CaseResult:
    scenario = result.lightweight()
    latencies = scenario.latencies_us
    learn_latencies = latencies[:learn_count]
    run_latencies = latencies[learn_count:]
    return Fig7CaseResult(
        label=label,
        load_fraction=FIG7_CASES[label],
        scenario=scenario,
        learn_count=learn_count,
        learn_avg_us=summarize(learn_latencies).mean,
        run_avg_us=summarize(run_latencies).mean,
        series_us=array("d", running_average(latencies,
                                             window=config.average_window)),
        learned_table=policy.learned_table,
        monitor_table=policy.monitor.table if policy.monitor else [],
    )


def run_fig7(config: "Fig7Config | None" = None) -> dict[str, Fig7CaseResult]:
    """Run all four bound cases over the same generated trace.

    The learning phase is simulated once and the four cases fork from
    its snapshot; each case is byte-identical to a straight-line
    :func:`run_fig7_case` with no prefix.
    """
    config = config or Fig7Config()
    trace = generate_automotive_trace(config.trace, config.system.clock())
    prefix = run_fig7_prefix(config, trace)
    return {
        label: run_fig7_case(label, config, trace, prefix=prefix)
        for label in FIG7_CASES
    }


def render_fig7(results: dict[str, Fig7CaseResult],
                with_series: bool = True) -> str:
    """Text table of the four curves plus the Fig. 7 series plot."""
    rows = []
    for label, result in sorted(results.items()):
        admitted = ("unbounded" if result.load_fraction is None
                    else f"{100 * result.load_fraction:.3g}%")
        rows.append([
            label,
            admitted,
            f"{result.learn_avg_us:.0f}",
            f"{result.run_avg_us:.0f}",
            f"{PAPER_REFERENCE[label]:.0f}",
            result.scenario.mode_counts.get("interposed", 0),
            result.scenario.mode_counts.get("delayed", 0),
        ])
    parts = [render_table(
        ["case", "admitted load", "learn avg us", "run avg us",
         "paper run avg us", "interposed", "delayed"],
        rows,
        title="Fig. 7 — self-learning δ⁻ monitor on the automotive trace",
    )]
    if with_series:
        from repro.metrics.report import render_series
        for label, result in sorted(results.items()):
            parts.append("")
            parts.append(render_series(
                result.series_us, width=72, height=10,
                label=f"case ({label}) — sliding-average IRQ latency (us) "
                      f"over events; learn/run split at event "
                      f"{result.learn_count}",
            ))
    return "\n".join(parts)
