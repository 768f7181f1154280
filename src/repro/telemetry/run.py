"""Deterministic traced replay backing ``--trace-out``.

Parallel campaigns run their workers with tracing disabled — the trace
stream is too large to pickle across process boundaries, and recording
it would distort the timing the campaign measures.  To still produce a
Chrome trace for a campaign invocation, this module re-runs one
*representative cell* of the fig6 experiment in-process with tracing
and CPU-segment recording enabled: scenario "b" (monitored
interposing, so the trace exercises the full IRQ path — raise, top
handler, monitor accept *and* deny, interposed windows, slot switches)
at the campaign's own scale and seed.

The replay is fully deterministic: the interarrival stream depends
only on (scale, seed), exactly as the campaign's own fig6b task does,
so the exported trace faithfully shows what the campaign simulated —
and its recorder counts reconcile exactly with the collected
hypervisor metrics, which the acceptance test pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.experiments.common import PaperSystemConfig, ScenarioResult
from repro.telemetry.collectors import collect_hypervisor
from repro.telemetry.perfetto import write_chrome_trace
from repro.telemetry.registry import MetricsRegistry

#: Scenario the traced replay runs (see module docstring).
TRACED_SCENARIO = "b"


@dataclass
class TracedRun:
    """One in-process run with tracing + CPU segments enabled."""

    scenario: str
    load: float
    seed: int
    result: ScenarioResult

    @property
    def hypervisor(self) -> Any:
        return self.result.hypervisor

    @property
    def trace(self) -> Any:
        return self.result.hypervisor.trace

    @property
    def clock(self) -> Any:
        return self.result.hypervisor.clock

    @property
    def cpu_segments(self) -> "list[Any]":
        segments = self.result.hypervisor.cpu.segments
        return list(segments) if segments is not None else []


def run_traced_fig6(irqs: int, seed: int,
                    scenario: str = TRACED_SCENARIO,
                    load_index: int = 0,
                    system: Optional[PaperSystemConfig] = None) -> TracedRun:
    """Replay one fig6 (scenario, load) cell with full observability.

    Mirrors :func:`repro.experiments.fig6.run_fig6_load` — same
    interarrival generation, same per-load seed derivation
    (``seed + load_index``), same policy selection — but on a system
    built with ``trace_enabled=True`` and ``record_cpu_segments=True``,
    and returning the *full* :class:`ScenarioResult` so the caller can
    reach the live hypervisor.
    """
    import dataclasses

    from repro.experiments.fig6 import SCENARIOS, Fig6Config
    from repro.core.monitor import DeltaMinusMonitor
    from repro.core.policy import MonitoredInterposing, NeverInterpose
    from repro.experiments.common import run_irq_scenario
    from repro.workloads.synthetic import (
        clip_to_dmin,
        exponential_interarrivals,
        lambda_for_load,
    )

    if scenario not in SCENARIOS:
        raise ValueError(
            f"scenario must be one of {SCENARIOS}, got {scenario!r}"
        )
    base = system if system is not None else PaperSystemConfig()
    traced_system = dataclasses.replace(
        base, trace_enabled=True, record_cpu_segments=True
    )
    config = Fig6Config(system=traced_system, irqs_per_load=irqs, seed=seed)
    clock = traced_system.clock()
    c_bh = clock.us_to_cycles(traced_system.bottom_handler_us)
    load = config.loads[load_index]
    lam = lambda_for_load(c_bh, load, traced_system.costs)
    intervals = exponential_interarrivals(
        config.irqs_per_load, lam, seed=config.seed + load_index
    )
    if scenario == "c":
        intervals = clip_to_dmin(intervals, lam)
    if scenario == "a":
        policy = NeverInterpose()
    else:
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(lam))
    result = run_irq_scenario(traced_system, policy, intervals)
    return TracedRun(scenario=scenario, load=load,
                     seed=config.seed + load_index, result=result)


def export_traced_run(run: TracedRun,
                      trace_path: "str | None" = None,
                      registry: Optional[MetricsRegistry] = None,
                      campaign: Any = None,
                      metadata: Optional[dict] = None) -> Optional[int]:
    """Export a traced run: Chrome trace file and/or metrics sampling.

    Returns the number of trace events written (None when no
    ``trace_path`` was given).

    The trace is streamed straight from the live recorder, one event
    at a time (see :func:`~repro.telemetry.perfetto.write_chrome_trace`).
    A persisted artifact's recorder (``RunArtifact.trace_recorder``)
    renders the same bytes; the store tests pin that as an oracle
    rather than every export paying for a columnar round trip.
    """
    written = None
    if trace_path is not None:
        meta = {
            "scenario": f"fig6{run.scenario}",
            "load": run.load,
            "seed": run.seed,
            "recorded_events": len(run.trace),
            "dropped_events": run.trace.dropped,
        }
        if metadata:
            meta.update(metadata)
        written = write_chrome_trace(
            trace_path,
            run.trace,
            clock=run.clock,
            cpu_segments=run.cpu_segments,
            campaign=campaign,
            engine=run.hypervisor.engine,
            metadata=meta,
        )
    if registry is not None:
        collect_hypervisor(registry, run.hypervisor,
                           run=f"fig6{run.scenario}")
    return written
