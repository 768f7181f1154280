"""Microbenchmark races behind the benchmark suite's absolute floors.

Three measurements that the end-to-end harness (``benchmarks/e2e``)
does not isolate, each guarding one design choice:

* :func:`measure_engine_throughput` — raw event dispatch of
  :class:`~repro.sim.engine.SimulationEngine` in two queue regimes
  (the engine floors, and the baseline of the disabled-telemetry
  overhead guard);
* :func:`measure_idle_ab` — the idle-skip engine (analytic
  fast-forward across quiescent TDMA gaps, see
  ``Hypervisor._boundary_dispatch``) against tick-by-tick execution
  on an idle-dominated scenario;
* :func:`measure_analysis_speedup` — memoized against cold
  arrival-curve evaluation (see :mod:`repro.analysis.memo`).

Each A/B race interleaves its legs in one process, so host noise hits
both alike, and reports the best of its repeats: on a shared host
interference only ever slows a run down.  Both legs of a race must
compute the same thing; a mismatch is raised, not reported as a
speedup.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass
from itertools import accumulate

from repro.analysis.event_models import (
    DeltaTableEventModel,
    PeriodicEventModel,
    TraceEventModel,
)
from repro.analysis.latency import (
    InterferingIrq,
    classic_irq_latency,
    interposed_irq_latency,
)
from repro.analysis.memo import memoize_model
from repro.core.policy import NeverInterpose
from repro.experiments.common import PaperSystemConfig, run_irq_scenario
from repro.sim.engine import ENV_IDLE_SKIP, SimulationEngine
from repro.workloads.synthetic import clip_to_dmin, exponential_interarrivals


# ------------------------------------------------------ engine throughput

@dataclass(frozen=True)
class EngineBenchmarkResult:
    """Outcome of one engine-throughput measurement."""

    events_executed: int
    cancelled_events: int
    elapsed_seconds: float
    chain_events_per_second: float = 0.0
    pool_events_per_second: float = 0.0

    @property
    def events_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.events_executed / self.elapsed_seconds


def _run_ticks(events: int, offsets: "tuple[int, ...]", decoy: int,
               pool_size: int) -> "tuple[int, int, float]":
    """``pool_size`` self-rescheduling ticks plus cancelled decoys.

    Tick delays cycle through ``offsets`` (a power-of-two count).
    Every fourth tick schedules a decoy ``decoy`` cycles out and
    cancels it at once, so the lazy-deletion path is part of what is
    measured.
    """
    engine = SimulationEngine()
    remaining = [events]
    cancelled = [0]
    mask = len(offsets) - 1

    def noop() -> None:
        pass

    def tick() -> None:
        left = remaining[0]
        if left <= 0:
            return
        remaining[0] = left - 1
        engine.schedule(offsets[left & mask], tick)
        if left % 4 == 0:
            engine.schedule(decoy, noop).cancel()
            cancelled[0] += 1

    for i in range(pool_size):
        engine.schedule(1 + i, tick)
    # Collect before timing so whichever leg trips the next gen-2
    # collection does not pay for garbage it did not make.
    gc.collect()
    started = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - started
    return engine.events_executed, cancelled[0], elapsed


def measure_engine_throughput(events: int,
                              repeats: int) -> EngineBenchmarkResult:
    """Measure raw engine dispatch throughput (best of ``repeats``).

    Each repeat runs ``events // 2`` ticks in two phases:

    * **chain** — one self-rescheduling tick over a near-empty heap,
      the regime of a single replayed activation trace;
    * **pool** — 64 outstanding events with varied delays, the regime
      of many concurrent timers, where heap sift costs dominate.

    The headline ``events_per_second`` is total callbacks over total
    elapsed time.
    """
    per_phase = max(1, events // 2)
    best: "EngineBenchmarkResult | None" = None
    for _ in range(max(1, repeats)):
        chain_n, chain_c, chain_t = _run_ticks(per_phase, (7,), 11, 1)
        pool_n, pool_c, pool_t = _run_ticks(
            per_phase, (3, 17, 29, 7, 41, 13, 23, 11), 19, 64)
        result = EngineBenchmarkResult(
            events_executed=chain_n + pool_n,
            cancelled_events=chain_c + pool_c,
            elapsed_seconds=chain_t + pool_t,
            chain_events_per_second=chain_n / chain_t if chain_t > 0 else 0.0,
            pool_events_per_second=pool_n / pool_t if pool_t > 0 else 0.0,
        )
        if best is None or result.events_per_second > best.events_per_second:
            best = result
    assert best is not None
    return best


# --------------------------------------------------------------- idle skip

@dataclass(frozen=True)
class IdleABResult:
    """Outcome of the idle-skip vs tick-by-tick race.

    ``results`` holds the best measurement of the ``skip`` and ``tick``
    legs.  Both simulate the identical scenario, so ``events_executed``
    is the same simulated work and the events/s ratio is a pure
    wall-clock speedup.
    """

    results: "dict[str, EngineBenchmarkResult]"
    skip_spans: int
    skipped_events: int
    skipped_cycles: int

    @property
    def speedup(self) -> float:
        """Wall-clock factor of the skip engine over tick-by-tick."""
        tick = self.results["tick"].events_per_second
        if tick <= 0:
            return 0.0
        return self.results["skip"].events_per_second / tick


def _run_idle_scenario(idle_skip: bool, arrivals: int,
                       gap_tdma_cycles: int) -> "tuple[object, float]":
    """One leg: the Section 6.1 system with sparse IRQ arrivals.

    Arrivals are ``gap_tdma_cycles`` TDMA cycles apart, so the boundary
    chain, not IRQ handling, dominates the event count.  Returns the
    finished hypervisor and the elapsed wall-clock seconds.
    """
    previous = os.environ.get(ENV_IDLE_SKIP)
    os.environ[ENV_IDLE_SKIP] = "1" if idle_skip else "0"
    try:
        system = PaperSystemConfig()
        cycle = system.clock().us_to_cycles(system.tdma_cycle_us)
        # Deterministic phase jitter so arrivals land all over the slot
        # grid, not on one resonant offset.
        jitter = (0, 321_001, 777_017, 123_457, 555_111, 901_247, 432_101)
        intervals = [gap_tdma_cycles * cycle + jitter[i % len(jitter)]
                     for i in range(arrivals)]
        gc.collect()
        started = time.perf_counter()
        result = run_irq_scenario(system, NeverInterpose(), intervals)
        elapsed = time.perf_counter() - started
        return result.hypervisor, elapsed
    finally:
        if previous is None:
            os.environ.pop(ENV_IDLE_SKIP, None)
        else:
            os.environ[ENV_IDLE_SKIP] = previous


def measure_idle_ab(arrivals: int, gap_tdma_cycles: int,
                    repeats: int) -> IdleABResult:
    """Race the idle-skip engine against tick-by-tick execution.

    Idle-skip counts elided events as executed, so the legs must
    execute the same number of events; a mismatch means the
    byte-identity contract broke.
    """
    best: "dict[str, EngineBenchmarkResult]" = {}
    events_by_leg: "dict[str, int]" = {}
    skip_stats = (0, 0, 0)
    for _ in range(max(1, repeats)):
        for name, idle_skip in (("skip", True), ("tick", False)):
            hv, elapsed = _run_idle_scenario(idle_skip, arrivals,
                                             gap_tdma_cycles)
            engine = hv.engine
            executed = engine.events_executed
            if events_by_leg.setdefault(name, executed) != executed:
                raise RuntimeError(
                    f"idle A/B {name} leg executed {executed} events, "
                    f"previous repeat executed {events_by_leg[name]}")
            if idle_skip:
                skip_stats = (engine.skip_spans, engine.skipped_events,
                              engine.skipped_cycles)
            result = EngineBenchmarkResult(
                events_executed=executed,
                cancelled_events=engine.events_cancelled,
                elapsed_seconds=elapsed,
            )
            current = best.get(name)
            if (current is None
                    or result.events_per_second > current.events_per_second):
                best[name] = result
    if events_by_leg["skip"] != events_by_leg["tick"]:
        raise RuntimeError(
            f"idle A/B legs diverged: skip executed {events_by_leg['skip']} "
            f"events, tick executed {events_by_leg['tick']} (byte-identity "
            "contract broken)")
    return IdleABResult(results=best, skip_spans=skip_stats[0],
                        skipped_events=skip_stats[1],
                        skipped_cycles=skip_stats[2])


# ------------------------------------------------- analysis memoization

#: Paper system constants in cycles (200 cycles/µs).
_DMIN = 288_800                 # 1444 µs
_TDMA_CYCLE = 2_800_000         # 14000 µs
_SLOT = 1_200_000               # 6000 µs
_COST_POINTS = ((400, 6_000), (400, 8_000), (400, 10_000), (400, 12_000))
#: Eq. 14-audit window grid (25 µs .. 15 ms) and victim count.
_AUDIT_WIDTHS = tuple(25_000 * k for k in range(1, 121))
_AUDIT_VICTIMS = 3


@dataclass(frozen=True)
class AnalysisBenchmarkResult:
    """Outcome of one memoized-vs-cold analysis race."""

    cold_seconds: float
    memoized_seconds: float
    bounds_per_round: int
    #: Response-time bounds (cycles) + audit checksums computed by each
    #: side, in the same fixed order — must be equal.
    cold_values: "tuple[int, ...]"
    memoized_values: "tuple[int, ...]"

    @property
    def speedup(self) -> float:
        if self.memoized_seconds <= 0:
            return float("inf")
        return self.cold_seconds / self.memoized_seconds

    @property
    def identical(self) -> bool:
        return self.cold_values == self.memoized_values


def _run_analysis_round(memoize: bool) -> "tuple[int, ...]":
    """The d_min-sporadic stream against a δ⁻-table and a trace
    interferer over four cost points (Eqs. 11/12 and 16), then a
    multi-victim window-grid audit of the interferer curves (the
    Eq. 14 shape).  Fresh raw models per round."""
    own = PeriodicEventModel(_DMIN)
    table_model = DeltaTableEventModel(
        [8_000, 60_000, 200_000, 500_000, 1_100_000])
    gaps = clip_to_dmin(
        exponential_interarrivals(2_000, 260_000, seed=23), 40_000)
    trace_model = TraceEventModel(list(accumulate(gaps)))
    if memoize:
        # One wrapper per model, shared by the whole bound family and
        # every audit pass — the way the analysis paths hold models.
        own = memoize_model(own)
        table_model = memoize_model(table_model)
        trace_model = memoize_model(trace_model)
    interferers = [
        InterferingIrq(table_model, top_handler_cycles=400, monitored=True),
        InterferingIrq(trace_model, top_handler_cycles=400),
    ]
    values = []
    for c_th, c_bh in _COST_POINTS:
        classic = classic_irq_latency(own, c_th, c_bh, _TDMA_CYCLE, _SLOT,
                                      interferers=interferers,
                                      memoize=memoize)
        interposed = interposed_irq_latency(own, c_th, c_bh,
                                            interferers=interferers,
                                            memoize=memoize)
        values.append(classic.response_time_cycles)
        values.append(interposed.response_time_cycles)
    for _ in range(_AUDIT_VICTIMS):
        checksum = 0
        for dt in _AUDIT_WIDTHS:
            checksum += table_model.eta_plus(dt) + trace_model.eta_plus(dt)
        values.append(checksum)
    return tuple(values)


def measure_analysis_speedup(repeats: int) -> AnalysisBenchmarkResult:
    """Race the analysis path with memoization off (``cold``) and on.

    The analysis paths re-evaluate η⁺/δ⁻ far more often than the
    curves change; for trace and δ⁻-table models that redundancy is
    the dominant cost.  Both sides' numbers are returned so callers
    can assert they are identical.
    """
    cold_values = memo_values = ()
    best_cold = best_memo = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        cold_values = _run_analysis_round(memoize=False)
        best_cold = min(best_cold, time.perf_counter() - started)

        started = time.perf_counter()
        memo_values = _run_analysis_round(memoize=True)
        best_memo = min(best_memo, time.perf_counter() - started)
    return AnalysisBenchmarkResult(
        cold_seconds=best_cold,
        memoized_seconds=best_memo,
        bounds_per_round=2 * len(_COST_POINTS),
        cold_values=cold_values,
        memoized_values=memo_values,
    )
