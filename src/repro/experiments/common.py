"""Shared experiment infrastructure.

:class:`PaperSystemConfig` captures the evaluation platform of
Section 6.1: an ARM926ej-s at 200 MHz, two application partitions with
6000 µs TDMA slots plus a 2000 µs housekeeping partition
(T_TDMA = 14000 µs), and one monitored IRQ source whose timer is
re-armed from the top handler with a pre-generated interarrival array.

``C_TH`` and ``C_BH`` are not stated numerically in the paper; the
defaults here (2 µs and 40 µs) are chosen so the direct-handling
latency cluster falls in the paper's "up to 50 µs" band while the
interposing overheads use the measured Section 6.2 values.

The configuration and result types here import no simulator: the
functions that build and run a system import the hypervisor, its IRQ
sources and the timers, so a campaign that only replays cached results
never loads them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.hypervisor.config import CostModel, HypervisorConfig, SlotConfig
from repro.metrics.stats import LatencySummary, summarize
from repro.sim.clock import Clock

if TYPE_CHECKING:
    from repro.core.policy import InterposingPolicy
    from repro.hypervisor.hypervisor import (
        Hypervisor,
        LatencyColumns,
        LatencyRecord,
    )
    from repro.sim.snapshot import WorldSnapshot
    from repro.sim.timers import IntervalSequenceTimer

#: Device name under which the IRQ-generating timer registers in world
#: snapshots; :func:`run_irq_scenario_from` looks it up on restore.
IRQ_TIMER_DEVICE = "irq-gen"


@dataclass
class PaperSystemConfig:
    """The Section 6.1 evaluation system, parameterized."""

    frequency_hz: int = 200_000_000
    app_slot_us: float = 6_000.0
    housekeeping_slot_us: float = 2_000.0
    top_handler_us: float = 2.0
    bottom_handler_us: float = 40.0
    subscriber: str = "P1"
    other_partition: str = "P2"
    housekeeping: str = "HK"
    irq_line: int = 5
    irq_name: str = "irq0"
    costs: CostModel = field(default_factory=CostModel)
    trace_enabled: bool = False
    record_cpu_segments: bool = False

    def clock(self) -> Clock:
        return Clock(self.frequency_hz)

    @property
    def tdma_cycle_us(self) -> float:
        return 2 * self.app_slot_us + self.housekeeping_slot_us

    @property
    def foreign_time_us(self) -> float:
        """T_TDMA - T_i: the worst-case slot wait of delayed handling."""
        return self.tdma_cycle_us - self.app_slot_us

    def slot_table(self, clock: Clock) -> list[SlotConfig]:
        return [
            SlotConfig(self.subscriber, clock.us_to_cycles(self.app_slot_us)),
            SlotConfig(self.other_partition, clock.us_to_cycles(self.app_slot_us)),
            SlotConfig(self.housekeeping,
                       clock.us_to_cycles(self.housekeeping_slot_us)),
        ]

    def effective_bottom_cycles(self, clock: Clock) -> int:
        """C'_BH (Eq. 13) in cycles."""
        return self.costs.effective_bottom_handler_cycles(
            clock.us_to_cycles(self.bottom_handler_us)
        )

    def build(self, policy: InterposingPolicy,
              intervals: Sequence[int]) -> tuple[Hypervisor, IntervalSequenceTimer]:
        """Construct the hypervisor system with the IRQ timer wired up.

        ``intervals`` is the pre-generated interarrival array (cycles);
        the timer is re-armed from within each top handler, exactly as
        in the paper's measurement protocol.  Call ``hv.start()`` and
        ``timer.arm_next()`` to begin.
        """
        from repro.hypervisor.hypervisor import Hypervisor
        from repro.hypervisor.irq import IrqSource
        from repro.hypervisor.partition import Partition
        from repro.sim.timers import IntervalSequenceTimer

        clock = self.clock()
        hv_config = HypervisorConfig(
            frequency_hz=self.frequency_hz,
            costs=self.costs,
            trace_enabled=self.trace_enabled,
            record_cpu_segments=self.record_cpu_segments,
        )
        hv = Hypervisor(self.slot_table(clock), hv_config)
        for name in (self.subscriber, self.other_partition, self.housekeeping):
            hv.add_partition(Partition(name))
        source = IrqSource(
            name=self.irq_name,
            line=self.irq_line,
            subscriber=self.subscriber,
            top_handler_cycles=clock.us_to_cycles(self.top_handler_us),
            bottom_handler_cycles=clock.us_to_cycles(self.bottom_handler_us),
            policy=policy,
        )
        hv.add_irq_source(source)
        timer = IntervalSequenceTimer(hv.engine, hv.intc, line=self.irq_line,
                                      intervals=intervals,
                                      name=IRQ_TIMER_DEVICE)
        # A bound method rather than a lambda: world snapshots record
        # the hook as (device, method-name) and re-bind it on restore.
        source.on_top_handler = timer.on_irq_top
        return hv, timer


@dataclass
class LatencyColumnData:
    """The latency columns of one run, as task results carry them.

    The fields are exactly :meth:`LatencyColumns.column_data`: parallel
    ``array`` columns in completion order, modes coded in
    :class:`HandlingMode` declaration order, plus the interned source
    table.  Arrays pickle as their raw bytes and compare by value, so a
    result carrying them crosses process lines and the result cache
    with no per-IRQ object, and dataclass ``==`` still compares runs.
    """

    source_ids: array
    seqs: array
    arrivals: array
    completions: array
    modes: array
    cuts: array
    source_names: list[str]

    @classmethod
    def of(cls, columns: LatencyColumns) -> "LatencyColumnData":
        return cls(**columns.column_data())

    def records(self) -> list[LatencyRecord]:
        """Materialize one :class:`LatencyRecord` per row (not a hot path)."""
        from repro.hypervisor.hypervisor import LatencyColumns

        return LatencyColumns.from_column_data(vars(self)).records()


@dataclass
class ScenarioSummary:
    """The picklable essence of one scenario run.

    Mirrors the read-only API of :class:`ScenarioResult` minus the live
    :class:`Hypervisor`, whose callbacks make it unpicklable.  Campaign
    workers return summaries across process boundaries; anything that
    needs the hypervisor itself (ledgers, guest kernels) must be
    extracted inside the worker.

    The same pickle round trip is what the incremental result cache
    (:mod:`repro.experiments.cache`) replays across *runs*, so task
    results must stay plain picklable data — no callbacks, no open
    handles — and task kwargs must stay canonicalizable dataclasses /
    primitives so their content fingerprint is stable.

    The per-IRQ data travels as columns: ``columns`` holds the raw
    latency arrays (:class:`LatencyColumnData`) and ``latencies_us`` the
    derived ``array('d')`` (cheap to pickle, summarize and merge).  Both
    compare elementwise, so summary-vs-summary equality still works,
    but code comparing ``latencies_us`` against a plain list must wrap
    one side.  :attr:`records` materializes the classic record list on
    demand for tests, examples and API users.
    """

    columns: LatencyColumnData
    latencies_us: "array | list[float]"
    summary: LatencySummary
    mode_counts: dict[str, int]
    context_switch_counts: dict[str, int]
    total_context_switches: int = 0

    @property
    def records(self) -> list[LatencyRecord]:
        return self.columns.records()

    @property
    def avg_latency_us(self) -> float:
        return self.summary.mean

    @property
    def max_latency_us(self) -> float:
        return self.summary.maximum


@dataclass
class ScenarioResult:
    """Everything a benchmark or test needs from one scenario run.

    ``latencies_us`` is the columnar ``array('d')`` form (completion
    order, same floats as ``hv.latencies_us()``); ``columns`` the raw
    latency columns it derives from.
    """

    columns: LatencyColumnData
    latencies_us: "array | list[float]"
    summary: LatencySummary
    mode_counts: dict[str, int]
    context_switch_counts: dict[str, int]
    hypervisor: Hypervisor

    @property
    def records(self) -> list[LatencyRecord]:
        return self.columns.records()

    @property
    def avg_latency_us(self) -> float:
        return self.summary.mean

    @property
    def max_latency_us(self) -> float:
        return self.summary.maximum

    def lightweight(self) -> ScenarioSummary:
        """Strip the hypervisor so the result can cross process lines.

        The hypervisor is released (:meth:`Hypervisor.release`) once
        its last field is read, so it is freed as soon as this result
        is, not at the cyclic collector's next pass.
        """
        summary = ScenarioSummary(
            columns=self.columns,
            latencies_us=self.latencies_us,
            summary=self.summary,
            mode_counts=self.mode_counts,
            context_switch_counts=self.context_switch_counts,
            total_context_switches=self.hypervisor.context_switches.total,
        )
        self.hypervisor.release()
        return summary


def finish_irq_scenario(hv: Hypervisor, system: PaperSystemConfig,
                        expected: int,
                        limit_seconds: float = 600.0) -> ScenarioResult:
    """Run a started scenario world to completion and assemble results.

    Shared tail of :func:`run_irq_scenario` (straight-line) and
    :func:`run_irq_scenario_from` (forked continuation): the two paths
    must assemble results identically for forked runs to be
    byte-identical with straight-line ones.
    """
    clock = hv.clock
    completed = hv.run_until_irq_count(
        expected, limit_cycles=round(limit_seconds * system.frequency_hz)
    )
    if completed < expected:
        # Drain any stragglers still waiting for their home slot.
        hv.run_until(hv.engine.now + 2 * clock.us_to_cycles(system.tdma_cycle_us))
    # Columnar: one array('d') straight off the latency columns, with
    # the same per-element cycles_to_us conversion as the record path.
    latencies = hv.latency_columns.latencies_us_array(clock)
    mode_counts = {
        mode.value: count for mode, count in hv.mode_counts().items()
    }
    ctx = {
        reason.value: count
        for reason, count in hv.context_switches.counts.items()
    }
    return ScenarioResult(
        columns=LatencyColumnData.of(hv.latency_columns),
        latencies_us=latencies,
        summary=summarize(latencies),
        mode_counts=mode_counts,
        context_switch_counts=ctx,
        hypervisor=hv,
    )


def run_irq_scenario(system: PaperSystemConfig,
                     policy: InterposingPolicy,
                     intervals: Sequence[int],
                     limit_seconds: float = 600.0) -> ScenarioResult:
    """Run one IRQ-latency scenario to completion.

    The run ends when every generated IRQ's bottom handler completed
    (or at the safety time limit, which no well-formed configuration
    should reach).
    """
    hv, timer = system.build(policy, intervals)
    hv.start()
    timer.arm_next()
    # One IRQ per arm_next(), including the first.
    return finish_irq_scenario(hv, system, len(intervals), limit_seconds)


def run_irq_scenario_from(
    snapshot: WorldSnapshot,
    system: PaperSystemConfig,
    limit_seconds: float = 600.0,
) -> ScenarioResult:
    """Fork a scenario continuation from a snapshot and run it out."""
    from repro.sim.snapshot import restore_world

    hv, devices = restore_world(snapshot)
    timer = devices[IRQ_TIMER_DEVICE]
    return finish_irq_scenario(hv, system, timer.interval_count, limit_seconds)
