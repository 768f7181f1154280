"""The simulated real-time hypervisor (uC/OS-MMU model).

This module ties the substrate together: TDMA partition scheduling
(Section 3), split top/bottom interrupt handling (Fig. 2), the original
and modified top handlers (Fig. 4a/4b), monitored interposed bottom
handler execution with budget enforcement (Section 5), and all the
accounting the evaluation needs (latencies, context switches,
per-partition interference).

Execution model
---------------
The single CPU either runs a preemptible :class:`~repro.sim.cpu.Execution`
(a guest task, a bottom handler, or the idle loop) or is inside a
*masked hypervisor section* — a chain of timed steps (top handler,
monitor check, scheduler manipulation, context switch) during which the
interrupt controller holds pending lines.  IRQ lines preempt
executions; hypervisor sections complete atomically.

Interrupt handling paths (Fig. 4b)
----------------------------------
* **direct** — the subscriber's own slot is active: the event is queued
  and the partition's dispatcher runs the bottom handler immediately
  after the hypervisor returns to partition context.
* **delayed** — foreign slot, interposing denied: the event waits in
  the queue until the subscriber's next slot.
* **interposed** — foreign slot, monitor grants the activation: the
  hypervisor pays ``C_sched`` plus a context switch, runs the bottom
  handler in the subscriber's context for at most ``C_BH`` cycles
  (budget enforced), then switches back.

An interposed window executes the subscriber's bottom-handler
dispatcher, which drains the IRQ queue head-first within the enforced
budget, so FIFO ordering of bottom handlers is preserved even when
older delayed events are still pending (Section 5: "In all three cases
the IRQ queues are used, to prevent an out-of-order execution of
IRQs").  If a TDMA boundary fires during a window, the partition
switch is deferred until the window's bounded budget runs out, so
d_min-adherent IRQs are never pushed back to delayed handling —
matching Fig. 6c, where no IRQ is delayed.
"""

from __future__ import annotations

from array import array
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.core.independence import InterferenceKind, InterferenceLedger
from repro.core.policy import HandlingMode
from repro.guestos.tasks import GuestJob
from repro.hypervisor.config import CostModel, HypervisorConfig, SlotConfig
from repro.hypervisor.context import ContextSwitchModel, SwitchReason
from repro.hypervisor.irq import IrqEvent, IrqSource
from repro.hypervisor.partition import Partition
from repro.hypervisor.scheduler import TdmaScheduler
from repro.sim.clock import Clock
from repro.sim.cpu import Cpu, Execution
from repro.sim.engine import SimulationEngine
from repro.sim.events import EventHandle
from repro.sim.intc import InterruptController
from repro.sim.snapshot import SnapshotError, class_path, resolve_class
from repro.sim.trace import TraceKind, TraceRecorder

#: IRQ line reserved for the hypervisor's TDMA slot timer.
SLOT_TIMER_LINE = 0


@dataclass(frozen=True)
class LatencyRecord:
    """Measured latency of one IRQ (Section 6.1 protocol).

    ``arrival`` is the top-handler activation timestamp, ``completed_at``
    the completion of the corresponding bottom handler; the difference
    is the measured IRQ latency.
    """

    source: str
    seq: int
    arrival: int
    completed_at: int
    mode: HandlingMode
    enforced_cut: bool

    @property
    def latency(self) -> int:
        return self.completed_at - self.arrival


#: Stable mode numbering for the columnar store (enum declaration order).
_MODES = tuple(HandlingMode)
_MODE_CODE = {mode: code for code, mode in enumerate(_MODES)}
_DIRECT = _MODE_CODE[HandlingMode.DIRECT]
_INTERPOSED = _MODE_CODE[HandlingMode.INTERPOSED]
_DELAYED = _MODE_CODE[HandlingMode.DELAYED]


class LatencyColumns:
    """Columnar store of measured IRQ latencies.

    At paper scale a run completes tens of thousands of IRQs, and the
    seed implementation boxed each one in a frozen
    :class:`LatencyRecord` on the completion hot path.  This store
    keeps the same data as parallel ``array`` columns — one C-level
    append per field, no per-sample Python object — plus an O(1)
    per-source completion count (``run_until_irq_count`` used to rescan
    the record list around every completion when filtering by source).

    Timestamps use ``array('q')`` (64-bit): a 600 s scenario at 200 MHz
    reaches 1.2e11 cycles, beyond 32 bits.  Sources are interned to
    small ids (``array('h')``), handling modes and cut flags to bytes.

    :class:`LatencyRecord` remains the public per-record view —
    ``Hypervisor.latency_records`` materializes records from the
    columns on demand — and the snapshot wire format is unchanged
    (:meth:`record_tuples` reproduces the exact tuples PR 4 shipped).
    """

    __slots__ = ("_source_ids", "_seqs", "_arrivals", "_completions",
                 "_modes", "_cuts", "_source_names", "_source_index",
                 "_source_counts")

    def __init__(self):
        self._source_ids = array("h")
        self._seqs = array("q")
        self._arrivals = array("q")
        self._completions = array("q")
        self._modes = array("b")
        self._cuts = array("b")
        self._source_names: list[str] = []
        self._source_index: dict[str, int] = {}
        self._source_counts: list[int] = []

    def append(self, source: str, seq: int, arrival: int, completed_at: int,
               mode: HandlingMode, enforced_cut: bool) -> None:
        self.append_code(source, seq, arrival, completed_at, _MODE_CODE[mode],
                         enforced_cut)

    def append_code(self, source: str, seq: int, arrival: int,
                    completed_at: int, mode_code: int,
                    enforced_cut: bool) -> None:
        """:meth:`append` with the mode as its ``_MODES`` index.

        The completion path classifies by code, so it appends without
        hashing a :class:`HandlingMode` member per IRQ.
        """
        sid = self._source_index.get(source)
        if sid is None:
            sid = len(self._source_names)
            self._source_index[source] = sid
            self._source_names.append(source)
            self._source_counts.append(0)
        self._source_ids.append(sid)
        self._seqs.append(seq)
        self._arrivals.append(arrival)
        self._completions.append(completed_at)
        self._modes.append(mode_code)
        self._cuts.append(enforced_cut)
        self._source_counts[sid] += 1

    def count(self, source: Optional[str] = None) -> int:
        """Completed IRQs, optionally for one source — O(1) either way."""
        if source is None:
            return len(self._seqs)
        sid = self._source_index.get(source)
        return 0 if sid is None else self._source_counts[sid]

    def _iter_records(self) -> Iterator[LatencyRecord]:
        names = self._source_names
        for sid, seq, arrival, completed_at, mode, cut in zip(
                self._source_ids, self._seqs, self._arrivals,
                self._completions, self._modes, self._cuts):
            yield LatencyRecord(names[sid], seq, arrival, completed_at,
                                _MODES[mode], bool(cut))

    def records(self) -> list[LatencyRecord]:
        """Materialize the columns as the classic record list."""
        return list(self._iter_records())

    def record_tuples(self) -> list[tuple]:
        """Snapshot wire format: byte-identical to the boxed-record era."""
        names = self._source_names
        return [
            (names[sid], seq, arrival, completed_at,
             _MODES[mode].value, bool(cut))
            for sid, seq, arrival, completed_at, mode, cut in zip(
                self._source_ids, self._seqs, self._arrivals,
                self._completions, self._modes, self._cuts)
        ]

    def restore_tuples(self, tuples: Sequence[tuple]) -> None:
        for source, seq, arrival, completed_at, mode, enforced_cut in tuples:
            self.append(source, seq, arrival, completed_at,
                        HandlingMode(mode), enforced_cut)

    def latencies_us(self, clock: Clock, source: Optional[str] = None,
                     mode: Optional[HandlingMode] = None) -> list[float]:
        """Latencies in µs, optionally filtered — a plain list, matching
        the public :meth:`Hypervisor.latencies_us` contract."""
        cycles_to_us = clock.cycles_to_us
        if source is None and mode is None:
            return [cycles_to_us(c - a)
                    for a, c in zip(self._arrivals, self._completions)]
        sid = None
        if source is not None:
            sid = self._source_index.get(source)
            if sid is None:
                return []
        code = None if mode is None else _MODE_CODE[mode]
        return [
            cycles_to_us(c - a)
            for a, c, s, m in zip(self._arrivals, self._completions,
                                  self._source_ids, self._modes)
            if (sid is None or s == sid) and (code is None or m == code)
        ]

    def latencies_us_array(self, clock: Clock) -> array:
        """All latencies in µs, in completion order, as ``array('d')``.

        Element values are computed with the same ``clock.cycles_to_us``
        call as the list form, so the floats are bit-identical.
        """
        cycles_to_us = clock.cycles_to_us
        return array("d", (cycles_to_us(c - a)
                           for a, c in zip(self._arrivals, self._completions)))

    def column_data(self) -> dict:
        """Raw column export for the run-artifact store (``repro.store``).

        Returns copies of the parallel arrays plus the interned source
        table; the mode column uses the stable ``_MODES`` declaration
        order.  Round trip via :meth:`from_column_data`.
        """
        return {
            "source_ids": array("h", self._source_ids),
            "seqs": array("q", self._seqs),
            "arrivals": array("q", self._arrivals),
            "completions": array("q", self._completions),
            "modes": array("b", self._modes),
            "cuts": array("b", self._cuts),
            "source_names": list(self._source_names),
        }

    @classmethod
    def from_column_data(cls, data: dict) -> "LatencyColumns":
        """Rebuild a column store from a :meth:`column_data` export."""
        columns = cls()
        names = data["source_names"]
        for sid, seq, arrival, completed_at, mode, cut in zip(
                data["source_ids"], data["seqs"], data["arrivals"],
                data["completions"], data["modes"], data["cuts"]):
            columns.append_code(names[sid], seq, arrival, completed_at,
                                mode, bool(cut))
        return columns

    def mode_counts(self, source: Optional[str] = None) -> dict[HandlingMode, int]:
        counts = [0] * len(_MODES)
        if source is None:
            for code in self._modes:
                counts[code] += 1
        else:
            sid = self._source_index.get(source)
            if sid is not None:
                for s, code in zip(self._source_ids, self._modes):
                    if s == sid:
                        counts[code] += 1
        return {mode: counts[code] for code, mode in enumerate(_MODES)}


@dataclass
class HypervisorStats:
    """Aggregate counters maintained during a run.

    The fields marked ``==`` below are incremented at exactly the sites
    that emit the corresponding :class:`~repro.sim.trace.TraceKind`
    events, so they reconcile 1:1 with the trace's per-kind event
    counts whenever tracing is enabled — and keep counting (a plain
    integer bump) when it is not.  Each count is stored once: a top
    handler start is a delivered IRQ (``irqs_delivered``), a monitor
    accept opens a window (``windows_opened``), a bottom handler end
    appends a latency row (:attr:`Hypervisor.latency_columns`), and a
    slot switch is a ``SLOT`` context switch
    (:attr:`Hypervisor.context_switches`).  The telemetry collectors
    (:mod:`repro.telemetry.collectors`) sample them into a
    :class:`~repro.telemetry.registry.MetricsRegistry`.

    A window ends only by its budget or by draining its queue, never
    at a slot boundary (the boundary is deferred instead), so
    ``interpose_ends`` equals ``windows_opened`` whenever no window is
    open.
    """

    irqs_delivered: int = 0           # == TOP_HANDLER_START emissions
    windows_opened: int = 0           # == INTERPOSE_START, MONITOR_ACCEPT
    slot_switches_deferred: int = 0   # boundaries deferred until a window closed
    budget_exhausted: int = 0         # enforcement fired (C_BH cap reached)
    structural_denials: int = 0       # interpose impossible (window open / queue busy)
    monitor_consultations: int = 0
    spurious_irqs: int = 0
    irqs_throttled: int = 0           # suppressed by a source-level throttle
    top_handler_ends: int = 0         # == TOP_HANDLER_END emissions
    bottom_handler_starts: int = 0    # == BOTTOM_HANDLER_START emissions
    monitor_denies: int = 0           # == MONITOR_DENY emissions
    interpose_ends: int = 0           # == INTERPOSE_END emissions


class _InterposeWindow:
    """State of an in-progress interposed bottom-handler execution.

    ``trigger`` is the accepted IRQ event that opened the window;
    ``active_event`` is the queue head currently being processed.  The
    window executes the subscriber's bottom-handler dispatcher, which
    drains the IRQ queue head-first (FIFO), for at most
    ``budget_remaining`` cycles — the hypervisor-enforced ``C_BH`` of
    the accepted activation.  ``__slots__`` because one is allocated
    per interposed activation, which at paper scale is thousands per
    run.
    """

    __slots__ = ("trigger", "subscriber", "budget_remaining",
                 "active_event", "current_execution", "pseudo")

    def __init__(self, trigger: IrqEvent, subscriber: Partition,
                 budget_remaining: int,
                 active_event: Optional[IrqEvent] = None,
                 current_execution: Optional[Execution] = None,
                 pseudo: bool = False):
        self.trigger = trigger
        self.subscriber = subscriber
        self.budget_remaining = budget_remaining
        self.active_event = active_event
        self.current_execution = current_execution
        # A pseudo-window carries a *home* bottom handler over a deferred
        # TDMA boundary (bounded by the declared C_BH); it involves no
        # extra context switches and no foreign-slot classification.
        self.pseudo = pseudo


class Hypervisor:
    """A complete simulated hypervisor system.

    Typical construction::

        hv = Hypervisor([SlotConfig("P1", c1), SlotConfig("P2", c2)])
        hv.add_partition(Partition("P1"))
        hv.add_partition(Partition("P2"))
        hv.add_irq_source(IrqSource(..., subscriber="P2", policy=...))
        hv.start()
        hv.run_until(hv.clock.us_to_cycles(500_000))
    """

    def __init__(self, slots: Sequence[SlotConfig],
                 config: Optional[HypervisorConfig] = None):
        self.config = config or HypervisorConfig()
        self.clock: Clock = self.config.make_clock()
        self.engine = SimulationEngine()
        self.trace = TraceRecorder(enabled=self.config.trace_enabled,
                                   capacity=self.config.trace_capacity)
        self.intc = InterruptController(self.engine, trace=self.trace)
        self.cpu = Cpu(self.engine,
                       record_segments=self.config.record_cpu_segments)
        self.scheduler = TdmaScheduler(slots)
        self.context_switches = ContextSwitchModel(self.config.costs)
        self.ledger = InterferenceLedger()
        self.stats = HypervisorStats()
        self.latency_columns = LatencyColumns()

        self._partitions: dict[str, Partition] = {}
        self._sources_by_line: dict[int, IrqSource] = {}
        self._sources: dict[str, IrqSource] = {}
        self._irq_seq: dict[str, int] = {}
        self._window: Optional[_InterposeWindow] = None
        self._deferred_slot_switch = False
        self._started = False
        self._ipc_router = None  # set via attach_ipc_router
        # Per-completion hook installed by run_until_irq_count so the
        # engine stops itself instead of being polled event by event.
        # Receives the completed IRQ's source name (the one field the
        # watcher filters on — cheaper than materializing a record).
        self._completion_watcher: Optional[Callable[[str], None]] = None
        # Handle of the pending TDMA boundary event, kept so a world
        # snapshot can claim and re-bind it (see repro.sim.snapshot).
        self._boundary_handle: Optional[EventHandle] = None
        self._min_slot_cycles = min(
            slot.length_cycles for slot in self.scheduler.slots
        )

        self.intc.set_dispatcher(self._irq_entry)

    def release(self) -> None:
        """Let a finished hypervisor be freed by reference counting.

        The interrupt controller's dispatcher and the pending
        ``tdma-boundary`` event hold bound methods of this object, so
        without this it is cyclic garbage that only the cyclic
        collector frees.  The hypervisor cannot run afterwards.
        """
        self.intc.set_dispatcher(None)
        self.engine.discard_pending()
        self._boundary_handle = None

    # ------------------------------------------------------------------
    # System construction
    # ------------------------------------------------------------------

    def add_partition(self, partition: Partition) -> Partition:
        """Register a partition; its name must appear in the slot table."""
        if self._started:
            raise RuntimeError("cannot add partitions after start()")
        if partition.name in self._partitions:
            raise ValueError(f"duplicate partition {partition.name!r}")
        if partition.name not in self.scheduler.partitions():
            raise ValueError(
                f"partition {partition.name!r} has no slot in the TDMA table"
            )
        self._partitions[partition.name] = partition
        if partition.guest is not None:
            kernel = partition.guest
            kernel.attach(self.engine,
                          lambda name=partition.name: self._notify_work(name))
        return partition

    def add_irq_source(self, source: IrqSource) -> IrqSource:
        """Register a hardware IRQ source."""
        if self._started:
            raise RuntimeError("cannot add IRQ sources after start()")
        if source.line == SLOT_TIMER_LINE:
            raise ValueError(
                f"line {source.line} is reserved for the hypervisor slot timer"
            )
        if source.line in self._sources_by_line:
            raise ValueError(f"line {source.line} already in use")
        if source.name in self._sources:
            raise ValueError(f"duplicate IRQ source name {source.name!r}")
        if source.subscriber not in self._partitions:
            raise ValueError(
                f"IRQ source {source.name!r} subscribes unknown partition "
                f"{source.subscriber!r}"
            )
        self._sources_by_line[source.line] = source
        self._sources[source.name] = source
        self._irq_seq[source.name] = 0
        return source

    def partition(self, name: str) -> Partition:
        return self._partitions[name]

    @property
    def partitions(self) -> dict[str, Partition]:
        return dict(self._partitions)

    def irq_source(self, name: str) -> IrqSource:
        return self._sources[name]

    def attach_ipc_router(self, router) -> None:
        """Install an :class:`~repro.hypervisor.ipc.IpcRouter`."""
        self._ipc_router = router
        router.bind(self)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin TDMA scheduling and dispatch the first partition."""
        if self._started:
            raise RuntimeError("hypervisor already started")
        missing = [
            name for name in self.scheduler.partitions()
            if name not in self._partitions
        ]
        if missing:
            raise RuntimeError(f"slot table references unknown partitions: {missing}")
        self._started = True
        boundary = self.scheduler.start(self.engine.now)
        self._schedule_boundary(boundary)
        first = self._partitions[self.scheduler.current_owner]
        first.slots_entered += 1
        self._dispatch(first)

    def run_until(self, time_cycles: int) -> None:
        """Run the simulation up to an absolute time in cycles."""
        self._require_started()
        self.engine.run_until(time_cycles)

    def run_until_irq_count(self, count: int, source: Optional[str] = None,
                            limit_cycles: Optional[int] = None) -> int:
        """Run until ``count`` bottom handlers have completed.

        Returns the number of completed IRQs (which may be lower if the
        event queue ran dry or ``limit_cycles`` was hit first).

        Completion is detected by a watcher invoked from
        :meth:`_complete_event` that calls :meth:`SimulationEngine.stop`
        once the target is reached, so the engine runs its inlined
        dispatch loop instead of re-evaluating a predicate around every
        single event.  The time limit is likewise a scheduled stop
        event rather than a per-event comparison, and the completed
        count (per source or total) is an O(1) read off the columnar
        store.
        """
        self._require_started()

        columns = self.latency_columns

        def completed() -> int:
            return columns.count(source)

        engine = self.engine
        remaining = count - completed()
        if remaining <= 0:
            return completed()
        if limit_cycles is not None and engine.now >= limit_cycles:
            return completed()

        state = [remaining]

        def watcher(completed_source: str) -> None:
            if source is not None and completed_source != source:
                return
            left = state[0] - 1
            state[0] = left
            if left <= 0:
                engine.stop()

        limit_handle = None
        self._completion_watcher = watcher
        try:
            if limit_cycles is not None:
                # An out-of-band stop sentinel: unlike schedule_at it
                # consumes no FIFO sequence number, so installing (and
                # cancelling) the limit leaves the ordering of ordinary
                # events — and therefore the simulated execution —
                # byte-identical to a run without it.  Forked
                # continuations rely on this (see repro.sim.snapshot).
                limit_handle = engine.schedule_stop_at(limit_cycles)
            engine.run()
        finally:
            self._completion_watcher = None
            if limit_handle is not None:
                limit_handle.cancel()
        return completed()

    def _require_started(self) -> None:
        if not self._started:
            raise RuntimeError("call start() before running the simulation")

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def latency_records(self) -> list[LatencyRecord]:
        """Measured latencies as :class:`LatencyRecord` objects.

        Materialized on demand from :attr:`latency_columns` — the hot
        completion path appends columns, not boxed records, so grab
        this list once rather than per access in tight loops.
        """
        return self.latency_columns.records()

    def latencies_us(self, source: Optional[str] = None,
                     mode: Optional[HandlingMode] = None) -> list[float]:
        """Measured IRQ latencies in microseconds, optionally filtered."""
        return self.latency_columns.latencies_us(self.clock, source, mode)

    def mode_counts(self, source: Optional[str] = None) -> dict[HandlingMode, int]:
        """How many IRQs completed in each handling mode."""
        return self.latency_columns.mode_counts(source)

    # ------------------------------------------------------------------
    # IRQ entry (interrupt controller dispatcher)
    # ------------------------------------------------------------------

    def _irq_entry(self, line: int) -> None:
        self.intc.mask_all()
        self.intc.acknowledge(line)
        preempted = self.cpu.preempt()
        if preempted is not None:
            self._reconcile(preempted)
        if line == SLOT_TIMER_LINE:
            if self._window is not None:
                # Let the enforced window run out its (bounded) budget
                # before switching partitions; the boundary is handled
                # when the window closes.
                self._deferred_slot_switch = True
                self.stats.slot_switches_deferred += 1
                self._resume()
                return
            if (preempted is not None
                    and isinstance(preempted.owner, IrqEvent)):
                # The boundary hit an in-progress *home* bottom handler.
                # Defer the switch for its remaining work, capped by the
                # declared C_BH — the same bounded perturbation as for
                # interposed windows — instead of parking the remainder
                # for a whole TDMA rotation.
                event = preempted.owner
                cap = min(event.bh_remaining,
                          event.source.bottom_handler_cycles)
                if cap > 0:
                    partition = self._partitions[self.scheduler.current_owner]
                    self._deferred_slot_switch = True
                    self.stats.slot_switches_deferred += 1
                    self._window = _InterposeWindow(
                        trigger=event,
                        subscriber=partition,
                        budget_remaining=cap,
                        pseudo=True,
                    )
                    self._resume()
                    return
            self._slot_switch()
            return
        source = self._sources_by_line.get(line)
        if source is None:
            self.stats.spurious_irqs += 1
            self._resume()
            return
        self.stats.irqs_delivered += 1
        self._top_handler(source)

    # ------------------------------------------------------------------
    # Top handler (Fig. 4a / 4b)
    # ------------------------------------------------------------------

    def _top_handler(self, source: IrqSource) -> None:
        t0 = self.engine.now
        seq = self._irq_seq[source.name]
        self._irq_seq[source.name] = seq + 1
        if self.trace.enabled:
            self.trace.emit(t0, TraceKind.TOP_HANDLER_START,
                            source=source.name, seq=seq)
        event = IrqEvent(source=source, seq=seq, arrival=t0,
                         bh_remaining=source.actual_bottom_cycles(seq))
        c_th = source.top_handler_cycles
        host = self.scheduler.current_owner

        def th_body() -> None:
            self.cpu.charge_overhead(c_th)
            self._record_interference(t0, t0 + c_th, source,
                                      InterferenceKind.TOP_HANDLER)
            if source.on_top_handler is not None:
                source.on_top_handler(event)
            if source.throttle is not None and not source.throttle.admit(t0):
                # Source-level throttling (Regehr & Duongsaa baseline):
                # the request is suppressed before it becomes an event.
                self.stats.irqs_throttled += 1
                self.stats.top_handler_ends += 1
                if self.trace.enabled:
                    self.trace.emit(self.engine.now, TraceKind.TOP_HANDLER_END,
                                    source=source.name, seq=seq,
                                    mode="throttled")
                self._resume()
                return
            source.policy.observe_arrival(t0)
            subscriber = self._partitions[source.subscriber]
            subscriber.irq_queue.push(event)
            if event.bh_remaining == 0:
                # A zero-demand bottom handler has no partition-context
                # work to delay or interpose.  If it is the queue head
                # it completes within the top handler; otherwise it
                # completes when the dispatcher drains the queue to it
                # (FIFO).
                event.mode = (HandlingMode.DIRECT
                              if source.subscriber == host
                              else HandlingMode.DELAYED)
                if subscriber.irq_queue.head() is event:
                    self._complete_event(event, subscriber)
                self.stats.top_handler_ends += 1
                if self.trace.enabled:
                    self.trace.emit(self.engine.now, TraceKind.TOP_HANDLER_END,
                                    source=source.name, seq=seq, mode="empty")
                self._resume()
                return
            if source.subscriber == host:
                event.mode = HandlingMode.DIRECT
                self.stats.top_handler_ends += 1
                if self.trace.enabled:
                    self.trace.emit(self.engine.now, TraceKind.TOP_HANDLER_END,
                                    source=source.name, seq=seq, mode="direct")
                self._resume()
            else:
                self._foreign_decision(source, event, subscriber, t0, host)

        self._continue(c_th, th_body)

    def _foreign_decision(self, source: IrqSource, event: IrqEvent,
                          subscriber: Partition, t0: int, host: str) -> None:
        """Decide delayed vs. interposed handling for a foreign-slot IRQ."""
        if not source.policy.monitoring_cost_applies:
            self._decide_interpose(source, event, subscriber, t0)
            return
        c_mon = self.config.costs.monitor_cycles()
        self.stats.monitor_consultations += 1
        start = self.engine.now

        def after_monitor() -> None:
            self.cpu.charge_overhead(c_mon)
            self._record_interference(start, start + c_mon, source,
                                      InterferenceKind.MONITOR)
            self._decide_interpose(source, event, subscriber, t0)

        self._continue(c_mon, after_monitor)

    def _decide_interpose(self, source: IrqSource, event: IrqEvent,
                          subscriber: Partition, t0: int) -> None:
        structurally_possible = self._window is None
        allowed = structurally_possible and source.policy.request_interpose(t0)
        trace = self.trace
        if allowed:
            event.mode = HandlingMode.INTERPOSED
            self.stats.top_handler_ends += 1
            if trace.enabled:
                now = self.engine.now
                trace.emit(now, TraceKind.MONITOR_ACCEPT,
                           source=source.name, seq=event.seq)
                trace.emit(now, TraceKind.TOP_HANDLER_END,
                           source=source.name, seq=event.seq,
                           mode="interposed")
            self._begin_interpose(source, event, subscriber)
            return
        event.mode = HandlingMode.DELAYED
        tracing = trace.enabled
        if structurally_possible:
            self.stats.monitor_denies += 1
            if tracing:
                trace.emit(self.engine.now, TraceKind.MONITOR_DENY,
                           source=source.name, seq=event.seq)
        else:
            self.stats.structural_denials += 1
        self.stats.top_handler_ends += 1
        if tracing:
            trace.emit(self.engine.now, TraceKind.TOP_HANDLER_END,
                       source=source.name, seq=event.seq, mode="delayed")
        self._resume()

    # ------------------------------------------------------------------
    # Interposed bottom-handler windows (Section 5)
    # ------------------------------------------------------------------

    def _begin_interpose(self, source: IrqSource, event: IrqEvent,
                         subscriber: Partition) -> None:
        host = self.scheduler.current_owner
        window = _InterposeWindow(
            trigger=event,
            subscriber=subscriber,
            budget_remaining=source.bottom_handler_cycles,
        )
        c_sched = self.config.costs.scheduler_cycles()
        c_ctx = self.context_switches.switch(SwitchReason.INTERPOSE_ENTER)
        overhead = c_sched + c_ctx
        start = self.engine.now
        self.stats.windows_opened += 1
        if self.trace.enabled:
            self.trace.emit(start, TraceKind.INTERPOSE_START,
                            source=source.name, seq=event.seq,
                            subscriber=subscriber.name, host=host)
            self.trace.emit(start, TraceKind.CONTEXT_SWITCH,
                            reason=SwitchReason.INTERPOSE_ENTER.value)

        def entered() -> None:
            self.cpu.charge_overhead(overhead)
            self._record_interference(start, start + overhead, source,
                                      InterferenceKind.INTERPOSED_BH)
            self._window = window
            if self._assign_window_execution():
                self.intc.unmask_all()

        self._continue(overhead, entered)

    def _assign_window_execution(self) -> bool:
        """Run the subscriber's bottom-handler dispatcher, budget-capped.

        The window drains the subscriber's IRQ queue head-first (FIFO;
        older delayed events complete before the accepted one) until
        the queue is empty or the enforcement budget ``C_BH`` of the
        accepted activation is exhausted.  Caller must hold the
        interrupt mask.  Returns True when a bottom handler was
        assigned; the caller then releases the mask.  False means
        nothing was left to run and :meth:`_close_window` took the mask
        over (its exit or slot-switch chain releases it), so the caller
        must not unmask.
        """
        window = self._window
        assert window is not None
        head = window.subscriber.irq_queue.head()
        while head is not None and head.bh_remaining == 0:
            # Zero-demand events complete without occupying the window.
            self._complete_event(head, window.subscriber, in_window=True)
            head = window.subscriber.irq_queue.head()
        if head is None or window.budget_remaining <= 0:
            self._close_window()
            return False
        run_for = min(head.bh_remaining, window.budget_remaining)
        execution = Execution(
            label=f"bh-interposed:{head.source.name}#{head.seq}",
            remaining=run_for,
            on_complete=self._window_exec_done,
            category=window.subscriber.bh_category,
            owner=window,
        )
        window.active_event = head
        window.current_execution = execution
        self.stats.bottom_handler_starts += 1
        if self.trace.enabled:
            self.trace.emit(self.engine.now, TraceKind.BOTTOM_HANDLER_START,
                            source=head.source.name, seq=head.seq,
                            mode="home-deferred" if window.pseudo
                            else "interposed")
        self.cpu.assign(execution)
        return True

    def _window_exec_done(self) -> None:
        window = self._window
        assert window is not None and window.current_execution is not None
        self._reconcile(window.current_execution)
        event = window.active_event
        if event is None:
            # The bottom handler completed (recorded by _reconcile);
            # continue with the next queued event or close the window.
            self._assign_window_execution()
            return
        # Budget exhausted with work left: enforcement cuts the handler.
        event.enforced_cut = True
        self.stats.budget_exhausted += 1
        if self.trace.enabled:
            self.trace.emit(self.engine.now,
                            TraceKind.BOTTOM_HANDLER_BUDGET_EXHAUSTED,
                            source=event.source.name, seq=event.seq,
                            remaining=event.bh_remaining)
        self._close_window()

    def _close_window(self) -> None:
        """Switch back to the interrupted partition's context."""
        self.intc.mask_all()
        window = self._window
        assert window is not None
        if window.pseudo:
            # A deferred home bottom handler: no extra context switch —
            # the pending slot switch performs the one real switch.
            self._window = None
            if self._deferred_slot_switch:
                self._deferred_slot_switch = False
                self._slot_switch()
            else:
                self._dispatch(self._partitions[self.scheduler.current_owner])
                self.intc.unmask_all()
            return
        trigger = window.trigger
        c_ctx = self.context_switches.switch(SwitchReason.INTERPOSE_EXIT)
        start = self.engine.now
        if self.trace.enabled:
            self.trace.emit(start, TraceKind.CONTEXT_SWITCH,
                            reason=SwitchReason.INTERPOSE_EXIT.value)

        def exited() -> None:
            self.cpu.charge_overhead(c_ctx)
            self._record_interference(start, start + c_ctx,
                                      trigger.source,
                                      InterferenceKind.INTERPOSED_BH)
            self.stats.interpose_ends += 1
            if self.trace.enabled:
                self.trace.emit(self.engine.now, TraceKind.INTERPOSE_END,
                                source=trigger.source.name, seq=trigger.seq)
            self._window = None
            if self._deferred_slot_switch:
                self._deferred_slot_switch = False
                self._slot_switch()
                return
            self._dispatch(self._partitions[self.scheduler.current_owner])
            self.intc.unmask_all()

        self._continue(c_ctx, exited)

    # ------------------------------------------------------------------
    # TDMA slot switching
    # ------------------------------------------------------------------

    def _slot_switch(self) -> None:
        now = self.engine.now
        trace = self.trace
        tracing = trace.enabled
        previous = self.scheduler.current_owner
        slot = self.scheduler.advance(now)
        c_ctx = self.context_switches.switch(SwitchReason.SLOT)
        if tracing:
            trace.emit(now, TraceKind.SLOT_SWITCH,
                       previous=previous, next=slot.partition)
            trace.emit(now, TraceKind.CONTEXT_SWITCH,
                       reason=SwitchReason.SLOT.value)

        def switched() -> None:
            self.cpu.charge_overhead(c_ctx)
            partition = self._partitions[slot.partition]
            partition.slots_entered += 1
            if self._ipc_router is not None:
                self._ipc_router.on_slot_entered(partition, self.engine.now)
            self._schedule_boundary(self.scheduler.next_boundary())
            self._dispatch(partition)
            self.intc.unmask_all()

        self._continue(c_ctx, switched)

    def _raise_slot_line(self) -> None:
        self.intc.raise_line(SLOT_TIMER_LINE)

    def _schedule_boundary(self, boundary: int) -> None:
        at = max(boundary, self.engine.now)
        self._boundary_handle = self.engine.schedule_at(
            at, self._boundary_dispatch, label="tdma-boundary")

    # ------------------------------------------------------------------
    # Idle-skip engine (analytic fast-forward across quiescent gaps)
    # ------------------------------------------------------------------
    #
    # In an idle-dominated stretch the only scheduled work is the TDMA
    # boundary chain itself: raise slot line -> IRQ entry (mask, ack,
    # preempt the idle loop) -> slot switch -> switched (charge C_ctx,
    # re-arm the next boundary, dispatch idle) -> unmask.  Every step is
    # deterministic given the slot table, so instead of dispatching two
    # engine events per boundary the skip-aware entry below computes the
    # chain's *observable residue* — CPU accounting, scheduler position,
    # per-partition slot counts, context-switch/IRQ counters, trace
    # records — analytically for as many boundaries as fit before the
    # next semantic event, then moves the clock once.
    #
    # The contract is byte-identity: every trace record, latency column,
    # snapshot digest and CSV export is identical to the tick-by-tick
    # run, which tests get by rebinding ``_boundary_dispatch`` to
    # ``_raise_slot_line`` (``tick_by_tick`` in tests/conftest.py;
    # pinned by tests/test_idle_skip.py).  Whenever any part of the
    # world might make the chain non-deterministic — pending guest work,
    # queued IRQ events, a live interrupt line, an open interpose
    # window, an IPC router — the entry falls back to the ordinary
    # tick-by-tick raise.

    def _boundary_dispatch(self) -> None:
        """The ``tdma-boundary`` callback: skip the gap, or raise the line."""
        allowed, bound = self.engine.skip_window()
        if allowed and self._skip_quiescent() and self._fast_forward_gap(bound):
            return
        self._raise_slot_line()

    def _skip_quiescent(self) -> bool:
        """Is the boundary chain's outcome determined by the slot table?

        True only when nothing but the boundary chain itself can run:
        the CPU executes an unbounded anonymous loop (idle or background
        — no completion event, no owner to reconcile), no hypervisor
        chain or interpose window is in flight, the interrupt controller
        cannot deliver anything besides the (enabled) slot line, and no
        partition has queued IRQ events or ready guest work.  Future
        device raises come from scheduled engine events, which the skip
        horizon (``peek_next_time``) bounds separately.
        """
        execution = self.cpu.current
        if (execution is None or execution.remaining is not None
                or execution.on_complete is not None
                or execution.owner is not None):
            return False
        if self._window is not None or self._deferred_slot_switch:
            return False
        if self._ipc_router is not None:
            return False
        intc = self.intc
        if intc.masked or intc.can_deliver_before():
            return False
        if not intc.line_enabled(SLOT_TIMER_LINE):
            return False
        for partition in self._partitions.values():
            if len(partition.irq_queue):
                return False
            guest = partition.guest
            if guest is not None and guest.pick() is not None:
                return False
        return True

    def _fast_forward_gap(self, bound: Optional[int]) -> bool:
        """Fast-forward across quiescent boundaries; True if any elided.

        Called with the clock on a boundary whose ``tdma-boundary``
        event has just been popped.  Walks the chain analytically until
        the next pending engine event (exclusive — a co-timestamped
        event would dispatch before the elided continuation), the
        ``run_until`` bound (inclusive, like the real loop), or — with
        an otherwise empty queue — one TDMA cycle per invocation so an
        unbounded ``run()`` stays live exactly like the tick-by-tick
        chain it replaces.
        """
        engine = self.engine
        scheduler = self.scheduler
        cpu = self.cpu
        trace = self.trace
        c_ctx = self.context_switches.cost_cycles
        if c_ctx >= self._min_slot_cycles:
            # Degenerate cost model: the context switch swallows whole
            # slots, so boundaries arrive late and the scheduler's
            # catch-up path runs — not the on-grid chain modelled here.
            return False
        t_b = engine.now
        horizon = engine.peek_next_time()
        limit = bound
        if horizon is not None:
            strict = horizon - 1
            limit = strict if limit is None else min(limit, strict)
        if limit is None:
            limit = t_b + scheduler.cycle_length
        if t_b + c_ctx > limit:
            return False

        intc = self.intc
        line = SLOT_TIMER_LINE
        switches = self.context_switches
        partitions = self._partitions
        tracing = trace.enabled
        slow = tracing or cpu.segments is not None
        n_slots = len(scheduler.slots)
        cycle = scheduler.cycle_length
        boundaries = 0
        # The preempt of the first elided IRQ entry: charge the running
        # idle/background stint up to this boundary.
        cpu.skip_preempt(t_b)
        while True:
            if not slow:
                # Closed-form tier: with tracing and segment recording
                # off a whole TDMA cycle of boundaries reduces to table
                # aggregates.  m is chosen so the boundary we land on
                # can itself still be elided (t_b + c_ctx <= limit) —
                # the per-slot step below then owns the span exit and
                # the live final stint.
                m = (limit - c_ctx - t_b) // cycle
                if m >= 1:
                    consumed, entered = self._skip_cycle_totals(c_ctx)
                    cpu.skip_account(
                        {cat: m * cycles for cat, cycles in consumed.items()},
                        m * n_slots,
                    )
                    for name, count in entered.items():
                        partitions[name].slots_entered += m * count
                    switches.record_batch(SwitchReason.SLOT, m * n_slots)
                    intc.account_slot_deliveries(line, count=m * n_slots)
                    scheduler.jump_cycles(m)
                    boundaries += m * n_slots
                    t_b += m * cycle
            # Per-slot tier: one boundary's observable residue, emitted
            # with explicit timestamps (trace may be enabled here).
            previous = scheduler.current_owner
            intc.account_slot_deliveries(line, time=t_b)
            slot = scheduler.advance()
            switches.switch(SwitchReason.SLOT)
            if tracing:
                trace.emit(t_b, TraceKind.SLOT_SWITCH,
                           previous=previous, next=slot.partition)
                trace.emit(t_b, TraceKind.CONTEXT_SWITCH,
                           reason=SwitchReason.SLOT.value)
            t_s = t_b + c_ctx
            cpu.skip_overhead(c_ctx, t_s)
            partition = partitions[slot.partition]
            partition.slots_entered += 1
            boundaries += 1
            t_next = scheduler.next_boundary()
            if partition.busy_background:
                category = partition.task_category
                label = partition.background_label
            else:
                if tracing:
                    trace.emit(t_s, TraceKind.IDLE, partition=partition.name)
                category = label = partition.idle_category
            if t_next + c_ctx > limit:
                break
            cpu.skip_stint(category, label, t_s, t_next)
            t_b = t_next

        # Span exit: the last elided "switched" leaves a live stint on
        # the CPU (uncharged, exactly as the tick-by-tick run would) and
        # a real boundary event for the next gap entry.  A span of k
        # boundaries elides 2k - 1 events: k "switched" continuations
        # plus k - 1 re-raised boundaries (the span's first boundary was
        # the real event that got us here).  fast_forward() advances the
        # seq counter by that amount *before* the re-arm, so the next
        # boundary keeps its tick-by-tick (time, seq) identity.
        engine.fast_forward(t_s, 2 * boundaries - 1)
        self._schedule_boundary(t_next)
        cpu.assign(Execution(label=label, remaining=None, category=category))
        return True

    def _skip_cycle_totals(
            self, c_ctx: int) -> tuple[dict[str, int], dict[str, int]]:
        """Aggregate residue of one full TDMA cycle of elided boundaries.

        Returns ``(consumed, entered)``: cycles charged per CPU category
        (each slot's stint plus its ``C_ctx`` of hypervisor overhead)
        and slots entered per partition.  Recomputed per gap — it is a
        handful of dict updates, and ``busy_background`` is a mutable
        public attribute that must be honoured live.
        """
        consumed: dict[str, int] = {}
        entered: dict[str, int] = {}
        overhead = 0
        for slot in self.scheduler.slots:
            partition = self._partitions[slot.partition]
            if partition.busy_background:
                category = partition.task_category
            else:
                category = partition.idle_category
            consumed[category] = (
                consumed.get(category, 0) + slot.length_cycles - c_ctx
            )
            entered[partition.name] = entered.get(partition.name, 0) + 1
            overhead += c_ctx
        consumed["hypervisor"] = consumed.get("hypervisor", 0) + overhead
        return consumed, entered

    # ------------------------------------------------------------------
    # Partition dispatch (the partition-context dispatcher of Fig. 2)
    # ------------------------------------------------------------------

    def _dispatch(self, partition: Partition) -> None:
        """Pick what the partition runs now (CPU must be free).

        Pending IRQ events take priority over regular processing
        (Fig. 2: the partition calls the bottom handler for pending
        IRQs before resuming from the last interruption point).
        """
        head = partition.irq_queue.head()
        while head is not None and head.bh_remaining == 0:
            # Zero-demand events complete without occupying the CPU.
            self._complete_event(head, partition)
            head = partition.irq_queue.head()
        if head is not None:
            self._start_home_bottom_handler(partition, head)
            return
        job = partition.guest.pick() if partition.guest is not None else None
        if job is not None:
            self._start_guest_job(partition, job)
            return
        if partition.busy_background:
            self.cpu.assign(Execution(
                label=partition.background_label,
                remaining=None,
                category=partition.task_category,
            ))
            return
        if self.trace.enabled:
            self.trace.emit(self.engine.now, TraceKind.IDLE,
                            partition=partition.name)
        self.cpu.assign(Execution(
            label=partition.idle_category,
            remaining=None,
            category=partition.idle_category,
        ))

    def _start_home_bottom_handler(self, partition: Partition,
                                   event: IrqEvent) -> None:
        self.stats.bottom_handler_starts += 1
        if self.trace.enabled:
            self.trace.emit(self.engine.now, TraceKind.BOTTOM_HANDLER_START,
                            source=event.source.name, seq=event.seq,
                            mode="home")
        execution = Execution(
            label=f"bh:{event.source.name}#{event.seq}",
            remaining=event.bh_remaining,
            on_complete=lambda: self._home_bh_done(partition, event),
            category=partition.bh_category,
            owner=event,
        )
        self.cpu.assign(execution)

    def _home_bh_done(self, partition: Partition, event: IrqEvent) -> None:
        event.bh_remaining = 0
        self._complete_event(event, partition)
        self._dispatch(partition)

    def _start_guest_job(self, partition: Partition, job: GuestJob) -> None:
        if job.first_start is None:
            job.first_start = self.engine.now
            if self.trace.enabled:
                self.trace.emit(self.engine.now, TraceKind.TASK_START,
                                partition=partition.name, task=job.task.name,
                                seq=job.seq)
        on_complete = None
        if job.remaining is not None:
            on_complete = lambda: self._guest_job_done(partition, job)
        execution = Execution(
            label=f"job:{job.task.name}#{job.seq}",
            remaining=job.remaining,
            on_complete=on_complete,
            category=partition.task_category,
            owner=job,
        )
        self.cpu.assign(execution)

    def _guest_job_done(self, partition: Partition, job: GuestJob) -> None:
        job.remaining = 0
        now = self.engine.now
        partition.guest.job_finished(job, now)
        trace = self.trace
        if trace.enabled:
            trace.emit(now, TraceKind.TASK_END, partition=partition.name,
                       task=job.task.name, seq=job.seq)
            if job.missed_deadline:
                trace.emit(now, TraceKind.DEADLINE_MISS,
                           partition=partition.name, task=job.task.name,
                           seq=job.seq,
                           overrun=now - job.absolute_deadline)
        self._dispatch(partition)

    def _notify_work(self, partition_name: str) -> None:
        """A guest job became ready; preempt lower-priority work if the
        partition is currently executing."""
        current = self.cpu.current
        if current is None or self._window is not None:
            return
        if self.scheduler.current_owner != partition_name:
            return
        partition = self._partitions[partition_name]
        owner = current.owner
        if isinstance(owner, IrqEvent) or isinstance(owner, _InterposeWindow):
            return  # bottom handlers outrank guest tasks
        best = partition.guest.pick() if partition.guest is not None else None
        if best is None:
            return
        if isinstance(owner, GuestJob):
            if (best.task.priority, best.seq) >= (owner.task.priority, owner.seq):
                return
        elif not current.category.startswith(("task:", "idle:")):
            return
        preempted = self.cpu.preempt()
        if preempted is not None:
            self._reconcile(preempted)
        self._dispatch(partition)

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------

    def _resume(self) -> None:
        """Return from hypervisor context to the interrupted activity."""
        if self._window is not None:
            if not self._assign_window_execution():
                return      # the window closed and holds the mask
        else:
            self._dispatch(self._partitions[self.scheduler.current_owner])
        self.intc.unmask_all()

    def _continue(self, delay: int, continuation: Callable[[], None]) -> None:
        """Run a masked section's next step ``delay`` cycles from now.

        When the engine says the step would be the next event
        dispatched (:meth:`SimulationEngine.inline_continuation`), it
        runs here, with the clock already moved, instead of going
        through the queue.  The five callers are the steps of a masked
        hypervisor section (``th_body``, ``after_monitor``,
        ``entered``, ``exited`` and ``switched``), and each reaches
        this call as the last work of its engine event, with one
        exception: an IRQ chain starts under the delivery loop of
        ``InterruptController._maybe_deliver``, which runs on after
        the chain returns.  When an inlined step unmasks, the nested
        ``unmask_all`` returns at once (the loop is ``_dispatching``),
        so the outer loop's livelock check and its delivery of further
        pending lines run in this frame, at the time a dispatched
        step's ``unmask_all`` would have delivered them.  A caller
        that does work after ``raise_line``, ``unmask_all``,
        ``_close_window`` or ``_slot_switch`` breaks inlining.  CPU
        completions stay dispatched, because ``assign`` callers unmask
        after it returns, and so do device timers, whose owners keep a
        cancellable handle.
        """
        if self.engine.inline_continuation(delay):
            continuation()
        else:
            self.engine.schedule(delay, continuation)

    def _reconcile(self, execution: Execution) -> None:
        """Propagate consumed cycles from a stopped execution to its owner."""
        owner = execution.owner
        if isinstance(owner, _InterposeWindow):
            consumed = execution.executed
            event = owner.active_event
            assert event is not None
            event.bh_remaining -= consumed
            owner.budget_remaining -= consumed
            if consumed > 0 and not owner.pseudo:
                now = self.engine.now
                self._record_interference(now - consumed, now, event.source,
                                          InterferenceKind.INTERPOSED_BH)
            owner.current_execution = None
            if event.bh_remaining == 0:
                # Preempted at the exact completion instant: the bottom
                # handler is done, record it now.
                self._complete_event(event, owner.subscriber, in_window=True)
                owner.active_event = None
        elif isinstance(owner, IrqEvent):
            if execution.remaining is not None:
                owner.bh_remaining = execution.remaining
            if owner.bh_remaining == 0:
                self._complete_event(
                    owner, self._partitions[owner.source.subscriber]
                )
        elif isinstance(owner, GuestJob):
            owner.remaining = execution.remaining

    def _complete_event(self, event: IrqEvent, partition: Partition,
                        in_window: bool = False) -> None:
        head = partition.irq_queue.pop()
        if head is not event:
            raise AssertionError(
                f"FIFO violation: completed {event!r} but queue head was {head!r}"
            )
        now = self.engine.now
        event.completed_at = now
        partition.bottom_handlers_completed += 1
        # Classify the IRQ by where its bottom handler completed.  The
        # Fig. 6 histograms cluster IRQs by their effective handling
        # path: *interposed* if the bottom handler finished inside a
        # foreign-slot window (regardless of which arrival triggered
        # the window), *direct* if it arrived during the subscriber's
        # own slot and completed there, and *delayed* otherwise
        # (including interposed executions that enforcement cut short).
        window = self._window
        if in_window and window is not None and not window.pseudo:
            code = _INTERPOSED
        elif event.mode is HandlingMode.DIRECT:
            code = _DIRECT
        else:
            code = _DELAYED
        mode = _MODES[code]
        event.mode = mode
        source = event.source
        source_name = source.name
        if self.trace.enabled:
            self.trace.emit(now, TraceKind.BOTTOM_HANDLER_END,
                            source=source_name, seq=event.seq,
                            mode=mode.value, latency=event.latency)
        self.latency_columns.append_code(source_name, event.seq,
                                         event.arrival, now, code,
                                         event.enforced_cut)
        watcher = self._completion_watcher
        if watcher is not None:
            watcher(source_name)
        if source.activates_task is not None:
            if partition.guest is None:
                raise RuntimeError(
                    f"IRQ source {source_name!r} activates task "
                    f"{source.activates_task!r} but partition "
                    f"{partition.name!r} has no guest kernel"
                )
            partition.guest.release_task(source.activates_task)

    def _record_interference(self, start: int, end: int,
                             source: IrqSource, kind: InterferenceKind) -> None:
        """Record foreign activity against the *nominal* slot owners.

        The victim of an interval is whoever is entitled to the CPU on
        the fixed TDMA grid at that moment (intervals spanning a
        nominal boundary — e.g. a deferred slot switch — are split).
        Activity that lands in the subscriber's own nominal slot is not
        interference and is not recorded.
        """
        if end <= start:
            return
        nominal_slot_at = self.scheduler.nominal_slot_at
        subscriber = source.subscriber
        position = start
        while True:
            owner, _, slot_end = nominal_slot_at(position)
            piece_end = end if end <= slot_end else slot_end
            if owner != subscriber:
                self.ledger.record(position, piece_end, victim=owner,
                                   source=source.name, kind=kind)
            if piece_end == end:
                return
            position = piece_end

    # ------------------------------------------------------------------
    # Snapshot/fork support (see repro.sim.snapshot)
    # ------------------------------------------------------------------

    #: World parts in capture order; each has a builder below.
    SNAPSHOT_PARTS = (
        "config", "slots", "engine", "scheduler", "intc", "trace",
        "context_switches", "ledger", "stats", "latency_records",
        "irq_seq", "partitions", "sources", "boundary", "cpu",
    )

    def snapshot_check(self) -> None:
        """Raise :class:`SnapshotError` unless the world is quiescent.

        A snapshot is only well-defined with no hypervisor event chain
        in flight (interrupts unmasked), no interpose window open, no
        deferred slot switch, no watcher, and no guests/IPC attached.
        """
        if not self._started:
            raise SnapshotError("hypervisor not started; nothing to fork")
        if self._window is not None:
            raise SnapshotError("interpose window open")
        if self._deferred_slot_switch:
            raise SnapshotError("slot switch deferred, boundary in flight")
        if self._completion_watcher is not None:
            raise SnapshotError("run_until_irq_count watcher installed")
        if self._ipc_router is not None:
            raise SnapshotError("IPC router attached (not snapshot-capable)")
        if self.intc.masked:
            raise SnapshotError("interrupts masked (hypervisor chain in flight)")

    def snapshot_state(self, ctx) -> dict:
        """Capture the complete hypervisor system as plain data.

        Only valid at a quiescent point (see :meth:`snapshot_check`).
        Components that cannot be reconstructed raise
        :class:`SnapshotError`, which :func:`repro.sim.snapshot.settle`
        uses to step the world to the next capturable instant.
        """
        self.snapshot_check()
        builders = self._SNAPSHOT_BUILDERS
        return {name: builders[name](self, ctx)
                for name in self.SNAPSHOT_PARTS}

    _SNAPSHOT_BUILDERS: dict = {
        "config": lambda self, ctx: asdict(self.config),
        "slots": lambda self, ctx: [
            (slot.partition, slot.length_cycles)
            for slot in self.scheduler.slots
        ],
        "engine": lambda self, ctx: self.engine.snapshot_state(),
        "scheduler": lambda self, ctx: self.scheduler.snapshot_state(),
        "intc": lambda self, ctx: self.intc.snapshot_state(),
        "trace": lambda self, ctx: self.trace.snapshot_state(),
        "context_switches":
            lambda self, ctx: self.context_switches.snapshot_state(),
        "ledger": lambda self, ctx: self.ledger.snapshot_state(),
        "stats": lambda self, ctx: asdict(self.stats),
        "latency_records":
            lambda self, ctx: self.latency_columns.record_tuples(),
        "irq_seq": lambda self, ctx: dict(self._irq_seq),
        "partitions": lambda self, ctx: [
            partition.snapshot_state()
            for partition in self._partitions.values()
        ],
        "sources": lambda self, ctx: [
            self._snapshot_source(source, ctx)
            for source in self._sources.values()
        ],
        "boundary": lambda self, ctx: ctx.claim(self._boundary_handle),
        "cpu": lambda self, ctx: self.cpu.snapshot_state(
            ctx, self._describe_execution_owner),
    }

    def _snapshot_source(self, source: IrqSource, ctx) -> dict:
        if source.bottom_handler_actual is not None:
            raise SnapshotError(
                f"IRQ source {source.name!r} has a bottom_handler_actual "
                "callable (not snapshot-reconstructible)"
            )
        if source.activates_task is not None:
            raise SnapshotError(
                f"IRQ source {source.name!r} activates a guest task "
                "(not snapshot-capable)"
            )
        hook = None
        if source.on_top_handler is not None:
            hook = ctx.device_method_spec(source.on_top_handler)
            if hook is None:
                raise SnapshotError(
                    f"IRQ source {source.name!r} has an on_top_handler that "
                    "is not a bound method of a registered device"
                )
        throttle = None
        if source.throttle is not None:
            throttle = {
                "class": class_path(type(source.throttle)),
                "state": source.throttle.snapshot_state(),
            }
        return {
            "name": source.name,
            "line": source.line,
            "subscriber": source.subscriber,
            "top_handler_cycles": source.top_handler_cycles,
            "bottom_handler_cycles": source.bottom_handler_cycles,
            "policy": {
                "class": class_path(type(source.policy)),
                "state": source.policy.snapshot_state(),
            },
            "throttle": throttle,
            "hook": hook,
        }

    def _describe_execution_owner(self, execution: Execution) -> Optional[dict]:
        """Plain-data spec of the CPU execution's owner (or raise)."""
        owner = execution.owner
        if owner is None:
            if execution.on_complete is not None:
                raise SnapshotError(
                    f"execution {execution.label!r} has a completion callback "
                    "but no reconstructible owner"
                )
            return None
        if isinstance(owner, IrqEvent):
            partition = self._partitions[owner.source.subscriber]
            if partition.irq_queue.head() is not owner:
                raise SnapshotError(
                    f"execution {execution.label!r} runs an IRQ event that "
                    "is not its queue head (cannot re-bind on restore)"
                )
            return {"kind": "irq-event", "partition": partition.name}
        raise SnapshotError(
            f"execution {execution.label!r} owner {owner!r} is not "
            "snapshot-reconstructible"
        )

    def _resolve_execution_owner(self, spec: Optional[dict]):
        """Inverse of :meth:`_describe_execution_owner`."""
        if spec is None:
            return None, None
        if spec["kind"] == "irq-event":
            partition = self._partitions[spec["partition"]]
            event = partition.irq_queue.head()
            if event is None:
                raise SnapshotError(
                    f"snapshot references the IRQ-queue head of "
                    f"{spec['partition']!r} but the restored queue is empty"
                )
            return event, (lambda: self._home_bh_done(partition, event))
        raise SnapshotError(f"unknown execution owner spec {spec!r}")

    @classmethod
    def restore_from_snapshot(cls, state: dict) -> "Hypervisor":
        """Fork an independent hypervisor system from a snapshot.

        Restore order matters: the engine's counters come first (fresh
        engine precondition), partitions before sources (subscriber
        validation), sources before IRQ queues (events reference
        sources), and the CPU last (its owner spec may reference a
        restored queue head).  Device hooks (``on_top_handler``) are
        re-bound afterwards by :func:`repro.sim.snapshot.restore_world`
        via :meth:`rebind_hooks`.
        """
        config_state = dict(state["config"])
        config_state["costs"] = CostModel(**config_state["costs"])
        config = HypervisorConfig(**config_state)
        slots = [
            SlotConfig(partition, length)
            for partition, length in state["slots"]
        ]
        hv = cls(slots, config)
        hv.engine.restore_state(state["engine"])
        hv.scheduler.restore_state(state["scheduler"])
        hv.intc.restore_state(state["intc"])
        hv.trace.restore_state(state["trace"])
        hv.context_switches.restore_state(state["context_switches"])
        hv.ledger.restore_state(state["ledger"])
        hv.stats = HypervisorStats(**state["stats"])
        hv.latency_columns.restore_tuples(state["latency_records"])
        for pstate in state["partitions"]:
            hv.add_partition(Partition.restore_from_snapshot(pstate))
        for sstate in state["sources"]:
            policy_cls = resolve_class(sstate["policy"]["class"])
            policy = policy_cls.restore_from_snapshot(sstate["policy"]["state"])
            throttle = None
            if sstate["throttle"] is not None:
                throttle_cls = resolve_class(sstate["throttle"]["class"])
                throttle = throttle_cls.restore_from_snapshot(
                    sstate["throttle"]["state"]
                )
            hv.add_irq_source(IrqSource(
                name=sstate["name"],
                line=sstate["line"],
                subscriber=sstate["subscriber"],
                top_handler_cycles=sstate["top_handler_cycles"],
                bottom_handler_cycles=sstate["bottom_handler_cycles"],
                policy=policy,
                throttle=throttle,
            ))
        hv._irq_seq = dict(state["irq_seq"])
        for pstate in state["partitions"]:
            hv._partitions[pstate["name"]].irq_queue.restore_state(
                pstate["queue"], hv._sources
            )
        time, seq = state["boundary"]
        hv._boundary_handle = hv.engine.restore_event(
            time, seq, hv._boundary_dispatch, label="tdma-boundary"
        )
        hv.cpu.restore_state(state["cpu"], hv._resolve_execution_owner)
        hv._started = True
        return hv

    def rebind_hooks(self, state: dict, devices: dict[str, Any]) -> None:
        """Re-attach device hooks recorded as ``{device, method}`` specs."""
        for sstate in state["sources"]:
            hook = sstate["hook"]
            if hook is None:
                continue
            device = devices[hook["device"]]
            self._sources[sstate["name"]].on_top_handler = getattr(
                device, hook["method"]
            )

    def __repr__(self) -> str:
        return (
            f"Hypervisor(partitions={list(self._partitions)}, "
            f"t={self.engine.now}, irqs={self.stats.irqs_delivered})"
        )
