"""Single-core CPU execution model.

The CPU runs at most one :class:`Execution` at a time.  An execution is
a preemptible piece of work with a (possibly unbounded) cycle budget;
the hypervisor assigns executions for guest tasks, bottom handlers and
the idle loop, and preempts them when interrupts or slot boundaries
arrive.  Hypervisor code itself (top handlers, scheduler, context
switches) runs with interrupts masked and is modelled as timed event
chains rather than executions, mirroring a real microkernel's
non-preemptible sections.

Accounting invariant: every consumed cycle is charged to exactly one
execution, and the per-category totals plus hypervisor overhead cycles
always sum to elapsed simulation time.  Tests rely on this.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import SimulationEngine
from repro.sim.events import EventHandle


class Execution:
    """A preemptible unit of work.

    Parameters
    ----------
    label:
        Human-readable name used in traces.
    remaining:
        Cycle budget; ``None`` means unbounded (idle loops, background
        tasks that never finish).
    on_complete:
        Callback fired when the budget reaches zero while on the CPU.
    category:
        Accounting bucket (e.g. ``"partition:P1"``, ``"bh:P2"``,
        ``"idle"``) used for utilization statistics.
    owner:
        Arbitrary back-reference for the component that created this
        execution (partition, guest job, interpose window, ...).
    """

    __slots__ = ("label", "remaining", "on_complete", "category", "owner", "executed")

    def __init__(self, label: str, remaining: Optional[int],
                 on_complete: Optional[Callable[[], None]] = None,
                 category: str = "other", owner: Any = None):
        if remaining is not None and remaining < 0:
            raise ValueError(f"execution budget must be >= 0, got {remaining}")
        self.label = label
        self.remaining = remaining
        self.on_complete = on_complete
        self.category = category
        self.owner = owner
        self.executed = 0

    def __repr__(self) -> str:
        budget = "inf" if self.remaining is None else str(self.remaining)
        return f"Execution({self.label}, remaining={budget}, executed={self.executed})"


class CpuBusyError(RuntimeError):
    """Raised when assigning work to a CPU that is already running."""


class CpuSegment:
    """One contiguous stint of CPU occupancy (for timeline rendering)."""

    __slots__ = ("start", "end", "category", "label")

    def __init__(self, start: int, end: int, category: str, label: str):
        self.start = start
        self.end = end
        self.category = category
        self.label = label

    @property
    def duration(self) -> int:
        return self.end - self.start

    def __repr__(self) -> str:
        return f"CpuSegment({self.start}..{self.end}, {self.category}, {self.label})"


class Cpu:
    """A single core executing one :class:`Execution` at a time.

    With ``record_segments=True`` every charged stint (execution or
    hypervisor overhead) is appended to :attr:`segments`, enabling
    Gantt-style timeline rendering (see :mod:`repro.metrics.timeline`).
    """

    def __init__(self, engine: SimulationEngine, record_segments: bool = False):
        self._engine = engine
        self._current: Optional[Execution] = None
        self._started_at: int = 0
        self._completion: Optional[EventHandle] = None
        self._consumed_by_category: dict[str, int] = {}
        self._preemptions: int = 0
        self.segments: Optional[list[CpuSegment]] = (
            [] if record_segments else None
        )

    @property
    def preemptions(self) -> int:
        """Number of executions stopped before completing their budget."""
        return self._preemptions

    @property
    def current(self) -> Optional[Execution]:
        """The execution currently on the CPU, if any."""
        return self._current

    @property
    def busy(self) -> bool:
        return self._current is not None

    def assign(self, execution: Execution) -> None:
        """Start (or resume) running ``execution``.

        The CPU must be free; callers preempt the current execution
        first.  A bounded execution completes after ``remaining``
        cycles unless preempted earlier.
        """
        if self._current is not None:
            raise CpuBusyError(
                f"CPU busy with {self._current.label}; preempt before assigning "
                f"{execution.label}"
            )
        if execution.remaining == 0:
            # Zero-budget work completes immediately without occupying
            # the CPU; this keeps degenerate configurations (C_BH = 0)
            # well-defined.
            if execution.on_complete is not None:
                execution.on_complete()
            return
        self._current = execution
        engine = self._engine
        self._started_at = engine.now
        if execution.remaining is not None:
            self._completion = engine.schedule(
                execution.remaining, self._complete, label=f"complete-{execution.label}"
            )
        else:
            self._completion = None

    def preempt(self) -> Optional[Execution]:
        """Stop the current execution, charging elapsed cycles to it.

        Returns the preempted execution (with its ``remaining`` budget
        reduced) or ``None`` if the CPU was idle.
        """
        if self._current is None:
            return None
        execution = self._current
        self._charge(execution)
        if self._completion is not None:
            self._completion.cancel()
        self._current = None
        self._completion = None
        self._preemptions += 1
        return execution

    def charge_overhead(self, cycles: int, category: str = "hypervisor") -> None:
        """Account cycles consumed by non-execution (hypervisor) code.

        The CPU must be free: hypervisor chains run between preempt()
        and the next assign().
        """
        if cycles < 0:
            raise ValueError(f"overhead must be >= 0, got {cycles}")
        if self._current is not None:
            raise CpuBusyError("cannot charge overhead while an execution is running")
        self._bump(category, cycles)
        if self.segments is not None and cycles > 0:
            now = self._engine.now
            self.segments.append(
                CpuSegment(now - cycles, now, category, category)
            )

    # ------------------------------------------------------------------
    # Idle-skip support (see Hypervisor._boundary_dispatch)
    #
    # The fast-forward reproduces each elided preempt/overhead/stint
    # with an *explicit* clock — the engine clock only moves once, at
    # the end of the span — so these mirror preempt()/charge_overhead()
    # /_charge() exactly, timestamp by timestamp.
    # ------------------------------------------------------------------

    def skip_preempt(self, now: int) -> Optional[Execution]:
        """:meth:`preempt` as it would have run with the clock at ``now``.

        Only valid for an unbounded execution (no completion event to
        cancel) — the idle-skip quiescence predicate guarantees that.
        """
        if self._current is None:
            return None
        execution = self._current
        assert self._completion is None, "skip_preempt on a bounded execution"
        elapsed = now - self._started_at
        if elapsed:
            execution.executed += elapsed
            self._bump(execution.category, elapsed)
            if self.segments is not None:
                self.segments.append(CpuSegment(
                    self._started_at, now, execution.category, execution.label
                ))
        self._current = None
        self._preemptions += 1
        return execution

    def skip_overhead(self, cycles: int, end: int,
                      category: str = "hypervisor") -> None:
        """:meth:`charge_overhead` as of clock ``end`` (CPU must be free)."""
        if self._current is not None:
            raise CpuBusyError("cannot charge overhead while an execution is running")
        self._bump(category, cycles)
        if self.segments is not None and cycles > 0:
            self.segments.append(CpuSegment(end - cycles, end, category, category))

    def skip_stint(self, category: str, label: str, start: int, end: int) -> None:
        """One whole elided execution stint: assign at ``start``, run to
        ``end``, preempt — collapsed into its accounting residue."""
        elapsed = end - start
        if elapsed:
            self._bump(category, elapsed)
            if self.segments is not None:
                self.segments.append(CpuSegment(start, end, category, label))
        self._preemptions += 1

    def skip_account(self, consumed: "dict[str, int]", preemptions: int) -> None:
        """Bulk residue of many elided stints (closed-form tier; only
        used with segment recording off)."""
        for category, cycles in consumed.items():
            self._bump(category, cycles)
        self._preemptions += preemptions

    def consumed(self, category: str) -> int:
        """Total cycles charged to an accounting category."""
        return self._consumed_by_category.get(category, 0)

    @property
    def consumed_by_category(self) -> dict[str, int]:
        """Copy of the full accounting table."""
        return dict(self._consumed_by_category)

    def total_consumed(self) -> int:
        """Sum of all charged cycles (executions + overhead)."""
        return sum(self._consumed_by_category.values())

    # ------------------------------------------------------------------
    # Snapshot/fork support (see repro.sim.snapshot)
    # ------------------------------------------------------------------

    def snapshot_state(self, ctx, describe_owner) -> dict:
        """Capture plain-data CPU state; claims the completion event.

        ``describe_owner(execution)`` is supplied by the layer that
        created the execution (the hypervisor): it returns a plain-data
        spec of the execution's owner — or raises if the execution is
        not reconstructible — because owner semantics live above the
        CPU model.
        """
        current = None
        if self._current is not None:
            execution = self._current
            completion = None
            if self._completion is not None:
                completion = ctx.claim(self._completion)
            current = {
                "label": execution.label,
                "category": execution.category,
                "remaining": execution.remaining,
                "executed": execution.executed,
                "owner": describe_owner(execution),
                "started_at": self._started_at,
                "completion": completion,
            }
        return {
            "current": current,
            "consumed": dict(self._consumed_by_category),
            "preemptions": self._preemptions,
            "segments": (None if self.segments is None else
                         [(s.start, s.end, s.category, s.label)
                          for s in self.segments]),
        }

    def restore_state(self, state: dict, resolve_owner) -> None:
        """Rebuild CPU state on a fresh CPU bound to a restored engine.

        ``resolve_owner(spec)`` inverts ``describe_owner``: it returns
        ``(owner, on_complete)`` for the plain-data owner spec.
        """
        self._consumed_by_category = dict(state["consumed"])
        self._preemptions = state["preemptions"]
        if state["segments"] is not None:
            self.segments = [CpuSegment(*entry) for entry in state["segments"]]
        current = state["current"]
        if current is not None:
            owner, on_complete = resolve_owner(current["owner"])
            execution = Execution(current["label"], current["remaining"],
                                  on_complete, current["category"], owner)
            execution.executed = current["executed"]
            self._current = execution
            self._started_at = current["started_at"]
            if current["completion"] is not None:
                time, seq = current["completion"]
                self._completion = self._engine.restore_event(
                    time, seq, self._complete,
                    label=f"complete-{execution.label}",
                )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _charge(self, execution: Execution) -> None:
        now = self._engine.now
        started_at = self._started_at
        elapsed = now - started_at
        if elapsed == 0:
            return
        execution.executed += elapsed
        remaining = execution.remaining
        if remaining is not None:
            if elapsed > remaining:
                raise RuntimeError(
                    f"{execution.label} charged {elapsed} cycles with only "
                    f"{remaining} remaining (engine bug)"
                )
            execution.remaining = remaining - elapsed
        self._bump(execution.category, elapsed)
        if self.segments is not None:
            self.segments.append(CpuSegment(
                started_at, now, execution.category, execution.label,
            ))
        self._started_at = now

    def _bump(self, category: str, cycles: int) -> None:
        self._consumed_by_category[category] = (
            self._consumed_by_category.get(category, 0) + cycles
        )

    def _complete(self) -> None:
        execution = self._current
        assert execution is not None, "completion fired on idle CPU"
        self._charge(execution)
        assert execution.remaining == 0, "completion fired early"
        self._current = None
        self._completion = None
        if execution.on_complete is not None:
            execution.on_complete()

    def __repr__(self) -> str:
        running = self._current.label if self._current else "idle"
        return f"Cpu(running={running})"
