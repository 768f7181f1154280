"""Simulated interrupt controller (VIC-style).

Models the essential behaviour the paper relies on:

* IRQ lines are *latched*: raising a line sets a pending flag; the flag
  is not a counter, so raising an already-pending line coalesces the
  two requests (paper, Section 4: "in most cases IRQ flags are not
  counting").
* While the CPU masks interrupts (hypervisor context: top handler,
  scheduler manipulation, context switches) pending lines are held and
  delivered once interrupts are unmasked again.
* Lower line numbers have higher priority; the hypervisor's TDMA slot
  timer conventionally uses line 0.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import SimulationEngine
from repro.sim.trace import TraceKind, TraceRecorder


class InterruptController:
    """Latching, maskable interrupt controller with fixed line priorities.

    The *dispatcher* is the CPU-side IRQ entry point (installed by the
    hypervisor).  The controller calls it with the line number whenever
    an unmasked pending line should be serviced.  The dispatcher is
    expected to acknowledge the line via :meth:`acknowledge` from its
    top handler.
    """

    def __init__(self, engine: SimulationEngine, num_lines: int = 32,
                 trace: Optional[TraceRecorder] = None):
        if num_lines <= 0:
            raise ValueError(f"need at least one IRQ line, got {num_lines}")
        self._engine = engine
        self._trace = trace
        self._num_lines = num_lines
        self._pending = [False] * num_lines
        self._enabled = [True] * num_lines
        self._globally_masked = False
        self._dispatcher: Optional[Callable[[int], None]] = None
        self._dispatching = False
        self._raise_counts = [0] * num_lines
        self._coalesced_counts = [0] * num_lines
        self._delivered_counts = [0] * num_lines
        # Exact count of lines that are pending AND enabled.  The
        # delivery path runs on every unmask — almost always with
        # nothing pending — so the counter turns the common case into
        # an integer compare instead of a scan over all lines.
        self._live = 0

    @property
    def num_lines(self) -> int:
        return self._num_lines

    def set_dispatcher(self,
                       dispatcher: Optional[Callable[[int], None]]) -> None:
        """Install the CPU IRQ entry point (``None`` delivers nothing)."""
        self._dispatcher = dispatcher

    # ------------------------------------------------------------------
    # Line-side interface (devices)
    # ------------------------------------------------------------------

    def raise_line(self, line: int) -> None:
        """Assert an IRQ line.

        If the line is already pending the request is coalesced (the
        flag is not a counter).  Delivery happens immediately when the
        CPU is unmasked, otherwise when interrupts are next enabled.
        """
        self._check_line(line)
        self._raise_counts[line] += 1
        trace = self._trace
        if self._pending[line]:
            self._coalesced_counts[line] += 1
            if trace is not None and trace.enabled:
                trace.emit(self._engine.now, TraceKind.IRQ_COALESCED, line=line)
            return
        self._pending[line] = True
        if self._enabled[line]:
            self._live += 1
        if trace is not None and trace.enabled:
            trace.emit(self._engine.now, TraceKind.IRQ_RAISED, line=line)
        self._maybe_deliver()

    # ------------------------------------------------------------------
    # CPU-side interface
    # ------------------------------------------------------------------

    def mask_all(self) -> None:
        """Disable interrupt delivery (hypervisor context entry)."""
        self._globally_masked = True

    def unmask_all(self) -> None:
        """Re-enable interrupt delivery and deliver any pending lines."""
        self._globally_masked = False
        if self._live:
            self._maybe_deliver()

    @property
    def masked(self) -> bool:
        return self._globally_masked

    def enable_line(self, line: int) -> None:
        """Enable a specific line (delivers if it was pending)."""
        self._check_line(line)
        if not self._enabled[line]:
            self._enabled[line] = True
            if self._pending[line]:
                self._live += 1
        self._maybe_deliver()

    def disable_line(self, line: int) -> None:
        """Disable a specific line; raises on it stay latched."""
        self._check_line(line)
        if self._enabled[line]:
            self._enabled[line] = False
            if self._pending[line]:
                self._live -= 1

    def acknowledge(self, line: int) -> None:
        """Clear the pending flag for a line (done by the top handler)."""
        self._check_line(line)
        if self._pending[line]:
            self._pending[line] = False
            if self._enabled[line]:
                self._live -= 1

    def is_pending(self, line: int) -> bool:
        self._check_line(line)
        return self._pending[line]

    def line_enabled(self, line: int) -> bool:
        self._check_line(line)
        return self._enabled[line]

    # ------------------------------------------------------------------
    # Idle-skip support (see Hypervisor._boundary_dispatch)
    # ------------------------------------------------------------------

    def can_deliver_before(self, time: Optional[int] = None) -> bool:
        """Whether an IRQ delivery can occur before ``time`` without any
        further engine event.

        Lines are *latched*: a live (pending AND enabled) line delivers
        at the next unmask, i.e. immediately on the idle-skip
        predicate's terms, while any *future* raise originates from a
        scheduled engine event — which the skip horizon
        (``engine.peek_next_time()``) already bounds.  The answer is
        therefore independent of ``time``; the parameter documents the
        question being asked.
        """
        return self._live > 0

    def account_slot_deliveries(self, line: int, count: int = 1,
                                time: Optional[int] = None) -> None:
        """Account ``count`` raise+deliver pairs applied analytically.

        The idle-skip fast-forward elides the per-boundary
        raise → acknowledge → deliver chain of the slot-timer line;
        this replays its observable residue (the raise and delivery
        counters — the pending flag and mask toggles cancel out) so
        controller state stays byte-identical to the tick-by-tick run.
        With ``time`` given, the IRQ_RAISED trace record of one raise
        is emitted at that timestamp (the bulk path passes no time:
        it only runs with tracing disabled).
        """
        self._check_line(line)
        self._raise_counts[line] += count
        self._delivered_counts[line] += count
        trace = self._trace
        if time is not None and trace is not None and trace.enabled:
            trace.emit(time, TraceKind.IRQ_RAISED, line=line)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def raise_count(self, line: int) -> int:
        """Total number of raise requests observed on a line."""
        self._check_line(line)
        return self._raise_counts[line]

    def coalesced_count(self, line: int) -> int:
        """Raise requests merged into an already-pending flag."""
        self._check_line(line)
        return self._coalesced_counts[line]

    def delivered_count(self, line: int) -> int:
        """Number of times the dispatcher was invoked for a line."""
        self._check_line(line)
        return self._delivered_counts[line]

    # ------------------------------------------------------------------
    # Snapshot/fork support (see repro.sim.snapshot)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Plain-data controller state at a quiescent point."""
        if self._dispatching:
            raise RuntimeError("cannot snapshot mid-dispatch")
        return {
            "num_lines": self._num_lines,
            "pending": list(self._pending),
            "enabled": list(self._enabled),
            "globally_masked": self._globally_masked,
            "raise_counts": list(self._raise_counts),
            "coalesced_counts": list(self._coalesced_counts),
            "delivered_counts": list(self._delivered_counts),
        }

    def restore_state(self, state: dict) -> None:
        if state["num_lines"] != self._num_lines:
            raise ValueError(
                f"snapshot has {state['num_lines']} lines, controller has "
                f"{self._num_lines}"
            )
        self._pending = list(state["pending"])
        self._enabled = list(state["enabled"])
        self._globally_masked = state["globally_masked"]
        self._raise_counts = list(state["raise_counts"])
        self._coalesced_counts = list(state["coalesced_counts"])
        self._delivered_counts = list(state["delivered_counts"])
        self._live = sum(1 for pending, enabled
                         in zip(self._pending, self._enabled)
                         if pending and enabled)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_line(self, line: int) -> None:
        if not 0 <= line < self._num_lines:
            raise ValueError(f"IRQ line {line} out of range [0, {self._num_lines})")

    def _next_deliverable(self) -> Optional[int]:
        for line in range(self._num_lines):
            if self._pending[line] and self._enabled[line]:
                return line
        return None

    def _maybe_deliver(self) -> None:
        """Deliver the highest-priority pending line if allowed.

        Re-entrant raises from within a dispatcher call are deferred to
        the surrounding delivery loop, keeping the call stack flat.
        """
        if self._dispatcher is None or self._dispatching or not self._live:
            return
        self._dispatching = True
        try:
            while not self._globally_masked and self._live:
                line = self._next_deliverable()
                if line is None:
                    break
                self._delivered_counts[line] += 1
                self._dispatcher(line)
                # The dispatcher typically masks interrupts and returns;
                # the loop exits via the mask check.  If it left the line
                # pending and unmasked we would spin, so acknowledge any
                # dispatcher that failed to do so.
                if self._pending[line] and not self._globally_masked:
                    raise RuntimeError(
                        f"dispatcher returned with line {line} still pending "
                        "and interrupts unmasked (would livelock)"
                    )
        finally:
            self._dispatching = False
