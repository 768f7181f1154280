"""Programmable timer devices.

The paper's evaluation (Section 6.1) drives IRQ load with one of the
processor's timers, re-programmed from within the IRQ top handler using
a pre-generated array of interarrival times.  A second free-running
timer provides timestamps for latency measurement.  Both devices are
modelled here.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.sim.engine import SimulationEngine
from repro.sim.events import EventHandle
from repro.sim.intc import InterruptController


class OneShotTimer:
    """A one-shot down-counting timer raising an IRQ line on expiry.

    Mirrors the re-arm-from-top-handler protocol of the paper: the
    handler calls :meth:`program` with the next interarrival time.
    """

    def __init__(self, engine: SimulationEngine, intc: InterruptController,
                 line: int, name: str = "timer"):
        self._engine = engine
        self._intc = intc
        self._line = line
        self.name = name
        self._handle: Optional[EventHandle] = None
        self._expirations = 0

    @property
    def line(self) -> int:
        return self._line

    @property
    def expirations(self) -> int:
        """Number of times the timer has expired."""
        return self._expirations

    @property
    def armed(self) -> bool:
        return self._handle is not None and self._handle.pending

    def program(self, delay_cycles: int) -> None:
        """Arm the timer to fire ``delay_cycles`` from now.

        Reprogramming an armed timer replaces the previous deadline.
        """
        if delay_cycles < 0:
            raise ValueError(f"timer delay must be >= 0, got {delay_cycles}")
        self.cancel()
        self._handle = self._engine.schedule(delay_cycles, self._expire,
                                             label=f"{self.name}-expiry")

    def cancel(self) -> None:
        """Disarm the timer if armed."""
        if self._handle is not None and self._handle.pending:
            self._handle.cancel()
        self._handle = None

    def _expire(self) -> None:
        self._handle = None
        self._expirations += 1
        self._intc.raise_line(self._line)

    def on_irq_top(self, event) -> None:
        """Top-handler hook: no-op for a plain one-shot timer.

        Exists as a *bound method* (rather than an ad-hoc lambda at
        the wiring site) so world snapshots can record the hook as
        ``(device, method-name)`` and re-bind it on restore — closures
        over the old world cannot be serialized.
        """

    def snapshot_state(self, ctx) -> dict:
        """Capture plain-data timer state; claims the armed heap entry."""
        armed = None
        if self._handle is not None and self._handle.pending:
            armed = ctx.claim(self._handle)
        return {
            "line": self._line,
            "name": self.name,
            "expirations": self._expirations,
            "armed": armed,
        }

    @classmethod
    def restore_from_snapshot(cls, state: dict, engine: SimulationEngine,
                              intc: InterruptController) -> "OneShotTimer":
        timer = cls(engine, intc, state["line"], name=state["name"])
        timer._apply_snapshot(state)
        return timer

    def _apply_snapshot(self, state: dict) -> None:
        self._expirations = state["expirations"]
        if state["armed"] is not None:
            time, seq = state["armed"]
            self._handle = self._engine.restore_event(
                time, seq, self._expire, label=f"{self.name}-expiry"
            )


class IntervalSequenceTimer(OneShotTimer):
    """A one-shot timer fed from a pre-generated interarrival sequence.

    Calling :meth:`arm_next` programs the timer with the next value of
    the sequence; once the sequence is exhausted the timer stays
    disarmed.  This is exactly the experiment protocol of Section 6.1
    (interarrival arrays generated before the run to keep generation
    cost out of the top handler).
    """

    def __init__(self, engine: SimulationEngine, intc: InterruptController,
                 line: int, intervals: Sequence[int], name: str = "irq-gen"):
        super().__init__(engine, intc, line, name)
        self._intervals = list(intervals)
        self._index = 0
        for value in self._intervals:
            if value < 0:
                raise ValueError("interarrival times must be >= 0")

    @property
    def remaining(self) -> int:
        """Number of unconsumed interarrival values."""
        return len(self._intervals) - self._index

    @property
    def exhausted(self) -> bool:
        return self._index >= len(self._intervals)

    @property
    def interval_count(self) -> int:
        """Total length of the interarrival sequence (consumed or not)."""
        return len(self._intervals)

    def arm_next(self) -> bool:
        """Program the timer with the next interarrival value.

        Returns True if the timer was armed, False if the sequence is
        exhausted.
        """
        if self.exhausted:
            return False
        self.program(self._intervals[self._index])
        self._index += 1
        return True

    def on_irq_top(self, event) -> None:
        """Top-handler hook: re-arm with the next interarrival value.

        This is the Section 6.1 measurement protocol (the timer is
        re-programmed from within each top handler); a bound method so
        world snapshots can re-bind it on restore.
        """
        self.arm_next()

    def snapshot_state(self, ctx) -> dict:
        state = super().snapshot_state(ctx)
        state["intervals"] = list(self._intervals)
        state["index"] = self._index
        return state

    @classmethod
    def restore_from_snapshot(cls, state: dict, engine: SimulationEngine,
                              intc: InterruptController) -> "IntervalSequenceTimer":
        timer = cls(engine, intc, state["line"], state["intervals"],
                    name=state["name"])
        timer._index = state["index"]
        timer._apply_snapshot(state)
        return timer


class TimestampTimer:
    """Free-running up-counter used for latency timestamps.

    In the simulation the engine clock *is* the free-running counter,
    so reading the timer is just reading the current time.  The class
    exists to keep the measurement protocol of the paper explicit in
    experiment code.
    """

    def __init__(self, engine: SimulationEngine):
        self._engine = engine

    def read(self) -> int:
        """Current counter value (cycles since simulation start)."""
        return self._engine.now
