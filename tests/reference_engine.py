"""Reference discrete-event engine: the ordering oracle for the tests.

A deliberately naive twin of :class:`repro.sim.engine.SimulationEngine`
with the same public API and counters.  Pending events live in one
plain list kept sorted by ``(time, seq)`` with :func:`bisect.insort`:
no heap, no compaction, no batched counters, no idle-skip.  Whatever
the production engine's tuned hot paths do, their observable behaviour
must match this one (see ``tests/test_engine_oracle.py``).
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Callable, Optional

from repro.sim.engine import SimulationError
from repro.sim.events import EventHandle


class ReferenceEngine:
    """Sorted-list event queue with the production engine's semantics."""

    def __init__(self) -> None:
        self._queue: list[tuple[int, int, EventHandle]] = []
        self.now = 0
        self.events_executed = 0
        self.events_scheduled = 0           # the FIFO seq counter
        self.events_cancelled = 0
        self.pending_events = 0
        self.dispatch_batches = 0
        self._sentinel_seq = -1
        self._stop_requested = False

    # -- scheduling -----------------------------------------------------

    def _insert(self, time: int, seq: int, callback: Callable[[], Any],
                label: Optional[str]) -> EventHandle:
        handle = EventHandle(time, seq, callback, label, self)
        self.pending_events += 1
        insort(self._queue, (time, seq, handle))
        return handle

    def schedule(self, delay: int, callback: Callable[[], Any],
                 label: Optional[str] = None) -> EventHandle:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, callback, label)

    def schedule_at(self, time: int, callback: Callable[[], Any],
                    label: Optional[str] = None) -> EventHandle:
        if time < self.now:
            raise SimulationError(f"t={time} is in the past")
        seq = self.events_scheduled
        self.events_scheduled += 1
        return self._insert(time, seq, callback, label)

    def schedule_stop_at(self, time: int) -> EventHandle:
        if time < self.now:
            raise SimulationError(f"t={time} is in the past")
        seq = self._sentinel_seq
        self._sentinel_seq -= 1
        return self._insert(time, seq, self.stop, "stop-sentinel")

    def _event_cancelled(self) -> None:
        self.pending_events -= 1
        self.events_cancelled += 1

    def stop(self) -> None:
        self._stop_requested = True

    # -- dispatch -------------------------------------------------------

    def _dispatch(self, time: int, handle: EventHandle) -> None:
        if time != self.now:
            self.now = time
            self.dispatch_batches += 1
        handle._fired = True
        self.pending_events -= 1
        self.events_executed += 1
        handle.callback()

    def _pop_live(self, horizon: Optional[int] = None):
        """Pop the earliest live entry at or before ``horizon``."""
        while self._queue:
            time, _seq, handle = self._queue[0]
            if handle.cancelled:
                self._queue.pop(0)
                continue
            if horizon is not None and time > horizon:
                return None
            return self._queue.pop(0)
        return None

    def step(self) -> bool:
        entry = self._pop_live()
        if entry is None:
            return False
        self._dispatch(entry[0], entry[2])
        return True

    def run(self, max_events: Optional[int] = None,
            horizon: Optional[int] = None) -> int:
        self._stop_requested = False
        executed = 0
        while executed != max_events:
            entry = self._pop_live(horizon)
            if entry is None:
                break
            executed += 1
            self._dispatch(entry[0], entry[2])
            if self._stop_requested:
                break
        return executed

    def run_until(self, time: int) -> int:
        if time < self.now:
            raise SimulationError(f"cannot run backwards to t={time}")
        executed = self.run(horizon=time)
        if not self._stop_requested:
            self.now = max(self.now, time)
        return executed

    # -- introspection and snapshot/restore ------------------------------

    def live_entries(self) -> list[tuple[int, int, EventHandle]]:
        return [entry for entry in self._queue if not entry[2].cancelled]

    def peek_next_time(self) -> Optional[int]:
        live = self.live_entries()
        return live[0][0] if live else None

    def snapshot_state(self) -> dict:
        return {"now": self.now, "seq": self.events_scheduled,
                "events_executed": self.events_executed,
                "events_cancelled": self.events_cancelled,
                "pending": self.pending_events}

    def restore_state(self, state: dict) -> None:
        if self._queue or self.events_scheduled or self.events_executed:
            raise SimulationError("can only restore onto a fresh engine")
        self.now = state["now"]
        self.events_scheduled = state["seq"]
        self.events_executed = state["events_executed"]
        self.events_cancelled = state["events_cancelled"]

    def restore_event(self, time: int, seq: int, callback: Callable[[], Any],
                      label: Optional[str] = None) -> EventHandle:
        if time < self.now or seq >= self.events_scheduled:
            raise SimulationError(f"cannot restore (t={time}, seq={seq})")
        return self._insert(time, seq, callback, label)
