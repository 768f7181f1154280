"""Execution trace recording.

The hypervisor and devices emit typed trace events (IRQ raised, top
handler start/end, bottom handler start/end, slot switches, ...) into a
:class:`TraceRecorder`.  Experiments and tests query the recorder to
reconstruct timelines, measure latencies and verify ordering
properties.  Recording can be disabled for long benchmark runs.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional


class TraceKind(enum.Enum):
    """Classification of trace events."""

    IRQ_RAISED = "irq_raised"
    IRQ_COALESCED = "irq_coalesced"
    TOP_HANDLER_START = "top_handler_start"
    TOP_HANDLER_END = "top_handler_end"
    BOTTOM_HANDLER_START = "bottom_handler_start"
    BOTTOM_HANDLER_END = "bottom_handler_end"
    BOTTOM_HANDLER_BUDGET_EXHAUSTED = "bottom_handler_budget_exhausted"
    MONITOR_ACCEPT = "monitor_accept"
    MONITOR_DENY = "monitor_deny"
    SLOT_SWITCH = "slot_switch"
    CONTEXT_SWITCH = "context_switch"
    INTERPOSE_START = "interpose_start"
    INTERPOSE_END = "interpose_end"
    TASK_RELEASE = "task_release"
    TASK_START = "task_start"
    TASK_END = "task_end"
    DEADLINE_MISS = "deadline_miss"
    IPC_SEND = "ipc_send"
    IPC_DELIVER = "ipc_deliver"
    IDLE = "idle"
    CUSTOM = "custom"


@dataclass(frozen=True)
class TraceEvent:
    """A single timestamped trace record."""

    time: int
    kind: TraceKind
    data: dict = field(default_factory=dict)

    def __repr__(self) -> str:
        items = ", ".join(f"{k}={v}" for k, v in self.data.items())
        return f"TraceEvent(t={self.time}, {self.kind.value}, {items})"


class TraceRecorder:
    """Collects :class:`TraceEvent` records in simulation order.

    Parameters
    ----------
    enabled:
        When False, :meth:`emit` is a no-op.  Long experiment runs
        disable tracing and rely on aggregated statistics instead.
    capacity:
        Optional bound on retained events; when exceeded the oldest
        events are dropped (the drop count is tracked).

    The store is a ``collections.deque`` with ``maxlen=capacity``, so a
    recorder running *at* capacity evicts its oldest event in O(1) per
    emit — the previous list-backed implementation paid an O(n)
    ``del events[:overflow]`` shift on every single emit once full,
    which made bounded tracing quadratic in run length.
    """

    def __init__(self, enabled: bool = True, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"trace capacity must be positive, got {capacity}")
        # Whether emit() records.  A plain attribute, not a property,
        # because every emit site in the model reads it first.
        self.enabled = enabled
        self._capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._dropped = 0

    @classmethod
    def from_events(cls, events: "Iterable[TraceEvent]") -> "TraceRecorder":
        """An enabled recorder pre-loaded with ``events``.

        Used by the run-artifact store (:mod:`repro.store`) to rebuild
        a recorder from persisted trace columns, so exporters that
        consume a live :class:`TraceRecorder` (the Perfetto exporter)
        can read from an artifact instead.
        """
        recorder = cls(enabled=True)
        recorder._events.extend(events)
        return recorder

    def emit(self, time: int, kind: TraceKind, **data: Any) -> None:
        """Record an event (no-op when recording is disabled)."""
        if not self.enabled:
            return
        event = TraceEvent(time, kind, data)
        events = self._events
        if self._capacity is not None and len(events) == self._capacity:
            # The append below auto-evicts the oldest entry (deque
            # maxlen semantics); only the drop counter is ours to keep.
            self._dropped += 1
        events.append(event)

    @property
    def events(self) -> list[TraceEvent]:
        """All retained events, in simulation order."""
        return list(self._events)

    @property
    def dropped(self) -> int:
        """Number of events discarded due to the capacity bound."""
        return self._dropped

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def clear(self) -> None:
        """Discard all retained events."""
        self._events.clear()
        self._dropped = 0

    def snapshot_state(self) -> dict:
        """Plain-data recorder state (see :mod:`repro.sim.snapshot`)."""
        return {
            "enabled": self.enabled,
            "capacity": self._capacity,
            "dropped": self._dropped,
            "events": [(ev.time, ev.kind.value, dict(ev.data))
                       for ev in self._events],
        }

    def restore_state(self, state: dict) -> None:
        if state["capacity"] != self._capacity:
            raise ValueError(
                f"snapshot capacity {state['capacity']} != recorder "
                f"capacity {self._capacity}"
            )
        self.enabled = state["enabled"]
        self._dropped = state["dropped"]
        self._events = deque(
            (TraceEvent(time, TraceKind(kind), data)
             for time, kind, data in state["events"]),
            maxlen=self._capacity,
        )
