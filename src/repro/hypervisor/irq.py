"""IRQ sources, emulated IRQ events and per-partition IRQ queues.

Following the architecture of Section 3 (Fig. 2): hardware IRQs are
acknowledged by a *top handler* in hypervisor context, which pushes an
emulated IRQ event into the interrupt queue of every subscribing
partition; the application-level processing happens later in a
*bottom handler* executing in partition context.  Queues are FIFO,
which prevents out-of-order bottom-handler execution (Section 5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.policy import HandlingMode, InterposingPolicy, NeverInterpose

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.baselines.throttling import MinDistanceThrottle


@dataclass
class IrqSource:
    """A hardware interrupt source managed by the hypervisor.

    Parameters
    ----------
    name:
        Identifier used in traces and statistics.
    line:
        Interrupt-controller line (lower = higher priority; line 0 is
        reserved for the hypervisor slot timer).
    subscriber:
        Name of the partition whose bottom handler processes this IRQ.
    top_handler_cycles:
        ``C_TH`` — execution time of the top handler (acknowledge the
        hardware, push the event).
    bottom_handler_cycles:
        ``C_BH`` — worst-case execution time of the bottom handler;
        also the enforcement budget for interposed execution.
    bottom_handler_actual:
        Optional callable ``seq -> cycles`` giving the *actual*
        execution time of the ``seq``-th bottom-handler invocation
        (defaults to ``C_BH``).  Values above ``C_BH`` model a
        misbehaving handler; enforcement cuts it off in foreign slots.
    policy:
        Interposing policy for this source (default: never interpose,
        i.e. the unmodified Fig. 4a top handler).
    on_top_handler:
        Hook called from within the top handler; the Section 6.1
        experiments use it to re-arm the IRQ-generating timer with the
        next pre-generated interarrival time.
    throttle:
        Optional source-level throttle (Regehr & Duongsaa baseline):
        arrivals it rejects are suppressed in the top handler — no
        event is pushed — modelling a source left disabled until a new
        interrupt is permissible.
    activates_task:
        Optional name of a *sporadic* guest task in the subscriber
        partition; the bottom handler releases one job of it on
        completion (the application-level reaction to the IRQ,
        closing the Fig. 2 chain end to end).
    """

    name: str
    line: int
    subscriber: str
    top_handler_cycles: int
    bottom_handler_cycles: int
    bottom_handler_actual: Optional[Callable[[int], int]] = None
    policy: InterposingPolicy = field(default_factory=NeverInterpose)
    on_top_handler: Optional[Callable[["IrqEvent"], None]] = None
    throttle: Optional["MinDistanceThrottle"] = None
    activates_task: Optional[str] = None

    def __post_init__(self):
        if self.line < 0:
            raise ValueError(f"IRQ line must be >= 0, got {self.line}")
        if self.top_handler_cycles < 0:
            raise ValueError(f"C_TH must be >= 0, got {self.top_handler_cycles}")
        if self.bottom_handler_cycles < 0:
            raise ValueError(f"C_BH must be >= 0, got {self.bottom_handler_cycles}")

    def actual_bottom_cycles(self, seq: int) -> int:
        """Actual execution demand of the ``seq``-th bottom handler."""
        if self.bottom_handler_actual is None:
            return self.bottom_handler_cycles
        cycles = self.bottom_handler_actual(seq)
        if cycles < 0:
            raise ValueError(f"bottom handler demand must be >= 0, got {cycles}")
        return cycles


class IrqEvent:
    """One emulated IRQ pushed into a partition's interrupt queue.

    A plain ``__slots__`` class rather than a dataclass: one instance
    exists per simulated IRQ, so experiment campaigns allocate tens of
    thousands of them and the dict-free layout measurably trims both
    allocation time and memory on the hot path.
    """

    __slots__ = ("source", "seq", "arrival", "bh_remaining", "mode",
                 "completed_at", "enforced_cut")

    def __init__(self, source: IrqSource, seq: int, arrival: int,
                 bh_remaining: int, mode: Optional[HandlingMode] = None,
                 completed_at: Optional[int] = None,
                 enforced_cut: bool = False):
        self.source = source
        self.seq = seq
        self.arrival = arrival                # top-handler activation timestamp
        self.bh_remaining = bh_remaining      # unprocessed bottom-handler cycles
        self.mode = mode
        self.completed_at = completed_at
        # True if enforcement cut the interposed execution short and the
        # remainder was processed later in the home slot.
        self.enforced_cut = enforced_cut

    @property
    def done(self) -> bool:
        return self.bh_remaining == 0

    @property
    def latency(self) -> Optional[int]:
        """Cycles from top-handler activation to bottom-handler completion."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.arrival

    def __repr__(self) -> str:
        mode = self.mode.value if self.mode else "?"
        return (
            f"IrqEvent({self.source.name}#{self.seq}, t={self.arrival}, "
            f"mode={mode}, remaining={self.bh_remaining})"
        )


class IrqQueueOverflow(RuntimeError):
    """Raised when a bounded IRQ queue overflows."""


class IrqQueue:
    """Per-partition FIFO queue of pending emulated IRQs.

    FIFO discipline is load-bearing: Section 5 requires that the queue
    mechanism prevents out-of-order bottom-handler execution, and the
    hypervisor only grants interposing when the queue is empty so the
    interposed event is always the head.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"queue capacity must be positive, got {capacity}")
        self._queue: deque[IrqEvent] = deque()
        self._capacity = capacity
        self._pushed = 0
        self._max_depth = 0

    @property
    def empty(self) -> bool:
        return not self._queue

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def pushed_count(self) -> int:
        return self._pushed

    @property
    def max_depth(self) -> int:
        """High-water mark of queue occupancy."""
        return self._max_depth

    def push(self, event: IrqEvent) -> None:
        if self._capacity is not None and len(self._queue) >= self._capacity:
            raise IrqQueueOverflow(
                f"IRQ queue overflow (capacity {self._capacity}) pushing {event!r}"
            )
        self._queue.append(event)
        self._pushed += 1
        self._max_depth = max(self._max_depth, len(self._queue))

    def head(self) -> Optional[IrqEvent]:
        """Peek the oldest pending event without removing it."""
        return self._queue[0] if self._queue else None

    def pop(self) -> IrqEvent:
        """Remove and return the oldest pending event."""
        if not self._queue:
            raise IndexError("pop from empty IRQ queue")
        return self._queue.popleft()

    # ------------------------------------------------------------------
    # Snapshot/fork support (see repro.sim.snapshot)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Plain-data queue state; events are recorded by source *name*."""
        return {
            "capacity": self._capacity,
            "pushed": self._pushed,
            "max_depth": self._max_depth,
            "events": [
                (event.source.name, event.seq, event.arrival,
                 event.bh_remaining,
                 event.mode.value if event.mode is not None else None,
                 event.completed_at, event.enforced_cut)
                for event in self._queue
            ],
        }

    def restore_state(self, state: dict,
                      sources: dict[str, IrqSource]) -> None:
        """Rebuild queued events against restored ``sources``."""
        self._pushed = state["pushed"]
        self._max_depth = state["max_depth"]
        self._queue = deque(
            IrqEvent(sources[name], seq, arrival, bh_remaining,
                     HandlingMode(mode) if mode is not None else None,
                     completed_at, enforced_cut)
            for name, seq, arrival, bh_remaining, mode,
            completed_at, enforced_cut in state["events"]
        )
