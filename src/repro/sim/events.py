"""Event records and handles for the discrete-event engine.

The engine hands out :class:`EventHandle` objects when callbacks are
scheduled.  A handle can be cancelled, which marks the underlying heap
entry dead without the cost of removing it from the heap (lazy
deletion).  Cancellation also notifies the owning engine so its live
pending-event counter stays exact without scanning the heap.
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class EventHandle:
    """A cancellable reference to a scheduled simulation event.

    Instances are created by :meth:`repro.sim.engine.SimulationEngine.schedule`
    and friends; user code only ever cancels or inspects them.
    """

    __slots__ = ("time", "seq", "callback", "label", "_cancelled", "_fired",
                 "_engine")

    def __init__(self, time: int, seq: int, callback: Callable[[], Any],
                 label: Optional[str] = None, engine=None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self._cancelled = False
        self._fired = False
        # Back-reference used to keep the engine's pending counter
        # exact on cancellation; None for free-standing handles.
        self._engine = engine

    def cancel(self) -> None:
        """Cancel the event.  Cancelling an already-fired event is a no-op."""
        if self._cancelled or self._fired:
            return
        self._cancelled = True
        engine = self._engine
        if engine is not None:
            # The engine keeps its pending counter exact and may
            # compact its heap when dead entries dominate.
            engine._event_cancelled()

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """True once the engine has executed the callback."""
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is still waiting to fire."""
        return not self._cancelled and not self._fired

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        name = self.label or getattr(self.callback, "__name__", "callback")
        return f"EventHandle(t={self.time}, {name}, {state})"
