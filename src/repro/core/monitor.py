"""δ⁻-based activation-pattern monitor.

Implements the runtime monitoring mechanism the paper adopts from
Neukirchner et al., "Monitoring arbitrary activation patterns in
real-time systems" (RTSS 2012): a table of minimum-distance values
``delta[0..l-1]`` where ``delta[k]`` is the minimum permitted temporal
distance between a new event and its ``(k+1)``-th most recent
*accepted* predecessor.

The paper's basic setup (Section 5) uses ``l = 1``: interposed bottom
handler execution is permitted only with a minimum distance ``d_min``
between any two consecutive accepted activations.  Appendix A uses a
general ``l = 5`` table learned online (see :mod:`repro.core.learning`).

The monitor tracks the *accepted* event stream, not the raw arrival
stream.  This is the accounting under which the interference bound of
Eq. (14) holds: any two accepted activations ``q`` apart are at least
``delta[q-1]`` cycles apart, so at most ``eta_plus(dt)`` interposed
bottom handlers can execute in any window ``dt``.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence


def normalize_delta_table(table: Sequence[int]) -> list[int]:
    """Return a monotonically non-decreasing copy of a δ⁻ table.

    A valid minimum-distance function is non-decreasing in the event
    count; tables measured from real traces always are, but
    user-supplied bounds may not be.  Normalizing with a running
    maximum yields the tightest non-decreasing table that dominates
    the input, preserving soundness of the monitoring condition.
    """
    normalized: list[int] = []
    running = 0
    for value in table:
        if value < 0:
            raise ValueError(f"δ⁻ distances must be >= 0, got {value}")
        running = max(running, int(value))
        normalized.append(running)
    return normalized


class DeltaMinusMonitor:
    """Runtime monitor enforcing a δ⁻ minimum-distance condition.

    Parameters
    ----------
    table:
        ``table[k]`` is the minimum distance (cycles) required between
        a new event and the ``(k+1)``-th most recent accepted event.
        Length ``l`` of the table bounds how much history is kept.

    Usage
    -----
    >>> monitor = DeltaMinusMonitor([1000])     # d_min = 1000 cycles
    >>> monitor.check_and_accept(0)
    True
    >>> monitor.check_and_accept(500)           # violates d_min
    False
    >>> monitor.check_and_accept(1000)          # 1000 after last *accepted*
    True
    """

    def __init__(self, table: Sequence[int]):
        if len(table) == 0:
            raise ValueError("δ⁻ table must have at least one entry")
        self._table = normalize_delta_table(table)
        self._history: deque[int] = deque(maxlen=len(self._table))
        self._accepted = 0
        self._denied = 0
        self._last_time: Optional[int] = None

    @classmethod
    def from_dmin(cls, dmin: int) -> "DeltaMinusMonitor":
        """Construct the paper's basic ``l = 1`` monitor for ``d_min``."""
        return cls([dmin])

    @property
    def table(self) -> list[int]:
        """The (normalized) δ⁻ table in cycles."""
        return list(self._table)

    @property
    def accepted_count(self) -> int:
        return self._accepted

    @property
    def denied_count(self) -> int:
        return self._denied

    def stats(self) -> "dict[str, int]":
        """Decision counters as plain data (for telemetry collection)."""
        return {
            "accepted": self._accepted,
            "denied": self._denied,
            "checked": self._accepted + self._denied,
            "depth": len(self._table),
            "dmin": self._table[0],
        }

    def permits(self, time: int) -> bool:
        """Would an event at ``time`` satisfy the monitoring condition?

        Does not modify monitor state.  The check costs ``C_Mon`` on
        the modelled hardware (cf. Eq. 15); that cost is charged by the
        hypervisor, not here.
        """
        self._check_order(time)
        for k, previous in enumerate(self._history):
            if time - previous < self._table[k]:
                return False
        return True

    def check_and_accept(self, time: int) -> bool:
        """Check conformance and record the event if it passes.

        Returns True (event accepted) or False (event denied).  This is
        the single call the modified top handler makes per foreign-slot
        IRQ ("Interposing IRQ denied?" in Fig. 4b).
        """
        if self.permits(time):
            self._record(time)
            return True
        self._denied += 1
        self._last_time = time
        return False

    def reset(self) -> None:
        """Clear history and statistics."""
        self._history.clear()
        self._accepted = 0
        self._denied = 0
        self._last_time = None

    # ------------------------------------------------------------------
    # Snapshot/fork support (see repro.sim.snapshot)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "table": list(self._table),
            "history": list(self._history),
            "accepted": self._accepted,
            "denied": self._denied,
            "last_time": self._last_time,
        }

    @classmethod
    def restore_from_snapshot(cls, state: dict) -> "DeltaMinusMonitor":
        # The stored table is already normalized and normalization is
        # idempotent (a running maximum), so the ctor reproduces it.
        monitor = cls(state["table"])
        monitor._history = deque(state["history"], maxlen=len(monitor._table))
        monitor._accepted = state["accepted"]
        monitor._denied = state["denied"]
        monitor._last_time = state["last_time"]
        return monitor

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _record(self, time: int) -> None:
        self._history.appendleft(time)
        self._accepted += 1
        self._last_time = time

    def _check_order(self, time: int) -> None:
        if self._history and time < self._history[0]:
            raise ValueError(
                f"monitor observed time {time} before last accepted event "
                f"{self._history[0]}; events must be monotone"
            )

    def __repr__(self) -> str:
        return (
            f"DeltaMinusMonitor(l={len(self._table)}, dmin={self._table[0]}, "
            f"accepted={self._accepted}, denied={self._denied})"
        )
