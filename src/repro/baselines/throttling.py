"""Interrupt-source throttling baseline (Regehr & Duongsaa, Section 2).

"Preventing interrupt overload" throttles overloading interrupts at
their source: incoming requests are monitored and, once a prescribed
limit is reached, the interrupt flag is not cleared (the source stays
disabled) until a new interrupt is permissible again.  Requests
arriving while the source is disabled merge into the single pending
flag (IRQ flags are not counting), so excess activations are lost.

This protects against overload but — unlike the paper's mechanism —
does nothing for the latency of IRQs waiting for a foreign TDMA slot:
admitted interrupts still take the delayed path.  The ablation
experiment contrasts exactly this.

:class:`MinDistanceThrottle` admits one IRQ per ``min_distance``, the
arrival-rate counterpart of the paper's d_min condition.
"""

from __future__ import annotations

from typing import Optional


class MinDistanceThrottle:
    """Admit at most one IRQ per ``min_distance`` cycles.

    Unlike the δ⁻ monitor — which *defers* non-conformant bottom
    handlers to the home slot — a throttled arrival is suppressed
    entirely; only the pending flag (one outstanding request) remains.
    """

    def __init__(self, min_distance: int):
        if min_distance <= 0:
            raise ValueError(f"min distance must be positive, got {min_distance}")
        self.min_distance = min_distance
        self._last_admitted: Optional[int] = None
        self._admitted = 0
        self._suppressed = 0

    def admit(self, time: int) -> bool:
        """True to deliver the IRQ, False to suppress (merge) it."""
        if (self._last_admitted is not None
                and time - self._last_admitted < self.min_distance):
            self._suppressed += 1
            return False
        self._last_admitted = time
        self._admitted += 1
        return True

    @property
    def suppressed_count(self) -> int:
        return self._suppressed

    def snapshot_state(self) -> dict:
        return {
            "min_distance": self.min_distance,
            "last_admitted": self._last_admitted,
            "admitted": self._admitted,
            "suppressed": self._suppressed,
        }

    @classmethod
    def restore_from_snapshot(cls, state: dict) -> "MinDistanceThrottle":
        throttle = cls(state["min_distance"])
        throttle._last_admitted = state["last_admitted"]
        throttle._admitted = state["admitted"]
        throttle._suppressed = state["suppressed"]
        return throttle
