"""Activation trace containers.

The experiment protocol of Section 6.1/Appendix A drives the IRQ
timer from a pre-generated array of interarrival distances.  An
:class:`ActivationTrace` holds the absolute activation times and
converts them to that distance array, with basic statistics.
"""

from __future__ import annotations

from typing import Sequence


class ActivationTrace:
    """A monotone sequence of activation timestamps (cycles)."""

    def __init__(self, times: Sequence[int]):
        previous = None
        cleaned = []
        for value in times:
            value = int(value)
            if previous is not None and value < previous:
                raise ValueError(
                    f"activation times must be monotone: {value} after {previous}"
                )
            cleaned.append(value)
            previous = value
        self._times = cleaned

    @property
    def times(self) -> list[int]:
        return list(self._times)

    def distance_array(self) -> list[int]:
        """Consecutive interarrival distances (the timer reload array)."""
        return [b - a for a, b in zip(self._times, self._times[1:])]

    def min_distance(self) -> int:
        gaps = self.distance_array()
        if not gaps:
            raise ValueError("trace has fewer than two activations")
        return min(gaps)

    def mean_distance(self) -> float:
        gaps = self.distance_array()
        if not gaps:
            raise ValueError("trace has fewer than two activations")
        return sum(gaps) / len(gaps)

    def __repr__(self) -> str:
        return f"ActivationTrace(n={len(self._times)})"
