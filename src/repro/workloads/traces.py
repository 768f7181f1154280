"""Activation trace containers.

The experiment protocol of Section 6.1/Appendix A drives the IRQ
timer from a pre-generated array of interarrival distances.  An
:class:`ActivationTrace` holds the absolute activation times and
converts to/from distance arrays, computes basic statistics, and
persists to JSON for repeatable runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence, Union


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

    @classmethod
    def from_interarrivals(cls, intervals: Sequence[int],
                           start: int = 0) -> "ActivationTrace":
        """Build a trace from a distance array (first event at ``start``)."""
        times = []
        current = start
        times.append(current)
        for gap in intervals:
            if gap < 0:
                raise ValueError(f"interarrival times must be >= 0, got {gap}")
            current += int(gap)
            times.append(current)
        return cls(times)

    @property
    def times(self) -> list[int]:
        return list(self._times)

    def __len__(self) -> int:
        return len(self._times)

    def distance_array(self) -> list[int]:
        """Consecutive interarrival distances (the timer reload array)."""
        return [b - a for a, b in zip(self._times, self._times[1:])]

    @property
    def duration(self) -> int:
        if len(self._times) < 2:
            return 0
        return self._times[-1] - self._times[0]

    def min_distance(self) -> int:
        gaps = self.distance_array()
        if not gaps:
            raise ValueError("trace has fewer than two activations")
        return min(gaps)

    def max_distance(self) -> int:
        gaps = self.distance_array()
        if not gaps:
            raise ValueError("trace has fewer than two activations")
        return max(gaps)

    def mean_distance(self) -> float:
        gaps = self.distance_array()
        if not gaps:
            raise ValueError("trace has fewer than two activations")
        return sum(gaps) / len(gaps)

    def split(self, fraction: float) -> tuple["ActivationTrace", "ActivationTrace"]:
        """Split into a head (learning) part and a tail (run) part.

        Appendix A uses the first 10 % of the trace for the learning
        phase: ``learn, run = trace.split(0.10)``.
        """
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        cut = max(1, round(len(self._times) * fraction))
        return (ActivationTrace(self._times[:cut]),
                ActivationTrace(self._times[cut:]))

    def save(self, path: Union[str, Path]) -> None:
        """Persist the trace to a JSON file."""
        payload = {"format": "repro-activation-trace-v1", "times": self._times}
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ActivationTrace":
        """Load a trace saved with :meth:`save`."""
        payload = json.loads(Path(path).read_text())
        if payload.get("format") != "repro-activation-trace-v1":
            raise ValueError(f"{path} is not a repro activation trace")
        return cls(payload["times"])

    def __repr__(self) -> str:
        return f"ActivationTrace(n={len(self._times)}, duration={self.duration})"
