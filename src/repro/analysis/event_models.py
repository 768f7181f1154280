"""Arrival curves η⁺ and minimum-distance functions δ⁻ (Section 4).

Activation patterns are modelled via *arrival functions* η⁺(Δt),
returning the maximum number of events in any half-open time window of
size Δt (Le Boudec & Thiran's network calculus, as used by the paper),
and the dual *minimum distance functions* δ⁻(q), the minimum time
spanned by any q consecutive events (Richter's standard event models).

Conventions used throughout (the common CPA conventions):

* η⁺(0) = 0; for a strictly periodic stream with period P,
  η⁺(Δt) = ceil(Δt / P).
* δ⁻(q) = 0 for q <= 1; for a periodic stream δ⁻(q) = (q - 1) · P.
* Duality:  η⁺(Δt) = max { q : δ⁻(q) < Δt }  and
  δ⁻(q) = min { Δt : η⁺(Δt) >= q }.
"""

from __future__ import annotations

import bisect
import math
from typing import Protocol, Sequence, runtime_checkable


@runtime_checkable
class EventModel(Protocol):
    """Anything that provides the η⁺ / δ⁻ pair."""

    def eta_plus(self, dt: int) -> int:
        """Maximum number of events in any half-open window of size ``dt``."""
        ...

    def delta_minus(self, q: int) -> int:
        """Minimum time spanned by any ``q`` consecutive events."""
        ...


def _check_dt(dt: int) -> None:
    if dt < 0:
        raise ValueError(f"window size must be >= 0, got {dt}")


def _check_q(q: int) -> None:
    if q < 0:
        raise ValueError(f"event count must be >= 0, got {q}")


class PeriodicEventModel:
    """Standard periodic-with-jitter event model (P, J, d_min).

    η⁺(Δt) = min( ceil((Δt + J) / P), ceil(Δt / d_min) )
    δ⁻(q)  = max( (q - 1) · d_min, (q - 1) · P - J )

    A plain periodic stream is ``PeriodicEventModel(P)``; a sporadic
    stream with minimum interarrival T is also ``PeriodicEventModel(T)``
    (its η⁺ is the same worst case).
    """

    def __init__(self, period: int, jitter: int = 0, dmin: int = 1):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        if dmin <= 0:
            raise ValueError(f"d_min must be positive, got {dmin}")
        if dmin > period:
            raise ValueError(
                f"d_min {dmin} cannot exceed the period {period}"
            )
        self.period = period
        self.jitter = jitter
        self.dmin = dmin

    def eta_plus(self, dt: int) -> int:
        _check_dt(dt)
        if dt == 0:
            return 0
        with_jitter = math.ceil((dt + self.jitter) / self.period)
        burst_limit = math.ceil(dt / self.dmin)
        return min(with_jitter, burst_limit)

    def delta_minus(self, q: int) -> int:
        _check_q(q)
        if q <= 1:
            return 0
        return max((q - 1) * self.dmin, (q - 1) * self.period - self.jitter)

    def __repr__(self) -> str:
        return (
            f"PeriodicEventModel(P={self.period}, J={self.jitter}, "
            f"d={self.dmin})"
        )


def sporadic(min_interarrival: int) -> PeriodicEventModel:
    """Sporadic stream with a minimum interarrival time.

    This is the model of a d_min-shaped interposed-activation stream:
    the monitor of Section 5 guarantees exactly this η⁺.
    """
    return PeriodicEventModel(min_interarrival)


class TraceEventModel:
    """Empirical event model extracted from a concrete activation trace.

    δ⁻(q) is the minimum observed span of q consecutive events and
    η⁺(Δt) the maximum observed event count in a sliding half-open
    window.  These describe *this trace exactly* (not a sound bound on
    other runs of the same source), which is what the trace-driven
    experiments need.
    """

    def __init__(self, times: Sequence[int]):
        stream = sorted(int(t) for t in times)
        if len(stream) < 2:
            raise ValueError("need at least two events to build a trace model")
        self._times = stream
        # Each δ⁻(q) is an O(n) sliding scan, and the busy-window /
        # learning paths re-ask the same small q values many times, so
        # computed spans go into a reusable prefix table:
        # _delta_table[q - 2] holds δ⁻(q).
        self._delta_table: "list[int]" = []

    @property
    def count(self) -> int:
        return len(self._times)

    def delta_minus(self, q: int) -> int:
        _check_q(q)
        if q <= 1:
            return 0
        if q > len(self._times):
            raise ValueError(
                f"trace has only {len(self._times)} events, cannot span {q}"
            )
        table = self._delta_table
        times = self._times
        while len(table) < q - 1:
            span = len(table) + 2
            table.append(min(
                times[i + span - 1] - times[i]
                for i in range(len(times) - span + 1)
            ))
        return table[q - 2]

    def delta_prefix_table(self, max_q: int) -> "tuple[int, ...]":
        """δ⁻(2) … δ⁻(max_q) as one contiguous (cached) table."""
        if max_q < 2:
            return ()
        self.delta_minus(max_q)
        return tuple(self._delta_table[:max_q - 1])

    def eta_plus(self, dt: int) -> int:
        _check_dt(dt)
        if dt == 0:
            return 0
        best = 0
        times = self._times
        for i, start in enumerate(times):
            # events in [start, start + dt)
            j = bisect.bisect_left(times, start + dt)
            best = max(best, j - i)
        return best

    def interarrivals(self) -> list[int]:
        return [b - a for a, b in zip(self._times, self._times[1:])]

    def learned_delta_table(self, depth: int) -> list[int]:
        """The δ⁻ table Algorithm 1 would learn from this trace."""
        return list(self.delta_prefix_table(depth + 1))

    def __repr__(self) -> str:
        return f"TraceEventModel(n={len(self._times)})"
