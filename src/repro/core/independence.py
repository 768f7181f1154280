"""Interference accounting and sufficient temporal independence.

Section 4 of the paper distinguishes *temporal isolation* (Eq. 1: the
interference set is empty, interference is zero) from *sufficient
temporal independence* (Eq. 2: interference is permitted but bounded
by a budget).  This module provides:

* :class:`InterferenceLedger` — records every interval in which one
  partition's time was consumed on behalf of another (interposed
  bottom handlers including their scheduler/context-switch overhead,
  and foreign top handlers), as measured in simulation;
* :class:`DminInterferenceBound` — the analytical bound of Eq. (14),
  ``I(dt) = ceil(dt / d_min) * C'_BH``;
* :func:`classify_independence` — Eq. (1)/(2) classification of a
  measured system against a budget.

The headline correctness property of the paper — enforced interposing
keeps every partition sufficiently temporally independent — is checked
by comparing ledger contents against the bound over arbitrary windows.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence


class InterferenceKind(enum.Enum):
    """What kind of foreign activity consumed a partition's time."""

    INTERPOSED_BH = "interposed_bh"   # foreign bottom handler + overheads (Eq. 13)
    TOP_HANDLER = "top_handler"       # foreign top handler (tolerated, Section 4)
    MONITOR = "monitor"               # monitoring overhead C_Mon (Eq. 15)
    OTHER = "other"


@dataclass(frozen=True)
class InterferenceInterval:
    """A half-open interval ``[start, end)`` of foreign execution."""

    start: int
    end: int
    victim: str          # partition whose slot time was consumed
    source: str          # IRQ source / partition that caused it
    kind: InterferenceKind

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError(f"interval end {self.end} before start {self.start}")

    @property
    def duration(self) -> int:
        return self.end - self.start

    def overlap(self, window_start: int, window_end: int) -> int:
        """Cycles of this interval inside ``[window_start, window_end)``."""
        return max(0, min(self.end, window_end) - max(self.start, window_start))


class InterferenceLedger:
    """Append-only record of interference intervals, queryable per victim."""

    def __init__(self):
        self._intervals: list[InterferenceInterval] = []

    def record(self, start: int, end: int, victim: str, source: str,
               kind: InterferenceKind) -> None:
        """Record one interval of foreign execution inside a victim's slot."""
        self._intervals.append(
            InterferenceInterval(start, end, victim, source, kind)
        )

    @property
    def intervals(self) -> list[InterferenceInterval]:
        return list(self._intervals)

    def snapshot_state(self) -> list:
        """Plain-data interval list (see :mod:`repro.sim.snapshot`)."""
        return [
            (iv.start, iv.end, iv.victim, iv.source, iv.kind.value)
            for iv in self._intervals
        ]

    def restore_state(self, state: list) -> None:
        self._intervals = [
            InterferenceInterval(start, end, victim, source,
                                 InterferenceKind(kind))
            for start, end, victim, source, kind in state
        ]

    def for_victim(self, victim: str,
                   kinds: Optional[Iterable[InterferenceKind]] = None
                   ) -> list[InterferenceInterval]:
        """All intervals charged to ``victim`` (optionally filtered by kind)."""
        wanted = set(kinds) if kinds is not None else None
        return [
            iv for iv in self._intervals
            if iv.victim == victim and (wanted is None or iv.kind in wanted)
        ]

    def total(self, victim: str, window_start: int = 0,
              window_end: Optional[int] = None,
              kinds: Optional[Iterable[InterferenceKind]] = None) -> int:
        """Total interference cycles for ``victim`` within a window."""
        if window_end is None:
            window_end = max((iv.end for iv in self._intervals), default=0)
        return sum(
            iv.overlap(window_start, window_end)
            for iv in self.for_victim(victim, kinds)
        )

    def max_window_interference(self, victim: str, width: int,
                                kinds: Optional[Iterable[InterferenceKind]] = None
                                ) -> int:
        """Worst interference for ``victim`` over any window of ``width``.

        The maximum of a sliding-window sum over interval overlaps is
        attained when the window's start coincides with an interval
        start, or its end with an interval end; only those candidate
        positions are evaluated.  Overlap sums are computed from
        prefix sums in O(log n) each, so the whole query is
        O(n log n).
        """
        if width <= 0:
            raise ValueError(f"window width must be positive, got {width}")
        intervals = self.for_victim(victim, kinds)
        if not intervals:
            return 0
        starts = sorted(iv.start for iv in intervals)
        ends = sorted(iv.end for iv in intervals)
        prefix_starts = [0]
        for value in starts:
            prefix_starts.append(prefix_starts[-1] + value)
        prefix_ends = [0]
        for value in ends:
            prefix_ends.append(prefix_ends[-1] + value)

        def coverage_before(t: int) -> int:
            # g(t) = sum_i |[start_i, end_i) ∩ (-inf, t)|
            #      = t*(a - k) - PS[a] + PE[k]
            # with a = #starts < t, k = #ends <= t.
            a = bisect.bisect_left(starts, t)
            k = bisect.bisect_right(ends, t)
            return t * (a - k) - prefix_starts[a] + prefix_ends[k]

        candidates = set(starts)
        candidates.update(max(0, end - width) for end in ends)
        worst = 0
        for start in candidates:
            worst = max(
                worst, coverage_before(start + width) - coverage_before(start)
            )
        return worst


class DminInterferenceBound:
    """Analytical interference bound for monitored interposing (Eq. 14).

    With a monitoring condition admitting interposed activations at
    most every ``d_min`` cycles, and each interposed activation costing
    ``C'_BH = C_BH + C_sched + 2 * C_ctx`` (Eq. 13), the interference a
    partition can suffer in any window ``dt`` is bounded by
    ``ceil(dt / d_min) * C'_BH``.
    """

    def __init__(self, dmin: int, c_bh_effective: int):
        if dmin <= 0:
            raise ValueError(f"d_min must be positive, got {dmin}")
        if c_bh_effective < 0:
            raise ValueError(f"C'_BH must be >= 0, got {c_bh_effective}")
        self.dmin = dmin
        self.c_bh_effective = c_bh_effective

    def max_interference(self, dt: int) -> int:
        """Upper bound on interposing interference in a window of ``dt``."""
        if dt < 0:
            raise ValueError(f"window must be >= 0, got {dt}")
        if dt == 0:
            return 0
        return math.ceil(dt / self.dmin) * self.c_bh_effective

    def __repr__(self) -> str:
        return f"DminInterferenceBound(dmin={self.dmin}, c_bh'={self.c_bh_effective})"


class IndependenceClass(enum.Enum):
    """Eq. (1)/(2) classification of a partition's temporal behaviour."""

    ISOLATED = "isolated"                      # Eq. 1: zero interference
    SUFFICIENTLY_INDEPENDENT = "sufficient"    # Eq. 2: interference <= budget
    VIOLATED = "violated"                      # interference exceeds budget


def classify_independence(interference: int, budget: int) -> IndependenceClass:
    """Classify measured interference against an allowed budget (Eq. 1/2)."""
    if interference < 0:
        raise ValueError(f"interference must be >= 0, got {interference}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if interference == 0:
        return IndependenceClass.ISOLATED
    if interference <= budget:
        return IndependenceClass.SUFFICIENTLY_INDEPENDENT
    return IndependenceClass.VIOLATED


@dataclass(frozen=True)
class IndependenceReport:
    """Result of verifying a victim partition against a bound."""

    victim: str
    window_widths: tuple[int, ...]
    measured: tuple[int, ...]
    bounds: tuple[int, ...]
    holds: bool

    def worst_ratio(self) -> float:
        """Largest measured/bound ratio (1.0 means the bound is tight)."""
        ratios = [
            m / b for m, b in zip(self.measured, self.bounds) if b > 0
        ]
        return max(ratios, default=0.0)


def verify_sufficient_independence(
    ledger: InterferenceLedger,
    victim: str,
    bound: Callable[[int], int],
    window_widths: Sequence[int],
    kinds: Optional[Iterable[InterferenceKind]] = (InterferenceKind.INTERPOSED_BH,),
) -> IndependenceReport:
    """Check measured interference against an analytical bound.

    For each window width, the worst measured interference over any
    placement of the window is compared against ``bound(width)``.
    Returns a report; ``report.holds`` is the paper's sufficient
    temporal independence property.
    """
    kinds_tuple = tuple(kinds) if kinds is not None else None
    measured = []
    bounds = []
    for width in window_widths:
        measured.append(ledger.max_window_interference(victim, width, kinds_tuple))
        bounds.append(bound(width))
    holds = all(m <= b for m, b in zip(measured, bounds))
    return IndependenceReport(
        victim=victim,
        window_widths=tuple(window_widths),
        measured=tuple(measured),
        bounds=tuple(bounds),
        holds=holds,
    )
