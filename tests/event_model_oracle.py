"""Event-model test oracles: the δ⁻-table model, the generalized Eq. 14
bound and the η⁺ / δ⁻ duality check.

No experiment analyses a stream through a finite δ⁻ table: the
campaign's analyses use sporadic and trace models.  The tests still
need a table model, as a deep-table event model for the busy-window
properties and as the generalized Eq. 14 bound that a measured
deep-table monitored run must meet, so it lives here.
"""

from __future__ import annotations

import bisect
from typing import Callable, Sequence

from repro.analysis.event_models import EventModel, _check_dt, _check_q


class DeltaTableEventModel:
    """Event model defined by a finite δ⁻ table (the monitor's view).

    ``table[k]`` is the minimum distance between an event and its
    ``(k+1)``-th predecessor, i.e. δ⁻(k + 2) — exactly the table
    enforced by :class:`repro.core.monitor.DeltaMinusMonitor` and
    learned by Algorithm 1.  Beyond the table, δ⁻ is extended by its
    superadditive closure,

        δ⁻(a + b - 1) >= δ⁻(a) + δ⁻(b),

    which is the tightest sound extension: any q-event span decomposes
    into overlapping spans covered by the table.
    """

    def __init__(self, table: Sequence[int]):
        if len(table) == 0:
            raise ValueError("δ⁻ table must have at least one entry")
        running = 0
        normalized = []
        for value in table:
            if value < 0:
                raise ValueError(f"δ⁻ distances must be >= 0, got {value}")
            running = max(running, int(value))
            normalized.append(running)
        self._table = normalized
        # _delta[q] = extended δ⁻ for q events; grows on demand.  The
        # superadditive closure is applied within the table as well: a
        # table like [1, 1] implicitly requires δ(3) >= 2·δ(2), and
        # using the raw entries would understate the admitted spacing.
        self._delta = [0, 0] + list(normalized)
        for n in range(2, len(self._delta)):
            best = self._delta[n]
            for a in range(2, n):
                b = n - a + 1
                if b < 2:
                    break
                best = max(best, self._delta[a] + self._delta[b])
            self._delta[n] = best

    @property
    def depth(self) -> int:
        return len(self._table)

    def delta_minus(self, q: int) -> int:
        _check_q(q)
        if q <= 1:
            return 0
        self._extend_to(q)
        return self._delta[q]

    def eta_plus(self, dt: int) -> int:
        _check_dt(dt)
        if dt == 0:
            return 0
        # max q with δ⁻(q) < dt.  δ⁻ is non-decreasing and, past the
        # table, grows at least linearly with slope δ⁻(2) per event
        # (when δ⁻(2) > 0), so the extension below terminates and the
        # answer is a binary search over the extended table.
        if self._table[0] == 0:
            raise ValueError(
                "η⁺ is unbounded: the δ⁻ table permits simultaneous events"
            )
        while self._delta[-1] < dt:
            self._extend_to(len(self._delta))
        return bisect.bisect_left(self._delta, dt) - 1

    def _extend_to(self, q: int) -> None:
        while len(self._delta) <= q:
            n = len(self._delta)
            best = 0
            # δ⁻(n) >= max over a in [2, n-1] of δ⁻(a) + δ⁻(n - a + 1)
            for a in range(2, n):
                b = n - a + 1
                if b < 2:
                    break
                best = max(best, self._delta[a] + self._delta[b])
            self._delta.append(best)

    def __repr__(self) -> str:
        return f"DeltaTableEventModel(l={self.depth}, table={self._table})"


def interposed_interference_table(table: Sequence[int],
                                  c_bh_effective: int) -> Callable[[int], int]:
    """Generalized Eq. (14) for an l-entry δ⁻ monitoring table.

    The monitor shapes accepted activations to the event model implied
    by the table; the interference in Δt is bounded by
    η⁺_shaped(Δt) * C'_BH.  For l = 1, η⁺(Δt) = ceil(Δt / d_min) and
    this reduces exactly to Eq. 14.
    """
    model = DeltaTableEventModel(table)

    def bound(dt: int) -> int:
        if dt < 0:
            raise ValueError(f"window must be >= 0, got {dt}")
        if dt == 0:
            return 0
        return model.eta_plus(dt) * c_bh_effective

    return bound


def check_duality(model: EventModel, max_q: int = 50) -> bool:
    """Verify the η⁺ / δ⁻ duality on a model.

    For each q in [2, max_q]: a window of size δ⁻(q) must hold fewer
    than q events... strictly, η⁺(δ⁻(q)) < q and η⁺(δ⁻(q) + 1) >= q
    would only hold for exact duals; for conservative models we check
    the weaker sound direction η⁺(δ⁻(q)) <= q.
    """
    for q in range(2, max_q + 1):
        span = model.delta_minus(q)
        if span > 0 and model.eta_plus(span) > q:
            return False
    return True
