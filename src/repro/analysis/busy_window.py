"""Busy-window (multiple-event busy period) analysis — Eqs. (3)–(5).

The q-event busy time W_i(q) is the fixed point of

    W_i(q) = q * C_i + sum_j C_j * η⁺_j(W_i(q))          (Eq. 3)

iterated until convergence, for each q from the previous solution
W_i(q-1) + C_i.  The number of activations that must be checked is

    Q_i = max { n : forall q <= n : δ⁻_i(q) <= W_i(q-1) }  (Eq. 4)

and the worst-case response time follows as

    R_i = max_{q in [1, Q_i]} ( W_i(q) - δ⁻_i(q) )         (Eq. 5)

The interference term is pluggable (a callable of the window size), so
the same solver serves Eq. 3, the TDMA-aware Eq. 11 and the interposed
Eq. 16.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.event_models import EventModel


#: Iteration budget of one fixed-point solve.
_MAX_ITERATIONS = 100_000


class NotSchedulableError(RuntimeError):
    """The busy-window iteration diverged: demand exceeds capacity."""


def _fixed_point(q: int, base: int, start: int,
                 interference: Callable[[int], int],
                 horizon: int, max_iterations: int) -> int:
    """Kleene iteration of ``w -> base + interference(w)`` from ``start``.

    Contract: ``interference`` is monotone non-decreasing, and
    ``start`` does not exceed the least fixed point.  Then every
    iterate stays at or below the least fixed point and the sequence
    climbs to it, so the first repeated value is the least fixed
    point.  Any ``start`` between the cold start ``max(base, 1)`` and
    the least fixed point therefore yields the same result, and
    reaches it in no more steps.
    """
    w = start
    for _ in range(max_iterations):
        nxt = base + interference(w)
        if nxt > horizon:
            raise NotSchedulableError(
                f"busy window exceeded horizon {horizon} for q={q}"
            )
        if nxt <= w:
            # nxt == w: the least fixed point.  nxt < w cannot happen
            # under the contract; it means ``start`` lay above the
            # least fixed point (the one-cycle floor with base 0 and
            # no interference at width 1).  ``w`` is then an upper
            # bound on the least fixed point, not the fixed point
            # itself, and is returned as a sound over-approximation.
            return w
        w = nxt
    raise NotSchedulableError(
        f"busy-window iteration did not converge within {max_iterations} steps"
    )


@dataclass(frozen=True)
class ResponseTimeResult:
    """Result of a full busy-window response-time analysis."""

    response_time: int
    q_max: int
    #: W(q) for q = 1 .. q_max (index 0 is q=1).
    busy_times: tuple[int, ...]
    #: The activation index q attaining the worst case.
    critical_q: int

    def busy_time(self, q: int) -> int:
        return self.busy_times[q - 1]


def response_time(own_cost: int, model: EventModel,
                  interference: Callable[[int], int],
                  q_limit: int = 10_000,
                  horizon: int = 2**48) -> ResponseTimeResult:
    """Worst-case response time per Eqs. (3)–(5).

    ``model`` provides the analysed task's own activation pattern
    (δ⁻ for Eqs. 4/5); ``interference`` the combined interference term
    inside the window (everything except the ``q * own_cost`` part).
    """
    if own_cost < 0:
        raise ValueError(f"cost must be >= 0, got {own_cost}")
    busy_times: list[int] = []
    worst = 0
    critical_q = 1
    q = 1
    # δ⁻(q) is evaluated once per q and carried into the next
    # iteration, where it is this iteration's Eq. 4 check value.
    delta_q = model.delta_minus(1)
    # Warm start: for monotone I, W(q) = q*C + I(W(q)) >= q*C +
    # I(W(q-1)) = W(q-1) + C, so starting W(q) at W(q-1) + C never
    # overshoots the least fixed point and reaches the same W(q) as a
    # cold start at q*C, in fewer steps (see _fixed_point).
    start = max(own_cost, 1)
    while True:
        w = _fixed_point(q, q * own_cost, start, interference, horizon,
                         _MAX_ITERATIONS)
        busy_times.append(w)
        candidate = w - delta_q
        if candidate > worst or q == 1:
            worst = max(worst, candidate)
            if candidate == worst:
                critical_q = q
        # Eq. 4: the (q+1)-th activation belongs to the same busy
        # window iff it can arrive no later than the q-event busy time.
        delta_next = model.delta_minus(q + 1)
        if delta_next > w:
            break
        q += 1
        delta_q = delta_next
        start = w + own_cost
        if q > q_limit:
            raise NotSchedulableError(
                f"busy window spans more than {q_limit} activations; "
                "the task set is overloaded or q_limit is too small"
            )
    return ResponseTimeResult(
        response_time=worst,
        q_max=q,
        busy_times=tuple(busy_times),
        critical_q=critical_q,
    )
