"""Cold-start busy-window oracle for the warm-started production solver.

``repro.analysis.busy_window.response_time`` starts each W(q) from
W(q-1) + C.  This module keeps the straightforward formulation it
replaced: every W(q) is solved from scratch, starting at
``max(q * C, 1)``.  For monotone interference both must agree exactly,
including on which inputs raise ``NotSchedulableError``.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.busy_window import NotSchedulableError, ResponseTimeResult
from repro.analysis.event_models import EventModel


def cold_busy_time(q: int, own_cost: int,
                   interference: Callable[[int], int],
                   horizon: int = 2**48,
                   max_iterations: int = 100_000) -> int:
    """W(q) = q * own_cost + interference(W(q)), iterated from max(q*C, 1)."""
    if q <= 0:
        raise ValueError(f"q must be >= 1, got {q}")
    if own_cost < 0:
        raise ValueError(f"cost must be >= 0, got {own_cost}")
    base = q * own_cost
    w = max(base, 1)
    for _ in range(max_iterations):
        nxt = base + interference(w)
        if nxt > horizon:
            raise NotSchedulableError(
                f"busy window exceeded horizon {horizon} for q={q}"
            )
        if nxt <= w:
            return w
        w = nxt
    raise NotSchedulableError(
        f"busy-window iteration did not converge within {max_iterations} steps"
    )


def cold_response_time(own_cost: int, model: EventModel,
                       interference: Callable[[int], int],
                       q_limit: int = 10_000,
                       horizon: int = 2**48) -> ResponseTimeResult:
    """Eqs. (3)–(5) with a cold fixed-point solve at every q."""
    busy_times: list[int] = []
    worst = 0
    critical_q = 1
    q = 1
    while True:
        w = cold_busy_time(q, own_cost, interference, horizon=horizon)
        busy_times.append(w)
        candidate = w - model.delta_minus(q)
        if candidate > worst or q == 1:
            worst = max(worst, candidate)
            if candidate == worst:
                critical_q = q
        if model.delta_minus(q + 1) > w:
            break
        q += 1
        if q > q_limit:
            raise NotSchedulableError(
                f"busy window spans more than {q_limit} activations"
            )
    return ResponseTimeResult(
        response_time=worst,
        q_max=q,
        busy_times=tuple(busy_times),
        critical_q=critical_q,
    )
