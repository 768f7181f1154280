"""Synthetic IRQ workloads (Section 6.1).

The paper triggers IRQs with interarrival distances following an
exponential distribution with mean λ, chosen from the target long-term
bottom-handler load U_IRQ via

    λ = C'_BH / U_IRQ                                     (Eq. 17)

For the d_min-adherent scenario the pseudo-random interarrival times
are clipped from below to d_min so the monitoring condition is always
satisfied.  All generators are seeded and produce integer cycle
distances, so experiment runs are exactly reproducible.

Because generation is deterministic in its arguments, the distance
arrays are memoized (as immutable tuples, copied to fresh lists on
return): campaign runs regenerate the same (count, mean, seed)
workload for several scenarios and sweep points, and regeneration is
pure overhead.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Sequence

from repro.hypervisor.config import CostModel


def lambda_for_load(c_bh: int, load: float,
                    costs: "CostModel | None" = None) -> int:
    """Mean interarrival time for a target interposed load — Eq. (17).

    ``load`` is the long-term bottom-handler utilization U_IRQ
    (e.g. 0.01, 0.05, 0.10 in the paper); the effective cost C'_BH
    includes the interposing overheads of Eq. 13.
    """
    if not 0.0 < load <= 1.0:
        raise ValueError(f"load must be in (0, 1], got {load}")
    costs = costs or CostModel()
    return round(costs.effective_bottom_handler_cycles(c_bh) / load)


@lru_cache(maxsize=128)
def _exponential_cached(count: int, mean: int, seed: int,
                        minimum: int) -> tuple[int, ...]:
    rng = random.Random(seed)
    rate = 1.0 / mean
    return tuple(max(minimum, round(rng.expovariate(rate)))
                 for _ in range(count))


def exponential_interarrivals(count: int, mean: int, seed: int,
                              minimum: int = 1) -> list[int]:
    """``count`` exponentially distributed interarrival distances.

    Distances are rounded to integer cycles and floored at ``minimum``
    (a hardware timer cannot be armed with a zero delay).  Memoized on
    (count, mean, seed, minimum); callers get a fresh list each time.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if mean <= 0:
        raise ValueError(f"mean interarrival must be positive, got {mean}")
    return list(_exponential_cached(count, mean, seed, minimum))


def clip_to_dmin(intervals: Sequence[int], dmin: int) -> list[int]:
    """Clip interarrival distances from below to d_min (scenario 3).

    With the timer re-armed from the top handler, consecutive IRQ
    activations are then always at least d_min apart and every
    interrupt satisfies the monitoring condition.
    """
    if dmin <= 0:
        raise ValueError(f"d_min must be positive, got {dmin}")
    return [max(int(value), dmin) for value in intervals]


@lru_cache(maxsize=64)
def _bursty_cached(count: int, burst_length: int, intra_burst: int,
                   inter_burst: int, seed: int) -> tuple[int, ...]:
    rng = random.Random(seed)
    intervals: list[int] = []
    while len(intervals) < count:
        intervals.append(max(1, round(rng.expovariate(1.0 / inter_burst))))
        for _ in range(burst_length - 1):
            if len(intervals) >= count:
                break
            intervals.append(intra_burst)
    return tuple(intervals[:count])


def bursty_interarrivals(count: int, burst_length: int, intra_burst: int,
                         inter_burst: int, seed: int) -> list[int]:
    """Bursts of closely spaced IRQs separated by long gaps.

    A stress pattern for the monitor: within a burst, distances are
    ``intra_burst``; between bursts, exponentially distributed with
    mean ``inter_burst``.  Useful for overload/enforcement tests and
    the throttling baseline.  Memoized like
    :func:`exponential_interarrivals`.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if burst_length <= 0:
        raise ValueError(f"burst length must be positive, got {burst_length}")
    if intra_burst <= 0 or inter_burst <= 0:
        raise ValueError("burst distances must be positive")
    return list(_bursty_cached(count, burst_length, intra_burst,
                               inter_burst, seed))
