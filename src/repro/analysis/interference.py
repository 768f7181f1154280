"""Interference bounds for monitored interposing (Eqs. 13–15 and
sufficient temporal independence, Eq. 2).

The analytical counterpart of the runtime accounting in
:mod:`repro.core.independence`: given the monitoring condition (a
d_min) and the effective interposed cost C'_BH (Eq. 13), these
functions bound the interference any other partition can suffer in a
window Δt — the quantity that replaces I_p in Eq. (2) and is
*independent of partition runtime behaviour*.
"""

from __future__ import annotations

import math

from repro.hypervisor.config import CostModel


def interposed_interference_dmin(dt: int, dmin: int, c_bh_effective: int) -> int:
    """Eq. (14): I_interposed(Δt) = ceil(Δt / d_min) * C'_BH."""
    if dmin <= 0:
        raise ValueError(f"d_min must be positive, got {dmin}")
    if c_bh_effective < 0:
        raise ValueError(f"C'_BH must be >= 0, got {c_bh_effective}")
    if dt < 0:
        raise ValueError(f"window must be >= 0, got {dt}")
    if dt == 0:
        return 0
    return math.ceil(dt / dmin) * c_bh_effective


def interference_budget_fraction(dmin: int, c_bh: int,
                                 costs: "CostModel | None" = None) -> float:
    """Long-run CPU fraction monitored interposing may steal.

    The asymptotic rate of Eq. (14): C'_BH / d_min.  Useful to pick a
    d_min for a desired interference budget b̂_I (Eq. 2).
    """
    costs = costs or CostModel()
    if dmin <= 0:
        raise ValueError(f"d_min must be positive, got {dmin}")
    return costs.effective_bottom_handler_cycles(c_bh) / dmin
