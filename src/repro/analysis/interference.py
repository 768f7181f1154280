"""Interference bounds for monitored interposing (Eqs. 13–15 and
sufficient temporal independence, Eq. 2).

The analytical counterpart of the runtime accounting in
:mod:`repro.core.independence`: given the monitoring condition (a
d_min or a general δ⁻ table) and the effective interposed cost
C'_BH (Eq. 13), these functions bound the interference any other
partition can suffer in a window Δt — the quantity that replaces
I_p in Eq. (2) and is *independent of partition runtime behaviour*.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.analysis.event_models import DeltaTableEventModel, EventModel
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


def dmin_for_budget_fraction(budget_fraction: float, c_bh: int,
                             costs: "CostModel | None" = None) -> int:
    """Smallest d_min keeping long-run interference below a budget.

    Inverse of :func:`interference_budget_fraction`: the system
    designer states "partitions may lose at most X % of their slot
    time to foreign bottom handlers" and obtains the monitoring
    condition to configure.
    """
    if not 0.0 < budget_fraction <= 1.0:
        raise ValueError(
            f"budget fraction must be in (0, 1], got {budget_fraction}"
        )
    costs = costs or CostModel()
    effective = costs.effective_bottom_handler_cycles(c_bh)
    return math.ceil(effective / budget_fraction)


def slot_interference_fits(dt_slot: int, dmin: int, c_bh: int,
                           max_loss_fraction: float,
                           costs: "CostModel | None" = None) -> bool:
    """Check a slot-level independence budget (Eq. 2 instantiated).

    True iff the Eq. 14 interference over one slot of length
    ``dt_slot`` stays below ``max_loss_fraction * dt_slot``.
    """
    costs = costs or CostModel()
    effective = costs.effective_bottom_handler_cycles(c_bh)
    loss = interposed_interference_dmin(dt_slot, dmin, effective)
    return loss <= max_loss_fraction * dt_slot
