"""TDMA interference term — Eq. (8).

The worst-case interference a task bound to a slot of length ``T_i``
suffers from the other slots of a TDMA cycle of length ``T_TDMA``
(including context-switch overhead) within any window Δt is

    I_TDMA(Δt) = ceil(Δt / T_TDMA) * (T_TDMA - T_i)      (Eq. 8)

following Tindell & Clark's holistic analysis.  The bound is
conservative: every started cycle is charged its full foreign time.
"""

from __future__ import annotations

import math


def tdma_interference(dt: int, cycle_length: int, slot_length: int) -> int:
    """Worst-case foreign-slot interference in a window of size ``dt``."""
    if cycle_length <= 0:
        raise ValueError(f"TDMA cycle must be positive, got {cycle_length}")
    if not 0 < slot_length <= cycle_length:
        raise ValueError(
            f"slot length must be in (0, {cycle_length}], got {slot_length}"
        )
    if dt < 0:
        raise ValueError(f"window must be >= 0, got {dt}")
    if dt == 0:
        return 0
    return math.ceil(dt / cycle_length) * (cycle_length - slot_length)
