"""Context-switch cost model and accounting.

A partition context switch on the paper's platform costs ~5000
instructions for cache/TLB invalidation plus ~5000 cycles of cache
writebacks (Section 6.2) — about 50 us at 200 MHz, which dominates the
per-interposition overhead ``C'_BH - C_BH`` (Eq. 13).

The model charges a fixed cycle cost per switch and counts switches by
reason, which the overhead experiment (tab62) uses to reproduce the
paper's "~10 % increase in the number of context switches" result.
"""

from __future__ import annotations

import enum
from typing import Dict

from repro.hypervisor.config import CostModel


class SwitchReason(enum.Enum):
    """Why a context switch happened."""

    SLOT = "slot"                    # TDMA slot boundary
    INTERPOSE_ENTER = "interpose_enter"
    INTERPOSE_EXIT = "interpose_exit"

    def __init__(self, value: str):
        # Declaration-order position: the counters are a list indexed
        # by it, because hashing an Enum member runs Python-level code
        # and the slot-switch path counts one switch per boundary.
        self.index = len(type(self)._member_names_)


class ContextSwitchModel:
    """Fixed-cost context switch accounting."""

    def __init__(self, costs: CostModel):
        self._cost_cycles = costs.context_switch_cycles()
        self._counts = [0] * len(SwitchReason)

    @property
    def cost_cycles(self) -> int:
        """``C_ctx`` in cycles."""
        return self._cost_cycles

    def switch(self, reason: SwitchReason) -> int:
        """Record one context switch; returns its cycle cost."""
        self._counts[reason.index] += 1
        return self._cost_cycles

    def record_batch(self, reason: SwitchReason, count: int) -> None:
        """Record ``count`` switches at once (idle-skip bulk accounting)."""
        if count < 0:
            raise ValueError(f"switch count must be >= 0, got {count}")
        self._counts[reason.index] += count

    def count(self, reason: SwitchReason) -> int:
        return self._counts[reason.index]

    @property
    def total(self) -> int:
        """Total number of context switches performed."""
        return sum(self._counts)

    @property
    def counts(self) -> Dict[SwitchReason, int]:
        return dict(zip(SwitchReason, self._counts))

    @property
    def total_cycles(self) -> int:
        """Total cycles spent context switching."""
        return self.total * self._cost_cycles

    def snapshot_state(self) -> dict:
        """Plain-data counts (see :mod:`repro.sim.snapshot`)."""
        return {reason.value: count
                for reason, count in zip(SwitchReason, self._counts)}

    def restore_state(self, state: dict) -> None:
        self._counts = [state.get(reason.value, 0) for reason in SwitchReason]
