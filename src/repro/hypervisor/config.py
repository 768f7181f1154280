"""Hypervisor configuration and the Section 6.2 cost model.

The paper reports all runtime overheads of the mechanism as
instruction/cycle counts on the ARM926ej-s evaluation platform:

* ``C_Mon``   — monitoring function: 128 instructions;
* ``C_sched`` — scheduler manipulation for interposed bottom handlers:
  877 instructions;
* ``C_ctx``   — context switch: ~5000 instructions for cache/TLB
  invalidation plus ~5000 cycles of cache writebacks for the paper's
  memory layout (=> 10000 cycles = 50 us at 200 MHz).

Top- and bottom-handler execution times (``C_TH``, ``C_BH``) are
workload parameters, configured per IRQ source.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.clock import Clock, DEFAULT_FREQUENCY_HZ

#: Paper values (Section 6.2), in instructions / cycles.
PAPER_MONITOR_INSTRUCTIONS = 128
PAPER_SCHEDULER_INSTRUCTIONS = 877
PAPER_CTX_INVALIDATE_INSTRUCTIONS = 5000
PAPER_CTX_WRITEBACK_CYCLES = 5000


@dataclass(frozen=True)
class CostModel:
    """Runtime overhead parameters of the hypervisor mechanism.

    All values default to the measurements reported in Section 6.2 of
    the paper.  Instructions are converted to cycles with a
    cycles-per-instruction factor (the ARM926ej-s is single-issue
    in-order; CPI 1.0 is the paper-consistent approximation).
    """

    monitor_instructions: int = PAPER_MONITOR_INSTRUCTIONS
    scheduler_instructions: int = PAPER_SCHEDULER_INSTRUCTIONS
    ctx_invalidate_instructions: int = PAPER_CTX_INVALIDATE_INSTRUCTIONS
    ctx_writeback_cycles: int = PAPER_CTX_WRITEBACK_CYCLES
    cycles_per_instruction: float = 1.0

    def monitor_cycles(self) -> int:
        """``C_Mon`` in cycles."""
        return round(self.monitor_instructions * self.cycles_per_instruction)

    def scheduler_cycles(self) -> int:
        """``C_sched`` in cycles."""
        return round(self.scheduler_instructions * self.cycles_per_instruction)

    def context_switch_cycles(self) -> int:
        """``C_ctx`` in cycles (invalidation instructions + writebacks)."""
        return (
            round(self.ctx_invalidate_instructions * self.cycles_per_instruction)
            + self.ctx_writeback_cycles
        )

    def effective_bottom_handler_cycles(self, c_bh: int) -> int:
        """``C'_BH = C_BH + C_sched + 2 * C_ctx`` (Eq. 13)."""
        if c_bh < 0:
            raise ValueError(f"C_BH must be >= 0, got {c_bh}")
        return c_bh + self.scheduler_cycles() + 2 * self.context_switch_cycles()

    def effective_top_handler_cycles(self, c_th: int) -> int:
        """``C'_TH = C_TH + C_Mon`` (Eq. 15)."""
        if c_th < 0:
            raise ValueError(f"C_TH must be >= 0, got {c_th}")
        return c_th + self.monitor_cycles()


@dataclass(frozen=True)
class SlotConfig:
    """One entry of the static TDMA slot table."""

    partition: str
    length_cycles: int

    def __post_init__(self):
        if self.length_cycles <= 0:
            raise ValueError(
                f"slot length must be positive, got {self.length_cycles} "
                f"for partition {self.partition!r}"
            )


@dataclass
class HypervisorConfig:
    """Top-level configuration of a simulated hypervisor system."""

    frequency_hz: int = DEFAULT_FREQUENCY_HZ
    costs: CostModel = field(default_factory=CostModel)
    #: Whether to keep a full execution trace (disable for long runs).
    trace_enabled: bool = True
    #: Optional cap on retained trace events.
    trace_capacity: int = None
    #: Record per-stint CPU occupancy segments (for timeline rendering,
    #: see :mod:`repro.metrics.timeline`).  Off by default: long runs
    #: accumulate many segments.
    record_cpu_segments: bool = False

    def make_clock(self) -> Clock:
        return Clock(self.frequency_hz)
