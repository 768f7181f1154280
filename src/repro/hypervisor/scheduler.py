"""Static TDMA partition scheduler.

Partitions are assigned fixed-length time slots; the hypervisor cycles
through the slot table in a static order (Section 3).  Unused capacity
of a slot is left unused — never donated to other partitions — which is
what makes the temporal properties of one partition independent of the
execution behaviour of the others.

Slot boundaries are *nominal* (absolute multiples within the table):
even when delivery of the slot-timer interrupt is delayed by a masked
hypervisor section, subsequent boundaries stay on the fixed grid, so
the schedule never drifts.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.hypervisor.config import SlotConfig


class TdmaScheduler:
    """Cyclic executive over a static slot table."""

    def __init__(self, slots: Sequence[SlotConfig]):
        if not slots:
            raise ValueError("TDMA slot table must not be empty")
        self._slots = list(slots)
        self._cycle_length = sum(slot.length_cycles for slot in self._slots)
        self._index = 0
        self._nominal_start = 0
        self._epoch = 0
        self._started = False
        self._slots_skipped = 0
        self._advances = 0
        # (owner, start offset, end offset) of each slot within a cycle.
        self._windows: list[tuple[str, int, int]] = []
        position = 0
        for slot in self._slots:
            self._windows.append(
                (slot.partition, position, position + slot.length_cycles))
            position += slot.length_cycles

    # ------------------------------------------------------------------
    # Static table queries (used by the analysis as well)
    # ------------------------------------------------------------------

    @property
    def slots(self) -> list[SlotConfig]:
        return list(self._slots)

    @property
    def cycle_length(self) -> int:
        """``T_TDMA`` — the sum of all slot lengths."""
        return self._cycle_length

    def partitions(self) -> list[str]:
        """Distinct partition names in table order."""
        seen: list[str] = []
        for slot in self._slots:
            if slot.partition not in seen:
                seen.append(slot.partition)
        return seen

    def nominal_slot_at(self, time: int) -> tuple[str, int, int]:
        """``(owner, start, end)`` of the nominal slot containing ``time``.

        Nominal ownership follows the fixed TDMA grid (anchored at the
        schedule's start epoch) regardless of any delivery jitter of
        the slot-timer interrupt; ``start <= time < end`` are absolute
        times.
        """
        if time < self._epoch:
            raise ValueError(f"time {time} precedes schedule epoch {self._epoch}")
        within = (time - self._epoch) % self._cycle_length
        base = time - within
        for owner, start, end in self._windows:
            if within < end:
                return owner, base + start, base + end
        raise AssertionError("unreachable: offset exceeded cycle length")

    # ------------------------------------------------------------------
    # Runtime state (driven by the hypervisor)
    # ------------------------------------------------------------------

    def start(self, t0: int) -> int:
        """Begin the schedule at ``t0``; returns the first boundary time."""
        self._started = True
        self._index = 0
        self._nominal_start = t0
        self._epoch = t0
        return self.next_boundary()

    @property
    def current_slot(self) -> SlotConfig:
        return self._slots[self._index]

    @property
    def current_owner(self) -> str:
        return self._slots[self._index].partition

    def next_boundary(self) -> int:
        """Nominal end time of the current slot."""
        return self._nominal_start + self._slots[self._index].length_cycles

    def advance(self, now: Optional[int] = None) -> SlotConfig:
        """Move to the next slot (wrapping around the table).

        If ``now`` is given and delivery was so late that one or more
        whole nominal slots have already elapsed, those slots are
        skipped (and counted) so the schedule stays on the nominal
        grid.
        """
        if not self._started:
            raise RuntimeError("scheduler not started")
        self._advances += 1
        self._step()
        if now is not None:
            while self.next_boundary() <= now:
                self._step()
                self._slots_skipped += 1
        return self.current_slot

    def jump_cycles(self, cycles: int) -> None:
        """Advance through ``cycles`` whole TDMA cycles of on-grid boundaries.

        Used by the idle-skip fast-forward: a full cycle of boundary
        deliveries — each exactly on its nominal grid point — returns
        the table to the same index, so ``cycles`` of them collapse to
        one nominal-start shift and an advance-counter bump, exactly
        equal to ``len(slots) * cycles`` individual :meth:`advance`
        calls (no slot is ever late, so none are skipped).
        """
        if not self._started:
            raise RuntimeError("scheduler not started")
        if cycles < 0:
            raise ValueError(f"cycle count must be >= 0, got {cycles}")
        self._advances += cycles * len(self._slots)
        self._nominal_start += cycles * self._cycle_length

    @property
    def slots_skipped(self) -> int:
        """Slots skipped entirely due to late boundary delivery."""
        return self._slots_skipped

    def _step(self) -> None:
        self._nominal_start += self._slots[self._index].length_cycles
        self._index = (self._index + 1) % len(self._slots)

    # ------------------------------------------------------------------
    # Snapshot/fork support (see repro.sim.snapshot); the static slot
    # table is rebuilt from configuration, only runtime state is here.
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        return {
            "index": self._index,
            "nominal_start": self._nominal_start,
            "epoch": self._epoch,
            "started": self._started,
            "slots_skipped": self._slots_skipped,
            "advances": self._advances,
        }

    def restore_state(self, state: dict) -> None:
        self._index = state["index"]
        self._nominal_start = state["nominal_start"]
        self._epoch = state["epoch"]
        self._started = state["started"]
        self._slots_skipped = state["slots_skipped"]
        self._advances = state["advances"]

    def __repr__(self) -> str:
        table = ", ".join(
            f"{slot.partition}:{slot.length_cycles}" for slot in self._slots
        )
        return f"TdmaScheduler([{table}], T_TDMA={self._cycle_length})"
