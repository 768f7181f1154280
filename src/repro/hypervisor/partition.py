"""Application partitions.

A partition is the hypervisor's unit of isolation (Fig. 1): it owns an
emulated IRQ queue, optionally a guest OS kernel with tasks, and an
IPC mailbox.  From the hypervisor scheduler's perspective a partition
is just a task (Section 4), so it carries no scheduling logic of its
own — the hypervisor decides when it runs, the guest kernel decides
what it runs.
"""

from __future__ import annotations

from typing import Optional

from repro.guestos.kernel import GuestKernel
from repro.hypervisor.irq import IrqQueue


class Partition:
    """One spatially and temporally isolated application partition."""

    def __init__(self, name: str, guest: Optional[GuestKernel] = None,
                 busy_background: bool = True,
                 irq_queue_capacity: Optional[int] = None):
        """
        Parameters
        ----------
        name:
            Partition identifier; also used in the TDMA slot table.
        guest:
            Optional guest OS kernel.  Without one, the partition runs
            a generic background load (or idles, see below).
        busy_background:
            When True (default) and no guest job is ready, the
            partition executes an infinite background loop — the
            "current task" in Fig. 2.  When False the partition idles,
            leaving its slot capacity unused.
        irq_queue_capacity:
            Optional bound on the emulated IRQ queue.
        """
        if not name:
            raise ValueError("partition name must be non-empty")
        self.name = name
        self.guest = guest
        self.busy_background = busy_background
        self.irq_queue = IrqQueue(capacity=irq_queue_capacity)
        self.mailbox: list = []
        # CPU accounting categories and labels the hypervisor charges
        # this partition's work to, built once rather than per dispatch.
        self.task_category = f"task:{name}"
        self.idle_category = f"idle:{name}"
        self.bh_category = f"bh:{name}"
        self.background_label = f"background:{name}"

        # Statistics maintained by the hypervisor:
        self.bottom_handlers_completed = 0
        self.slots_entered = 0

    @property
    def has_pending_irqs(self) -> bool:
        return not self.irq_queue.empty

    # ------------------------------------------------------------------
    # Snapshot/fork support (see repro.sim.snapshot)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Plain-data partition state at a quiescent point.

        Guest kernels carry task sets and release timers whose state is
        not part of the snapshot protocol (the experiment scenarios
        this serves never attach one); a pending mailbox likewise means
        IPC is in flight.  Both refuse loudly instead of forking a
        silently-diverging world.
        """
        from repro.sim.snapshot import SnapshotError

        if self.guest is not None:
            raise SnapshotError(
                f"partition {self.name!r} has a guest kernel attached"
            )
        if self.mailbox:
            raise SnapshotError(
                f"partition {self.name!r} has undelivered IPC messages"
            )
        return {
            "name": self.name,
            "busy_background": self.busy_background,
            "bottom_handlers_completed": self.bottom_handlers_completed,
            "slots_entered": self.slots_entered,
            "queue": self.irq_queue.snapshot_state(),
        }

    @classmethod
    def restore_from_snapshot(cls, state: dict) -> "Partition":
        """Rebuild the partition shell; the hypervisor restores the IRQ
        queue separately once the sources it references exist."""
        partition = cls(state["name"],
                        busy_background=state["busy_background"],
                        irq_queue_capacity=state["queue"]["capacity"])
        partition.bottom_handlers_completed = state["bottom_handlers_completed"]
        partition.slots_entered = state["slots_entered"]
        return partition

    def __repr__(self) -> str:
        guest = self.guest.name if self.guest else None
        return (
            f"Partition({self.name}, guest={guest}, "
            f"pending_irqs={len(self.irq_queue)})"
        )
