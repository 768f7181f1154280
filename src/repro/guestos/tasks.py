"""Guest task and job model.

Each application partition may run a guest operating system
(Section 3; the paper uses para-virtualized uC/OS guests).  We model
the guest workload as a set of fixed-priority tasks: periodic tasks
release jobs with a given period and offset, and a *background* task
(``period=None``) models an always-ready compute loop that soaks up
remaining slot time — the "current task" of Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class GuestTask:
    """A task inside a guest OS.

    Parameters
    ----------
    name:
        Task identifier (unique within its kernel).
    priority:
        Fixed priority; numerically lower is more important.
    wcet_cycles:
        Execution demand of each job; ``None`` for background tasks
        that never finish.
    period_cycles:
        Release period.  ``None`` with a WCET makes the task
        *sporadic* — released externally (e.g. by a bottom handler via
        :meth:`repro.guestos.kernel.GuestKernel.release_task`); ``None``
        without a WCET makes it a *background* task (a single,
        always-ready, infinite job).
    offset_cycles:
        Release offset of the first job (periodic tasks only).
    deadline_cycles:
        Relative deadline; defaults to the period (implicit deadlines);
        optional for sporadic tasks.
    """

    name: str
    priority: int
    wcet_cycles: Optional[int] = None
    period_cycles: Optional[int] = None
    offset_cycles: int = 0
    deadline_cycles: Optional[int] = None

    def __post_init__(self):
        if self.period_cycles is not None and self.period_cycles <= 0:
            raise ValueError(f"period must be positive, got {self.period_cycles}")
        if self.wcet_cycles is not None and self.wcet_cycles <= 0:
            raise ValueError(f"WCET must be positive, got {self.wcet_cycles}")
        if self.offset_cycles < 0:
            raise ValueError(f"offset must be >= 0, got {self.offset_cycles}")
        if self.period_cycles is not None and self.wcet_cycles is None:
            raise ValueError(f"periodic task {self.name!r} needs a WCET")
        if self.deadline_cycles is not None and self.deadline_cycles <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline_cycles}")

    @property
    def is_background(self) -> bool:
        """An always-ready infinite compute loop (no period, no WCET)."""
        return self.period_cycles is None and self.wcet_cycles is None

    @property
    def is_sporadic(self) -> bool:
        """Released externally (no period, but a finite WCET)."""
        return self.period_cycles is None and self.wcet_cycles is not None

    def relative_deadline(self) -> Optional[int]:
        """Relative deadline (defaults to the period)."""
        if self.deadline_cycles is not None:
            return self.deadline_cycles
        return self.period_cycles


class GuestJob:
    """One released instance of a guest task."""

    __slots__ = ("task", "seq", "release_time", "remaining",
                 "absolute_deadline", "completed_at", "first_start")

    def __init__(self, task: GuestTask, seq: int, release_time: int):
        self.task = task
        self.seq = seq
        self.release_time = release_time
        self.remaining: Optional[int] = task.wcet_cycles
        deadline = task.relative_deadline()
        self.absolute_deadline = (
            None if deadline is None else release_time + deadline
        )
        self.completed_at: Optional[int] = None
        self.first_start: Optional[int] = None

    @property
    def response_time(self) -> Optional[int]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.release_time

    @property
    def missed_deadline(self) -> bool:
        return (
            self.completed_at is not None
            and self.absolute_deadline is not None
            and self.completed_at > self.absolute_deadline
        )

    def __repr__(self) -> str:
        return (
            f"GuestJob({self.task.name}#{self.seq}, release={self.release_time}, "
            f"remaining={self.remaining})"
        )
