"""Fixed-priority preemptive guest OS kernel (uC/OS-like).

The kernel manages the ready queue of its partition's tasks.  The
*hypervisor* decides when the partition is allowed to run at all (TDMA
slots); the kernel only picks which of its ready jobs runs whenever its
partition has the CPU.  Periodic releases are driven by simulation
events (standing in for the guest's virtualized tick interrupt — we do
not model the guest tick itself, which the paper treats as part of
ordinary partition execution).

Per-task statistics (response times, deadline misses) feed the
temporal-independence checks: under monitored interposing, a victim
partition's guest tasks must keep their deadlines whenever the
analysis of Section 5.1 says the bounded interference fits their
slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.guestos.tasks import GuestJob, GuestTask
from repro.sim.engine import SimulationEngine


@dataclass
class TaskStats:
    """Aggregated per-task statistics."""

    released: int = 0
    completed: int = 0
    deadline_misses: int = 0
    overruns: int = 0          # releases while the previous job was unfinished
    max_response: int = 0
    total_response: int = 0
    response_times: list = field(default_factory=list)

    @property
    def avg_response(self) -> float:
        if self.completed == 0:
            return 0.0
        return self.total_response / self.completed


class GuestKernel:
    """Per-partition fixed-priority scheduler and job bookkeeping."""

    def __init__(self, name: str):
        self.name = name
        self._tasks: dict[str, GuestTask] = {}
        self._ready: list[GuestJob] = []
        self._stats: dict[str, TaskStats] = {}
        self._engine: Optional[SimulationEngine] = None
        self._notify: Optional[Callable[[], None]] = None
        self._seq = 0
        self._attached = False

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def add_task(self, task: GuestTask) -> None:
        if self._attached:
            raise RuntimeError("cannot add tasks after the kernel is attached")
        if task.name in self._tasks:
            raise ValueError(f"duplicate task name {task.name!r}")
        self._tasks[task.name] = task
        self._stats[task.name] = TaskStats()

    @property
    def tasks(self) -> list[GuestTask]:
        return list(self._tasks.values())

    def attach(self, engine: SimulationEngine,
               notify: Callable[[], None]) -> None:
        """Wire the kernel to the simulation.

        ``notify`` is invoked whenever new work becomes ready, so the
        hypervisor can preempt a lower-priority job if this partition
        is currently executing.
        """
        if self._attached:
            raise RuntimeError("kernel already attached")
        self._engine = engine
        self._notify = notify
        self._attached = True
        for task in self._tasks.values():
            if task.is_background:
                self._release(task)       # single infinite job, ready at t0
            elif task.is_sporadic:
                pass                      # released via release_task()
            else:
                engine.schedule(task.offset_cycles,
                                self._make_release(task),
                                label=f"release-{task.name}")

    def detach(self) -> None:
        """Drop the wiring of a finished simulation.

        ``notify`` is usually a closure over the hypervisor whose
        partition runs this kernel, so an attached kernel and that
        hypervisor form a reference cycle.  The statistics stay
        readable; the kernel cannot run or be attached again.
        """
        self._engine = None
        self._notify = None

    def release_task(self, name: str) -> GuestJob:
        """Release one job of a sporadic task (e.g. from a bottom
        handler processing the IRQ that activates it)."""
        task = self._tasks[name]
        if not task.is_sporadic:
            raise ValueError(
                f"task {name!r} is not sporadic; only sporadic tasks are "
                "released externally"
            )
        self._release(task)
        return self._ready[-1]

    # ------------------------------------------------------------------
    # Scheduling interface (called by the hypervisor)
    # ------------------------------------------------------------------

    def pick(self) -> Optional[GuestJob]:
        """Highest-priority ready job, or None if the kernel is idle.

        Ties are broken by release order (FIFO within a priority).
        """
        best: Optional[GuestJob] = None
        for job in self._ready:
            if best is None or (job.task.priority, job.seq) < (
                best.task.priority, best.seq
            ):
                best = job
        return best

    def job_finished(self, job: GuestJob, now: int) -> None:
        """Record completion of a job and remove it from the ready set."""
        if job not in self._ready:
            raise ValueError(f"{job!r} is not a ready job of kernel {self.name}")
        if job.remaining != 0:
            raise ValueError(f"{job!r} finished with work remaining")
        self._ready.remove(job)
        job.completed_at = now
        stats = self._stats[job.task.name]
        stats.completed += 1
        response = job.response_time
        stats.total_response += response
        stats.max_response = max(stats.max_response, response)
        stats.response_times.append(response)
        if job.missed_deadline:
            stats.deadline_misses += 1

    @property
    def ready_jobs(self) -> list[GuestJob]:
        return list(self._ready)

    def stats(self, task_name: str) -> TaskStats:
        return self._stats[task_name]

    @property
    def all_stats(self) -> dict[str, TaskStats]:
        return dict(self._stats)

    def total_deadline_misses(self) -> int:
        return sum(stats.deadline_misses for stats in self._stats.values())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _make_release(self, task: GuestTask) -> Callable[[], None]:
        def release() -> None:
            self._release(task)
            assert self._engine is not None
            self._engine.schedule(task.period_cycles,
                                  self._make_release(task),
                                  label=f"release-{task.name}")
        return release

    def _release(self, task: GuestTask) -> None:
        stats = self._stats[task.name]
        if any(job.task is task for job in self._ready) and not task.is_background:
            stats.overruns += 1
        job = GuestJob(task, self._seq, 0 if self._engine is None else self._engine.now)
        self._seq += 1
        self._ready.append(job)
        stats.released += 1
        if self._notify is not None:
            self._notify()

    def __repr__(self) -> str:
        return f"GuestKernel({self.name}, tasks={len(self._tasks)}, ready={len(self._ready)})"
