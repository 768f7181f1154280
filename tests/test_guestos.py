"""Tests for the guest OS kernel and task model."""

import pytest

from repro.guestos.kernel import GuestKernel
from repro.guestos.tasks import GuestJob, GuestTask
from repro.sim.engine import SimulationEngine


class TestGuestTask:
    def test_periodic_task(self):
        task = GuestTask("sensor", priority=1, wcet_cycles=100,
                         period_cycles=1_000)
        assert not task.is_background
        assert task.relative_deadline() == 1_000

    def test_explicit_deadline(self):
        task = GuestTask("ctl", priority=1, wcet_cycles=100,
                         period_cycles=1_000, deadline_cycles=500)
        assert task.relative_deadline() == 500

    def test_background_task(self):
        task = GuestTask("bg", priority=10)
        assert task.is_background
        assert task.relative_deadline() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            GuestTask("bad", 1, wcet_cycles=0, period_cycles=100)
        with pytest.raises(ValueError):
            GuestTask("bad", 1, wcet_cycles=10, period_cycles=0)
        with pytest.raises(ValueError):
            GuestTask("bad", 1, period_cycles=100)    # periodic needs WCET
        with pytest.raises(ValueError):
            GuestTask("bad", 1, wcet_cycles=10, period_cycles=100,
                      offset_cycles=-1)


class TestGuestJob:
    def test_deadline_and_response(self):
        task = GuestTask("t", 1, wcet_cycles=10, period_cycles=100)
        job = GuestJob(task, seq=0, release_time=50)
        assert job.absolute_deadline == 150
        job.remaining = 0
        job.completed_at = 120
        assert job.response_time == 70
        assert not job.missed_deadline

    def test_missed_deadline(self):
        task = GuestTask("t", 1, wcet_cycles=10, period_cycles=100)
        job = GuestJob(task, seq=0, release_time=0)
        job.remaining = 0
        job.completed_at = 150
        assert job.missed_deadline


class TestGuestKernel:
    def make_kernel(self):
        kernel = GuestKernel("guest")
        kernel.add_task(GuestTask("hi", priority=1, wcet_cycles=10,
                                  period_cycles=100))
        kernel.add_task(GuestTask("lo", priority=5, wcet_cycles=20,
                                  period_cycles=200, offset_cycles=0))
        return kernel

    def test_releases_follow_periods(self):
        engine = SimulationEngine()
        kernel = self.make_kernel()
        kernel.attach(engine, lambda: None)
        engine.run_until(250)
        assert kernel.stats("hi").released == 3   # t=0, 100, 200
        assert kernel.stats("lo").released == 2   # t=0, 200

    def test_pick_highest_priority(self):
        engine = SimulationEngine()
        kernel = self.make_kernel()
        kernel.attach(engine, lambda: None)
        engine.run_until(0)
        job = kernel.pick()
        assert job.task.name == "hi"

    def test_pick_fifo_within_priority(self):
        engine = SimulationEngine()
        kernel = GuestKernel("g")
        kernel.add_task(GuestTask("a", priority=1, wcet_cycles=5,
                                  period_cycles=100))
        kernel.attach(engine, lambda: None)
        engine.run_until(150)   # two jobs of "a" ready
        first = kernel.pick()
        assert first.release_time == 0   # the older of the two jobs

    def test_background_job_always_ready(self):
        engine = SimulationEngine()
        kernel = GuestKernel("g")
        kernel.add_task(GuestTask("bg", priority=9))
        kernel.attach(engine, lambda: None)
        job = kernel.pick()
        assert job is not None
        assert job.remaining is None

    def test_job_finished_stats(self):
        engine = SimulationEngine()
        kernel = self.make_kernel()
        kernel.attach(engine, lambda: None)
        engine.run_until(0)
        job = kernel.pick()
        job.remaining = 0
        engine.schedule(30, lambda: None)
        engine.run_until(30)
        kernel.job_finished(job, engine.now)
        stats = kernel.stats("hi")
        assert stats.completed == 1
        assert stats.max_response == 30
        assert stats.total_response == 30
        assert stats.deadline_misses == 0

    def test_job_finished_with_work_remaining_rejected(self):
        engine = SimulationEngine()
        kernel = self.make_kernel()
        kernel.attach(engine, lambda: None)
        engine.run_until(0)
        job = kernel.pick()
        with pytest.raises(ValueError):
            kernel.job_finished(job, 10)

    def test_overrun_detection(self):
        engine = SimulationEngine()
        kernel = GuestKernel("g")
        kernel.add_task(GuestTask("t", priority=1, wcet_cycles=10,
                                  period_cycles=100))
        kernel.attach(engine, lambda: None)
        engine.run_until(250)   # three releases, none completed
        assert kernel.stats("t").overruns == 2

    def test_notify_on_release(self):
        engine = SimulationEngine()
        kernel = self.make_kernel()
        notifications = []
        kernel.attach(engine, lambda: notifications.append(engine.now))
        engine.run_until(100)
        assert notifications   # at least the t=0 releases

    def test_duplicate_task_rejected(self):
        kernel = GuestKernel("g")
        kernel.add_task(GuestTask("t", 1, wcet_cycles=10, period_cycles=100))
        with pytest.raises(ValueError):
            kernel.add_task(GuestTask("t", 2, wcet_cycles=10,
                                      period_cycles=100))

    def test_add_after_attach_rejected(self):
        engine = SimulationEngine()
        kernel = GuestKernel("g")
        kernel.attach(engine, lambda: None)
        with pytest.raises(RuntimeError):
            kernel.add_task(GuestTask("t", 1, wcet_cycles=1,
                                      period_cycles=10))

    def test_double_attach_rejected(self):
        engine = SimulationEngine()
        kernel = GuestKernel("g")
        kernel.attach(engine, lambda: None)
        with pytest.raises(RuntimeError):
            kernel.attach(engine, lambda: None)
