"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import pytest

from repro.core.monitor import DeltaMinusMonitor
from repro.core.policy import MonitoredInterposing, NeverInterpose
from repro.hypervisor.config import HypervisorConfig, SlotConfig
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.irq import IrqSource
from repro.hypervisor.partition import Partition
from repro.sim.clock import Clock
from repro.sim.engine import SimulationEngine
from repro.sim.timers import IntervalSequenceTimer

#: Names of the event-queue backends the engine suites once ran on.
#: ``SimulationEngine`` is now a single heap implementation; the suites
#: keep these ids as a parametrize axis so their test names stay
#: stable, and every id runs that one engine.
RETIRED_BACKENDS = ("array", "bucket", "heap")


@contextmanager
def tick_by_tick():
    """Run every hypervisor tick by tick: the idle-skip test oracle.

    Production always takes the skip-aware ``tdma-boundary`` callback,
    which fast-forwards quiescent TDMA gaps analytically.  Rebinding it
    to the plain slot-line raise dispatches every boundary event, the
    reference execution the skip must be byte-identical to.  The
    callback is looked up each time a boundary is scheduled, so the
    swap holds for the whole body, also for hypervisors restored from
    a snapshot.
    """
    skip_aware = Hypervisor._boundary_dispatch
    Hypervisor._boundary_dispatch = Hypervisor._raise_slot_line
    try:
        yield
    finally:
        Hypervisor._boundary_dispatch = skip_aware


@contextmanager
def dispatched_continuations():
    """Dispatch every masked hypervisor step: the inlining test oracle.

    Production runs the next step of a masked section in place when
    the engine says it would be the next event dispatched.  Making
    :meth:`SimulationEngine.inline_continuation` always refuse sends
    every step through the queue, the reference execution the inlined
    one must be byte-identical to.
    """
    inline = SimulationEngine.inline_continuation
    SimulationEngine.inline_continuation = lambda self, delay: False
    try:
        yield
    finally:
        SimulationEngine.inline_continuation = inline


def engine_mode(idle_skip: bool):
    """The production engine (``True``) or :func:`tick_by_tick`."""
    return nullcontext() if idle_skip else tick_by_tick()


@pytest.fixture
def clock() -> Clock:
    """The paper's 200 MHz clock (200 cycles per microsecond)."""
    return Clock()


def us(microseconds: float) -> int:
    """Microseconds to cycles at 200 MHz (module-level test helper)."""
    return Clock().us_to_cycles(microseconds)


def build_system(subscriber: str = "P1",
                 policy=None,
                 intervals=(),
                 slot_us: float = 1_000.0,
                 c_th_us: float = 2.0,
                 c_bh_us: float = 40.0,
                 partitions: tuple = ("P1", "P2"),
                 trace: bool = True,
                 bottom_handler_actual=None,
                 busy_background: bool = True):
    """Construct a small two-partition system with one IRQ source.

    Returns ``(hypervisor, timer)``; the caller starts both.
    """
    clock = Clock()
    slots = [SlotConfig(name, clock.us_to_cycles(slot_us)) for name in partitions]
    config = HypervisorConfig(trace_enabled=trace)
    hv = Hypervisor(slots, config)
    for name in partitions:
        hv.add_partition(Partition(name, busy_background=busy_background))
    source = IrqSource(
        name="irq",
        line=5,
        subscriber=subscriber,
        top_handler_cycles=clock.us_to_cycles(c_th_us),
        bottom_handler_cycles=clock.us_to_cycles(c_bh_us),
        policy=policy if policy is not None else NeverInterpose(),
        bottom_handler_actual=bottom_handler_actual,
    )
    hv.add_irq_source(source)
    timer = IntervalSequenceTimer(hv.engine, hv.intc, line=5,
                                  intervals=list(intervals))
    source.on_top_handler = lambda event: timer.arm_next()
    return hv, timer


def of_kind(trace, *kinds):
    """The events of ``trace`` whose kind is one of ``kinds``: what the
    hv_* metrics and the exported trace instants reconcile against."""
    return [event for event in trace if event.kind in kinds]


def trace_rows(trace):
    """Every event of ``trace`` as a comparable ``(time, kind, data)``
    row: two recorders of the same simulation have equal rows."""
    return [(event.time, event.kind, event.data) for event in trace]


def run_system(hv, timer, expected_irqs: int, limit_us: float = 1_000_000.0):
    """Start and run a built system until all IRQs completed."""
    hv.start()
    timer.arm_next()
    hv.run_until_irq_count(expected_irqs,
                           limit_cycles=hv.clock.us_to_cycles(limit_us))
    return hv


@pytest.fixture
def monitored_policy():
    """A d_min = 500 us monitoring policy."""
    return MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(500)))
