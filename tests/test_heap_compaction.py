"""Heap compaction under timer churn (engine lazy-cancellation GC).

Timer reprogramming cancels lazily: dead entries stay in the heap
until a compaction rebuilds it.  These tests pin the two guarantees
the compactor makes — the heap stays bounded under unbounded
program/cancel churn, and the exact accounting (``pending_events``,
``peek_next_time``) plus dispatch order are unaffected by when
compactions happen.

Compaction triggers at *cancel* time (the only operation that creates
a dead entry), when dead entries outnumber both ``COMPACTION_FLOOR``
and the live count.  The ``backend`` axis keeps the names of the
retired queue backends (see ``conftest.RETIRED_BACKENDS``).
"""

import pytest

from conftest import RETIRED_BACKENDS
from repro.sim.engine import COMPACTION_FLOOR, SimulationEngine
from repro.sim.intc import InterruptController
from repro.sim.timers import OneShotTimer

pytestmark = pytest.mark.parametrize("backend", RETIRED_BACKENDS)


def test_reprogram_churn_keeps_queue_depth_bounded(backend):
    engine = SimulationEngine()
    intc = InterruptController(engine)
    timer = OneShotTimer(engine, intc, line=0)
    for i in range(10_000):
        timer.program(100 + (i % 7))
    # Exactly one live deadline; the 9_999 dead entries were compacted
    # away whenever they outnumbered both the floor and the live count.
    assert engine.pending_events == 1
    assert engine.heap_depth <= 2 * (COMPACTION_FLOOR + 1)
    assert engine.compactions > 0
    assert timer.armed


def test_program_cancel_churn_with_no_live_events(backend):
    engine = SimulationEngine()
    intc = InterruptController(engine)
    timer = OneShotTimer(engine, intc, line=0)
    for _ in range(5_000):
        timer.program(10)
        timer.cancel()
    assert engine.pending_events == 0
    assert engine.peek_next_time() is None
    assert engine.heap_depth <= 2 * (COMPACTION_FLOOR + 1)
    assert engine.compactions > 0


def test_peek_and_pending_exact_across_compaction(backend):
    engine = SimulationEngine()
    fired = []
    handles = [engine.schedule(1_000 + i, lambda i=i: fired.append(i))
               for i in range(200)]
    for handle in handles[:150]:
        handle.cancel()
    # The 101st cancel saw 101 dead > 100 - 1 live > floor and
    # compacted; the 49 dead entries cancelled after it stay lazily.
    assert engine.compactions >= 1
    assert engine.pending_events == 50
    assert engine.heap_depth - engine.pending_events <= COMPACTION_FLOOR
    engine.schedule(5_000, lambda: fired.append(-1))
    assert engine.pending_events == 51
    assert engine.peek_next_time() == 1_150
    executed = engine.run()
    assert executed == 51
    assert fired == list(range(150, 200)) + [-1]
    assert engine.pending_events == 0


def test_compaction_preserves_fifo_order_of_simultaneous_events(backend):
    engine = SimulationEngine()
    order = []
    keep = [engine.schedule(500, lambda i=i: order.append(i))
            for i in range(10)]
    churn = [engine.schedule(400, lambda: order.append(-1))
             for _ in range(80)]
    for handle in churn:
        handle.cancel()      # the 65th cancel (65 dead > 25 live) compacts
    assert engine.compactions >= 1
    engine.schedule(600, lambda: order.append(99))
    engine.run()
    assert order == list(range(10)) + [99]
    assert all(handle.pending is False for handle in keep)
