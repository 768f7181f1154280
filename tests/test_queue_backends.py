"""Hand-written event-queue cases, on the engine and its oracle.

FIFO among simultaneous events, stop sentinels ahead of same-time
events (including one installed for the dispatching timestamp from
inside a callback), and out-of-order ``restore_event`` inserts.  The
``array``, ``bucket`` and ``heap`` ids keep the names of the retired
queue backends (see ``conftest.RETIRED_BACKENDS``) and run
:class:`repro.sim.engine.SimulationEngine`; ``reference`` runs the
sorted-list oracle of ``tests/test_engine_oracle.py``.
"""

from __future__ import annotations

import pytest

from conftest import RETIRED_BACKENDS
from reference_engine import ReferenceEngine
from repro.sim.engine import SimulationEngine

ENGINES = {**{name: SimulationEngine for name in RETIRED_BACKENDS},
           "reference": ReferenceEngine}


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_simultaneous_events_fire_in_schedule_order(engine_name):
    engine = ENGINES[engine_name]()
    order: list[int] = []
    for tag in range(8):
        engine.schedule(100, lambda tag=tag: order.append(tag))
    engine.run()
    assert order == list(range(8))
    # The whole timestamp drained as one batch: a single clock write.
    assert engine.dispatch_batches == 1
    assert engine.now == 100


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_stop_sentinel_fires_before_same_time_events(engine_name):
    """Negative-seq sentinels beat ordinary events at their timestamp."""
    engine = ENGINES[engine_name]()
    fired: list[str] = []
    engine.schedule(10, lambda: fired.append("ev10"))
    engine.schedule(5, lambda: fired.append("ev5"))
    engine.schedule_stop_at(10)
    engine.run()
    assert fired == ["ev5"]
    assert engine.now == 10
    assert engine.pending_events == 1
    engine.run()                       # resume past the spent sentinel
    assert fired == ["ev5", "ev10"]
    assert engine.pending_events == 0


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_stop_sentinel_at_dispatching_timestamp_fires_next(engine_name):
    """A sentinel installed for *now* from inside a callback fires before
    the same-timestamp events still queued behind that callback."""
    engine = ENGINES[engine_name]()
    fired: list[int] = []

    def first() -> None:
        fired.append(0)
        engine.schedule_stop_at(engine.now)

    engine.schedule(10, first)
    for tag in (1, 2):
        engine.schedule(10, lambda tag=tag: fired.append(tag))
    assert engine.run() == 2               # first + the sentinel
    assert fired == [0]
    assert engine.now == 10
    assert engine.pending_events == 2
    assert engine.run() == 2
    assert fired == [0, 1, 2]


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_restore_event_out_of_order_keeps_fifo(engine_name):
    """The snapshot-restore insert path must re-sort by original seq."""
    engine = ENGINES[engine_name]()
    engine.restore_state({"now": 50, "seq": 10, "events_executed": 0,
                          "events_cancelled": 0, "pending": 3})
    order: list[int] = []
    # Restored in arrival order 7, 2, 5 — must fire as 2, 5, 7.
    for seq in (7, 2, 5):
        engine.restore_event(60, seq, lambda seq=seq: order.append(seq))
    assert [(t, s) for t, s, _ in engine.live_entries()] == \
        [(60, 2), (60, 5), (60, 7)]
    engine.run()
    assert order == [2, 5, 7]
    assert engine.now == 60
