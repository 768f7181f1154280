"""Property-based tests of the discrete-event engine's invariants.

The engine's hot paths are aggressively tuned (tuple heap entries,
inlined dispatch loops, an O(1) pending counter maintained across lazy
cancellation), so these hypothesis tests pin down the semantics the
tuning must preserve:

* events fire in (time, insertion order) — FIFO among simultaneous
  events — for *any* schedule;
* cancelled events never fire, no matter how cancellation interleaves
  with scheduling and execution;
* ``pending_events`` always equals the brute-force count of live
  handles, even though cancelled entries linger in storage until
  drained or compacted.

The random-program equivalence against a sorted-list reference engine
lives in ``tests/test_engine_oracle.py``.  The ``backend`` axis keeps
the names of the retired queue backends (see ``conftest.RETIRED_BACKENDS``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import RETIRED_BACKENDS
from repro.sim.engine import SimulationEngine

pytestmark = pytest.mark.parametrize("backend", RETIRED_BACKENDS)


def _live_entry_count(engine: SimulationEngine) -> int:
    """Brute-force ground truth the O(1) counter must match."""
    return len(engine.live_entries())


@settings(deadline=None)
@given(delays=st.lists(st.integers(min_value=0, max_value=20),
                       min_size=1, max_size=60))
def test_fifo_ordering_for_any_schedule(backend, delays):
    """Execution order is (time, insertion seq) — stable FIFO."""
    engine = SimulationEngine()
    fired = []
    expected = []
    for index, delay in enumerate(delays):
        engine.schedule(delay, lambda i=index: fired.append(i))
        expected.append((delay, index))
    engine.run()
    expected.sort()                       # stable: seq breaks time ties
    assert fired == [index for _, index in expected]
    assert engine.events_executed == len(delays)
    assert engine.pending_events == 0


@settings(deadline=None)
@given(plan=st.lists(
    st.tuples(st.integers(min_value=0, max_value=20), st.booleans()),
    min_size=1, max_size=60,
))
def test_cancelled_events_never_fire(backend, plan):
    """Lazy cancellation: cancelled handles are skipped, order kept."""
    engine = SimulationEngine()
    fired = []
    handles = []
    for index, (delay, _) in enumerate(plan):
        handles.append(
            engine.schedule(delay, lambda i=index: fired.append(i))
        )
    for handle, (_, cancel) in zip(handles, plan):
        if cancel:
            handle.cancel()
            handle.cancel()               # cancel is idempotent
    engine.run()
    survivors = sorted(
        (delay, index) for index, (delay, cancel) in enumerate(plan)
        if not cancel
    )
    assert fired == [index for _, index in survivors]
    assert engine.events_executed == len(survivors)
    assert engine.pending_events == 0


#: One mutation step of the pending-counter state machine: a delay
#: schedules a new event, "cancel" cancels a pseudo-randomly chosen
#: live handle, "step" executes the next pending event.
_OPS = st.one_of(
    st.integers(min_value=0, max_value=20),
    st.just("cancel"),
    st.just("step"),
)


@settings(deadline=None)
@given(ops=st.lists(_OPS, min_size=1, max_size=80))
def test_pending_counter_matches_brute_force(backend, ops):
    """The O(1) counter tracks interleaved schedule/cancel/step exactly.

    Regression test for the heap-scan elimination: the seed engine
    recomputed ``pending_events`` by scanning the heap on every access,
    and the counter replacing the scan must stay consistent while
    cancelled entries are still sitting in the heap.
    """
    engine = SimulationEngine()
    live = []
    for op in ops:
        if op == "cancel":
            if live:
                # deterministic pseudo-random pick, seeded by the counter
                victim = live.pop(engine.pending_events % len(live))
                victim.cancel()
        elif op == "step":
            engine.step()
            live = [handle for handle in live if handle.pending]
        else:
            live.append(engine.schedule(op, lambda: None))
        assert engine.pending_events == len(live)
        assert engine.pending_events == _live_entry_count(engine)
    engine.run()
    assert engine.pending_events == 0
    assert engine.heap_depth == 0
