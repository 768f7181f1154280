"""The production engine against its sorted-list reference oracle.

:class:`repro.sim.engine.SimulationEngine` keeps pending events in a
binary heap with lazy cancellation, cancel-time compaction and
per-run batched counters.  :class:`reference_engine.ReferenceEngine`
does the same job the obvious way.  A hypothesis-driven random program
(nested and same-cycle reschedules, absolute-time schedules,
cancellations, ``stop()`` and stop sentinels installed from inside
callbacks, a bounded ``run_until``, single steps, a ``max_events``
run, then a full drain) must produce the same callback log, clock,
counters, snapshot state and surviving entries on both.  The
hand-written cold-path cases live in ``tests/test_queue_backends.py``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from reference_engine import ReferenceEngine
from repro.sim.engine import SimulationEngine

#: One root op: (delay, reschedules, follow_delay, cancel_pick,
#: stop_pick).  ``follow_delay`` may be 0 — a same-cycle reschedule.
#: ``stop_pick`` 0 calls ``stop()`` after the last reschedule, 1
#: installs a stop sentinel ``follow_delay`` cycles ahead (possibly at
#: the dispatching timestamp itself), 2 reschedules via ``schedule_at``.
_OP = st.tuples(
    st.integers(0, 60),
    st.integers(0, 3),
    st.integers(0, 20),
    st.one_of(st.none(), st.integers(0, 255)),
    st.integers(0, 9),
)


def _execute_program(factory, program, horizon: int, steps: int,
                     max_events: int) -> dict:
    """Run a scripted workload; return everything observable."""
    engine = factory()
    log: list[tuple] = []
    handles: list = []

    def spawn(tag: int, delay: int, repeats: int, follow_delay: int,
              cancel_pick, stop_pick: int, absolute: bool) -> None:
        def callback() -> None:
            log.append((tag, repeats, engine.now))
            if repeats:
                spawn(tag, follow_delay, repeats - 1, follow_delay,
                      cancel_pick, stop_pick, stop_pick == 2)
            if cancel_pick is not None and handles:
                handles[cancel_pick % len(handles)].cancel()
            if stop_pick == 0 and not repeats:
                engine.stop()
            if stop_pick == 1 and not repeats:
                engine.schedule_stop_at(engine.now + follow_delay)

        if absolute:
            handles.append(engine.schedule_at(engine.now + delay, callback))
        else:
            handles.append(engine.schedule(delay, callback))

    for tag, (delay, repeats, follow_delay, cancel_pick,
              stop_pick) in enumerate(program):
        spawn(tag, delay, repeats, follow_delay, cancel_pick, stop_pick,
              False)

    def observe() -> tuple:
        return (engine.now, engine.events_executed, engine.events_scheduled,
                engine.events_cancelled, engine.pending_events,
                engine.dispatch_batches, engine.peek_next_time())

    phases = [engine.run_until(horizon), observe()]
    phases.append([engine.step() for _ in range(steps)])
    phases.append((engine.run(max_events), observe()))
    while engine.pending_events:
        phases.append(engine.run())
    return {
        "log": log,
        "phases": phases,
        "final": observe(),
        "snapshot": engine.snapshot_state(),
        "live": [(time, seq) for time, seq, _ in engine.live_entries()],
    }


@settings(max_examples=80, deadline=None)
@given(program=st.lists(_OP, min_size=1, max_size=12),
       horizon=st.integers(0, 120),
       steps=st.integers(0, 4),
       max_events=st.integers(0, 6))
def test_engine_matches_reference_on_random_programs(program, horizon,
                                                     steps, max_events):
    """Same program, same observable behaviour as the sorted-list oracle."""
    expected = _execute_program(ReferenceEngine, program, horizon, steps,
                                max_events)
    assert _execute_program(SimulationEngine, program, horizon, steps,
                            max_events) == expected
