"""Tracing observes a run; it never changes what the run computes.

Every ``trace.emit`` site in the hypervisor and the interrupt
controller sits behind one read of the recorder's enabled state, so a
run with tracing off never builds an event.  That is only sound if no
counter bump, context switch or ledger record lives inside such a
guard.  These tests pin it:

* a hypothesis property runs random scenarios with tracing on and off
  and compares every artifact ``tests/test_idle_skip.py`` compares for
  the idle-skip contract (latency columns, ``HypervisorStats``, the CPU
  table and preemptions, context-switch counts, the intc, scheduler and
  engine snapshots) plus the interference ledger's rows;
* campaign tasks (a smoke fig6 load and a fig7 case) run with tracing
  off and ``TraceRecorder.emit`` patched to raise, so an unguarded emit
  fails loudly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.monitor import DeltaMinusMonitor
from repro.core.policy import (
    AlwaysInterpose,
    MonitoredInterposing,
    NeverInterpose,
)
from repro.experiments.runner import execute_task, plan_experiment
from repro.experiments.scale import SMOKE
from repro.sim.trace import TraceRecorder
from test_idle_skip import _GAP, TDMA_CYCLE, _scenario_artifacts

#: Gaps short enough that IRQs queue up, collide with slot boundaries
#: and interposed windows, and get denied by the monitor.
_DENSE_GAP = st.tuples(st.integers(0, 2), st.integers(0, TDMA_CYCLE - 1))

_POLICIES = {
    "never": NeverInterpose,
    "always": AlwaysInterpose,
    # d_min of a third of a TDMA cycle: some foreign IRQs are accepted,
    # some denied.
    "monitored": lambda: MonitoredInterposing(
        DeltaMinusMonitor.from_dmin(TDMA_CYCLE // 3)),
}


def _artifacts(idle_skip: bool, intervals, policy: str, traced: bool) -> dict:
    artifacts = _scenario_artifacts(idle_skip, intervals,
                                    policy=_POLICIES[policy](), traced=traced)
    artifacts.pop("trace", None)
    return artifacts


@settings(max_examples=25, deadline=None)
@given(data=st.data(), policy=st.sampled_from(sorted(_POLICIES)),
       idle_skip=st.booleans())
def test_trace_on_and_off_compute_the_same_run(data, policy, idle_skip):
    # The idle-skip leg must have quiet gaps to skip (the shared
    # artifact builder asserts it did); the tick leg also gets dense
    # bursts.
    gap = _GAP if idle_skip else st.one_of(_GAP, _DENSE_GAP)
    gaps = data.draw(st.lists(gap, min_size=3, max_size=8))
    intervals = [cycles * TDMA_CYCLE + jitter for cycles, jitter in gaps]
    traced = _artifacts(idle_skip, intervals, policy, traced=True)
    untraced = _artifacts(idle_skip, intervals, policy, traced=False)
    assert untraced == traced


def _raise_on_emit(self, *args, **kwargs):
    raise AssertionError(f"emit reached with tracing off: {args} {kwargs}")


@pytest.mark.parametrize("experiment,index", [("fig6b", 0), ("fig7", 2)])
def test_untraced_tasks_never_call_emit(monkeypatch, experiment, index):
    task = plan_experiment(experiment, SMOKE, 1)[0][index]
    monkeypatch.setattr(TraceRecorder, "emit", _raise_on_emit)
    result = execute_task(task)
    assert result is not None
