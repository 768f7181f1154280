"""Idle-skip engine: analytic fast-forward is observably invisible.

The idle-skip layer (:meth:`repro.hypervisor.Hypervisor._boundary_dispatch`
plus the engine's ``fast_forward``/``skip_window`` protocol) promises
that fast-forwarding across quiescent TDMA gaps changes *only*
wall-clock speed — every trace record, latency column, accounting
counter and snapshot digest is byte-identical to tick-by-tick
execution.  These tests pin that promise:

* property level — hypothesis-driven random sparse schedules (random
  gap lengths in TDMA cycles plus sub-cycle jitter, both interposing
  regimes, trace on and off) run with the skip on and off must produce
  identical artifacts at every observable layer;
* fork level — a world snapshot captured from *inside* a skipped span
  digests identically to one captured mid-gap under tick-by-tick
  execution, and continuations restored from it finish identically
  under either mode;
* resolution — explicit constructor argument beats ``REPRO_IDLE_SKIP``
  beats the default, invalid spellings fail loudly listing the
  accepted values, and an empty value means "unset";
* telemetry — the skip counters move only when spans were elided, and
  stay at zero when the skip is disabled.
"""

from __future__ import annotations

import dataclasses
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policy import AlwaysInterpose, NeverInterpose
from repro.experiments.common import (
    PaperSystemConfig,
    run_irq_scenario,
    run_irq_scenario_from,
)
from repro.sim.engine import (
    DEFAULT_IDLE_SKIP,
    ENV_IDLE_SKIP,
    SimulationEngine,
    SimulationError,
    resolve_idle_skip,
)
from repro.sim.snapshot import settle

#: One paper TDMA cycle (14 000 us at 200 cycles/us).
TDMA_CYCLE = 2_800_000


def _with_idle_skip(enabled: bool, fn):
    """Run ``fn`` with the engine default forced to ``enabled``."""
    previous = os.environ.get(ENV_IDLE_SKIP)
    os.environ[ENV_IDLE_SKIP] = "1" if enabled else "0"
    try:
        return fn()
    finally:
        if previous is None:
            del os.environ[ENV_IDLE_SKIP]
        else:
            os.environ[ENV_IDLE_SKIP] = previous


def _scenario_artifacts(idle_skip: bool, intervals, *, policy,
                        traced: bool) -> dict:
    """Everything a scenario run produces, as comparable plain data."""
    system = PaperSystemConfig(trace_enabled=traced)
    result = _with_idle_skip(
        idle_skip, lambda: run_irq_scenario(system, policy, intervals))
    hv = result.hypervisor
    assert hv.engine.idle_skip_enabled is idle_skip
    artifacts = {
        "records": list(result.records),
        "latencies_us": list(result.latencies_us),
        "summary": dataclasses.asdict(result.summary),
        "mode_counts": dict(result.mode_counts),
        "context_switches": dict(result.context_switch_counts),
        "stats": dataclasses.asdict(hv.stats),
        "cpu_consumed": dict(hv.cpu.consumed_by_category),
        "cpu_preemptions": hv.cpu.preemptions,
        "slots_entered": {name: partition.slots_entered
                          for name, partition in hv.partitions.items()},
        "intc": hv.intc.snapshot_state(),
        "scheduler": hv.scheduler.snapshot_state(),
        # snapshot_state deliberately excludes the skip counters (and
        # dispatch_batches is not part of it) — this is the exact dict
        # WorldSnapshot digests.
        "engine": hv.engine.snapshot_state(),
        "ledger": hv.ledger.snapshot_state(),
    }
    if traced:
        artifacts["trace_digest"] = hv.trace.digest()
    # The skip leg must actually have skipped; the tick leg never does.
    if idle_skip:
        assert hv.engine.skip_spans > 0
        assert hv.engine.skipped_events > 0
    else:
        assert hv.engine.skip_spans == 0
        assert hv.engine.skipped_events == 0
        assert hv.engine.skipped_cycles == 0
    return artifacts


#: One arrival gap: whole TDMA cycles of quiescence plus sub-cycle
#: jitter, so boundaries land mid-slot as often as on-grid.
_GAP = st.tuples(st.integers(2, 25), st.integers(0, TDMA_CYCLE - 1))


@settings(max_examples=15, deadline=None)
@given(gaps=st.lists(_GAP, min_size=3, max_size=6),
       interpose=st.booleans(),
       traced=st.booleans())
def test_skip_is_byte_identical_on_random_sparse_schedules(
        gaps, interpose, traced):
    """Core property: skip on vs off, same artifacts at every layer.

    ``traced=True`` exercises the per-slot (trace-safe) tier;
    ``traced=False`` exercises the closed-form bulk tier.
    """
    intervals = [cycles * TDMA_CYCLE + jitter for cycles, jitter in gaps]
    make_policy = AlwaysInterpose if interpose else NeverInterpose
    reference = _scenario_artifacts(False, intervals, policy=make_policy(),
                                    traced=traced)
    skipped = _scenario_artifacts(True, intervals, policy=make_policy(),
                                  traced=traced)
    assert skipped == reference


def _capture_mid_gap(idle_skip: bool, system, policy, intervals):
    """Capture a world snapshot from inside a long quiescent gap."""
    def capture():
        hv, timer = system.build(policy, intervals)
        hv.start()
        timer.arm_next()
        hv.run_until_irq_count(2)
        # Park the clock deep inside the following idle gap: with the
        # skip enabled this lands inside a fast-forwarded span.
        hv.engine.run_until(hv.engine.now + 10 * TDMA_CYCLE)
        return settle(hv, {timer.name: timer})
    return _with_idle_skip(idle_skip, capture)


def test_fork_from_inside_skipped_span_is_byte_identical():
    """Snapshots taken mid-skip digest and continue identically.

    A ``run_until`` bound that lands inside a quiescent gap makes the
    skip layer fast-forward part of the gap and stop at the bound; the
    captured world must digest exactly like a tick-by-tick capture at
    the same instant, and continuations restored from it must finish
    identically whether the continuation itself skips or ticks.
    """
    system = PaperSystemConfig(trace_enabled=True)
    intervals = [20 * TDMA_CYCLE + 123_457] * 6
    straight = _with_idle_skip(False, lambda: run_irq_scenario(
        system, NeverInterpose(), intervals))

    tick_snap = _capture_mid_gap(False, system, NeverInterpose(), intervals)
    skip_snap = _capture_mid_gap(True, system, NeverInterpose(), intervals)
    assert skip_snap.digest() == tick_snap.digest()

    for continuation_skip in (False, True):
        forked = _with_idle_skip(continuation_skip, lambda: (
            run_irq_scenario_from(skip_snap, system)))
        assert forked.hypervisor.engine.idle_skip_enabled is continuation_skip
        assert list(forked.records) == list(straight.records)
        assert list(forked.latencies_us) == list(straight.latencies_us)
        assert forked.summary == straight.summary
        assert forked.hypervisor.trace.digest() == \
            straight.hypervisor.trace.digest()


# ------------------------------------------------------- resolution

def test_resolution_explicit_beats_env_beats_default(monkeypatch):
    monkeypatch.delenv(ENV_IDLE_SKIP, raising=False)
    assert resolve_idle_skip(None) is DEFAULT_IDLE_SKIP
    assert resolve_idle_skip(False) is False
    monkeypatch.setenv(ENV_IDLE_SKIP, "off")
    assert resolve_idle_skip(None) is False
    assert resolve_idle_skip(True) is True          # explicit beats env
    # An empty value means "unset", so shell-style FOO= does not break.
    monkeypatch.setenv(ENV_IDLE_SKIP, "")
    assert resolve_idle_skip(None) is DEFAULT_IDLE_SKIP


@pytest.mark.parametrize("spelling,expected", [
    ("1", True), ("true", True), ("on", True), ("yes", True),
    ("0", False), ("false", False), ("off", False), ("no", False),
    ("TRUE", True), ("Off", False),                 # case-insensitive
])
def test_env_spellings(monkeypatch, spelling, expected):
    monkeypatch.setenv(ENV_IDLE_SKIP, spelling)
    assert resolve_idle_skip(None) is expected


def test_invalid_env_value_fails_loudly_listing_valid_values(monkeypatch):
    monkeypatch.setenv(ENV_IDLE_SKIP, "maybe")
    with pytest.raises(SimulationError, match="valid values"):
        resolve_idle_skip(None)
    with pytest.raises(SimulationError, match="invalid REPRO_IDLE_SKIP"):
        SimulationEngine()
    # The explicit argument never consults the (invalid) environment.
    assert SimulationEngine(idle_skip=True).idle_skip_enabled is True
    assert SimulationEngine(idle_skip=False).idle_skip_enabled is False


def test_engine_constructor_reflects_resolution(monkeypatch):
    monkeypatch.setenv(ENV_IDLE_SKIP, "0")
    engine = SimulationEngine()
    assert engine.idle_skip_enabled is False
    assert SimulationEngine(idle_skip=True).idle_skip_enabled is True


# ------------------------------------------------------- skip telemetry

def test_skip_counters_stay_zero_when_disabled():
    intervals = [15 * TDMA_CYCLE] * 3
    result = _with_idle_skip(False, lambda: run_irq_scenario(
        PaperSystemConfig(), NeverInterpose(), intervals))
    engine = result.hypervisor.engine
    assert engine.skip_spans == 0
    assert engine.skipped_events == 0
    assert engine.skipped_cycles == 0
    assert engine.skip_span_log == []


def test_skip_span_log_matches_counters():
    intervals = [15 * TDMA_CYCLE] * 3
    result = _with_idle_skip(True, lambda: run_irq_scenario(
        PaperSystemConfig(), NeverInterpose(), intervals))
    engine = result.hypervisor.engine
    log = engine.skip_span_log
    assert len(log) == engine.skip_spans
    assert sum(elided for _, _, elided in log) == engine.skipped_events
    assert sum(end - start for start, end, _ in log) == \
        engine.skipped_cycles
    for start, end, elided in log:
        assert end > start
        assert elided >= 1
