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
* telemetry — the skip counters move only when spans were elided, and
  stay at zero under tick-by-tick execution.

The skip is the only production mode; the tick-by-tick reference is
:func:`conftest.tick_by_tick`, which every comparison here runs
against.
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import given, settings, strategies as st

from conftest import engine_mode, tick_by_tick
from repro.core.policy import AlwaysInterpose, NeverInterpose
from repro.experiments.common import (
    PaperSystemConfig,
    run_irq_scenario,
    run_irq_scenario_from,
)
from repro.sim.snapshot import settle

#: One paper TDMA cycle (14 000 us at 200 cycles/us).
TDMA_CYCLE = 2_800_000


def _scenario_artifacts(idle_skip: bool, intervals, *, policy,
                        traced: bool) -> dict:
    """Everything a scenario run produces, as comparable plain data."""
    system = PaperSystemConfig(trace_enabled=traced)
    with engine_mode(idle_skip):
        result = run_irq_scenario(system, policy, intervals)
    hv = result.hypervisor
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
    with engine_mode(idle_skip):
        hv, timer = system.build(policy, intervals)
        hv.start()
        timer.arm_next()
        hv.run_until_irq_count(2)
        # Park the clock deep inside the following idle gap: with the
        # skip enabled this lands inside a fast-forwarded span.
        hv.engine.run_until(hv.engine.now + 10 * TDMA_CYCLE)
        return settle(hv, {timer.name: timer})


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
    with tick_by_tick():
        straight = run_irq_scenario(system, NeverInterpose(), intervals)

    tick_snap = _capture_mid_gap(False, system, NeverInterpose(), intervals)
    skip_snap = _capture_mid_gap(True, system, NeverInterpose(), intervals)
    assert skip_snap.digest() == tick_snap.digest()

    for continuation_skip in (False, True):
        with engine_mode(continuation_skip):
            forked = run_irq_scenario_from(skip_snap, system)
        # The continuation crosses 20-cycle gaps: it skips exactly when
        # the skip-aware callback is bound.
        assert (forked.hypervisor.engine.skip_spans > 0) is continuation_skip
        assert list(forked.records) == list(straight.records)
        assert list(forked.latencies_us) == list(straight.latencies_us)
        assert forked.summary == straight.summary
        assert forked.hypervisor.trace.digest() == \
            straight.hypervisor.trace.digest()


def test_smoke_campaign_is_identical_tick_by_tick(tmp_path, capsys):
    """End to end: ``all --smoke`` run with the idle-skip engine and
    tick by tick prints the same stdout, exports the same CSVs and
    stores the same artifacts, byte for byte."""
    from repro.experiments.__main__ import main
    from repro.store.capture import INDEX_NAME

    def campaign(name):
        out = tmp_path / name
        assert main(["all", "--smoke", "--jobs", "1", "--no-cache",
                     "--export", str(out / "export"),
                     "--store", str(out / "store")]) == 0
        files = {path.relative_to(out).as_posix(): path.read_bytes()
                 for pattern in ("export/*.csv", "store/*.rpart")
                 for path in sorted(out.glob(pattern))}
        index = json.loads((out / "store" / INDEX_NAME).read_text())
        return capsys.readouterr().out, files, index

    skip = campaign("skip")
    with tick_by_tick():
        tick = campaign("tick")
    stdout, files, index = skip
    assert "Fig. 6" in stdout
    assert sum(name.endswith(".csv") for name in files) == 10
    assert sum(name.endswith(".rpart") for name in files) \
        == index["stats"]["artifacts_written"] > 0
    assert tick[0] == stdout
    assert tick[1].keys() == files.keys()
    for name, content in files.items():
        assert tick[1][name] == content, name
    assert tick[2] == index


# ------------------------------------------------------- skip telemetry

def test_skip_counters_stay_zero_when_disabled():
    intervals = [15 * TDMA_CYCLE] * 3
    with tick_by_tick():
        result = run_irq_scenario(
            PaperSystemConfig(), NeverInterpose(), intervals)
    engine = result.hypervisor.engine
    assert engine.skip_spans == 0
    assert engine.skipped_events == 0
    assert engine.skipped_cycles == 0
    assert engine.skip_span_log == []


def test_skip_span_log_matches_counters():
    intervals = [15 * TDMA_CYCLE] * 3
    result = run_irq_scenario(
        PaperSystemConfig(), NeverInterpose(), intervals)
    engine = result.hypervisor.engine
    log = engine.skip_span_log
    assert len(log) == engine.skip_spans
    assert sum(elided for _, _, elided in log) == engine.skipped_events
    assert sum(end - start for start, end, _ in log) == \
        engine.skipped_cycles
    for start, end, elided in log:
        assert end > start
        assert elided >= 1
