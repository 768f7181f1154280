"""Snapshot/fork determinism: forked continuations are byte-identical.

The non-negotiable invariant of :mod:`repro.sim.snapshot` is that a
continuation forked from a captured world produces *exactly* the
results of the straight-line run it branched off — latency records,
trace stream, statistics, CSV exports, everything.  These tests pin
that invariant at every layer it is used:

* the raw capture/restore protocol at arbitrary quiescent points
  (hypothesis drives the fork point and the policy);
* the fig7 shared learning-phase prefix, the only world a campaign
  forks;
* the campaign runner's forked subtrees (serial and parallel), checked
  against the straight-line oracle in ``campaign_oracle.py``, and the
  result cache's parent-digest fingerprinting.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from campaign_oracle import run_straight_line
from repro.core.monitor import DeltaMinusMonitor
from repro.core.policy import (
    MonitoredInterposing,
    NeverInterpose,
    SelfLearningInterposing,
)
from repro.experiments.common import (
    IRQ_TIMER_DEVICE,
    PaperSystemConfig,
    run_irq_scenario,
    run_irq_scenario_from,
)
from repro.experiments.fig7 import (
    FIG7_CASES,
    Fig7Config,
    run_fig7,
    run_fig7_case,
    run_fig7_prefix,
)
from repro.experiments.runner import plan_campaign, run_campaign
from repro.experiments.scale import resolve_scale
from repro.sim.snapshot import (
    SnapshotError,
    capture_world,
    restore_world,
    settle,
)
from repro.workloads.automotive import AutomotiveTraceConfig
from repro.workloads.synthetic import clip_to_dmin, exponential_interarrivals

SMOKE = resolve_scale(quick=False, smoke=True)


def scenario_fingerprint(result) -> dict:
    """Everything observable about one run, as comparable plain data."""
    hv = result.hypervisor
    return {
        "records": list(result.records),
        "latencies_us": list(result.latencies_us),
        "summary": dataclasses.asdict(result.summary),
        "mode_counts": dict(result.mode_counts),
        "context_switches": dict(result.context_switch_counts),
        "stats": dataclasses.asdict(hv.stats),
        "trace": list(hv.trace.events),
        "cpu_by_category": dict(hv.cpu.consumed_by_category),
        "engine": (hv.engine.now, hv.engine.events_executed,
                   hv.engine.events_scheduled, hv.engine.events_cancelled),
    }


def latency_csv_bytes(tmp_path, tag, result) -> bytes:
    from repro.metrics.export import write_series_csv

    path = tmp_path / f"{tag}.csv"
    write_series_csv(path, result.latencies_us, column="latency_us")
    return path.read_bytes()


# --------------------------------------------------------- raw protocol

def _make_policy(kind: str, dmin: int):
    if kind == "monitored":
        return MonitoredInterposing(DeltaMinusMonitor.from_dmin(dmin))
    if kind == "learning":
        return SelfLearningInterposing(depth=3, learn_count=25,
                                       load_fraction=0.25)
    return NeverInterpose()


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**20),
       fork_at=st.integers(1, 45),
       kind=st.sampled_from(["monitored", "learning", "never"]))
def test_fork_at_random_quiescent_point_is_byte_identical(seed, fork_at,
                                                          kind):
    """Core property: fork anywhere, finish, compare everything."""
    system = PaperSystemConfig(trace_enabled=True)
    clock = system.clock()
    dmin = clock.us_to_cycles(1_444.0)
    intervals = clip_to_dmin(
        exponential_interarrivals(50, dmin, seed=seed), dmin
    )
    straight = run_irq_scenario(system, _make_policy(kind, dmin), intervals)

    hv, timer = system.build(_make_policy(kind, dmin), intervals)
    hv.start()
    timer.arm_next()
    hv.run_until_irq_count(min(fork_at, len(intervals)))
    snapshot = settle(hv, {timer.name: timer})
    forked = run_irq_scenario_from(snapshot, system)

    assert scenario_fingerprint(forked) == scenario_fingerprint(straight)


def test_restore_is_repeatable_and_continuations_are_independent():
    """One snapshot, two forks: identical results, no shared state."""
    system = PaperSystemConfig(trace_enabled=True)
    clock = system.clock()
    dmin = clock.us_to_cycles(1_444.0)
    intervals = clip_to_dmin(
        exponential_interarrivals(30, dmin, seed=7), dmin
    )
    hv, timer = system.build(
        MonitoredInterposing(DeltaMinusMonitor.from_dmin(dmin)), intervals
    )
    hv.start()
    timer.arm_next()
    hv.run_until_irq_count(10)
    snapshot = settle(hv, {timer.name: timer})
    first = run_irq_scenario_from(snapshot, system)
    second = run_irq_scenario_from(snapshot, system)
    assert scenario_fingerprint(first) == scenario_fingerprint(second)
    assert first.hypervisor is not second.hypervisor


def _warm_capture(system: PaperSystemConfig, intervals):
    """A started world captured at its t=0 quiescent point."""
    hv, timer = system.build(NeverInterpose(), intervals)
    hv.start()
    timer.arm_next()
    return capture_world(hv, {timer.name: timer})


def test_snapshot_digest_is_stable_and_content_sensitive():
    system = PaperSystemConfig()
    clock = system.clock()
    dmin = clock.us_to_cycles(1_444.0)
    intervals = clip_to_dmin(
        exponential_interarrivals(20, dmin, seed=3), dmin
    )
    warm_a = _warm_capture(system, intervals)
    warm_b = _warm_capture(system, intervals)
    assert warm_a.digest() == warm_b.digest()
    other = _warm_capture(system, intervals[:-1])
    assert warm_a.digest() != other.digest()


def test_capture_refuses_unclaimed_pending_events():
    system = PaperSystemConfig()
    clock = system.clock()
    dmin = clock.us_to_cycles(1_444.0)
    intervals = clip_to_dmin(
        exponential_interarrivals(5, dmin, seed=3), dmin
    )
    hv, timer = system.build(NeverInterpose(), intervals)
    hv.start()
    timer.arm_next()
    # The armed timer's heap entry has no owner if the device is not
    # registered for the capture: quiescence demands every pending
    # event is claimed, so this must fail loudly.
    with pytest.raises(SnapshotError):
        capture_world(hv, devices={})


# ------------------------------------------------------------- fig7

def fig7_asdict(results) -> dict:
    return {label: dataclasses.asdict(case)
            for label, case in results.items()}


def test_fig7_shared_prefix_matches_straight_line(tmp_path):
    config = Fig7Config(trace=AutomotiveTraceConfig(
        activation_count=SMOKE.fig7_activations, seed=1,
    ))
    forked = run_fig7(config)
    straight = {label: run_fig7_case(label, config) for label in FIG7_CASES}
    assert fig7_asdict(forked) == fig7_asdict(straight)
    # The exported CSV artifacts are byte-identical too.
    from repro.metrics.export import write_series_csv
    for label in forked:
        a = tmp_path / f"fork_{label}.csv"
        b = tmp_path / f"straight_{label}.csv"
        write_series_csv(a, forked[label].series_us, column="avg_latency_us")
        write_series_csv(b, straight[label].series_us,
                         column="avg_latency_us")
        assert a.read_bytes() == b.read_bytes()


def test_fig7_case_rejects_mismatched_prefix():
    config = Fig7Config(trace=AutomotiveTraceConfig(
        activation_count=SMOKE.fig7_activations, seed=1,
    ))
    other = Fig7Config(trace=AutomotiveTraceConfig(
        activation_count=SMOKE.fig7_activations, seed=2,
    ))
    prefix = run_fig7_prefix(config)
    assert prefix.snapshot is not None
    with pytest.raises(ValueError):
        run_fig7_case("a", other, prefix=prefix)


def test_fig7_prefix_digest_distinguishes_fallback():
    config = Fig7Config(trace=AutomotiveTraceConfig(
        activation_count=SMOKE.fig7_activations, seed=1,
    ))
    prefix = run_fig7_prefix(config)
    fallback = dataclasses.replace(prefix, snapshot=None)
    assert prefix.digest() != fallback.digest()


# ---------------------------------------------------------- campaigns

def campaign_asdict(merged) -> dict:
    def convert(value):
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return dataclasses.asdict(value)
        if isinstance(value, dict):
            return {key: convert(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [convert(item) for item in value]
        return value

    return {name: convert(value) for name, value in merged.items()}


def test_campaign_shared_prefix_is_byte_identical_across_modes():
    names = ("fig7", "sweep")
    forked_serial = run_campaign(names, SMOKE, seed=1, jobs=1)
    straight = run_straight_line(names, SMOKE, seed=1)
    forked_parallel = run_campaign(names, SMOKE, seed=1, jobs=2)
    assert (campaign_asdict(forked_serial)
            == campaign_asdict(straight)
            == campaign_asdict(forked_parallel))


def test_campaign_plan_rebases_needs_across_experiments():
    # fig7 comes second, so its needs must be rebased past sweep's tasks.
    tasks, _ = plan_campaign(("sweep", "fig7"), SMOKE, seed=1)
    assert any(task.needs for task in tasks)
    for index, task in enumerate(tasks):
        for need in task.needs:
            assert need < index
            assert tasks[need].experiment == task.experiment


def test_cached_campaign_replays_forked_tasks(tmp_path):
    from repro.experiments.cache import ResultCache

    cache = ResultCache(tmp_path / "cache")
    cold = run_campaign(("fig7",), SMOKE, seed=1, jobs=1, cache=cache)
    cold_stats = (cache.stats.hits, cache.stats.misses)
    warm = run_campaign(("fig7",), SMOKE, seed=1, jobs=1, cache=cache)
    assert campaign_asdict(cold) == campaign_asdict(warm)
    assert cold_stats == (0, 5)          # prefix + four cases computed
    assert cache.stats.hits == 5         # all five replayed warm
    assert cache.stats.misses == 5


def test_forked_task_fingerprint_folds_parent_digest():
    from repro.experiments.cache import task_fingerprint
    from repro.experiments.runner import CampaignTask

    task = CampaignTask("fig7", "fig7-case", {"label": "a"},
                        needs=(0,), feed="prefix")
    plain = task_fingerprint(task)
    with_parent = task_fingerprint(task, parent_digests=("d1",))
    other_parent = task_fingerprint(task, parent_digests=("d2",))
    assert plain != with_parent
    assert with_parent != other_parent


# -------------------------------------------------- warm-world devices

def test_warm_world_restores_timer_device():
    system = PaperSystemConfig()
    clock = system.clock()
    dmin = clock.us_to_cycles(1_444.0)
    intervals = clip_to_dmin(
        exponential_interarrivals(10, dmin, seed=5), dmin
    )
    warm = _warm_capture(system, intervals)
    hv, devices = restore_world(warm)
    timer = devices[IRQ_TIMER_DEVICE]
    assert timer.interval_count == len(intervals)
    assert timer.armed
    assert hv.engine.pending_events == warm.state["pending"]
