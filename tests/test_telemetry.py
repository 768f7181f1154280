"""Tests for the telemetry layer: registry, collectors, reconciliation.

The load-bearing property is the metrics <-> trace contract: the
hypervisor bumps its stats counters at exactly the sites that emit the
corresponding :class:`~repro.sim.trace.TraceKind`, so for any traced
run the collected metric values equal the recorder's per-kind counts.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import of_kind
from repro.experiments.cache import CacheStats
from repro.experiments.runner import (
    CampaignTelemetry,
    TaskTelemetry,
    run_campaign,
)
from repro.experiments.scale import SMOKE
from repro.sim.trace import TraceKind
from repro.telemetry import (
    MetricsRegistry,
    collect_cache,
    collect_campaign,
    collect_hypervisor,
    load_metrics_json,
    run_traced_fig6,
)

#: metric name -> the TraceKind its value must reconcile with, 1:1.
RECONCILED = {
    "hv_irqs_raised_total": TraceKind.IRQ_RAISED,
    "hv_top_handler_runs_total": TraceKind.TOP_HANDLER_START,
    "hv_top_handler_completions_total": TraceKind.TOP_HANDLER_END,
    "hv_bottom_handler_runs_total": TraceKind.BOTTOM_HANDLER_START,
    "hv_bottom_handler_completions_total": TraceKind.BOTTOM_HANDLER_END,
    "hv_budget_exhaustions_total":
        TraceKind.BOTTOM_HANDLER_BUDGET_EXHAUSTED,
    "hv_monitor_accepts_total": TraceKind.MONITOR_ACCEPT,
    "hv_monitor_denies_total": TraceKind.MONITOR_DENY,
    "hv_interposed_windows_total": TraceKind.INTERPOSE_START,
    "hv_interpose_ends_total": TraceKind.INTERPOSE_END,
    "hv_slot_switches_total": TraceKind.SLOT_SWITCH,
    "hv_context_switches_total": TraceKind.CONTEXT_SWITCH,
}


# ------------------------------------------------------------- registry

def test_counter_inc_and_value():
    registry = MetricsRegistry()
    counter = registry.counter("requests_total", "Requests served")
    counter.inc()
    counter.inc(4)
    assert registry.value("requests_total") == 5


def test_counter_rejects_negative_increment():
    registry = MetricsRegistry()
    counter = registry.counter("events_total")
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_labelled_series_are_independent_and_memoized():
    registry = MetricsRegistry()
    counter = registry.counter("hits_total", "", ("shard",))
    counter.labels(shard="a").inc(2)
    counter.labels(shard="b").inc(3)
    assert registry.value("hits_total", shard="a") == 2
    assert registry.value("hits_total", shard="b") == 3
    assert counter.labels(shard="a") is counter.labels(shard="a")


def test_get_or_create_checks_type_and_labels():
    registry = MetricsRegistry()
    registry.counter("thing_total", "", ("x",))
    assert registry.counter("thing_total", "", ("x",)) is registry.get(
        "thing_total")
    with pytest.raises(ValueError):
        registry.gauge("thing_total", "", ("x",))
    with pytest.raises(ValueError):
        registry.counter("thing_total", "", ("y",))


def test_gauge_set_and_histogram_observe():
    registry = MetricsRegistry()
    registry.gauge("depth").set(7)
    assert registry.value("depth") == 7
    histogram = registry.histogram("latency_seconds",
                                   buckets=(0.1, 1.0))
    histogram.observe(0.05)
    histogram.observe(0.5)
    histogram.observe(5.0)
    snap = registry.snapshot()["latency_seconds"]["values"][0]
    assert snap["count"] == 3
    assert snap["sum"] == pytest.approx(5.55)
    assert snap["buckets"] == [{"le": 0.1, "count": 1},
                               {"le": 1.0, "count": 2}]


def test_json_snapshot_round_trips(tmp_path):
    registry = MetricsRegistry()
    registry.counter("a_total").inc(2)
    path = registry.write_json(tmp_path / "m.json", metadata={"run": "t"})
    payload = load_metrics_json(path)
    assert payload["metadata"] == {"run": "t"}
    assert payload["metrics"]["a_total"]["values"][0]["value"] == 2
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nope": 1}))
        load_metrics_json(bad)


# ----------------------------------------------------------- collectors

def _value(registry, name, **labels):
    return registry.value(name, **labels)


def test_collect_hypervisor_reconciles_with_trace():
    replay = run_traced_fig6(irqs=120, seed=3)
    registry = MetricsRegistry()
    collect_hypervisor(registry, replay.hypervisor, run="r")
    trace = replay.trace
    for name, kind in RECONCILED.items():
        assert _value(registry, name, run="r") == len(of_kind(trace, kind)), \
            f"{name} does not match {kind}"
    # engine counters ride along
    engine = replay.hypervisor.engine
    assert _value(registry, "sim_events_executed_total",
                  run="r") == engine.events_executed
    assert _value(registry, "sim_events_scheduled_total",
                  run="r") == engine.events_scheduled
    # one latency record per completed bottom handler
    assert _value(registry, "hv_bottom_handler_completions_total",
                  run="r") == len(replay.hypervisor.latency_records)


def test_collect_hypervisor_per_source_monitor_decisions():
    replay = run_traced_fig6(irqs=80, seed=1)
    registry = MetricsRegistry()
    collect_hypervisor(registry, replay.hypervisor, run="r")
    source = replay.hypervisor.irq_source("irq0")
    stats = source.policy.monitor.stats()
    assert _value(registry, "hv_source_monitor_decisions_total",
                  run="r", source="irq0",
                  decision="accepted") == stats["accepted"]
    assert _value(registry, "hv_source_monitor_decisions_total",
                  run="r", source="irq0",
                  decision="denied") == stats["denied"]


def test_collect_cache_stats():
    stats = CacheStats(hits=3, misses=2, stores=2, invalidations=1,
                       bytes_read=100, bytes_written=200,
                       saved_seconds=1.5)
    registry = MetricsRegistry()
    collect_cache(registry, stats)
    assert registry.value("cache_hits_total") == 3
    assert registry.value("cache_misses_total") == 2
    assert registry.value("cache_invalidations_total") == 1
    assert registry.value("cache_saved_seconds") == 1.5


def test_collect_campaign_histograms_skip_cached_tasks():
    telemetry = CampaignTelemetry(jobs=2, wall_seconds=1.0, tasks=[
        TaskTelemetry("fig6a", "fig6-load", 0, False, 0.4, 0.01, 0.01, 11),
        TaskTelemetry("fig6a", "fig6-load", 1, True, 0.0, 0.0, 0.02, 10),
    ])
    registry = MetricsRegistry()
    collect_campaign(registry, telemetry)
    assert registry.value("campaign_tasks_total", experiment="fig6a",
                          outcome="computed") == 1
    assert registry.value("campaign_tasks_total", experiment="fig6a",
                          outcome="cached") == 1
    snap = registry.snapshot()["campaign_task_seconds"]["values"]
    assert len(snap) == 1 and snap[0]["count"] == 1
    assert registry.value("campaign_worker_utilization") == 0.2


# --------------------------------------------- instrumented campaigns

def test_instrumented_campaign_matches_plain_run():
    plain = run_campaign(("fig6b",), SMOKE, seed=1, jobs=1)
    telemetry = CampaignTelemetry()
    seen = []
    instrumented = run_campaign(
        ("fig6b",), SMOKE, seed=1, jobs=2, telemetry=telemetry,
        progress=lambda done, total, task: seen.append((done, total)),
    )
    assert instrumented["fig6b"].latencies_us == plain["fig6b"].latencies_us
    assert len(telemetry.tasks) == 3
    assert telemetry.jobs == 2
    assert telemetry.wall_seconds > 0
    assert all(not task.cached for task in telemetry.tasks)
    assert [index for index in seen] == [(1, 3), (2, 3), (3, 3)]
    assert 0.0 <= telemetry.worker_utilization <= 1.0


def test_shared_telemetry_offsets_monotone_across_campaigns():
    """One CampaignTelemetry fed by several run_campaign calls (the CLI
    pattern) keeps per-worker started offsets monotone — otherwise the
    Perfetto worker tracks would go back in time between experiments."""
    telemetry = CampaignTelemetry()
    run_campaign(("fig6a",), SMOKE, seed=1, jobs=1, telemetry=telemetry)
    run_campaign(("fig6b",), SMOKE, seed=1, jobs=1, telemetry=telemetry)
    assert telemetry.epoch is not None
    per_worker: "dict[int, list[float]]" = {}
    for task in telemetry.tasks:
        per_worker.setdefault(task.worker_pid, []).append(
            task.started_offset_seconds)
    assert len(telemetry.tasks) == 6
    for offsets in per_worker.values():
        assert offsets == sorted(offsets)


def test_instrumented_cached_campaign_records_hits(tmp_path):
    from repro.experiments.cache import ResultCache

    cache = ResultCache(tmp_path / "cache")
    cold = CampaignTelemetry()
    run_campaign(("fig6a",), SMOKE, seed=1, jobs=1, cache=cache,
                 telemetry=cold)
    assert all(not task.cached for task in cold.tasks)
    warm = CampaignTelemetry()
    warm_results = run_campaign(("fig6a",), SMOKE, seed=1, jobs=1,
                                cache=cache, telemetry=warm)
    assert all(task.cached for task in warm.tasks)
    assert warm.busy_seconds == 0.0
    plain = run_campaign(("fig6a",), SMOKE, seed=1, jobs=1)
    assert warm_results["fig6a"].latencies_us == plain["fig6a"].latencies_us


# ------------------------------------------------- property: reconcile

@settings(max_examples=12, deadline=None)
@given(
    irqs=st.integers(min_value=5, max_value=40),
    seed=st.integers(min_value=0, max_value=1_000),
    scenario=st.sampled_from(("a", "b", "c")),
)
def test_metrics_reconcile_with_trace_on_random_scenarios(
        irqs, seed, scenario):
    """For any small random scenario, every reconciled counter equals
    the recorder's count of its TraceKind — the observational layer
    can never drift from the trace stream."""
    replay = run_traced_fig6(irqs=irqs, seed=seed, scenario=scenario)
    registry = MetricsRegistry()
    collect_hypervisor(registry, replay.hypervisor, run="p")
    trace = replay.trace
    assert trace.dropped == 0
    for name, kind in RECONCILED.items():
        assert registry.value(name, run="p") == len(of_kind(trace, kind)), \
            f"{name} vs {kind} (irqs={irqs}, seed={seed}, {scenario!r})"
