"""Collectors: sample simulator state into a metrics registry.

The hot paths of the reproduction (engine dispatch loop, hypervisor
IRQ path) maintain plain integer counters as they always have; these
collectors *pull* those counters into a
:class:`~repro.telemetry.registry.MetricsRegistry` after (or between)
runs.  Pull-based collection keeps the overhead contract trivial — the
simulation executes zero telemetry instructions per event, so the
registry needs no disabled mode and always records — while the
counter values still reconcile exactly with the trace stream, because
the hypervisor bumps them at the very sites that emit the
corresponding :class:`~repro.sim.trace.TraceKind` events.

Metric-name prefixes group by layer:

========== =====================================================
``sim_``   discrete-event engine (events scheduled/fired/
           cancelled, heap depth, simulated time)
``hv_``    hypervisor/IRQ path (raised/coalesced/delivered IRQs,
           top/bottom handler runs, monitor accept/deny,
           interposed windows, budget exhaustions, slot switches
           and their deferrals, context switches, CPU cycles by
           category)
``cache_`` campaign result cache (hits/misses/invalidations)
``campaign_`` campaign runner (task wall times, worker
           utilization, queue wait)
``store_`` run-artifact store (artifacts/rows/bytes written,
           artifacts scanned, rows/bytes read, query timings)
========== =====================================================
"""

from __future__ import annotations

from typing import Any

from repro.telemetry.registry import MetricsRegistry

#: Histogram bounds for per-task campaign wall times (seconds).
TASK_SECONDS_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
                        2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)


def collect_engine(registry: MetricsRegistry, engine: Any,
                   run: str = "") -> None:
    """Sample a :class:`~repro.sim.engine.SimulationEngine`."""
    labels = {"run": run}
    registry.counter(
        "sim_events_scheduled_total",
        "Events ever scheduled on the engine heap",
        ("run",),
    ).labels(**labels).inc(engine.events_scheduled)
    registry.counter(
        "sim_events_executed_total",
        "Event callbacks dispatched by the run loop",
        ("run",),
    ).labels(**labels).inc(engine.events_executed)
    registry.counter(
        "sim_events_cancelled_total",
        "Events cancelled before firing (lazy heap deletion)",
        ("run",),
    ).labels(**labels).inc(engine.events_cancelled)
    registry.gauge(
        "sim_pending_events",
        "Scheduled-but-unfired events (exact live counter)",
        ("run",),
    ).labels(**labels).set(engine.pending_events)
    registry.counter(
        "sim_heap_compactions_total",
        "Heap rebuilds discarding lazily-cancelled entries",
        ("run",),
    ).labels(**labels).inc(engine.compactions)
    registry.gauge(
        "sim_heap_depth",
        "Heap entries, including lazily-cancelled dead ones",
        ("run",),
    ).labels(**labels).set(engine.heap_depth)
    registry.counter(
        "sim_dispatch_batches_total",
        "Distinct-timestamp batches drained by the dispatch loops "
        "(events/batches = average same-cycle batch size)",
        ("run",),
    ).labels(**labels).inc(engine.dispatch_batches)
    registry.gauge(
        "sim_now_cycles",
        "Current simulation time in cycles",
        ("run",),
    ).labels(**labels).set(engine.now)
    registry.counter(
        "sim_idle_skip_spans_total",
        "Quiescent TDMA gaps crossed analytically by the idle-skip engine",
        ("run",),
    ).labels(**labels).inc(getattr(engine, "skip_spans", 0))
    registry.counter(
        "sim_idle_skipped_events_total",
        "Events elided by idle-skip fast-forwards (still counted in "
        "sim_events_executed_total, preserving byte-identity)",
        ("run",),
    ).labels(**labels).inc(getattr(engine, "skipped_events", 0))
    registry.counter(
        "sim_idle_skipped_cycles_total",
        "Simulated cycles crossed by idle-skip fast-forwards",
        ("run",),
    ).labels(**labels).inc(getattr(engine, "skipped_cycles", 0))


def collect_store(registry: MetricsRegistry, write_stats: Any,
                  run: str = "") -> None:
    """Sample run-artifact store write counters (:mod:`repro.store`).

    ``write_stats`` is the campaign capture side's
    :class:`~repro.store.capture.StoreWriteStats`.
    """
    labels = {"run": run}

    def counter(name: str, help_text: str, value: "int | float") -> None:
        registry.counter(name, help_text, ("run",)).labels(**labels).inc(value)

    counter("store_artifacts_written_total",
            "Run artifacts persisted by campaign capture",
            write_stats.artifacts_written)
    counter("store_rows_written_total",
            "Latency rows persisted into run artifacts",
            write_stats.rows_written)
    counter("store_trace_rows_written_total",
            "Trace-event rows persisted into run artifacts",
            write_stats.trace_rows_written)
    counter("store_bytes_written_total",
            "Bytes of run-artifact data written",
            write_stats.bytes_written)
    counter("store_tasks_skipped_total",
            "Campaign tasks captured without latency data",
            write_stats.skipped_tasks)
    registry.gauge(
        "store_write_seconds",
        "Wall-clock seconds spent writing run artifacts",
        ("run",),
    ).labels(**labels).set(round(write_stats.write_seconds, 4))


def collect_hypervisor(registry: MetricsRegistry, hv: Any,
                       run: str = "") -> None:
    """Sample a :class:`~repro.hypervisor.hypervisor.Hypervisor`.

    The ``hv_top_handler_*`` / ``hv_bottom_handler_*`` /
    ``hv_monitor_*`` counters reconcile 1:1 with the per-kind event
    counts of ``hv.trace`` when tracing is enabled (pinned by
    ``tests/test_telemetry.py``), and ``hv_irqs_raised_total`` with the
    ``IRQ_RAISED`` trace stream (a raise of an already-pending line is
    coalesced, not raised).
    """
    labels = {"run": run}
    stats = hv.stats

    def counter(name: str, help_text: str, value: "int | float") -> None:
        registry.counter(name, help_text, ("run",)).labels(**labels).inc(value)

    intc = hv.intc
    raised = coalesced = delivered = 0
    for line in range(intc.num_lines):
        raised += intc.raise_count(line) - intc.coalesced_count(line)
        coalesced += intc.coalesced_count(line)
        delivered += intc.delivered_count(line)
    counter("hv_irqs_raised_total",
            "IRQ lines asserted (excluding coalesced re-raises)", raised)
    counter("hv_irqs_coalesced_total",
            "Raise requests merged into an already-pending line", coalesced)
    counter("hv_irqs_dispatched_total",
            "Interrupt-controller dispatcher invocations", delivered)
    counter("hv_irqs_delivered_total",
            "Device IRQs that reached a top handler", stats.irqs_delivered)
    counter("hv_irqs_throttled_total",
            "IRQs suppressed by a source-level throttle",
            stats.irqs_throttled)
    counter("hv_spurious_irqs_total",
            "Deliveries on lines without a registered source",
            stats.spurious_irqs)

    counter("hv_top_handler_runs_total",
            "Top handler activations (TOP_HANDLER_START)",
            stats.top_handler_starts)
    counter("hv_top_handler_completions_total",
            "Top handler completions (TOP_HANDLER_END)",
            stats.top_handler_ends)
    counter("hv_bottom_handler_runs_total",
            "Bottom handler dispatches (BOTTOM_HANDLER_START)",
            stats.bottom_handler_starts)
    counter("hv_bottom_handler_completions_total",
            "Bottom handler completions (BOTTOM_HANDLER_END)",
            stats.bottom_handler_ends)
    counter("hv_budget_exhaustions_total",
            "Enforcement events (C_BH cap reached)",
            stats.budget_exhausted)

    counter("hv_monitor_consultations_total",
            "Foreign-slot IRQs that paid C_Mon", stats.monitor_consultations)
    counter("hv_monitor_accepts_total",
            "Interpose activations granted (MONITOR_ACCEPT)",
            stats.monitor_accepts)
    counter("hv_monitor_denies_total",
            "Interpose activations denied by policy (MONITOR_DENY)",
            stats.monitor_denies)
    counter("hv_structural_denials_total",
            "Interpose impossible (window already open)",
            stats.structural_denials)

    counter("hv_interposed_windows_total",
            "Interposed bottom-handler windows opened (INTERPOSE_START)",
            stats.windows_opened)
    counter("hv_interpose_ends_total",
            "Interpose windows closed (INTERPOSE_END)",
            stats.interpose_ends)
    counter("hv_slot_switches_total",
            "TDMA slot switches performed (SLOT_SWITCH)",
            stats.slot_switches)
    counter("hv_slot_switches_deferred_total",
            "Boundaries deferred until a window closed",
            stats.slot_switches_deferred)
    counter("hv_slots_skipped_total",
            "Whole slots skipped by late boundary delivery",
            hv.scheduler.slots_skipped)
    counter("hv_context_switches_total",
            "Partition context switches (all reasons)",
            hv.context_switches.total)
    for reason, count in hv.context_switches.counts.items():
        registry.counter(
            "hv_context_switches_by_reason_total",
            "Partition context switches by reason",
            ("run", "reason"),
        ).labels(run=run, reason=reason.value).inc(count)

    counter("hv_cpu_preemptions_total",
            "Executions preempted before budget completion",
            hv.cpu.preemptions)
    for category, cycles in sorted(hv.cpu.consumed_by_category.items()):
        registry.counter(
            "hv_cpu_cycles_total",
            "CPU cycles charged per accounting category",
            ("run", "category"),
        ).labels(run=run, category=category).inc(cycles)

    for name, partition in sorted(hv.partitions.items()):
        queue = partition.irq_queue
        registry.gauge(
            "hv_irq_queue_depth",
            "Pending emulated IRQs per partition queue",
            ("run", "partition"),
        ).labels(run=run, partition=name).set(len(queue))
        registry.gauge(
            "hv_irq_queue_max_depth",
            "High-water mark of the partition IRQ queue",
            ("run", "partition"),
        ).labels(run=run, partition=name).set(queue.max_depth)
        registry.counter(
            "hv_irq_queue_pushed_total",
            "Emulated IRQs ever queued per partition",
            ("run", "partition"),
        ).labels(run=run, partition=name).inc(queue.pushed_count)

    # Per-source δ⁻ monitor decisions, for sources whose policy carries
    # a DeltaMinusMonitor (MonitoredInterposing / learned policies).
    for source_name, source in sorted(getattr(hv, "_sources", {}).items()):
        monitor = getattr(source.policy, "monitor", None)
        if monitor is None or not hasattr(monitor, "stats"):
            continue
        mstats = monitor.stats()
        for decision in ("accepted", "denied"):
            registry.counter(
                "hv_source_monitor_decisions_total",
                "Per-source δ⁻ monitor decisions",
                ("run", "source", "decision"),
            ).labels(run=run, source=source_name,
                     decision=decision).inc(mstats[decision])

    collect_engine(registry, hv.engine, run=run)

    trace = hv.trace
    registry.counter(
        "trace_events_recorded_total",
        "TraceRecorder events currently retained",
        ("run",),
    ).labels(**labels).inc(len(trace))
    registry.counter(
        "trace_events_dropped_total",
        "TraceRecorder events evicted by the capacity bound",
        ("run",),
    ).labels(**labels).inc(trace.dropped)


def collect_cache(registry: MetricsRegistry, stats: Any) -> None:
    """Sample a :class:`~repro.experiments.cache.CacheStats`."""
    registry.counter(
        "cache_hits_total", "Campaign tasks replayed from the result cache",
    ).inc(stats.hits)
    registry.counter(
        "cache_misses_total", "Campaign tasks recomputed (cache miss)",
    ).inc(stats.misses)
    registry.counter(
        "cache_invalidations_total",
        "Stored entries discarded as corrupt or format-incompatible",
    ).inc(stats.invalidations)
    registry.counter(
        "cache_stores_total", "Results written to the cache",
    ).inc(stats.stores)
    registry.counter(
        "cache_bytes_read_total", "Bytes replayed from cache entries",
    ).inc(stats.bytes_read)
    registry.counter(
        "cache_bytes_written_total", "Bytes written to cache entries",
    ).inc(stats.bytes_written)
    registry.gauge(
        "cache_saved_seconds", "Recorded compute time of replayed hits",
    ).set(round(stats.saved_seconds, 6))


def collect_campaign(registry: MetricsRegistry, telemetry: Any) -> None:
    """Sample a :class:`~repro.experiments.runner.CampaignTelemetry`."""
    task_seconds = registry.histogram(
        "campaign_task_seconds",
        "Per-task compute wall time (cache hits excluded)",
        ("experiment", "kind"),
        buckets=TASK_SECONDS_BUCKETS,
    )
    queue_wait = registry.histogram(
        "campaign_task_queue_wait_seconds",
        "Delay between task submission and worker pickup",
        ("experiment",),
        buckets=TASK_SECONDS_BUCKETS,
    )
    tasks_total = registry.counter(
        "campaign_tasks_total",
        "Campaign tasks by outcome (computed vs replayed-from-cache)",
        ("experiment", "outcome"),
    )
    for task in telemetry.tasks:
        outcome = "cached" if task.cached else "computed"
        tasks_total.labels(experiment=task.experiment, outcome=outcome).inc()
        if not task.cached:
            task_seconds.labels(
                experiment=task.experiment, kind=task.kind,
            ).observe(task.wall_seconds)
            queue_wait.labels(experiment=task.experiment).observe(
                task.queue_wait_seconds
            )
    registry.gauge(
        "campaign_jobs", "Worker processes the campaign ran with",
    ).set(telemetry.jobs)
    registry.gauge(
        "campaign_wall_seconds", "End-to-end campaign wall time",
    ).set(round(telemetry.wall_seconds, 6))
    registry.gauge(
        "campaign_busy_seconds",
        "Summed task compute time across all workers",
    ).set(round(telemetry.busy_seconds, 6))
    registry.gauge(
        "campaign_worker_utilization",
        "busy_seconds / (wall_seconds * jobs), 0..1",
    ).set(round(telemetry.worker_utilization, 6))
