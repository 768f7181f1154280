"""Unified telemetry layer: metrics, collectors and trace export.

Three pieces, all stdlib-only:

* :mod:`repro.telemetry.registry` — a process-local metrics registry
  (counters, gauges, histograms with labels) with snapshot and JSON
  exporters;
* :mod:`repro.telemetry.collectors` — pull-based samplers that read
  the simulator's existing plain-int counters (engine, hypervisor/IRQ
  path, result cache, campaign runner) into a registry after a run, so
  the hot paths execute zero telemetry instructions;
* :mod:`repro.telemetry.perfetto` — a Chrome trace-event JSON exporter
  (``ui.perfetto.dev`` / ``chrome://tracing``) rendering TraceRecorder
  events, CPU occupancy lanes and campaign task spans as named tracks,
  plus :mod:`repro.telemetry.run`, the deterministic traced replay the
  CLI's ``--trace-out`` is backed by.
"""

from repro.telemetry.collectors import (
    collect_cache,
    collect_campaign,
    collect_engine,
    collect_hypervisor,
    collect_store,
    collect_world_store,
)
from repro.telemetry.perfetto import (
    TRACE_FORMAT,
    chrome_trace_events,
    load_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.registry import (
    METRICS_FORMAT,
    MetricsRegistry,
    load_metrics_json,
)
from repro.telemetry.run import TracedRun, export_traced_run, run_traced_fig6

__all__ = [
    "METRICS_FORMAT",
    "MetricsRegistry",
    "TRACE_FORMAT",
    "TracedRun",
    "chrome_trace_events",
    "collect_cache",
    "collect_campaign",
    "collect_engine",
    "collect_hypervisor",
    "collect_store",
    "collect_world_store",
    "export_traced_run",
    "load_chrome_trace",
    "load_metrics_json",
    "run_traced_fig6",
    "write_chrome_trace",
]
