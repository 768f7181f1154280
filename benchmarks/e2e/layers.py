"""Outside-in layer tracing for the end-to-end benchmark.

The traced benchmark child wraps each layer's public functions before
it calls the CLI, so no span lives inside the program itself:

* a module function is rebound in every ``repro.*`` module namespace
  (and module-level dict, such as ``TASK_FUNCTIONS``) that holds it;
* a method is patched on the class that defines it;
* simulator counters are read only around the outermost span of the
  ``hypervisor`` layer.

A layer's self time is the time its spans were open minus the time
their child spans (of any layer) were open, so the self times of all
layers plus the unattributed rest add up to the traced wall exactly.
A boundary that no longer resolves is listed in ``Tracer.missing``
rather than raised.  Spans opened inside campaign pool workers stay in
those workers; work done there shows in the ``CampaignTelemetry``
figures the runner probe collects.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import os
import pkgutil
import sys
import time
from typing import Any, Callable

#: Layer -> boundaries, in reporting order.  A boundary is
#: ``(target, time_bucket, count_name)``.  ``target`` is
#: ``"module:function"``, ``"module:Class.method"`` or
#: ``"module:DICT[*]"`` (every function in a module-level dict); either
#: side may be an ``fnmatch`` pattern.  The boundary's self time also
#: goes to ``<layer>.<time_bucket>`` and its call count to
#: ``<layer>.<count_name>`` when those are given.
LAYERS: "dict[str, tuple[tuple[str, str | None, str | None], ...]]" = {
    "experiments.runner": (
        ("repro.experiments.runner:run_campaign", None, None),
        ("repro.experiments.runner:plan_campaign", None, None),
    ),
    "experiments.cache": (
        ("repro.experiments.cache:ResultCache.load", "load_s", None),
        ("repro.experiments.cache:ResultCache.store", "store_s", None),
        ("repro.experiments.cache:task_fingerprint", "fingerprint_s", None),
        ("repro.experiments.cache:source_fingerprint", "fingerprint_s",
         None),
        ("repro.experiments.cache:result_digest", "fingerprint_s", None),
    ),
    "experiments.tasks": (
        ("repro.experiments.runner:TASK_FUNCTIONS[*]", None, None),
    ),
    "hypervisor": (
        ("repro.hypervisor.hypervisor:Hypervisor.run_until_irq_count",
         None, None),
        ("repro.hypervisor.hypervisor:Hypervisor.run_until", None, None),
    ),
    "sim.snapshot": (
        ("repro.sim.snapshot:capture_world", None, "captures"),
        ("repro.sim.snapshot:restore_world", None, "restores"),
        ("repro.sim.snapshot:settle", None, None),
        ("repro.sim.worldstore:capture_world_layered", None, "captures"),
        ("repro.sim.worldstore:restore_world_layered", None, "restores"),
        ("repro.sim.worldstore:fork_snapshot", None, "forks"),
    ),
    "analysis": (
        ("repro.analysis.schedulability:min_admissible_dmin", None, None),
        ("repro.analysis.schedulability:partition_schedulable", None, None),
        ("repro.analysis.latency:classic_irq_latency", None, None),
        ("repro.analysis.latency:interposed_irq_latency", None, None),
        ("repro.analysis.latency:violated_irq_latency", None, None),
    ),
    "workloads": (
        ("repro.workloads.automotive:generate_automotive_trace", None, None),
        ("repro.workloads.synthetic:exponential_interarrivals", None, None),
        ("repro.workloads.synthetic:clip_to_dmin", None, None),
        ("repro.workloads.synthetic:bursty_interarrivals", None, None),
    ),
    "metrics": (
        ("repro.metrics.stats:summarize", None, None),
        ("repro.metrics.stats:running_average", None, None),
        ("repro.metrics.histogram:fig6_histogram", None, None),
        ("repro.metrics.*:render_*", "render_s", None),
        ("repro.experiments.*:render_*", "render_s", None),
    ),
    "metrics.export": (
        ("repro.metrics.export:write_histogram_csv", None, "files"),
        ("repro.metrics.export:write_series_csv", None, "files"),
    ),
    "store": (
        ("repro.store.capture:CampaignStoreWriter.write_task", "write_s",
         None),
        ("repro.store.capture:CampaignStoreWriter.write_traced_run",
         "write_s", None),
        ("repro.store.capture:CampaignStoreWriter.finalize", "write_s",
         None),
        ("repro.store.runstore:RunStore.aggregate", "read_s", None),
        ("repro.store.runstore:RunStore.diff", "read_s", None),
        ("repro.store.artifact:RunArtifact.read", "read_s", None),
    ),
    "telemetry": (
        ("repro.telemetry.run:run_traced_fig6", "replay_s", None),
        ("repro.telemetry.run:export_traced_run", "export_s", None),
    ),
}

#: Closed spans a tracer keeps for the Chrome trace; later ones are
#: counted in ``Tracer.dropped_spans``.
MAX_SPANS = 200_000

#: The nine experiment ids, for the per-experiment layer metrics.
EXPERIMENTS = ("fig6a", "fig6b", "fig6c", "fig7", "tab62", "validation",
               "ablation", "sweep", "design")

#: Per-layer metrics beyond ``self_s`` and ``calls``: name -> unit.
LAYER_EXTRAS: "dict[str, dict[str, str]]" = {
    "experiments.runner": {
        "busy_s": "s", "worker_utilization": "ratio", "queue_wait_s": "s",
        "max_task_s": "s", "tasks_computed": "count",
        "tasks_cached": "count",
    },
    "experiments.cache": {
        "load_s": "s", "store_s": "s", "fingerprint_s": "s",
        "hits": "count", "misses": "count", "bytes_read": "bytes",
        "bytes_written": "bytes",
    },
    "hypervisor": {
        "events": "count", "skipped_events": "count", "skip_share": "ratio",
        "irqs": "count", "sim_s": "s", "ns_per_event": "ns",
        "us_per_irq": "us", "dispatch_batches": "count",
        "compactions": "count", "monitor_consultations": "count",
        "windows_opened": "count",
    },
    "sim.snapshot": {"captures": "count", "restores": "count",
                     "forks": "count"},
    "metrics": {"render_s": "s"},
    "metrics.export": {"files": "count", "bytes": "bytes"},
    "store": {"write_s": "s", "read_s": "s", "artifacts": "count",
              "rows": "count", "bytes_written": "bytes"},
    "telemetry": {"replay_s": "s", "export_s": "s", "trace_events": "count",
                  "trace_bytes": "bytes"},
}


def layer_metric_units() -> "dict[str, str]":
    """Every per-layer metric the traced run reports, with its unit."""
    units: "dict[str, str]" = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        for name, unit in LAYER_EXTRAS.get(layer, {}).items():
            units[f"{layer}.{name}"] = unit
        if layer == "experiments.tasks":
            for experiment in EXPERIMENTS:
                units[f"experiments.{experiment}.s"] = "s"
        if layer == "hypervisor":
            for experiment in EXPERIMENTS:
                units[f"hypervisor.{experiment}.self_s"] = "s"
                units[f"hypervisor.{experiment}.skip_share"] = "ratio"
        if layer == "sim.snapshot":
            units["sim.worldstore.fragments"] = "count"
            units["sim.worldstore.resident_bytes"] = "bytes"
    units["unattributed_s"] = "s"
    units["trace_overhead"] = "ratio"
    return units


class Tracer:
    """Span recorder with per-layer self-time arithmetic.

    ``totals`` holds additive figures (seconds, counts) and ``maxima``
    the few that combine by maximum; both are flat name -> number maps
    so the reports of several commands merge key by key.  Closed spans
    are kept (up to ``MAX_SPANS``) only when ``keep_spans`` is set.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep_spans: bool = False):
        self.clock = clock
        self.keep_spans = keep_spans
        self.totals: "dict[str, float]" = {}
        self.maxima: "dict[str, float]" = {}
        self.spans: "list[list]" = []
        self.dropped_spans = 0
        self.missing: "list[str]" = []
        self.experiment: "str | None" = None
        self.watched: "dict[str, dict[int, Any]]" = {}
        self._stack: "list[list]" = []
        self._depth: "dict[str, int]" = {}
        self._next_id = 0

    def add(self, name: str, value: float) -> None:
        self.totals[name] = self.totals.get(name, 0) + value

    def high(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def depth(self, layer: str) -> int:
        """Open spans of ``layer`` right now."""
        return self._depth.get(layer, 0)

    def watch(self, kind: str, obj: Any) -> None:
        """Remember an object whose counters :func:`finish` reads."""
        self.watched.setdefault(kind, {})[id(obj)] = obj

    def open(self, layer: str, boundary: str, bucket: "str | None" = None,
             count: "str | None" = None) -> list:
        """Start a span; the returned record is passed to :meth:`close`.

        Record layout: ``[id, parent id, layer, boundary, bucket, count,
        start, child seconds, duration, args]``.
        """
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        span = [self._next_id, parent, layer, boundary, bucket, count,
                0.0, 0.0, 0.0, None]
        self._stack.append(span)
        self._depth[layer] = self._depth.get(layer, 0) + 1
        span[6] = self.clock()
        return span

    def close(self, span: list) -> list:
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - span[6]
        own = duration - span[7]
        span[8] = duration
        layer = span[2]
        self._depth[layer] -= 1
        if stack:
            stack[-1][7] += duration
        self.add(f"{layer}.self_s", own)
        self.add(f"{layer}.calls", 1)
        if span[4] is not None:
            self.add(f"{layer}.{span[4]}", own)
        if span[5] is not None:
            self.add(f"{layer}.{span[5]}", 1)
        if self.experiment is not None:
            self.add(f"{layer}.{self.experiment}.self_s", own)
        if self.keep_spans:
            if len(self.spans) < MAX_SPANS:
                self.spans.append(span)
            else:
                self.dropped_spans += 1
        return span

    def wrap(self, function: Callable, layer: str, boundary: str,
             bucket: "str | None" = None, count: "str | None" = None,
             probe: "Probe | None" = None) -> Callable:
        """``function`` with a span of ``layer`` around every call."""
        tracer = self

        if probe is None:
            @functools.wraps(function)
            def traced(*args, **kwargs):
                span = tracer.open(layer, boundary, bucket, count)
                try:
                    return function(*args, **kwargs)
                finally:
                    tracer.close(span)
        else:
            @functools.wraps(function)
            def traced(*args, **kwargs):
                token = probe.before(tracer, args, kwargs)
                span = tracer.open(layer, boundary, bucket, count)
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer.close(span)
                span[9] = probe.after(tracer, token, span, args, kwargs,
                                      result)
                return result

        return traced

    def report(self) -> "dict[str, Any]":
        return {"totals": dict(self.totals), "maxima": dict(self.maxima),
                "missing": list(self.missing)}


class Probe:
    """Hook around one boundary: reads counters, returns span args."""

    def before(self, tracer: Tracer, args: tuple, kwargs: dict) -> Any:
        return None

    def after(self, tracer: Tracer, token: Any, span: list, args: tuple,
              kwargs: dict, result: Any) -> "dict | None":
        return None


class RunnerProbe(Probe):
    """``run_campaign``: experiment context, walls and campaign telemetry.

    When the caller passes no ``CampaignTelemetry`` the probe supplies
    one; it only records, so the campaign's outputs do not change.
    """

    def before(self, tracer, args, kwargs):
        from repro.experiments.runner import CampaignTelemetry

        names = args[0]
        telemetry = kwargs.get("telemetry")
        if telemetry is None:
            telemetry = kwargs["telemetry"] = CampaignTelemetry()
        previous = tracer.experiment
        tracer.experiment = "+".join(names)
        return (previous, telemetry, len(telemetry.tasks),
                telemetry.wall_seconds)

    def after(self, tracer, token, span, args, kwargs, result):
        previous, telemetry, first, wall_before = token
        experiment = tracer.experiment
        tracer.experiment = previous
        tracer.add(f"experiments.{experiment}.s", span[8])
        computed = [task for task in telemetry.tasks[first:]
                    if not task.cached]
        busy = sum(task.wall_seconds for task in computed)
        wall = telemetry.wall_seconds - wall_before
        tracer.add("experiments.runner.busy_s", busy)
        tracer.add("experiments.runner.capacity_s", wall * telemetry.jobs)
        tracer.add("experiments.runner.queue_wait_s",
                   sum(task.queue_wait_seconds for task in computed))
        tracer.add("experiments.runner.tasks_computed", len(computed))
        tracer.add("experiments.runner.tasks_cached",
                   len(telemetry.tasks) - first - len(computed))
        for task in computed:
            tracer.high("experiments.runner.max_task_s", task.wall_seconds)
        return {"experiment": experiment, "tasks": len(telemetry.tasks) - first,
                "computed": len(computed), "busy_s": busy}


def _hypervisor_counters(hv: Any) -> "tuple[int, ...]":
    engine, stats = hv.engine, hv.stats
    return (engine.events_executed, engine.skipped_events,
            engine.dispatch_batches, engine.compactions, engine.now,
            stats.irqs_delivered, stats.monitor_consultations,
            stats.windows_opened)


_HYPERVISOR_COUNTERS = ("events", "skipped_events", "dispatch_batches",
                        "compactions", "sim_cycles", "irqs",
                        "monitor_consultations", "windows_opened")


class HypervisorProbe(Probe):
    """``Hypervisor.run_*``: engine and hypervisor counter deltas.

    Counters are read only around the outermost hypervisor span, so a
    run nested in another is not counted twice.
    """

    def before(self, tracer, args, kwargs):
        if tracer.depth("hypervisor"):
            return None
        return _hypervisor_counters(args[0])

    def after(self, tracer, token, span, args, kwargs, result):
        if token is None:
            return None
        hv = args[0]
        deltas = dict(zip(_HYPERVISOR_COUNTERS,
                          (after - before for before, after in zip(
                              token, _hypervisor_counters(hv)))))
        deltas["sim_s"] = hv.clock.cycles_to_us(deltas.pop("sim_cycles")) / 1e6
        for name, value in deltas.items():
            tracer.add(f"hypervisor.{name}", value)
        if tracer.experiment is not None:
            for name in ("events", "skipped_events"):
                tracer.add(f"hypervisor.{tracer.experiment}.{name}",
                           deltas[name])
        return deltas


class WatchProbe(Probe):
    """Remembers the bound instance (a cache or store writer)."""

    def __init__(self, kind: str):
        self.kind = kind

    def before(self, tracer, args, kwargs):
        tracer.watch(self.kind, args[0])


def _file_size(path: Any) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class ExportProbe(Probe):
    """``write_*_csv``: bytes of the written file."""

    def after(self, tracer, token, span, args, kwargs, result):
        size = _file_size(args[0] if args else kwargs.get("path"))
        tracer.add("metrics.export.bytes", size)
        return {"bytes": size}


class TraceExportProbe(Probe):
    """``export_traced_run``: trace events written and file size."""

    def after(self, tracer, token, span, args, kwargs, result):
        path = kwargs.get("trace_path", args[1] if len(args) > 1 else None)
        size = _file_size(path) if path is not None else 0
        tracer.add("telemetry.trace_events", result or 0)
        tracer.add("telemetry.trace_bytes", size)
        return {"events": result or 0, "bytes": size}


#: Boundary target -> probe.
PROBES: "dict[str, Probe]" = {
    "repro.experiments.runner:run_campaign": RunnerProbe(),
    "repro.hypervisor.hypervisor:Hypervisor.run_until_irq_count":
        HypervisorProbe(),
    "repro.hypervisor.hypervisor:Hypervisor.run_until": HypervisorProbe(),
    "repro.experiments.cache:ResultCache.load": WatchProbe("cache"),
    "repro.experiments.cache:ResultCache.store": WatchProbe("cache"),
    "repro.store.capture:CampaignStoreWriter.write_task": WatchProbe("store"),
    "repro.store.capture:CampaignStoreWriter.write_traced_run":
        WatchProbe("store"),
    "repro.store.capture:CampaignStoreWriter.finalize": WatchProbe("store"),
    "repro.metrics.export:write_histogram_csv": ExportProbe(),
    "repro.metrics.export:write_series_csv": ExportProbe(),
    "repro.telemetry.run:export_traced_run": TraceExportProbe(),
}


# ------------------------------------------------------------ patching

def _in_package(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def _modules(pattern: str) -> "list[Any]":
    """Modules matching ``pattern``, importing the package it globs over."""
    fixed = pattern.split("*", 1)[0].rstrip(".")
    try:
        package = importlib.import_module(fixed)
    except ImportError:
        return []
    if "*" not in pattern:
        return [package]
    for info in pkgutil.iter_modules(getattr(package, "__path__", [])):
        if fnmatch.fnmatchcase(f"{fixed}.{info.name}", pattern):
            importlib.import_module(f"{fixed}.{info.name}")
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and fnmatch.fnmatchcase(name, pattern)]


def _resolve(target: str) -> "list[tuple[Any, str, str]]":
    """``(owner, attribute, label)`` triples a boundary target names.

    ``owner`` is a module or a class; for ``DICT[*]`` targets it is the
    dict itself.  An empty list means the boundary is missing.
    """
    module_pattern, _, attribute = target.partition(":")
    found = []
    for module in _modules(module_pattern):
        if attribute.endswith("[*]"):
            table = getattr(module, attribute[:-3], None)
            if isinstance(table, dict):
                found += [(table, key, f"{module.__name__}:{key}")
                          for key, value in table.items() if callable(value)]
        elif "." in attribute:
            class_name, method = attribute.split(".", 1)
            cls = getattr(module, class_name, None)
            if isinstance(cls, type) and method in vars(cls):
                found.append((cls, method, f"{cls.__name__}.{method}"))
        else:
            for name, value in sorted(vars(module).items()):
                if (fnmatch.fnmatchcase(name, attribute)
                        and callable(value) and not isinstance(value, type)
                        and getattr(value, "__module__", None)
                        == module.__name__):
                    found.append((module, name, name))
    return found


def _references(package: str) -> "dict[int, list[tuple[dict, str]]]":
    """id(value) -> every (namespace, key) of ``package`` that holds it.

    Covers module globals and the values of module-level dicts, so a
    function imported by name, or registered in a dispatch table, is
    found wherever it lives.
    """
    refs: "dict[int, list[tuple[dict, str]]]" = {}
    for name, module in list(sys.modules.items()):
        if module is None or not _in_package(name, package):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            refs.setdefault(id(value), []).append((namespace, key))
            if type(value) is dict:
                for item_key, item in list(value.items()):
                    refs.setdefault(id(item), []).append((value, item_key))
    return refs


def install(tracer: Tracer,
            layers: "dict[str, tuple]" = LAYERS,
            probes: "dict[str, Probe]" = PROBES,
            package: str = "repro") -> Callable[[], None]:
    """Wrap every boundary of ``layers``; return a function that undoes it.

    Boundaries that do not resolve are appended to ``tracer.missing``.
    """
    undo: "list[tuple[Any, str, Any]]" = []
    resolved = []
    for layer, boundaries in layers.items():
        for target, bucket, count in boundaries:
            owners = _resolve(target)
            if not owners:
                tracer.missing.append(target)
            resolved += [(layer, target, bucket, count, owner, name, label)
                         for owner, name, label in owners]
    refs = _references(package)
    for layer, target, bucket, count, owner, name, label in resolved:
        probe = probes.get(target)
        if isinstance(owner, type):
            raw = vars(owner)[name]
            function = getattr(raw, "__func__", raw)
            wrapped = tracer.wrap(function, layer, label, bucket, count, probe)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            undo.append((owner, name, raw))
            setattr(owner, name, wrapped)
            continue
        original = owner[name] if isinstance(owner, dict) else getattr(
            owner, name)
        wrapped = tracer.wrap(original, layer, label, bucket, count, probe)
        for namespace, key in refs.get(id(original), ()):
            if namespace.get(key) is original:
                undo.append((namespace, key, original))
                namespace[key] = wrapped

    def uninstall() -> None:
        for holder, key, value in reversed(undo):
            if isinstance(holder, dict):
                holder[key] = value
            else:
                setattr(holder, key, value)

    return uninstall


def finish(tracer: Tracer) -> None:
    """Read the watched objects' counters into the totals."""
    for cache in tracer.watched.get("cache", {}).values():
        stats = cache.stats
        tracer.add("experiments.cache.hits", stats.hits)
        tracer.add("experiments.cache.misses", stats.misses)
        tracer.add("experiments.cache.bytes_read", stats.bytes_read)
        tracer.add("experiments.cache.bytes_written", stats.bytes_written)
    for writer in tracer.watched.get("store", {}).values():
        stats = writer.stats
        tracer.add("store.artifacts", stats.artifacts_written)
        tracer.add("store.rows", stats.rows_written)
        tracer.add("store.bytes_written", stats.bytes_written)
    worldstore = sys.modules.get("repro.sim.worldstore")
    if worldstore is not None:
        store = worldstore.default_store()
        tracer.add("sim.worldstore.fragments", store.stats.fragments_stored)
        tracer.add("sim.worldstore.resident_bytes", store.resident_bytes)


# ------------------------------------------------------------- metrics

def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(totals: "dict[str, float]", maxima: "dict[str, float]",
                  traced_wall: float, untraced_wall: float,
                  ) -> "dict[str, float]":
    """The per-layer metrics of one traced run, from merged totals.

    ``traced_wall`` and ``untraced_wall`` are launch-to-exit walls of
    the traced iteration and of a median untraced one; the part of the
    traced wall no layer claims is ``unattributed_s``.
    """
    metrics: "dict[str, float]" = {}
    for name in layer_metric_units():
        metrics[name] = totals.get(name, 0)
    metrics["experiments.runner.max_task_s"] = maxima.get(
        "experiments.runner.max_task_s", 0.0)
    metrics["experiments.runner.worker_utilization"] = min(1.0, _ratio(
        totals.get("experiments.runner.busy_s", 0),
        totals.get("experiments.runner.capacity_s", 0)))
    events = totals.get("hypervisor.events", 0)
    hv_self = totals.get("hypervisor.self_s", 0.0)
    metrics["hypervisor.skip_share"] = _ratio(
        totals.get("hypervisor.skipped_events", 0), events)
    metrics["hypervisor.ns_per_event"] = _ratio(hv_self, events, 1e9)
    metrics["hypervisor.us_per_irq"] = _ratio(
        hv_self, totals.get("hypervisor.irqs", 0), 1e6)
    for experiment in EXPERIMENTS:
        metrics[f"hypervisor.{experiment}.skip_share"] = _ratio(
            totals.get(f"hypervisor.{experiment}.skipped_events", 0),
            totals.get(f"hypervisor.{experiment}.events", 0))
    attributed = sum(totals.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    metrics["unattributed_s"] = traced_wall - attributed
    metrics["trace_overhead"] = _ratio(traced_wall, untraced_wall) - 1.0
    return metrics


# --------------------------------------------------------- chrome trace

def chrome_trace(commands: "list[dict[str, Any]]", origin: float,
                 ) -> "dict[str, Any]":
    """A Chrome trace-event document with one track per layer.

    ``commands`` holds, per traced command, its ``argv``, its launch
    and exit instants (``time.monotonic`` seconds, like ``origin``) and
    the child's span records with ``start`` on the same clock.  Spans
    nest on their layer's track; each span's ``args`` carry its id, its
    parent's id and the counts its probe read.
    """
    tracks = {layer: index + 1 for index, layer in enumerate(LAYERS)}
    events: "list[dict[str, Any]]" = [
        {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
         "args": {"name": "Layers"}},
        {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
         "args": {"name": "commands"}},
    ]
    events += [{"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                "args": {"name": layer}} for layer, tid in tracks.items()]
    spans: "list[dict[str, Any]]" = []
    for command in commands:
        spans.append({
            "ph": "X", "pid": 1, "tid": 0,
            "ts": (command["launched"] - origin) * 1e6,
            "dur": (command["exited"] - command["launched"]) * 1e6,
            "name": command["argv"][0],
            "cat": "command",
            "args": {"argv": " ".join(command["argv"]),
                     "spans": len(command["spans"]),
                     "dropped_spans": command.get("dropped_spans", 0)},
        })
        for span_id, parent, layer, boundary, start, duration, args in (
                command["spans"]):
            spans.append({
                "ph": "X", "pid": 1, "tid": tracks[layer],
                "ts": (start - origin) * 1e6, "dur": duration * 1e6,
                "name": boundary, "cat": layer,
                "args": dict(args or {}, id=span_id, parent=parent),
            })
    # Parents before the children they contain, so every track is
    # monotone in ts and nests in the viewer.
    spans.sort(key=lambda event: (event["tid"], event["ts"], -event["dur"]))
    return {"traceEvents": events + spans, "displayTimeUnit": "ms",
            "otherData": {"format": "repro-chrome-trace-v1",
                          "source": "benchmarks/e2e layer tracer"}}
