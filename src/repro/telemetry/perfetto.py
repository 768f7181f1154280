"""Chrome trace-event (Perfetto) JSON export.

Converts a simulation run — the typed :class:`~repro.sim.trace.TraceRecorder`
stream plus the optional ``record_cpu_segments`` occupancy segments —
into the Chrome trace-event JSON format, loadable in ``ui.perfetto.dev``
or ``chrome://tracing``.

Track layout
------------
* **pid 1 — "Simulation CPU"**: one thread track per timeline lane
  (the same :func:`repro.metrics.timeline.lane_of` mapping the ASCII
  Gantt renderer uses — ``"RT"``, ``"RT BH"``, ``"HV"``, ...), each CPU
  segment a ``ph="X"`` complete event spanning its charged cycles.
* **pid 2 — "Hypervisor trace"**: one thread track per event family
  (IRQ, Monitor, Top handlers, ...), with **exactly one ``ph="i"``
  instant per recorded TraceEvent** — so per-kind instant counts equal
  ``TraceRecorder.of_kind(...)`` counts, which the tests pin.
* **pid 3 — "Campaign"**: one thread track per worker process, each
  executed campaign task a ``ph="X"`` span over its wall time.
* **pid 4 — "Engine"**: one "Idle-skip spans" thread; each quiescent
  gap the idle-skip engine crossed analytically (see
  ``SimulationEngine.skip_span_log``) is a ``ph="X"`` span annotated
  with the number of events elided — making the fast-forwarded
  stretches visible next to the semantic trace instants they bracket.
  A second "World captures" thread renders the layered world store's
  capture log (see ``WorldStore.capture_log``): one ``ph="i"`` instant
  per capture/fork at its simulation time, annotated with the capture
  kind (fast/full/fork), how many parts landed in the child layer, and
  the resulting layer depth.  A third "Fragment spill" thread renders
  the store's spill log (see ``WorldStore.spill_log``): one ``ph="i"``
  instant per spill batch / fault / corrupt-record miss, annotated
  with the fragment count and canonical-JSON bytes moved.

Timestamps are microseconds, as the format requires: simulation cycles
go through :meth:`~repro.sim.clock.Clock.cycles_to_us` when a clock is
supplied (raw cycles are used as µs otherwise — relative placement is
what matters for inspection), and campaign spans use wall-clock
offsets from the campaign start.  Events are emitted in recorder /
segment / task order, so timestamps are monotone within every track.

The file is streamed: :func:`write_chrome_trace` encodes and writes
one event at a time, so memory stays flat however long the trace is.
A hypervisor-trace instant is its kind's cached text around the
timestamp and the JSON of its args, with no per-event dict.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Iterable, Iterator, Mapping, Optional

from repro.metrics.timeline import lane_of
from repro.sim.trace import TraceKind, TraceRecorder
from repro.store.artifact import json_safe

#: Identifies traces written by :func:`write_chrome_trace`.
TRACE_FORMAT = "repro-chrome-trace-v1"

#: Process ids of the four track groups.
PID_CPU = 1
PID_TRACE = 2
PID_CAMPAIGN = 3
PID_ENGINE = 4

#: TraceKind -> thread-track family under ``PID_TRACE``.  Every kind
#: maps somewhere (unknown/custom kinds fall through to "Other"), so
#: the exporter can never silently drop a recorded event.
KIND_FAMILIES: "dict[TraceKind, str]" = {
    TraceKind.IRQ_RAISED: "IRQ",
    TraceKind.IRQ_COALESCED: "IRQ",
    TraceKind.MONITOR_ACCEPT: "Monitor",
    TraceKind.MONITOR_DENY: "Monitor",
    TraceKind.TOP_HANDLER_START: "Top handlers",
    TraceKind.TOP_HANDLER_END: "Top handlers",
    TraceKind.BOTTOM_HANDLER_START: "Bottom handlers",
    TraceKind.BOTTOM_HANDLER_END: "Bottom handlers",
    TraceKind.BOTTOM_HANDLER_PREEMPTED: "Bottom handlers",
    TraceKind.BOTTOM_HANDLER_BUDGET_EXHAUSTED: "Bottom handlers",
    TraceKind.INTERPOSE_START: "Interpose",
    TraceKind.INTERPOSE_END: "Interpose",
    TraceKind.SLOT_SWITCH: "Scheduler",
    TraceKind.CONTEXT_SWITCH: "Scheduler",
    TraceKind.TASK_RELEASE: "Guest tasks",
    TraceKind.TASK_START: "Guest tasks",
    TraceKind.TASK_END: "Guest tasks",
    TraceKind.DEADLINE_MISS: "Guest tasks",
    TraceKind.IDLE: "Guest tasks",
    TraceKind.IPC_SEND: "IPC",
    TraceKind.IPC_DELIVER: "IPC",
    TraceKind.CUSTOM: "Other",
}

#: Stable display order of the trace-family thread tracks.
FAMILY_ORDER = ("IRQ", "Monitor", "Top handlers", "Bottom handlers",
                "Interpose", "Scheduler", "Guest tasks", "IPC", "Other")


#: One event per ``encode`` call: with no indent, the C encoder runs.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _metadata(pid: int, name: str, tid: int = 0,
              thread_name: Optional[str] = None) -> str:
    if thread_name is None:
        return _encode({"ph": "M", "pid": pid, "tid": 0,
                        "name": "process_name", "args": {"name": name}})
    return _encode({"ph": "M", "pid": pid, "tid": tid,
                    "name": "thread_name", "args": {"name": thread_name}})


def _event_texts(trace, clock, cpu_segments, campaign, engine,
                 world_store) -> Iterator[str]:
    """Yield the JSON text of every event, in file order.

    The one event source: :func:`write_chrome_trace` writes these
    texts and :func:`chrome_trace_events` decodes them.
    """
    to_us = (clock.cycles_to_us if clock is not None
             else lambda cycles: cycles)

    if cpu_segments is not None:
        segments = list(cpu_segments)
        lanes: "dict[str, int]" = {}        # lane -> tid
        category_tids: "dict[str, int]" = {}
        for segment in segments:
            category = segment.category
            if category not in category_tids:
                lane = lane_of(category)
                category_tids[category] = lanes.setdefault(
                    lane, len(lanes) + 1)
        yield _metadata(PID_CPU, "Simulation CPU")
        for lane, tid in lanes.items():
            yield _metadata(PID_CPU, "", tid, lane)
        for segment in segments:
            start_us = to_us(segment.start)
            yield _encode({
                "ph": "X",
                "pid": PID_CPU,
                "tid": category_tids[segment.category],
                "ts": start_us,
                "dur": to_us(segment.end) - start_us,
                "name": segment.label or segment.category,
                "cat": segment.category,
            })

    if trace is not None:
        used = {KIND_FAMILIES.get(kind, "Other")
                for kind in {event.kind for event in trace}}
        family_tids = {
            family: index + 1
            for index, family in enumerate(
                [f for f in FAMILY_ORDER if f in used]
            )
        }
        yield _metadata(PID_TRACE, "Hypervisor trace")
        for family, tid in family_tids.items():
            yield _metadata(PID_TRACE, "", tid, family)
        # An instant is its kind's cached text around the timestamp and
        # args: the same bytes ``_encode`` gives the equivalent dict
        # (``repr`` spells a finite float or an int as JSON does).
        templates: "dict[TraceKind, tuple[str, str]]" = {}
        for event in trace:
            kind = event.kind
            template = templates.get(kind)
            if template is None:
                family = KIND_FAMILIES.get(kind, "Other")
                template = templates[kind] = (
                    f'{{"ph":"i","s":"t","pid":{PID_TRACE},'
                    f'"tid":{family_tids[family]},"ts":',
                    f',"name":{_encode(kind.value)},'
                    f'"cat":{_encode(family)},"args":',
                )
            head, middle = template
            yield (head + repr(to_us(event.time)) + middle
                   + _encode(json_safe(event.data)) + "}")

    spans = getattr(engine, "skip_span_log", None) if engine is not None else None
    captures = (getattr(world_store, "capture_log", None)
                if world_store is not None else None)
    spills = (getattr(world_store, "spill_log", None)
              if world_store is not None else None)
    if spans or captures or spills:
        yield _metadata(PID_ENGINE, "Engine")
    if spans:
        yield _metadata(PID_ENGINE, "", 1, "Idle-skip spans")
        for start, end, elided in spans:
            start_us = to_us(start)
            yield _encode({
                "ph": "X",
                "pid": PID_ENGINE,
                "tid": 1,
                "ts": start_us,
                "dur": to_us(end) - start_us,
                "name": f"idle-skip ({elided} events)",
                "cat": "idle_skip",
                "args": {"events_elided": elided,
                         "cycles": end - start},
            })

    if captures:
        yield _metadata(PID_ENGINE, "", 2, "World captures")
        # The log is in wall order; a store shared across worlds may
        # interleave simulation times, so sort (stably) to keep the
        # per-track monotonicity invariant the loader validates.
        for sim_time, kind, parts_changed, depth in sorted(
                captures, key=lambda entry: entry[0]):
            yield _encode({
                "ph": "i",
                "s": "t",
                "pid": PID_ENGINE,
                "tid": 2,
                "ts": to_us(sim_time),
                "name": f"capture:{kind}",
                "cat": "world_store",
                "args": {"parts_changed": parts_changed,
                         "layer_depth": depth},
            })

    if spills:
        yield _metadata(PID_ENGINE, "", 3, "Fragment spill")
        # Same wall-vs-simulation ordering caveat as the capture log.
        for sim_time, kind, fragments, nbytes in sorted(
                spills, key=lambda entry: entry[0]):
            yield _encode({
                "ph": "i",
                "s": "t",
                "pid": PID_ENGINE,
                "tid": 3,
                "ts": to_us(sim_time),
                "name": f"spill:{kind}",
                "cat": "world_store_spill",
                "args": {"fragments": fragments,
                         "bytes": nbytes},
            })

    if campaign is not None:
        workers: "dict[int, int]" = {}
        for task in campaign.tasks:
            if task.worker_pid not in workers:
                workers[task.worker_pid] = len(workers) + 1
        yield _metadata(PID_CAMPAIGN, "Campaign")
        for pid, tid in workers.items():
            yield _metadata(PID_CAMPAIGN, "", tid, f"worker {pid}")
        for task in campaign.tasks:
            yield _encode({
                "ph": "X",
                "pid": PID_CAMPAIGN,
                "tid": workers[task.worker_pid],
                "ts": round(task.started_offset_seconds * 1e6, 3),
                "dur": round(task.wall_seconds * 1e6, 3),
                "name": f"{task.experiment}/{task.kind}[{task.index}]",
                "cat": "campaign_task",
                "args": {
                    "experiment": task.experiment,
                    "kind": task.kind,
                    "cached": task.cached,
                    "queue_wait_seconds": round(task.queue_wait_seconds, 6),
                },
            })


def chrome_trace_events(
    trace: Optional[TraceRecorder] = None,
    *,
    clock: Any = None,
    cpu_segments: Optional[Iterable[Any]] = None,
    campaign: Any = None,
    engine: Any = None,
    world_store: Any = None,
) -> "Iterator[dict]":
    """Generate the ``traceEvents`` of one run, one dict at a time.

    Each dict is decoded from the exact text :func:`write_chrome_trace`
    writes, so what a caller inspects is what the file holds.

    Parameters
    ----------
    trace:
        Recorder whose events become per-family instants (optional).
    clock:
        A :class:`~repro.sim.clock.Clock`; when given, cycle timestamps
        are converted to microseconds.
    cpu_segments:
        ``Cpu.segments`` from a run with ``record_cpu_segments=True``;
        rendered as complete events on per-lane tracks.
    campaign:
        A :class:`~repro.experiments.runner.CampaignTelemetry`;
        executed tasks become spans on per-worker tracks.
    engine:
        A :class:`~repro.sim.engine.SimulationEngine`; its recorded
        idle-skip spans become complete events on the "Engine" track
        (omitted entirely when no span was recorded).
    world_store:
        A :class:`~repro.sim.worldstore.WorldStore`; its capture log
        becomes instants on a "World captures" thread of the "Engine"
        track, and its spill log instants on a "Fragment spill"
        thread (each omitted entirely when nothing was logged).
    """
    for text in _event_texts(trace, clock, cpu_segments, campaign,
                             engine, world_store):
        yield json.loads(text)


def write_chrome_trace(path: "str | os.PathLike[str]",
                       trace: Optional[TraceRecorder] = None,
                       *,
                       clock: Any = None,
                       cpu_segments: Optional[Iterable[Any]] = None,
                       campaign: Any = None,
                       engine: Any = None,
                       world_store: Any = None,
                       metadata: Optional[Mapping[str, Any]] = None) -> int:
    """Stream a Chrome trace JSON file; returns the event count.

    The file is the standard ``{"traceEvents": [...]}`` object form
    with run metadata under ``otherData``.  Events are written one at
    a time as they are generated, so neither the event list nor the
    document string is ever held in memory.  The write is atomic
    (temp file + ``os.replace``): a failure mid-stream removes the
    partial temp file and leaves any existing ``path`` untouched.
    """
    other: "dict[str, Any]" = {"format": TRACE_FORMAT}
    if metadata:
        other.update(json_safe(metadata))
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
    count = 0
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            write = handle.write
            write('{"traceEvents":[')
            for text in _event_texts(trace, clock, cpu_segments, campaign,
                                     engine, world_store):
                write("," + text if count else text)
                count += 1
            write('],"displayTimeUnit":"ms","otherData":')
            write(_encode(other))
            write("}\n")
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return count


def load_chrome_trace(path: "str | os.PathLike[str]") -> "dict[str, Any]":
    """Load and validate a trace written by :func:`write_chrome_trace`.

    Checks the object form, the per-event required fields, and that
    timestamps are monotone non-decreasing within every ``(pid, tid)``
    track — the invariant the exporter promises.  Returns the parsed
    document; raises ``ValueError`` on any violation.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError(f"{path}: not an object-form Chrome trace")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ValueError(f"{path}: traceEvents is not a list")
    last_ts: "dict[tuple[int, int], float]" = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict) or "ph" not in event:
            raise ValueError(f"{path}: event #{index} lacks a phase")
        if event["ph"] == "M":
            continue
        for required in ("pid", "tid", "ts", "name"):
            if required not in event:
                raise ValueError(
                    f"{path}: event #{index} lacks {required!r}"
                )
        track = (event["pid"], event["tid"])
        ts = float(event["ts"])
        if track in last_ts and ts < last_ts[track]:
            raise ValueError(
                f"{path}: event #{index} goes back in time on track "
                f"{track} ({ts} < {last_ts[track]})"
            )
        last_ts[track] = ts
    return document
