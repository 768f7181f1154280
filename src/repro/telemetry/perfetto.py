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

Timestamps are microseconds, as the format requires: simulation cycles
go through :meth:`~repro.sim.clock.Clock.cycles_to_us` when a clock is
supplied (raw cycles are used as µs otherwise — relative placement is
what matters for inspection), and campaign spans use wall-clock
offsets from the campaign start.  Events are emitted in recorder /
segment / task order, so timestamps are monotone within every track.

The file is streamed: :func:`write_chrome_trace` encodes and writes
one event at a time, so memory stays flat however long the trace is.
A hypervisor-trace instant is its kind's cached text around the
timestamp and the JSON of its args, and a CPU segment its lane's
cached text around its two numbers, with no per-event dict.

A trace is written in two halves: :func:`write_trace_fragment` writes
the run's own events (pids 1, 2 and 4) into a fragment next to the
target, and :func:`finish_chrome_trace` appends the campaign's spans
(pid 3, always last) and the footer, then renames the fragment onto
the target.  The CLI runs the first half beside the campaign.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

from repro.metrics.timeline import lane_of
from repro.sim.trace import TraceKind, TraceRecorder
from repro.store.artifact import json_safe

#: Identifies traces written by :func:`write_chrome_trace`.
TRACE_FORMAT = "repro-chrome-trace-v1"

#: Suffix of the temp fragment a trace is written into before it lands.
FRAGMENT_SUFFIX = ".fragment"

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


def _run_texts(trace, clock, cpu_segments, engine,
               payloads: "Optional[Sequence[str]]" = None) -> Iterator[str]:
    """Yield the JSON text of every event of one simulated run.

    CPU lanes, hypervisor-trace instants and idle-skip spans, in file
    order.  ``payloads`` optionally holds each trace event's encoded
    args (:func:`~repro.store.artifact.encode_trace_data`), shared with
    the ``.rpart`` writer.
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
        # Like an instant, a segment is cached text around its two
        # numbers: the head per category, the tail per (label,
        # category) pair.
        heads = {
            category: f'{{"ph":"X","pid":{PID_CPU},"tid":{tid},"ts":'
            for category, tid in category_tids.items()
        }
        tails: "dict[tuple[str, str], str]" = {}
        for segment in segments:
            category = segment.category
            key = (segment.label, category)
            tail = tails.get(key)
            if tail is None:
                tail = tails[key] = (
                    f',"name":{_encode(segment.label or category)},'
                    f'"cat":{_encode(category)}}}')
            start_us = to_us(segment.start)
            yield (heads[category] + repr(start_us) + ',"dur":'
                   + repr(to_us(segment.end) - start_us) + tail)

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
        if payloads is None:
            payloads = (_encode(json_safe(event.data)) for event in trace)
        # An instant is its kind's cached text around the timestamp and
        # args: the same bytes ``_encode`` gives the equivalent dict
        # (``repr`` spells a finite float or an int as JSON does).
        templates: "dict[TraceKind, tuple[str, str]]" = {}
        for event, args in zip(trace, payloads):
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
            yield head + repr(to_us(event.time)) + middle + args + "}"

    spans = getattr(engine, "skip_span_log", None) if engine is not None else None
    if spans:
        yield _metadata(PID_ENGINE, "Engine")
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


def _campaign_texts(campaign) -> Iterator[str]:
    """Yield the JSON text of every campaign event: they come last."""
    if campaign is None:
        return
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


def _event_texts(trace, clock, cpu_segments, campaign,
                 engine) -> Iterator[str]:
    """Yield the JSON text of every event, in file order."""
    yield from _run_texts(trace, clock, cpu_segments, engine)
    yield from _campaign_texts(campaign)


def chrome_trace_events(
    trace: Optional[TraceRecorder] = None,
    *,
    clock: Any = None,
    cpu_segments: Optional[Iterable[Any]] = None,
    campaign: Any = None,
    engine: Any = None,
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
    """
    for text in _event_texts(trace, clock, cpu_segments, campaign, engine):
        yield json.loads(text)


def write_chrome_trace(path: "str | os.PathLike[str]",
                       trace: Optional[TraceRecorder] = None,
                       *,
                       clock: Any = None,
                       cpu_segments: Optional[Iterable[Any]] = None,
                       campaign: Any = None,
                       engine: Any = None,
                       metadata: Optional[Mapping[str, Any]] = None) -> int:
    """Stream a Chrome trace JSON file; returns the event count.

    The file is the standard ``{"traceEvents": [...]}`` object form
    with run metadata under ``otherData``.  Events are written one at
    a time as they are generated, so neither the event list nor the
    document string is ever held in memory.  The write is atomic
    (temp fragment + ``os.replace``): a failure mid-stream removes the
    fragment and leaves any existing ``path`` untouched.

    It is :func:`write_trace_fragment` followed by
    :func:`finish_chrome_trace`, the two halves the CLI runs apart so
    the run's events can be written while the campaign still runs.
    """
    fragment = new_trace_fragment(path)
    try:
        count = write_trace_fragment(fragment, trace, clock=clock,
                                     cpu_segments=cpu_segments,
                                     engine=engine)
    except BaseException:
        discard_trace_fragment(fragment)
        raise
    return finish_chrome_trace(fragment, path, count, campaign=campaign,
                               metadata=metadata)


def new_trace_fragment(path: "str | os.PathLike[str]") -> str:
    """Create an empty fragment file next to the trace ``path``.

    The fragment becomes the trace itself by an ``os.replace`` in
    :func:`finish_chrome_trace`, so it lives in the target's directory.
    """
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    os.makedirs(directory, exist_ok=True)
    fd, name = tempfile.mkstemp(dir=directory,
                                prefix=os.path.basename(target) + ".",
                                suffix=FRAGMENT_SUFFIX)
    os.close(fd)
    return name


def discard_trace_fragment(fragment: str) -> None:
    """Remove a fragment that will not become a trace."""
    try:
        os.unlink(fragment)
    except OSError:
        pass


def write_trace_fragment(fragment: str,
                         trace: Optional[TraceRecorder] = None,
                         *,
                         clock: Any = None,
                         cpu_segments: Optional[Iterable[Any]] = None,
                         engine: Any = None,
                         payloads: "Optional[Sequence[str]]" = None) -> int:
    """Write the head of a trace and one run's events to ``fragment``.

    The fragment holds ``{"traceEvents":[`` and the CPU-lane, trace
    instant and idle-skip events, everything that does not depend on
    the campaign.  Returns the number of events written.
    """
    count = 0
    with open(fragment, "w", encoding="utf-8") as handle:
        write = handle.write
        write('{"traceEvents":[')
        for text in _run_texts(trace, clock, cpu_segments, engine,
                               payloads):
            write("," + text if count else text)
            count += 1
    return count


def finish_chrome_trace(fragment: str, path: "str | os.PathLike[str]",
                        count: int, *, campaign: Any = None,
                        metadata: Optional[Mapping[str, Any]] = None) -> int:
    """Append the campaign's events and the footer, then land the trace.

    ``fragment`` is a :func:`write_trace_fragment` output holding
    ``count`` events; it is renamed onto ``path`` atomically.  On any
    failure the fragment is removed and ``path`` is left untouched.
    Returns the trace's total event count.
    """
    try:
        other: "dict[str, Any]" = {"format": TRACE_FORMAT}
        if metadata:
            other.update(json_safe(metadata))
        with open(fragment, "a", encoding="utf-8") as handle:
            write = handle.write
            for text in _campaign_texts(campaign):
                write("," + text if count else text)
                count += 1
            write('],"displayTimeUnit":"ms","otherData":')
            write(_encode(other))
            write("}\n")
        os.replace(fragment, os.fspath(path))
    except BaseException:
        discard_trace_fragment(fragment)
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
