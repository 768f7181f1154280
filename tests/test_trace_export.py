"""Tests for the Chrome trace-event (Perfetto) exporter and CLI wiring.

Round-trips a deterministic traced run through the exporter and pins
the format invariants: the file loads as JSON, every non-metadata
event sits on a named track, timestamps are monotone within each
track, CPU lanes use the same names as
:func:`repro.metrics.timeline.lane_of`, and per-kind instant counts
equal the recorder's ``of_kind`` counts (one instant per TraceEvent,
nothing dropped, nothing invented).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter as TallyCounter

import pytest

from repro.metrics.timeline import lane_of
from repro.sim.engine import resolve_idle_skip
from repro.sim.trace import TraceKind, TraceRecorder
from repro.telemetry import (
    chrome_trace_events,
    load_chrome_trace,
    load_metrics_json,
    run_traced_fig6,
    write_chrome_trace,
)
from repro.telemetry.perfetto import (
    KIND_FAMILIES,
    PID_CAMPAIGN,
    PID_CPU,
    PID_ENGINE,
    PID_TRACE,
    write_chrome_trace as write_trace,
)


@pytest.fixture(scope="module")
def replay():
    """One deterministic traced fig6b run shared by the module."""
    return run_traced_fig6(irqs=100, seed=7)


@pytest.fixture()
def trace_doc(replay, tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(path, replay.trace, clock=replay.clock,
                       cpu_segments=replay.cpu_segments)
    with open(path) as handle:
        return json.load(handle)


def _thread_names(events, pid):
    return {
        event["tid"]: event["args"]["name"]
        for event in events
        if event["ph"] == "M" and event["pid"] == pid
        and event["name"] == "thread_name"
    }


def test_trace_file_loads_and_validates(replay, tmp_path):
    path = tmp_path / "trace.json"
    count = write_chrome_trace(path, replay.trace, clock=replay.clock,
                               cpu_segments=replay.cpu_segments)
    document = load_chrome_trace(path)   # raises on any violation
    assert len(document["traceEvents"]) == count
    assert document["otherData"]["format"] == "repro-chrome-trace-v1"


def test_process_and_thread_tracks_are_named(trace_doc):
    events = trace_doc["traceEvents"]
    process_names = {
        event["pid"]: event["args"]["name"]
        for event in events
        if event["ph"] == "M" and event["name"] == "process_name"
    }
    assert process_names[PID_CPU] == "Simulation CPU"
    assert process_names[PID_TRACE] == "Hypervisor trace"
    # every non-metadata event's (pid, tid) resolves to a named thread
    named = {
        (event["pid"], event["tid"])
        for event in events
        if event["ph"] == "M" and event["name"] == "thread_name"
    }
    for event in events:
        if event["ph"] != "M":
            assert (event["pid"], event["tid"]) in named


def test_timestamps_monotone_per_track(trace_doc):
    last = {}
    for event in trace_doc["traceEvents"]:
        if event["ph"] == "M":
            continue
        track = (event["pid"], event["tid"])
        assert event["ts"] >= last.get(track, float("-inf"))
        last[track] = event["ts"]


def test_cpu_lane_names_match_lane_of(replay, trace_doc):
    events = trace_doc["traceEvents"]
    lane_names = set(_thread_names(events, PID_CPU).values())
    expected = {lane_of(segment.category)
                for segment in replay.cpu_segments}
    assert lane_names == expected
    # and every segment became exactly one complete event
    complete = [event for event in events
                if event["ph"] == "X" and event["pid"] == PID_CPU]
    assert len(complete) == len(replay.cpu_segments)


def test_instant_counts_match_of_kind(replay, trace_doc):
    instants = TallyCounter(
        event["name"] for event in trace_doc["traceEvents"]
        if event["ph"] == "i" and event["pid"] == PID_TRACE
    )
    recorder = replay.trace
    assert sum(instants.values()) == len(recorder)
    for kind in TraceKind:
        assert instants.get(kind.value, 0) == len(recorder.of_kind(kind)), \
            f"instant count diverges for {kind}"


def test_every_kind_has_a_family():
    assert set(KIND_FAMILIES) == set(TraceKind)


def test_instants_carry_event_data(replay, trace_doc):
    first_raise = next(
        event for event in trace_doc["traceEvents"]
        if event["ph"] == "i" and event["name"] == "irq_raised"
    )
    assert first_raise["args"]["line"] == 5
    assert first_raise["s"] == "t"


def test_campaign_spans(tmp_path):
    from repro.experiments.runner import CampaignTelemetry, TaskTelemetry

    telemetry = CampaignTelemetry(jobs=2, wall_seconds=1.0, tasks=[
        TaskTelemetry("fig6a", "fig6-load", 0, False, 0.5, 0.01, 0.01, 11),
        TaskTelemetry("fig6a", "fig6-load", 1, False, 0.2, 0.02, 0.02, 12),
    ])
    events = list(chrome_trace_events(campaign=telemetry))
    spans = [event for event in events
             if event["ph"] == "X" and event["pid"] == PID_CAMPAIGN]
    assert len(spans) == 2
    assert spans[0]["name"] == "fig6a/fig6-load[0]"
    assert spans[0]["dur"] == pytest.approx(0.5e6)
    workers = _thread_names(events, PID_CAMPAIGN)
    assert set(workers.values()) == {"worker 11", "worker 12"}


def test_write_is_atomic_and_creates_directories(replay, tmp_path):
    nested = tmp_path / "deep" / "dir" / "trace.json"
    write_trace(nested, replay.trace, clock=replay.clock)
    assert nested.exists()
    assert not list(nested.parent.glob("*.tmp"))


# ---------------------------------------------------------- golden pins

#: sha256 of the Chrome trace of ``run_traced_fig6(irqs=100, seed=7)``
#: with CPU segments and the engine's idle-skip spans, no campaign.
GOLDEN_TRACE_SHA256 = (
    "7d0e5e14acf9509c2046d18858612ce8f95a10ae7aba94898065659e58bc5b2e"
)

#: sha256 of the canonical JSON of the same replay exported with
#: :func:`_golden_campaign` spans, their wall-clock fields masked.
GOLDEN_CAMPAIGN_MASKED_SHA256 = (
    "1dc5eb3835c16dc75a5224b29c94ad581bf551d3f266f51fd315b641e3fda0e8"
)

#: The same two documents in canonical JSON with the idle-skip process
#: (pid 4) removed.  Skipping may change nothing but its own track, so
#: these hold with the idle-skip on and off.
GOLDEN_TRACE_SANS_SKIP_SHA256 = (
    "06805e092068a2b5044eb57a70c4211df287c48109eae8fca4c7772656d1fa45"
)
GOLDEN_CAMPAIGN_MASKED_SANS_SKIP_SHA256 = (
    "4bd3c59b19d826becea131e0f5230d0dbe3280fb87e4ba1d9423e796b45def08"
)

#: Events on the idle-skip track of that replay with the skip on: its
#: process and thread names plus one span per skip.
GOLDEN_IDLE_SKIP_EVENTS = 70


def _golden_campaign():
    """Five tasks on two workers with arbitrary wall-clock fields."""
    import random

    from repro.experiments.runner import CampaignTelemetry, TaskTelemetry

    rng = random.Random()
    tasks = [
        TaskTelemetry("fig6a" if index < 3 else "fig7",
                      "fig6-load" if index < 3 else "fig7-case",
                      index, index == 2, rng.random(), rng.random(),
                      index * 0.1 + rng.random() * 0.05, 101 + index % 2)
        for index in range(5)
    ]
    return CampaignTelemetry(jobs=2, wall_seconds=1.0, tasks=tasks)


def _canonical_sha256(document):
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _check_idle_skip_track(document, count, full_count, sans_skip_sha256):
    """Pin the document without its idle-skip track on both legs, and
    the track itself: the golden count with the skip on, none off.
    Returns whether the skip is on (the full-document pins hold)."""
    kept = [event for event in document["traceEvents"]
            if event["pid"] != PID_ENGINE]
    skip_events = len(document["traceEvents"]) - len(kept)
    assert _canonical_sha256(dict(document, traceEvents=kept)) \
        == sans_skip_sha256
    skip_on = resolve_idle_skip(None)
    assert skip_events == (GOLDEN_IDLE_SKIP_EVENTS if skip_on else 0)
    assert count == full_count - GOLDEN_IDLE_SKIP_EVENTS + skip_events
    return skip_on


def test_trace_bytes_match_golden(replay, tmp_path):
    path = tmp_path / "trace.json"
    count = write_chrome_trace(path, replay.trace, clock=replay.clock,
                               cpu_segments=replay.cpu_segments,
                               engine=replay.hypervisor.engine)
    if _check_idle_skip_track(load_chrome_trace(path), count, 2592,
                              GOLDEN_TRACE_SANS_SKIP_SHA256):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_TRACE_SHA256


def test_campaign_trace_matches_golden_with_wall_clock_masked(replay,
                                                              tmp_path):
    from repro.telemetry import export_traced_run

    path = tmp_path / "trace.json"
    count = export_traced_run(replay, trace_path=str(path),
                              campaign=_golden_campaign(),
                              metadata={"scale": "smoke", "jobs": 2})
    document = load_chrome_trace(path)
    spans = 0
    for event in document["traceEvents"]:
        if event["pid"] == PID_CAMPAIGN and event["ph"] == "X":
            event["ts"] = event["dur"] = 0
            event["args"]["queue_wait_seconds"] = 0
            spans += 1
    assert spans == 5
    if _check_idle_skip_track(document, count, 2600,
                              GOLDEN_CAMPAIGN_MASKED_SANS_SKIP_SHA256):
        assert _canonical_sha256(document) == GOLDEN_CAMPAIGN_MASKED_SHA256


class _FailingCampaign:
    """A campaign whose task list raises partway through iteration."""

    def __init__(self, after):
        self.after = after

    @property
    def tasks(self):
        from repro.experiments.runner import TaskTelemetry

        for index in range(self.after):
            yield TaskTelemetry("fig6a", "fig6-load", index, False,
                                0.1, 0.0, index * 0.1, 11)
        raise RuntimeError("task source failed")


def test_mid_stream_failure_keeps_target_and_leaves_no_temp(replay,
                                                            tmp_path):
    path = tmp_path / "trace.json"
    path.write_text("previous trace")
    with pytest.raises(RuntimeError, match="task source failed"):
        # The CPU lanes and trace instants stream out before the
        # campaign's task iterator raises.
        write_chrome_trace(path, replay.trace, clock=replay.clock,
                           cpu_segments=replay.cpu_segments,
                           campaign=_FailingCampaign(after=3))
    assert path.read_text() == "previous trace"
    assert not list(tmp_path.glob("*.tmp"))


def test_write_memory_stays_far_below_file_size(tmp_path):
    import tracemalloc

    replay = run_traced_fig6(irqs=1000, seed=7)
    path = tmp_path / "trace.json"
    tracemalloc.start()
    try:
        write_chrome_trace(path, replay.trace, clock=replay.clock,
                           cpu_segments=replay.cpu_segments,
                           engine=replay.hypervisor.engine)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < size / 4, (peak, size)


def test_validator_rejects_time_travel(tmp_path):
    recorder = TraceRecorder()
    recorder.emit(100, TraceKind.CUSTOM, note="first")
    path = tmp_path / "bad.json"
    write_trace(path, recorder)
    document = json.loads(path.read_text())
    document["traceEvents"].append({
        "ph": "i", "s": "t", "pid": PID_TRACE, "tid": 1,
        "ts": -5.0, "name": "custom", "args": {},
    })
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError, match="back in time"):
        load_chrome_trace(path)


# ------------------------------------------------------------------ CLI

def test_cli_acceptance_command(tmp_path, capsys, monkeypatch):
    """``fig6 --quick --trace-out --metrics-json`` (at smoke scale for
    test speed): both files valid, counters reconcile with the traced
    replay's recorder."""
    from repro.experiments.__main__ import main

    monkeypatch.chdir(tmp_path)
    trace_path = tmp_path / "t.json"
    metrics_path = tmp_path / "m.json"
    assert main(["fig6", "--smoke", "--no-cache", "--jobs", "2",
                 "--trace-out", str(trace_path),
                 "--metrics-json", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    for name in ("fig6a", "fig6b", "fig6c"):
        assert f"=== {name} " in out

    document = load_chrome_trace(trace_path)
    assert document["otherData"]["scenario"] == "fig6b"

    payload = load_metrics_json(metrics_path)
    metrics = payload["metrics"]

    def value(name, **labels):
        for series in metrics[name]["values"]:
            if series["labels"] == labels:
                return series["value"]
        raise AssertionError(f"no series {labels} in {name}")

    # reconcile the snapshot against an independent identical replay
    from repro.experiments.scale import SMOKE

    replay = run_traced_fig6(irqs=SMOKE.fig6_irqs_per_load, seed=1)
    recorder = replay.trace
    for metric_name, kind in (
        ("hv_irqs_raised_total", TraceKind.IRQ_RAISED),
        ("hv_top_handler_runs_total", TraceKind.TOP_HANDLER_START),
        ("hv_bottom_handler_runs_total", TraceKind.BOTTOM_HANDLER_START),
        ("hv_monitor_accepts_total", TraceKind.MONITOR_ACCEPT),
        ("hv_monitor_denies_total", TraceKind.MONITOR_DENY),
    ):
        assert value(metric_name, run="fig6b") == len(
            recorder.of_kind(kind))
    # campaign telemetry rode along: 9 fig6 tasks computed
    computed = sum(
        series["value"]
        for series in metrics["campaign_tasks_total"]["values"]
        if series["labels"]["outcome"] == "computed"
    )
    assert computed == 9


def test_cli_progress_flag(tmp_path, capsys, monkeypatch):
    from repro.experiments.__main__ import main

    monkeypatch.chdir(tmp_path)
    assert main(["fig6a", "--smoke", "--no-cache", "--jobs", "1",
                 "--progress"]) == 0
    err = capsys.readouterr().err
    assert "[fig6a] task 1/3 done (fig6-load)" in err
    assert "[fig6a] task 3/3 done (fig6-load)" in err


# ---------------------------------------------------- the traced tail

def _run_capture(directory, jobs, *extra):
    """``fig6 --smoke`` with every capture output, into ``directory``."""
    from repro.experiments.__main__ import main

    return main(["fig6", "--smoke", "--no-cache", "--jobs", str(jobs),
                 "--trace-out", str(directory / "trace.json"),
                 "--metrics-json", str(directory / "metrics.json"),
                 "--store", str(directory / "store"), *extra])


def _campaign_masked_sha256(path):
    """The trace's canonical sha with everything that records how the
    campaign was scheduled masked: pid-3 wall-clock fields and worker
    tracks, and the jobs count."""
    document = load_chrome_trace(path)
    kept = []
    for event in document["traceEvents"]:
        if event["pid"] == PID_CAMPAIGN:
            if event["ph"] == "M" and event["name"] == "thread_name":
                continue
            if event["ph"] == "X":
                event["ts"] = event["dur"] = event["tid"] = 0
                event["args"]["queue_wait_seconds"] = 0
        kept.append(event)
    document["otherData"]["jobs"] = 0
    return _canonical_sha256(dict(document, traceEvents=kept))


def _hv_metrics(path):
    metrics = load_metrics_json(path)["metrics"]
    return {name: series for name, series in metrics.items()
            if name.startswith("hv_")}


def _leftovers(directory):
    return sorted(path.name for path in directory.iterdir()
                  if path.name.endswith((".fragment", ".tmp")))


def test_traced_tail_is_the_same_in_process_and_alongside_the_campaign(
        tmp_path, monkeypatch):
    """At ``--jobs 2`` the tail runs in its own worker during the
    campaign, at ``--jobs 1`` in-process after it: same trace, same
    ``traced-run.rpart`` bytes, same ``hv_*`` metrics."""
    monkeypatch.chdir(tmp_path)
    runs = {}
    for jobs in (1, 2):
        directory = tmp_path / f"jobs-{jobs}"
        directory.mkdir()
        assert _run_capture(directory, jobs) == 0
        assert _leftovers(directory) == []
        runs[jobs] = directory
    one, two = runs[1], runs[2]
    assert _campaign_masked_sha256(one / "trace.json") \
        == _campaign_masked_sha256(two / "trace.json")
    # Up to the campaign's spans, the trace is byte for byte the one
    # write_chrome_trace gives an independent replay.
    from repro.experiments.scale import SMOKE

    replay = run_traced_fig6(irqs=SMOKE.fig6_irqs_per_load, seed=1)
    reference = tmp_path / "reference.json"
    write_chrome_trace(reference, replay.trace, clock=replay.clock,
                       cpu_segments=replay.cpu_segments,
                       engine=replay.hypervisor.engine)
    head = reference.read_bytes()
    head = head[:head.rindex(b'],"displayTimeUnit"')] + b","
    assert (two / "trace.json").read_bytes().startswith(head)
    assert (one / "store" / "traced-run.rpart").read_bytes() \
        == (two / "store" / "traced-run.rpart").read_bytes()
    assert _hv_metrics(one / "metrics.json") \
        == _hv_metrics(two / "metrics.json")
    # The replay's index entry comes after every campaign task's.
    index = json.loads((two / "store" / "index.json").read_text())
    assert [task["kind"] for task in index["tasks"]][-1] == "traced-replay"
    assert index["stats"]["artifacts_written"] == 10


@pytest.mark.parametrize("fault, jobs", [("error", 1), ("error", 2),
                                         ("crash", 2)])
def test_tail_fault_is_a_loud_error_and_leaves_no_trace(
        fault, jobs, tmp_path, monkeypatch):
    """A tail that fails (or whose worker dies) while writing its trace
    fragment fails the run, and leaves no trace, fragment or temp file."""
    import os
    from concurrent.futures.process import BrokenProcessPool

    import repro.telemetry.perfetto as perfetto

    parent = os.getpid()
    real_lane_of = perfetto.lane_of

    def faulty_lane_of(category):
        # Called while the fragment is open and partly written.
        if fault == "crash" and os.getpid() != parent:
            os._exit(3)
        if fault == "error":
            raise RuntimeError("injected tail fault")
        return real_lane_of(category)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(perfetto, "lane_of", faulty_lane_of)
    expected = RuntimeError if fault == "error" else BrokenProcessPool
    with pytest.raises(expected):
        _run_capture(tmp_path, jobs)
    assert not (tmp_path / "trace.json").exists()
    assert _leftovers(tmp_path) == []


def test_failing_campaign_stops_the_running_tail_promptly(tmp_path,
                                                          monkeypatch):
    """A campaign task that fails while the tail still runs ends the
    run at once: the tail worker is stopped and its fragment removed."""
    import functools
    import multiprocessing
    import signal
    import time

    import repro.telemetry.run as run
    from repro.experiments.runner import TASK_FUNCTIONS

    def slow_replay(**kwargs):
        time.sleep(60)

    real_task = TASK_FUNCTIONS["fig6-load"]

    @functools.wraps(real_task)
    def failing_task(**kwargs):
        raise RuntimeError("injected campaign fault")

    def hung(signum, frame):
        raise TimeoutError("the run waited for the traced tail")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "run_traced_fig6", slow_replay)
    monkeypatch.setitem(TASK_FUNCTIONS, "fig6-load", failing_task)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    started = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match="injected campaign fault"):
            _run_capture(tmp_path, 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 20
    assert not any(child.name == "traced-tail"
                   for child in multiprocessing.active_children())
    assert not (tmp_path / "trace.json").exists()
    assert _leftovers(tmp_path) == []
