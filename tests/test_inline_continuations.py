"""Inlined continuations: running a masked step in place is invisible.

The hypervisor runs the next step of a masked section
(``Hypervisor._continue``) in place when the engine says it would be
the next event dispatched (:meth:`SimulationEngine.inline_continuation`).
These tests pin both halves of that promise:

* engine level — every refusal condition refuses, and an accepted
  continuation moves the clock and the counters exactly as a
  dispatched event would;
* end to end — ``all --smoke`` with every observation output gives the
  same stdout, CSVs, ``.rpart`` files, store index, ``sim_*`` and
  ``hv_*`` series and replay trace events as the dispatched reference
  (:func:`conftest.dispatched_continuations`).
"""

from __future__ import annotations

import json
from typing import Callable

from conftest import dispatched_continuations
from repro.sim.engine import SimulationEngine

#: The campaign-span track of ``--trace-out``: wall-clock scheduling
#: data that differs run to run whatever the engine does.
PID_CAMPAIGN = 3


def _probe(engine: SimulationEngine, delay: int,
           answers: list) -> Callable[[], None]:
    """A callback that records the engine's answer for ``delay``."""
    return lambda: answers.append(engine.inline_continuation(delay))


# ------------------------------------------------------------- refusals

def test_refused_in_step():
    engine = SimulationEngine()
    answers = []
    engine.schedule(5, _probe(engine, 3, answers))
    assert engine.step()
    assert answers == [False]
    assert engine.now == 5


def test_refused_in_a_max_events_run():
    engine = SimulationEngine()
    answers = []
    engine.schedule(5, _probe(engine, 3, answers))
    assert engine.run(max_events=10) == 1
    assert answers == [False]


def test_refused_past_the_run_until_bound():
    answers = []
    for delay in (5, 6):
        engine = SimulationEngine()
        engine.schedule(5, _probe(engine, delay, answers))
        engine.run_until(10)
        assert engine.now == 10
    # 5 + 5 lands on the bound, which run_until includes; 5 + 6 passes it.
    assert answers == [True, False]


def test_refused_after_a_stop_request():
    engine = SimulationEngine()
    answers = []

    def stop_then_probe():
        engine.stop()
        answers.append(engine.inline_continuation(3))

    engine.schedule(5, stop_then_probe)
    engine.run()
    assert answers == [False]
    assert engine.now == 5


def test_refused_with_an_entry_at_the_same_time():
    engine = SimulationEngine()
    answers = []
    engine.schedule(5, _probe(engine, 3, answers))
    engine.schedule(8, lambda: None)
    engine.run()
    assert answers == [False]


def test_refused_with_a_cancelled_entry_earlier():
    engine = SimulationEngine()
    answers = []
    engine.schedule(5, _probe(engine, 3, answers))
    engine.schedule(7, lambda: None).cancel()
    engine.run()
    assert answers == [False]


def test_refused_with_a_stop_sentinel_at_the_same_time():
    engine = SimulationEngine()
    answers = []
    engine.schedule(5, _probe(engine, 3, answers))
    engine.schedule_stop_at(8)
    engine.run()
    assert answers == [False]
    assert engine.now == 8


def test_refused_for_a_negative_delay():
    engine = SimulationEngine()
    answers = []
    engine.schedule(5, _probe(engine, -1, answers))
    engine.run()
    assert answers == [False]
    assert engine.now == 5


# ------------------------------------------------------------ acceptance

def _chain(engine: SimulationEngine, inline: bool, log: list,
           follower: bool) -> None:
    """Masked steps 4, 0 and 2 cycles apart, each continuing in tail
    position.  The last step schedules a later event and, with
    ``follower``, a zero-delay one: the loop then pops an event at the
    instant an inlined step opened, which must not count a second
    batch."""

    def record(name):
        return lambda: log.append((name, engine.now))

    def step(name, delays):
        def body():
            log.append((name, engine.now))
            if not delays:
                if follower:
                    engine.schedule(0, record("follower"))
                engine.schedule(7, record("later"))
                return
            continuation = step(name + ">", delays[1:])
            if inline and engine.inline_continuation(delays[0]):
                continuation()
            else:
                engine.schedule(delays[0], continuation)
        return body

    engine.schedule(3, step("s", (4, 0, 2)))
    engine.schedule(40, step("t", (1,)))


def _counters(engine: SimulationEngine) -> tuple:
    return (engine.now, engine.events_scheduled, engine.events_executed,
            engine.pending_events, engine.dispatch_batches,
            engine.heap_depth)


def test_accepted_continuations_account_like_dispatched_events():
    for follower in (False, True):
        for run in ("run", "run_until"):
            results = {}
            for inline in (False, True):
                engine = SimulationEngine()
                log = []
                _chain(engine, inline, log, follower)
                if run == "run":
                    engine.run()
                else:
                    engine.run_until(100)
                results[inline] = (_counters(engine), log,
                                   engine.skip_spans)
            assert results[True] == results[False], (follower, run)


def test_accepted_continuation_moves_the_clock_at_once():
    engine = SimulationEngine()
    seen = []

    def first():
        assert engine.inline_continuation(6)
        seen.append(engine.now)

    engine.schedule(4, first)
    engine.run()
    assert seen == [10]
    assert engine.events_executed == 2
    assert engine.events_scheduled == 2
    assert engine.dispatch_batches == 2
    assert engine.pending_events == 0


# ------------------------------------------------------------ end to end

def _campaign(tmp_path, name, capsys):
    from repro.experiments.__main__ import main
    from repro.store.capture import INDEX_NAME
    from repro.telemetry import load_chrome_trace, load_metrics_json

    out = tmp_path / name
    assert main(["all", "--smoke", "--jobs", "1", "--no-cache",
                 "--store", str(out / "store"),
                 "--export", str(out / "export"),
                 "--trace-out", str(out / "trace.json"),
                 "--metrics-json", str(out / "metrics.json")]) == 0
    files = {path.relative_to(out).as_posix(): path.read_bytes()
             for pattern in ("export/*.csv", "store/*.rpart")
             for path in sorted(out.glob(pattern))}
    index = (out / "store" / INDEX_NAME).read_bytes()
    metrics = load_metrics_json(out / "metrics.json")["metrics"]
    series = {metric: values for metric, values in metrics.items()
              if metric.startswith(("sim_", "hv_"))}
    events = [event for event in
              load_chrome_trace(out / "trace.json")["traceEvents"]
              if event["pid"] != PID_CAMPAIGN]
    return capsys.readouterr().out, files, index, series, events


def test_smoke_campaign_is_identical_with_dispatched_continuations(
        tmp_path, capsys):
    """End to end, with every observation output on: inlining changes
    no output byte, no engine or hypervisor counter and no replay
    trace event."""
    inline = _campaign(tmp_path, "inline", capsys)
    with dispatched_continuations():
        dispatched = _campaign(tmp_path, "dispatched", capsys)
    stdout, files, index, series, events = inline
    assert "Fig. 6" in stdout
    assert sum(name.endswith(".rpart") for name in files) \
        == json.loads(index)["stats"]["artifacts_written"] > 0
    assert any(name.startswith("sim_") for name in series)
    assert any(name.startswith("hv_") for name in series)
    assert len(events) > 1000
    assert dispatched[0] == stdout
    assert dispatched[1].keys() == files.keys()
    for name, content in files.items():
        assert dispatched[1][name] == content, name
    assert dispatched[2] == index
    assert dispatched[3].keys() == series.keys()
    for name, values in series.items():
        assert dispatched[3][name] == values, name
    assert dispatched[4] == events
