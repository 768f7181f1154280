"""Tests of the parallel campaign runner and the experiments CLI.

The load-bearing guarantee: a campaign's results are **byte-identical**
for every ``--jobs`` count, because per-task seeds are derived
deterministically and merges consume task results in serial order.
The identity test runs the full ``all`` campaign at smoke scale twice —
serial and with a 4-worker pool — and diffs stdout and the exported
CSVs byte for byte.  The fig7 and sweep campaigns are further pinned
against the straight-line oracle in ``campaign_oracle.py``, cold and
cache-warm.  The whole ``all`` campaign, run as one pool and streamed
experiment by experiment, is pinned against the same oracle: emission
order, task conservation, and injected faults at the first task, a
mid-campaign task and the last task.
"""

import functools
import hashlib
import json
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from campaign_oracle import run_straight_line
from repro.experiments.__main__ import EXPERIMENTS, _render_one, main
from repro.experiments.cache import ResultCache, task_fingerprint
from repro.experiments.runner import (
    TASK_FUNCTIONS,
    CampaignTask,
    CampaignTelemetry,
    execute_task,
    plan_campaign,
    plan_experiment,
    run_campaign,
)
from repro.experiments.scale import PAPER, QUICK, SMOKE, resolve_scale


# ---------------------------------------------------------------- plan

EXPECTED_TASK_COUNTS = {
    "fig6a": 3, "fig6b": 3, "fig6c": 3,     # one per interrupt load
    "fig7": 4,                              # bound cases a-d
    "tab62": 3,                             # one per interrupt load
    "validation": 2,                        # classic + monitored legs
    "ablation": 3,                          # boost / throttle / depth
    "sweep": 9,                             # 4 cycle + 5 d_min
    "design": 1,
}


def _count_by_experiment(tasks):
    by_experiment = {}
    for task in tasks:
        by_experiment[task.experiment] = by_experiment.get(task.experiment, 0) + 1
    return by_experiment


def test_plan_covers_every_experiment():
    tasks, merges = plan_campaign(EXPERIMENTS, SMOKE, seed=1)
    assert set(merges) == set(EXPERIMENTS)
    assert _count_by_experiment(tasks) == EXPECTED_TASK_COUNTS
    assert len(tasks) == sum(EXPECTED_TASK_COUNTS.values())


def test_plan_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        plan_experiment("fig9", SMOKE, seed=1)


def test_tasks_are_picklable():
    import pickle

    tasks, _ = plan_campaign(EXPERIMENTS, SMOKE, seed=1)
    for task in tasks:
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task


def test_execute_task_dispatches():
    task = CampaignTask("design", "design", {"irq_count": SMOKE.design_irqs})
    result = execute_task(task)
    assert result.simulated_misses_at_min == 0


def test_resolve_scale():
    assert resolve_scale() is PAPER
    assert resolve_scale(quick=True) is QUICK
    assert resolve_scale(smoke=True) is SMOKE
    assert resolve_scale(quick=True, smoke=True) is SMOKE
    # the paper's headline count: 3 loads x 5000 IRQs = 15000 per scenario
    assert PAPER.fig6_irqs_per_load * 3 == 15_000


def test_run_campaign_serial_equals_parallel_results():
    serial = run_campaign(("validation",), SMOKE, seed=1, jobs=1)
    parallel = run_campaign(("validation",), SMOKE, seed=1, jobs=2)
    assert (serial["validation"].classic_measured_max_us
            == parallel["validation"].classic_measured_max_us)
    assert (serial["validation"].interposed_result.latencies_us
            == parallel["validation"].interposed_result.latencies_us)


# -------------------------------------------------------------- oracle

FIG7_SWEEP = ("fig7", "sweep")


@pytest.fixture(scope="module")
def straight_line():
    return run_straight_line(FIG7_SWEEP, SMOKE, seed=1)


@pytest.mark.parametrize("jobs", [1, 2])
def test_subtree_schedule_equals_wave_schedule(jobs, tmp_path,
                                               straight_line):
    """The pool executor differs from plan (wave) order only in speed.

    The reference is the straight-line oracle, which runs the plan in
    list order, in-process.  fig7's four cases and sweep's nine points
    run serial and across a pool.  The warm re-run uses the other jobs
    count: cache fingerprints do not depend on it.
    """
    validation = run_campaign(("validation",), SMOKE, seed=1, jobs=jobs)
    reference = run_straight_line(("validation",), SMOKE, seed=1)
    assert (validation["validation"].interposed_result.latencies_us
            == reference["validation"].interposed_result.latencies_us)

    tasks, _ = plan_campaign(FIG7_SWEEP, SMOKE, seed=1)
    cold_cache = ResultCache(tmp_path / "cache")
    cold = run_campaign(FIG7_SWEEP, SMOKE, seed=1, jobs=jobs,
                        cache=cold_cache)
    assert cold_cache.stats.hits == 0
    assert cold_cache.stats.misses == len(tasks)

    warm_cache = ResultCache(tmp_path / "cache")
    warm = run_campaign(FIG7_SWEEP, SMOKE, seed=1, jobs=3 - jobs,
                        cache=warm_cache)
    assert warm_cache.stats.misses == 0
    assert warm_cache.stats.hits == len(tasks)
    assert set(cold["fig7"]) == set(straight_line["fig7"])
    for case in straight_line["fig7"]:
        assert (cold["fig7"][case].series_us
                == straight_line["fig7"][case].series_us)
        assert (cold["fig7"][case].learned_table
                == straight_line["fig7"][case].learned_table)
    assert cold == straight_line
    assert warm == straight_line


def test_subtree_schedule_reuses_wave_cache(tmp_path, straight_line):
    """Cache fingerprints are schedule-independent: a cache written by
    the oracle in plan order is fully warm for the pool executor."""
    tasks, _ = plan_campaign(FIG7_SWEEP, SMOKE, seed=1)
    cache_dir = tmp_path / "cache"
    cold = ResultCache(cache_dir)
    assert run_straight_line(FIG7_SWEEP, SMOKE, seed=1,
                             cache=cold) == straight_line
    assert cold.stats.stores == len(tasks)

    warm = ResultCache(cache_dir)
    assert run_campaign(FIG7_SWEEP, SMOKE, seed=1, jobs=2,
                        cache=warm) == straight_line
    assert warm.stats.misses == 0
    assert warm.stats.hits == len(tasks)


# ---------------------------------------------------------- streaming

@pytest.fixture(scope="module")
def straight_line_all():
    return run_straight_line(EXPERIMENTS, SMOKE, seed=1)


def _rendered(name, merged):
    """One experiment's stdout block: the CLI's byte-identity surface."""
    return _render_one(name, merged, None)


@pytest.mark.parametrize("jobs", [1, 2])
def test_campaign_streams_each_experiment_once_in_order(
        jobs, tmp_path, straight_line_all):
    """One campaign over every experiment, streamed to a sink.

    The sink sees each experiment exactly once, in ``names`` order, equal
    to the oracle's merge.  In the parent, an experiment's emission
    follows its own tasks and precedes every task of the next one; at
    one job that is also the execution order.  Every planned task is
    either computed or cached, cold and warm.
    """
    tasks, _ = plan_campaign(EXPERIMENTS, SMOKE, seed=1)
    position = {name: rank for rank, name in enumerate(EXPERIMENTS)}
    for run in ("cold", "warm"):
        events = []
        telemetry = CampaignTelemetry()
        cache = ResultCache(tmp_path / "cache")
        returned = run_campaign(
            EXPERIMENTS, SMOKE, seed=1, jobs=jobs, cache=cache,
            telemetry=telemetry,
            progress=lambda done, total, task: events.append(
                ("task", task.experiment, done, total)),
            sink=lambda name, merged: events.append(("emit", name, merged)))
        assert returned == {}

        emitted = [event for event in events if event[0] == "emit"]
        assert [name for _, name, _ in emitted] == list(EXPERIMENTS)
        for _, name, merged in emitted:
            assert (_rendered(name, merged)
                    == _rendered(name, straight_line_all[name]))
        finished = [event for event in events if event[0] == "task"]
        assert [done for _, _, done, _ in finished] == list(
            range(1, len(tasks) + 1))
        assert {total for _, _, _, total in finished} == {len(tasks)}

        # Emission k sits between experiment k's tasks and k+1's.
        for at, event in enumerate(events):
            if event[0] != "emit":
                continue
            rank = position[event[1]]
            assert all(position[earlier[1]] <= rank
                       for earlier in events[:at])
            assert all(position[later[1]] > rank
                       for later in events[at + 1:])

        cached = sum(task.cached for task in telemetry.tasks)
        computed = len(telemetry.tasks) - cached
        assert computed + cached == len(tasks)
        assert cache.stats.hits + cache.stats.misses == len(tasks)
        if run == "cold":
            assert cached == cache.stats.hits == 0
        else:
            assert computed == cache.stats.misses == 0


#: Where a fault is injected into the plan of every experiment: the
#: first task, fig7 case c mid-campaign, and the last task (design).
FAULTS = {
    "first": lambda tasks: 0,
    "fig7c": lambda tasks: next(
        index for index, task in enumerate(tasks)
        if task.kind == "fig7-case" and task.kwargs["label"] == "c"),
    "last": lambda tasks: len(tasks) - 1,
}


def _assert_fault_keeps_campaign_form(fault, jobs, cache_dir, monkeypatch,
                                      oracle):
    """Fault one task of the whole campaign and check what it leaves.

    The campaign raises; the sink saw, in plan order, exactly the
    experiments before the faulted one; every task ``progress`` reported
    has a cache entry and the faulted task has none; a re-run looks up
    every planned task once and renders what the oracle renders.  Pool
    workers fork after the patch, so they inherit it, and
    ``functools.wraps`` keeps the task's fingerprint unchanged.
    """
    tasks, _ = plan_campaign(EXPERIMENTS, SMOKE, seed=1)
    failing = FAULTS[fault](tasks)
    target = tasks[failing]
    real_task = TASK_FUNCTIONS[target.kind]

    @functools.wraps(real_task)
    def faulty_task(**kwargs):
        if kwargs == target.kwargs:
            raise RuntimeError("injected fault")
        return real_task(**kwargs)

    emitted = []
    completed = []
    monkeypatch.setitem(TASK_FUNCTIONS, target.kind, faulty_task)
    with pytest.raises(RuntimeError, match="injected fault"):
        run_campaign(
            EXPERIMENTS, SMOKE, seed=1, jobs=jobs,
            cache=ResultCache(cache_dir),
            progress=lambda done, total, task: completed.append(
                tasks.index(task)),
            sink=lambda name, merged: emitted.append((name, merged)))
    monkeypatch.undo()

    assert [name for name, _ in emitted] == list(
        EXPERIMENTS[:EXPERIMENTS.index(target.experiment)])
    for name, merged in emitted:
        assert _rendered(name, merged) == _rendered(name, oracle[name])
    cache = ResultCache(cache_dir)
    assert failing not in completed
    assert cache.load(task_fingerprint(target)) is None
    for index in completed:
        assert cache.load(task_fingerprint(tasks[index])) is not None

    rerun_cache = ResultCache(cache_dir)
    rerun = run_campaign(EXPERIMENTS, SMOKE, seed=1, jobs=jobs,
                         cache=rerun_cache)
    assert rerun_cache.stats.hits + rerun_cache.stats.misses == len(tasks)
    assert rerun_cache.stats.hits >= len(completed)
    assert rerun_cache.stats.misses >= 1
    for name in EXPERIMENTS:
        assert _rendered(name, rerun[name]) == _rendered(name, oracle[name])


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_task_is_a_loud_error_never_a_cache_entry(
        jobs, tmp_path, monkeypatch, straight_line_all):
    """A fault in fig7 case c, mid-campaign, fails it and keeps its form."""
    _assert_fault_keeps_campaign_form(
        "fig7c", jobs, tmp_path / "cache", monkeypatch, straight_line_all)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failure_in_the_first_task_emits_nothing(
        jobs, tmp_path, monkeypatch, straight_line_all):
    """A fault in the campaign's first task: no experiment is emitted."""
    _assert_fault_keeps_campaign_form(
        "first", jobs, tmp_path / "cache", monkeypatch, straight_line_all)


def test_failure_in_a_later_experiment_keeps_earlier_work(
        tmp_path, monkeypatch, straight_line_all):
    """A fault in the last task (design), at one and two jobs.

    Every experiment before design was emitted and cached, so the
    re-run recomputes only what the fault stopped.
    """
    for jobs in (1, 2):
        _assert_fault_keeps_campaign_form(
            "last", jobs, tmp_path / f"cache-{jobs}", monkeypatch,
            straight_line_all)


def test_telemetry_records_the_workers_actually_used():
    """``jobs`` is the worker count used, not the count requested."""
    in_process = CampaignTelemetry()
    run_campaign(("design",), SMOKE, seed=1, jobs=4, telemetry=in_process)
    assert in_process.jobs == 1
    pooled = CampaignTelemetry()
    run_campaign(("fig7",), SMOKE, seed=1, jobs=8, telemetry=pooled)
    assert pooled.jobs == 4
    assert len({task.worker_pid for task in pooled.tasks}) <= 4


def test_dead_worker_is_a_loud_error_never_a_hang(tmp_path, monkeypatch):
    """A pool worker that dies mid-task fails the campaign at once.

    One sweep cycle point calls ``os._exit`` inside its worker.  The
    campaign raises ``BrokenProcessPool`` well within the alarm, the
    lost task leaves no cache entry, and a re-run on the same cache
    renders exactly what an uncached run renders.
    """
    names = ("validation", "sweep")
    tasks, _ = plan_campaign(names, SMOKE, seed=1)
    killed = next(index for index, task in enumerate(tasks)
                  if task.kind == "sweep-cycle-point"
                  and task.kwargs["scale"] == 2.0)
    real_point = TASK_FUNCTIONS["sweep-cycle-point"]
    parent = os.getpid()

    @functools.wraps(real_point)
    def dying_point(**kwargs):
        if kwargs["scale"] == 2.0 and os.getpid() != parent:
            os._exit(3)
        return real_point(**kwargs)

    def hung(signum, frame):
        raise TimeoutError("campaign hung on a dead pool worker")

    cache_dir = tmp_path / "cache"
    monkeypatch.setitem(TASK_FUNCTIONS, "sweep-cycle-point", dying_point)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(BrokenProcessPool):
            run_campaign(names, SMOKE, seed=1, jobs=2,
                         cache=ResultCache(cache_dir))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    monkeypatch.undo()

    cache = ResultCache(cache_dir)
    assert cache.load(task_fingerprint(tasks[killed])) is None
    rerun = run_campaign(names, SMOKE, seed=1, jobs=2, cache=cache)
    uncached = run_campaign(names, SMOKE, seed=1, jobs=1)
    for name in names:
        assert _rendered(name, rerun[name]) == _rendered(name, uncached[name])


# ----------------------------------------------------------------- CLI

def _read_tree(directory):
    # manifest.json intentionally records run parameters (jobs, wall
    # times), so it is compared field-wise below, not byte-wise here.
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.iterdir())
        if path.name != "manifest.json"
    }


def test_cli_outputs_byte_identical_across_jobs(tmp_path, capsys):
    """The acceptance property: serial and --jobs 4 runs diff clean."""
    import json

    export_serial = tmp_path / "serial"
    export_parallel = tmp_path / "parallel"

    assert main(["all", "--smoke", "--jobs", "1", "--no-cache",
                 "--export", str(export_serial)]) == 0
    serial_stdout = capsys.readouterr().out
    assert main(["all", "--smoke", "--jobs", "4", "--no-cache",
                 "--export", str(export_parallel)]) == 0
    parallel_stdout = capsys.readouterr().out

    assert serial_stdout == parallel_stdout
    assert _read_tree(export_serial) == _read_tree(export_parallel)
    # every experiment rendered something
    for name in EXPERIMENTS:
        assert f"=== {name} " in serial_stdout

    # the manifests agree on everything that describes the *results*
    serial_manifest = json.loads((export_serial / "manifest.json").read_text())
    parallel_manifest = json.loads(
        (export_parallel / "manifest.json").read_text())
    for key in ("format", "version", "experiments", "scale", "seed", "files"):
        assert serial_manifest[key] == parallel_manifest[key]
    assert serial_manifest["jobs"] == 1
    assert parallel_manifest["jobs"] == 4
    assert serial_manifest["files"] == sorted(
        path.name for path in export_serial.glob("*.csv"))


SMOKE_STDOUT_SHA256 = (
    "ee784d92cca3e141d8e07d71195ce280569c79dd85276b28878e24869717ce44")


def test_cli_smoke_stdout_golden(capsys):
    """``all --smoke`` stdout is pinned byte for byte."""
    assert main(["all", "--smoke", "--no-cache", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SMOKE_STDOUT_SHA256


def test_cli_quick_smoke_target(capsys):
    """The documented CI smoke target runs the full quick campaign."""
    assert main(["all", "--quick", "--jobs", "2", "--no-cache"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert f"=== {name} " in out


def test_quick_campaign_warm_cache_speedup(tmp_path, capsys):
    """Acceptance: a warm re-run of the quick campaign is >= 5x faster
    than the cold run and byte-identical to it, with the wall times and
    cache counters recorded in the export manifest."""
    cache_dir = str(tmp_path / "cache")
    manifests = []
    stdouts = []
    for run in ("cold", "warm"):
        export = tmp_path / run
        assert main(["all", "--quick", "--jobs", "2",
                     "--cache-dir", cache_dir, "--cache-stats",
                     "--export", str(export)]) == 0
        stdouts.append(capsys.readouterr().out)
        manifests.append(json.loads((export / "manifest.json").read_text()))

    cold_stdout, warm_stdout = stdouts
    assert warm_stdout == cold_stdout
    cold, warm = manifests
    assert cold["cache"]["hits"] == 0 and cold["cache"]["misses"] > 0
    assert warm["cache"]["misses"] == 0
    assert warm["cache"]["hits"] == cold["cache"]["misses"]
    assert cold["total_wall_seconds"] >= 5 * warm["total_wall_seconds"]


def test_cli_rejects_conflicting_scales(capsys):
    with pytest.raises(SystemExit):
        main(["fig6a", "--quick", "--smoke"])
    capsys.readouterr()


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_cli_rejects_jobs_below_one(jobs, capsys):
    with pytest.raises(SystemExit):
        main(["design", "--smoke", "--no-cache", "--jobs", jobs])
    captured = capsys.readouterr()
    assert "--jobs must be at least 1" in captured.err
    assert captured.out == ""

