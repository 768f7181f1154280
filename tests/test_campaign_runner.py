"""Tests of the parallel campaign runner and the experiments CLI.

The load-bearing guarantee: a campaign's results are **byte-identical**
for every ``--jobs`` count, because per-task seeds are derived
deterministically and merges consume task results in serial order.
The identity test runs the full ``all`` campaign at smoke scale twice —
serial and with a 4-worker pool — and diffs stdout and the exported
CSVs byte for byte.
"""

import json

import pytest

from repro.experiments.__main__ import EXPERIMENTS, main
from repro.experiments.runner import (
    CampaignTask,
    execute_task,
    plan_campaign,
    plan_experiment,
    plan_subtrees,
    run_campaign,
    write_bench_json,
)
from repro.experiments.scale import PAPER, QUICK, SMOKE, resolve_scale


# ---------------------------------------------------------------- plan

EXPECTED_TASK_COUNTS = {
    "fig6a": 3, "fig6b": 3, "fig6c": 3,     # one per interrupt load
    "fig7": 5,                              # learning prefix + cases a-d
    "tab62": 3,                             # one per interrupt load
    "validation": 2,                        # classic + monitored legs
    "ablation": 3,                          # boost / throttle / depth
    "sweep": 10,                            # 4 cycle + warmup + 5 d_min
    "design": 1,
}

EXPECTED_STRAIGHT_COUNTS = dict(EXPECTED_TASK_COUNTS, fig7=4, sweep=9)


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


def test_plan_without_shared_prefix_has_no_dependency_tasks():
    tasks, merges = plan_campaign(EXPERIMENTS, SMOKE, seed=1,
                                  shared_prefix=False)
    assert set(merges) == set(EXPERIMENTS)
    assert _count_by_experiment(tasks) == EXPECTED_STRAIGHT_COUNTS
    assert all(not task.needs for task in tasks)


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


# ------------------------------------------------------------ subtrees

def _chain_task(experiment, kind, needs=(), feed=None):
    return CampaignTask(experiment, kind, {}, needs=tuple(needs), feed=feed)


def test_plan_subtrees_groups_dependency_chains():
    tasks = [
        _chain_task("a", "root"),                       # 0: chain head
        _chain_task("a", "child", needs=(0,), feed="snapshot"),   # 1
        _chain_task("b", "solo"),                       # 2: independent
        _chain_task("a", "grand", needs=(1,), feed="snapshot"),   # 3
        _chain_task("c", "root"),                       # 4: chain head
        _chain_task("c", "child", needs=(4,), feed="snapshot"),   # 5
    ]
    assert plan_subtrees(tasks) == [[0, 1, 3], [2], [4, 5]]
    # include narrows the members but keeps chains together.
    assert plan_subtrees(tasks, include=[1, 3, 2]) == [[1, 3], [2]]


def test_plan_subtrees_rejects_forward_dependencies():
    tasks = [
        _chain_task("a", "child", needs=(1,), feed="snapshot"),
        _chain_task("a", "root"),
    ]
    with pytest.raises(ValueError, match="earlier tasks"):
        plan_subtrees(tasks)


def test_run_campaign_rejects_unknown_schedule():
    with pytest.raises(ValueError, match="unknown schedule"):
        run_campaign(("design",), SMOKE, seed=1, jobs=1, schedule="bfs")


@pytest.mark.parametrize("jobs", [1, 2])
def test_subtree_schedule_equals_wave_schedule(jobs):
    """The tentpole property: schedules differ only in speed.

    fig7 and sweep both carry ``needs/feed`` chains (the learning
    prefix and the d_min warmup), so this exercises real forked
    subtrees, serial and across a pool.
    """
    wave = run_campaign(("validation",), SMOKE, seed=1, jobs=jobs,
                        schedule="wave")
    subtree = run_campaign(("validation",), SMOKE, seed=1, jobs=jobs,
                           schedule="subtree")
    assert (wave["validation"].interposed_result.latencies_us
            == subtree["validation"].interposed_result.latencies_us)

    wave = run_campaign(("fig7", "sweep"), SMOKE, seed=1, jobs=jobs,
                        schedule="wave")
    subtree = run_campaign(("fig7", "sweep"), SMOKE, seed=1, jobs=jobs,
                           schedule="subtree")
    assert set(wave["fig7"]) == set(subtree["fig7"])
    for case in wave["fig7"]:
        assert (wave["fig7"][case].series_us
                == subtree["fig7"][case].series_us)
        assert (wave["fig7"][case].learned_table
                == subtree["fig7"][case].learned_table)
    assert wave["sweep"] == subtree["sweep"]


def test_subtree_schedule_reuses_wave_cache(tmp_path):
    """Cache fingerprints are schedule-independent: a cache written by
    the wave path is fully warm for the subtree path (parent digests
    fold in identically on both sides)."""
    from repro.experiments.cache import ResultCache

    cache_dir = tmp_path / "cache"
    cold = ResultCache(cache_dir)
    run_campaign(("fig7",), SMOKE, seed=1, jobs=1, cache=cold,
                 schedule="wave")
    assert cold.stats.misses > 0 and cold.stats.hits == 0

    warm = ResultCache(cache_dir)
    run_campaign(("fig7",), SMOKE, seed=1, jobs=2, cache=warm,
                 schedule="subtree")
    assert warm.stats.misses == 0
    assert warm.stats.hits == cold.stats.misses


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


def test_cli_quick_smoke_target(capsys):
    """The documented CI smoke target runs the full quick campaign."""
    assert main(["all", "--quick", "--jobs", "2", "--no-cache"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert f"=== {name} " in out


def test_quick_campaign_warm_cache_speedup(tmp_path, capsys):
    """Acceptance: a warm re-run of the quick campaign is >= 5x faster
    than the cold run and byte-identical to it, with the wall times and
    cache counters recorded in the bench JSON history."""
    cache_dir = str(tmp_path / "cache")
    bench = tmp_path / "BENCH_experiments.json"
    argv = ["all", "--quick", "--jobs", "2",
            "--cache-dir", cache_dir, "--cache-stats",
            "--bench-json", str(bench)]

    assert main(argv) == 0
    cold_stdout = capsys.readouterr().out
    assert main(argv) == 0
    warm_stdout = capsys.readouterr().out

    assert warm_stdout == cold_stdout
    cold, warm = json.loads(bench.read_text())["runs"]
    assert cold["cache"]["hits"] == 0 and cold["cache"]["misses"] > 0
    assert warm["cache"]["misses"] == 0
    assert warm["cache"]["hits"] == cold["cache"]["misses"]
    assert cold["total_wall_seconds"] >= 5 * warm["total_wall_seconds"]


def test_cli_rejects_conflicting_scales(capsys):
    with pytest.raises(SystemExit):
        main(["fig6a", "--quick", "--smoke"])
    capsys.readouterr()


# ---------------------------------------------------------- bench json

def test_write_bench_json_appends_history(tmp_path):
    target = tmp_path / "BENCH_experiments.json"
    write_bench_json(target, scale_name="smoke", jobs=1,
                     experiment_seconds={"fig6a": 1.25})
    from repro.sim.benchmark import measure_engine_throughput

    engine = measure_engine_throughput(events=2_000, repeats=1)
    write_bench_json(target, scale_name="quick", jobs=4,
                     experiment_seconds={"fig6a": 0.5, "fig7": 1.0},
                     engine=engine)
    history = json.loads(target.read_text())
    assert [run["scale"] for run in history["runs"]] == ["smoke", "quick"]
    assert history["runs"][0]["experiment_wall_seconds"] == {"fig6a": 1.25}
    assert history["runs"][1]["total_wall_seconds"] == 1.5
    assert history["runs"][1]["engine"]["events_per_second"] > 0
    assert "engine" not in history["runs"][0]


def test_write_bench_json_records_host(tmp_path):
    import os
    import platform

    target = tmp_path / "BENCH_experiments.json"
    write_bench_json(target, scale_name="smoke", jobs=1,
                     experiment_seconds={"fig6a": 0.1})
    run = json.loads(target.read_text())["runs"][0]
    host = run["host"]
    assert host["python"] == platform.python_version()
    assert host["cpu_count"] == os.cpu_count()
    assert host["platform"]


def test_write_bench_json_survives_corrupt_history(tmp_path):
    target = tmp_path / "BENCH_experiments.json"
    target.write_text("{not json")
    write_bench_json(target, scale_name="smoke", jobs=1,
                     experiment_seconds={"design": 0.1})
    history = json.loads(target.read_text())
    assert len(history["runs"]) == 1
