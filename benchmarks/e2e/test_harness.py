"""BENCHMARK.json limits, compare verdicts and a smoke run of the harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import json
import re
import time

import pytest

import layers
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return run.load_benchmark()


def test_benchmark_json_limits(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in (
            "lower", "higher")
    setup = [metric for metric in spec["end_to_end"]
             if metric["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(metric["bound"]
                                    for metric in spec["end_to_end"])


def test_benchmark_json_matches_the_harness(spec):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        workload.why for workload in run.WORKLOADS.values()]
    units = dict(layers.layer_metric_units(), **run.HARNESS_LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert {m["name"] for m in spec["end_to_end"]} <= set(run.END_TO_END)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]][0]


@pytest.mark.parametrize("parent, change, verdict", [
    ([10.0] * 10, [8.0] * 10, "better"),
    ([10.0] * 10, [11.5] * 10, "worse"),
    ([10.0] * 10, [10.2] * 10, "unchanged"),
    ([10.0, 10.1, 9.9, 10.0, 10.2], [10.1, 10.0, 10.0, 9.9, 10.1],
     "unchanged"),
    ([6.0, 14.0, 7.0, 13.0, 10.0], [6.5, 13.5, 7.5, 12.5, 10.0],
     "unresolved"),
    # A 9-in-10 win rate alone is not enough when the medians differ by
    # less than the parent's own interquartile range.
    ([10.0, 10.5, 9.5, 10.2, 9.8], [9.9, 10.4, 9.4, 10.1, 9.7], "unchanged"),
])
def test_compare_verdicts(parent, change, verdict):
    assert run.verdict(parent, change, bound=0.1,
                       lower_is_better=True) == verdict


def test_compare_mode(tmp_path, capsys):
    def runs(wall):
        return {"host": run.host_block(), "runs": [
            {"workload": "paper-serial", "seed": seed,
             "end_to_end": {"wall_s": wall + 0.01 * seed,
                            "setup_s": 2.0, "peak_rss_mb": 70.0},
             "parts": [{"0:fig7": wall / 4, "0:rest": wall * 3 / 4}] * 3}
            for seed in range(5)]}

    (tmp_path / "a.json").write_text(json.dumps(runs(10.0)))
    (tmp_path / "b.json").write_text(json.dumps(runs(10.0)))
    (tmp_path / "c.json").write_text(json.dumps(runs(14.0)))
    assert run.main(["compare", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) == 0
    assert run.main(["compare", str(tmp_path / "a.json"),
                     str(tmp_path / "c.json")]) == 1
    out = capsys.readouterr().out
    assert "worse" in out
    # per-experiment times are printed, ungated, from the stored parts
    assert "paper-serial fig7" in out and "+40.0%" in out


SMOKE = run.Workload(
    why="harness test at smoke scale",
    fill=("fig6", "--smoke", "--jobs", "1", "--cache-dir", "{work}/cache",
          "--store", "{work}/store"),
    commands=(("fig6", "--smoke", "--jobs", "1", "--cache-dir",
               "{work}/cache"),
              ("query", "aggregate", "{work}/store", "--json")),
    iterations=2,
)


@pytest.fixture
def smoke_workload(monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", {"smoke": SMOKE})
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_smoke_run_of_the_whole_harness(smoke_workload, spec, tmp_path,
                                        capsys):
    started = time.monotonic()
    code = run.main(["--workload", "smoke", "--seconds", "1",
                     "--trace-dir", str(tmp_path), "--out",
                     str(tmp_path / "out.json")])
    elapsed = time.monotonic() - started
    result = _last_json(capsys)
    assert code == 0 and elapsed < 30
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    saved = json.loads((tmp_path / "out.json").read_text())
    # a fixed iteration count, whatever --seconds says
    assert saved["runs"][0]["iterations"] == SMOKE.iterations
    # warm-ups, the fill, untraced iterations and the traced one
    assert result["attempted"] == 2 + 1 + 2 * 2 + 2
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert list(result["metrics"]) == names
    metrics = {name: entry["value"] for name, entry in
               result["metrics"].items()}
    assert metrics["wall_s"] > 0 and metrics["setup_s"] > 0
    setup = saved["runs"][0]["setup"]
    assert len(setup["warmups"]) == 2
    assert metrics["setup_s"] == pytest.approx(
        run._median(setup["warmups"]) + sum(setup["fill"].values()))
    # every untraced command reports its parts in reference seconds
    iteration = saved["runs"][0]["parts"][0]
    assert set(iteration) == {"0:fig6a", "0:fig6b", "0:fig6c", "0:rest",
                              "1:rest"}
    assert all(seconds > 0 for seconds in iteration.values())
    assert metrics["experiments.cache.hits"] > 0
    assert metrics["experiments.cache.misses"] == 0
    assert metrics["hypervisor.calls"] == 0
    self_total = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert self_total + metrics["unattributed_s"] > 0

    from repro.telemetry import load_chrome_trace

    trace = load_chrome_trace(tmp_path / "smoke.layers.json")
    assert any(event.get("cat") == "experiments.cache"
               for event in trace["traceEvents"])
    assert set(saved["host"]) == {"python", "nproc", "platform"}
    assert saved["runs"][0]["workload"] == "smoke"
    assert not run.WORK_ROOT.exists()


def test_trace_0_reports_only_end_to_end_metrics(smoke_workload, spec,
                                                 capsys):
    assert run.main(["--workload", "smoke", "--seconds", "1",
                     "--trace", "0"]) == 0
    result = _last_json(capsys)
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]


def test_a_failed_command_makes_the_run_fail(smoke_workload, monkeypatch,
                                             capsys):
    failing = run.Workload(
        why="query that matches nothing",
        fill=SMOKE.fill,
        commands=(("query", "aggregate", "{work}/store", "--experiment",
                   "nosuch", "--json"),),
        iterations=1)
    monkeypatch.setattr(run, "WORKLOADS", {"smoke": failing})
    assert run.main(["--workload", "smoke", "--seconds", "1",
                     "--trace", "0"]) == 1
    result = _last_json(capsys)
    assert result["correct"] is False and result["failed"] >= 1
