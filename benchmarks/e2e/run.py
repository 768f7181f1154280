"""End-to-end benchmark of the paper reproduction.

Usage::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE] [--trace-dir DIR]
    python3 benchmarks/e2e/run.py compare A.json B.json

Each workload runs its set-up, then a fixed number of untraced
iterations (``Workload.iterations``), then (unless ``--trace 0``) one
traced iteration; ``--seconds`` is accepted and ignored, so a run does
the same work on any host.  Every command is ``python -m repro.experiments ...`` in a
fresh child process (``child.py``), reaped with ``os.wait4`` so its
peak RSS includes its pool workers.  Times are in reference seconds:
wall time scaled by the host speed the command sampled
(``speed.py``), so that other tenants of a shared host do not move
them.  The outputs of every
command are checked (``gate.py``); the last line of stdout is one JSON
object with the end-to-end metrics (``--trace 0``), the per-layer
metrics (``--trace 1``) or both (no ``--trace``).  Any failed command
makes the exit code non-zero.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CHILD = HERE / "child.py"
WORK_ROOT = HERE / ".work"

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gate  # noqa: E402
import layers  # noqa: E402

#: Warm-ups per run.
SETUP_REPEATS = 3
#: A command running longer than this is killed and counts as failed.
COMMAND_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    """One iteration's commands plus the run's set-up.

    Commands are ``python -m repro.experiments`` argument lists;
    ``{work}`` is the run's work directory and ``{fresh}`` a directory
    made empty for each command.  A run makes ``iterations`` untraced
    iterations and reports their median.  Set-up is the warm-up
    (``fill``, or the first command, at smoke scale in a fresh
    directory) ``SETUP_REPEATS`` times, then ``fill`` (if any) once,
    into the run's work directory.
    """

    why: str
    commands: "tuple[tuple[str, ...], ...]"
    iterations: int
    fill: "tuple[str, ...] | None" = None

    def warmup(self) -> "tuple[str, ...]":
        base = self.fill if self.fill is not None else self.commands[0]
        return tuple("--smoke" if arg == "--paper-scale"
                     else arg.replace("{work}", "{fresh}") for arg in base)


WORKLOADS: "dict[str, Workload]" = {
    "paper-serial": Workload(
        why="ROADMAP's headline command: the whole paper in one process "
            "with no cache, so simulation and analysis dominate",
        commands=(("all", "--paper-scale", "--no-cache", "--jobs", "1"),),
        iterations=2,
    ),
    "paper-capture": Workload(
        why="a cold run with every observation feature on: pool, "
            "pickling, cache and store writes, CSV export, traced replay",
        commands=(("all", "--paper-scale", "--jobs", "2",
                   "--cache-dir", "{fresh}/cache", "--store", "{fresh}/store",
                   "--export", "{fresh}/export",
                   "--trace-out", "{fresh}/trace.json",
                   "--metrics-json", "{fresh}/metrics.json"),),
        iterations=2,
    ),
    "warm-replay": Workload(
        why="the read path: cache fingerprint and load, unpickling, "
            "rendering and store queries, with no simulation at all",
        fill=("all", "--paper-scale", "--jobs", "2",
              "--cache-dir", "{work}/cache", "--store", "{work}/store"),
        commands=(("all", "--paper-scale", "--jobs", "1",
                   "--cache-dir", "{work}/cache"),
                  ("query", "aggregate", "{work}/store",
                   "--percentiles", "50,99,99.9", "--json"),
                  ("query", "diff", "{work}/store", "{work}/store", "--json")),
        iterations=6,
    ),
}

#: Per-layer metrics computed by the harness rather than the tracer.
HARNESS_LAYER_UNITS = {"paper_err": "ratio"}


def load_benchmark() -> "dict[str, Any]":
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_block() -> "dict[str, Any]":
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform()}


def _child_env(work: Path) -> "dict[str, str]":
    """The environment of every command: no ``REPRO_*`` overrides,
    temporary files inside the work directory, fixed string hashing."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(TMPDIR=str(work), PYTHONHASHSEED="0")
    return env


# ------------------------------------------------------------ commands

@dataclass
class CommandResult:
    argv: "list[str]"
    rc: int
    wall: float
    rss_mb: float
    launched: float
    exited: float
    stdout: bytes
    report: "dict[str, Any]"


class Runner:
    """Launches commands for one workload run and checks their outputs.

    ``shared`` is the same dict for every workload of one invocation; it
    holds the first paper-scale ``all`` stdout digest, which every later
    one must match byte for byte.
    """

    def __init__(self, work: Path, seed: int, shared: "dict[str, Any]"):
        self.work = work
        self.seed = seed
        self.shared = shared
        self.env = _child_env(work)
        self.attempted = 0
        self.failed = 0
        self.failures: "list[str]" = []
        self.paper_err: "float | None" = None
        self._fresh = 0

    def _expand(self, command: "tuple[str, ...]") -> "list[str]":
        self._fresh += 1
        fresh = self.work / f"fresh-{self._fresh}"
        argv = [arg.replace("{work}", str(self.work))
                .replace("{fresh}", str(fresh)) for arg in command]
        if argv[0] != "query":
            argv += ["--seed", str(self.seed)]
        return argv

    def run(self, command: "tuple[str, ...]", traced: bool = False,
            spans: bool = False) -> CommandResult:
        argv = self._expand(command)
        io = self.work / "io"
        io.mkdir(parents=True, exist_ok=True)
        report_path = io / "report.json"
        report_path.unlink(missing_ok=True)
        child = [sys.executable, str(CHILD), "--report", str(report_path)]
        child += ["--traced"] * traced + ["--spans"] * spans
        with open(io / "stdout", "wb") as out, open(io / "stderr",
                                                    "wb") as err:
            launched = time.monotonic()
            proc = subprocess.Popen(child + ["--"] + argv, stdout=out,
                                    stderr=err, cwd=ROOT, env=self.env)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            exited = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = (io / "stdout").read_bytes()
        try:
            report = json.loads(report_path.read_text())
        except (OSError, ValueError):
            report = {}
        result = CommandResult(
            argv=argv, rc=proc.returncode, wall=exited - launched,
            rss_mb=usage.ru_maxrss / 1024.0, launched=launched,
            exited=exited, stdout=stdout, report=report)
        failures = self._check(result)
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures += [f"{' '.join(argv)}: {failure}"
                              for failure in failures]
            tail = (io / "stderr").read_text(errors="replace")[-2000:]
            print(f"[bench] FAILED {' '.join(argv)}: {failures}\n{tail}",
                  file=sys.stderr)
        shutil.rmtree(self.work / f"fresh-{self._fresh}", ignore_errors=True)
        return result

    def _check(self, result: CommandResult) -> "list[str]":
        if result.rc != 0:
            return [f"exit code {result.rc}"]
        if not result.report:
            return ["no child report"]
        argv = result.argv
        text = result.stdout.decode("utf-8", errors="replace")
        if argv[0] == "query":
            try:
                document = json.loads(text)
            except ValueError:
                return ["query output is not JSON"]
            return (gate.check_aggregate(document) if argv[1] == "aggregate"
                    else gate.check_diff(document))
        if "--paper-scale" not in argv:
            return []
        parsed = gate.parse_campaign(text)
        failures = gate.check_campaign(parsed, self.seed)
        if not failures and self.paper_err is None:
            self.paper_err = gate.paper_error(parsed)
        sha = hashlib.sha256(result.stdout).hexdigest()
        reference = self.shared.setdefault("stdout_sha256", sha)
        if sha != reference:
            failures.append(f"stdout sha256 {sha[:12]} differs from "
                            f"{reference[:12]}")
        return failures

    def iteration(self, workload: Workload, traced: bool = False,
                  spans: bool = False) -> "list[CommandResult]":
        return [self.run(command, traced, spans)
                for command in workload.commands]


# --------------------------------------------------------- measurement

def _parts(results: "list[CommandResult]") -> "dict[str, float]":
    """One iteration's launch-to-exit wall in reference seconds (see
    ``speed.py``), split into parts that add up to it.

    Part ``"<command>:<experiment>"`` is that experiment's
    ``run_campaign`` time; ``"<command>:rest"`` is the rest of the
    command's wall (start-up, rendering, export, queries), scaled by the
    speed sampled outside ``run_campaign``.
    """
    parts: "dict[str, float]" = {}
    for index, result in enumerate(results):
        raw = result.report.get("experiments", {})
        for name, seconds in result.report.get("reference", {}).items():
            parts[f"{index}:{name}"] = seconds
        parts[f"{index}:rest"] = ((result.wall - sum(raw.values()))
                                  * result.report.get("rest_speed", 1.0))
    return parts


def _median(iterations: "list[dict[str, float]]", *suffixes: str) -> float:
    """Median over iterations of the sum of the parts ending in
    ``suffixes`` (of all parts if none)."""
    return statistics.median(
        sum(seconds for key, seconds in parts.items()
            if not suffixes or key.endswith(suffixes))
        for parts in iterations)


def _end_to_end(parts: "list[dict[str, float]]",
                iterations: "list[list[CommandResult]]",
                setup: "dict[str, Any]") -> "dict[str, float]":
    return {
        "wall_s": _median(parts),
        "peak_rss_mb": statistics.median(
            max(result.rss_mb for result in results)
            for results in iterations),
        "setup_s": (_median(setup["warmups"])
                    + sum((setup["fill"] or {}).values())),
    }


#: Unit and statistic of every end-to-end metric.
END_TO_END = {
    "wall_s": ("s", "median, reference seconds"),
    "peak_rss_mb": ("MB", "median"),
    "setup_s": ("s", "median warm-up + fill, reference seconds"),
}


def _traced_metrics(results: "list[CommandResult]", untraced_wall: float,
                    ) -> "dict[str, float]":
    totals: "dict[str, float]" = {}
    maxima: "dict[str, float]" = {}
    for result in results:
        for name, value in result.report.get("totals", {}).items():
            totals[name] = totals.get(name, 0) + value
        for name, value in result.report.get("maxima", {}).items():
            maxima[name] = max(maxima.get(name, value), value)
        for target in result.report.get("missing", []):
            print(f"[bench] boundary missing: {target}", file=sys.stderr)
    wall = sum(result.wall for result in results)
    return layers.layer_metrics(totals, maxima, wall, untraced_wall)


def _write_layers_trace(path: Path, results: "list[CommandResult]") -> None:
    from repro.telemetry import load_chrome_trace

    commands = [{"argv": result.argv, "launched": result.launched,
                 "exited": result.exited,
                 "spans": result.report.get("spans", []),
                 "dropped_spans": result.report.get("dropped_spans", 0)}
                for result in results]
    document = layers.chrome_trace(commands, origin=results[0].launched)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, separators=(",", ":")) + "\n")
    load_chrome_trace(path)


def measure(name: str, seed: int, trace: "int | None",
            shared: "dict[str, Any]",
            trace_dir: "Path | None" = None) -> "dict[str, Any]":
    """Set up, time and (unless ``trace == 0``) trace one workload."""
    workload = WORKLOADS[name]
    traced = trace != 0
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, seed, shared)
    try:
        setup = {
            "warmups": [_parts([runner.run(workload.warmup())])
                        for _ in range(SETUP_REPEATS)],
            "fill": (_parts([runner.run(workload.fill)])
                     if workload.fill is not None else None),
        }
        iterations = [runner.iteration(workload)
                      for _ in range(workload.iterations)]
        parts = [_parts(results) for results in iterations]
        end_to_end = _end_to_end(parts, iterations, setup)
        per_layer: "dict[str, float]" = {}
        if traced:
            results = runner.iteration(workload, traced=True,
                                       spans=trace_dir is not None)
            untraced_wall = statistics.median(
                sum(result.wall for result in untraced)
                for untraced in iterations)
            per_layer = _traced_metrics(results, untraced_wall)
            per_layer["paper_err"] = runner.paper_err or 0.0
            if trace_dir is not None:
                _write_layers_trace(trace_dir / f"{name}.layers.json",
                                    results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass                # another run still uses it
    return {"workload": name, "seed": seed, "iterations": len(iterations),
            "attempted": runner.attempted, "failed": runner.failed,
            "failures": runner.failures,
            "stdout_sha256": shared.get("stdout_sha256"),
            "end_to_end": end_to_end, "per_layer": per_layer,
            "parts": parts, "setup": setup}


# -------------------------------------------------------------- output

def _print_table(record: "dict[str, Any]", spec: "dict[str, Any]") -> None:
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{record['iterations']} iterations, "
          f"{record['attempted']} commands, {record['failed']} failed)")
    rows = []
    for metric, value in record["end_to_end"].items():
        unit, statistic = END_TO_END[metric]
        count = (f"{len(record['setup']['warmups'])}"
                 f"+{int(record['setup']['fill'] is not None)}"
                 if metric == "setup_s" else record["iterations"])
        rows.append((metric, value, unit, f"{statistic}, n={count}"))
    rows += [(metric, value, units[metric], "traced run, n=1")
             for metric, value in record["per_layer"].items()]
    for metric, value, unit, statistic in rows:
        print(f"  {metric:<40} {value:>16.6g} {unit:<6} {statistic}")
    print(f"  stdout sha256 {record['stdout_sha256']}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def _metric_block(record: "dict[str, Any]", spec: "dict[str, Any]",
                  trace: "int | None") -> "dict[str, dict[str, Any]]":
    wanted = []
    if trace != 1:
        wanted += spec["end_to_end"]
    if trace != 0:
        wanted += spec["per_layer"]
    values = dict(record["end_to_end"], **record["per_layer"])
    return {metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]} for metric in wanted}


def _append_out(path: Path, records: "list[dict[str, Any]]") -> None:
    document = (json.loads(path.read_text()) if path.exists()
                else {"host": host_block(), "runs": []})
    document["runs"] += records
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(document, indent=1) + "\n")
    os.replace(tmp, path)


# ------------------------------------------------------------- compare

def _quartiles(values: "list[float]") -> "tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: "list[float]", change: "list[float]", bound: float,
            lower_is_better: bool) -> str:
    """better / worse / unchanged / unresolved for one (metric, workload).

    "better" needs the change to win at least 9 in 10 of the pairs
    (ties count for neither) and the medians to differ by more than the
    parent's interquartile range; "worse" means the change's median is
    worse than the parent's by more than ``bound`` of it; "unresolved"
    means either side's relative spread exceeds ``bound``, unless every
    change run beats every parent run.
    """
    sign = 1.0 if lower_is_better else -1.0
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for old, new in pairs if sign * (old - new) > 0)
    if wins >= 0.9 * len(pairs) and sign * (pm - cm) > p3 - p1:
        return "better"
    if sign * (cm - pm) > bound * abs(pm):
        return "worse"
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound and not all(sign * (old - new) > 0
                                  for old in parent for new in change):
        return "unresolved"
    return "unchanged"


def compare(path_a: Path, path_b: Path) -> int:
    """Print one verdict per end-to-end (metric, workload); 1 on worse
    or unresolved."""
    spec = load_benchmark()
    runs_a = json.loads(path_a.read_text())["runs"]
    runs_b = json.loads(path_b.read_text())["runs"]
    verdicts = []
    print(f"{'metric':<14} {'workload':<14} {'A median [q1, q3] n':<34} "
          f"{'B median [q1, q3] n':<34} verdict")
    for metric in spec["end_to_end"]:
        for workload in WORKLOADS:
            a = [run["end_to_end"][metric["name"]] for run in runs_a
                 if run["workload"] == workload]
            b = [run["end_to_end"][metric["name"]] for run in runs_b
                 if run["workload"] == workload]
            if not a or not b:
                continue
            result = verdict(a, b, metric["bound"],
                             metric["better"] == "lower")
            verdicts.append(result)
            cells = []
            for values in (a, b):
                q1, q2, q3 = _quartiles(values)
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            print(f"{metric['name']:<14} {workload:<14} {cells[0]:<34} "
                  f"{cells[1]:<34} {result}")
    _compare_experiments(runs_a, runs_b)
    return 1 if {"worse", "unresolved"} & set(verdicts) else 0


def _compare_experiments(runs_a: "list[dict[str, Any]]",
                         runs_b: "list[dict[str, Any]]") -> None:
    """Median per-experiment times (reference seconds) of both sides.

    These are not gated: they show where a change below ``wall_s``'s
    bound went.
    """
    print(f"\n{'experiment time (not gated)':<29} {'A median':>9} "
          f"{'B median':>9} {'B/A-1':>7}")
    for workload in WORKLOADS:
        sides = [[run["parts"] for run in runs
                  if run["workload"] == workload and run.get("parts")]
                 for runs in (runs_a, runs_b)]
        if not all(sides):
            continue
        for experiment in layers.EXPERIMENTS:
            a, b = (statistics.median(_median(parts, f":{experiment}")
                                      for parts in side) for side in sides)
            if a > 0:
                print(f"{workload + ' ' + experiment:<29} {a:>9.4f} "
                      f"{b:>9.4f} {b / a - 1:>+7.1%}")


# ---------------------------------------------------------------- main

def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(Path(argv[1]), Path(argv[2]))
    spec = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="accepted and ignored: a run makes each "
                             "workload's fixed number of iterations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only, no traced run; "
                             "1: per-layer metrics only (default: both)")
    parser.add_argument("--out", type=Path,
                        help="append the run records to this JSON file")
    parser.add_argument("--trace-dir", type=Path,
                        help="write one Chrome trace of the layer spans "
                             "per workload here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "experiments").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    shared: "dict[str, Any]" = {}
    records = [measure(name, args.seed, args.trace, shared, args.trace_dir)
               for name in names]
    for record in records:
        _print_table(record, spec)
    if args.out is not None:
        _append_out(args.out, records)
    failed = sum(record["failed"] for record in records)
    if len(records) == 1:
        metrics = _metric_block(records[0], spec, args.trace)
    else:
        metrics = {f"{record['workload']}/{name}": value
                   for record in records
                   for name, value in _metric_block(record, spec,
                                                    args.trace).items()}
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
