#!/usr/bin/env python3
"""Diff the last two campaign runs in a ``BENCH_experiments.json``.

``python -m repro.experiments ... --bench-json BENCH_experiments.json``
appends one record per campaign run; this tool compares the newest
record against the previous one and flags per-experiment wall-time
regressions beyond a threshold (default 20 %), plus regressions in
every recorded microbenchmark section — engine throughput, the
idle-skip and layered-fork A/B races, the subtree-vs-wave campaign
scheduling race (throughput, speedup, and retained-memory ratio), and
the run-artifact store's write overhead.  The sections share one
table-driven checker
(:data:`CHECKS`): each section names the metrics to diff, whether
higher or lower is better, and how to flag — relative drop beyond the
threshold, or (for the store overhead, a number expected to hover
near zero, where relative growth is meaningless) an absolute cap.
Sections missing from either run are skipped with a note, so the tool
keeps working across histories that predate a field; sections only
older records carry (such as the retired queue-backend race) are
ignored.

``--store-diff STORE_A STORE_B`` additionally prints per-scenario
latency deltas between two run-artifact store directories (a thin
client of :meth:`repro.store.RunStore.diff` — no simulation runs).

Usage::

    python benchmarks/compare_bench.py                       # report only
    python benchmarks/compare_bench.py --strict              # exit 1 on regression
    python benchmarks/compare_bench.py --threshold 0.10      # stricter knob
    python benchmarks/compare_bench.py --file BENCH_ci.json
    python benchmarks/compare_bench.py --store-diff a/ b/    # store deltas

Behaviour notes:

* With fewer than two recorded runs there is nothing to diff — the
  tool says so and exits 0, so it can sit in CI from the first run.
* The two runs are only comparable when they used the same scale and
  jobs count; otherwise the tool notes the mismatch and exits 0
  instead of reporting apples-to-oranges regressions.
* Experiments faster than ``--min-seconds`` in the baseline are
  reported but never flagged: at smoke scales the absolute times are
  dominated by scheduling noise.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

#: Baseline wall times below this are too noisy to flag (seconds).
DEFAULT_MIN_SECONDS = 0.05

#: Relative wall-time growth treated as a regression (0.20 = +20 %).
DEFAULT_THRESHOLD = 0.20

#: Absolute ceiling on the store capture overhead (0.05 = 5 % of the
#: campaign wall time — the acceptance bar, not a relative delta).
STORE_OVERHEAD_CAP = 0.05


def load_runs(path: Path) -> list:
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        return []
    except ValueError as error:
        raise SystemExit(f"error: {path} is not valid JSON: {error}")
    runs = payload.get("runs") if isinstance(payload, dict) else None
    return runs if isinstance(runs, list) else []


def compare(previous: dict, latest: dict, *, threshold: float,
            min_seconds: float) -> "tuple[list[str], list[str]]":
    """Render the wall-time comparison; returns (lines, regressions)."""
    old_times = previous.get("experiment_wall_seconds", {})
    new_times = latest.get("experiment_wall_seconds", {})
    lines: "list[str]" = []
    regressions: "list[str]" = []
    names = [name for name in new_times if name in old_times]
    width = max((len(name) for name in names), default=4)
    for name in names:
        old = float(old_times[name])
        new = float(new_times[name])
        if old > 0.0:
            delta = (new - old) / old
            delta_text = f"{100 * delta:+.1f}%"
        else:
            delta = 0.0
            delta_text = "n/a"
        flag = ""
        if delta > threshold and old >= min_seconds:
            flag = f"  << regression (> {100 * threshold:.0f}%)"
            regressions.append(name)
        lines.append(f"  {name:<{width}}  {old:8.3f}s -> {new:8.3f}s  "
                     f"{delta_text:>8}{flag}")
    only_new = sorted(set(new_times) - set(old_times))
    if only_new:
        lines.append(f"  (not in previous run: {', '.join(only_new)})")
    old_total = float(previous.get("total_wall_seconds", 0.0))
    new_total = float(latest.get("total_wall_seconds", 0.0))
    if old_total > 0.0:
        lines.append(f"  {'total':<{width}}  {old_total:8.3f}s -> "
                     f"{new_total:8.3f}s  "
                     f"{100 * (new_total - old_total) / old_total:+8.1f}%")
    return lines, regressions


def _dig(section: dict, path: "Sequence[str]"):
    value = section
    for key in path:
        if not isinstance(value, dict):
            return None
        value = value.get(key)
    return value


@dataclass(frozen=True)
class MetricSpec:
    """One diffed number inside a bench-record section."""

    label: str                          #: report-line prefix
    path: "tuple[str, ...]"             #: keys into the section dict
    unit: str = ""                      #: e.g. "events/s", "x", ""
    higher_is_better: bool = True
    #: "relative": flag a drop/growth beyond the threshold.
    #: "cap": flag when the latest value exceeds ``cap`` (absolute).
    #: "info": display only, never flag.
    mode: str = "relative"
    cap: float = 0.0
    flag_text: str = "regression"
    percentish: bool = False            #: render values as percentages

    def _format(self, value: float) -> str:
        if self.percentish:
            return f"{100 * value:+.1f}%"
        if self.unit == "x":
            return f"{value:.1f}x"
        return f"{value:,.0f}"

    def check(self, old_section: dict, new_section: dict,
              threshold: float) -> "tuple[list[str], bool]":
        old_value = _dig(old_section, self.path)
        new_value = _dig(new_section, self.path)
        if new_value is None:
            return [], False
        if self.mode in ("cap", "info"):
            line = f"  {self.label}  {self._format(float(new_value))}"
            if old_value is not None:
                line = (f"  {self.label}  "
                        f"{self._format(float(old_value))} -> "
                        f"{self._format(float(new_value))}")
            over = self.mode == "cap" and float(new_value) > self.cap
            if over:
                line += (f"  << {self.flag_text} "
                         f"(cap {self._format(self.cap)})")
            return [line], over
        if old_value is None or not float(old_value):
            return [], False
        delta = (float(new_value) - float(old_value)) / float(old_value)
        unit = f" {self.unit}" if self.unit and self.unit != "x" else ""
        line = (f"  {self.label}  {self._format(float(old_value))} -> "
                f"{self._format(float(new_value))}{unit}  "
                f"{100 * delta:+.1f}%")
        worse = -delta if self.higher_is_better else delta
        regressed = worse > threshold
        if regressed:
            line += (f"  << {self.flag_text} "
                     f"(> {100 * threshold:.0f}% "
                     f"{'drop' if self.higher_is_better else 'growth'})")
        return [line], regressed


@dataclass(frozen=True)
class CheckSpec:
    """One bench-record section: where it lives and what to diff."""

    key: str                            #: record field (e.g. "engine_idle_ab")
    title: str                          #: used in skip notes / warnings
    metrics: "tuple[MetricSpec, ...]"
    missing_note: str = "not recorded in both runs"

    def run(self, previous: dict, latest: dict,
            threshold: float) -> "tuple[list[str], bool]":
        old_section = previous.get(self.key) or {}
        new_section = latest.get(self.key) or {}
        if not old_section or not new_section:
            return [f"  {self.title}: {self.missing_note}, skipping."], False
        lines: "list[str]" = []
        regressed = False
        for metric in self.metrics:
            metric_lines, metric_regressed = metric.check(
                old_section, new_section, threshold)
            lines.extend(metric_lines)
            regressed = regressed or metric_regressed
        return lines, regressed


#: Every microbenchmark section the tool knows how to diff.
CHECKS: "tuple[CheckSpec, ...]" = (
    CheckSpec(
        key="engine", title="engine throughput",
        metrics=(
            MetricSpec("engine", ("events_per_second",), unit="events/s",
                       flag_text="throughput regression"),
        ),
    ),
    CheckSpec(
        key="engine_idle_ab", title="idle-skip A/B",
        missing_note="not recorded in both runs "
                     "(older history predates engine_idle_ab)",
        metrics=(
            MetricSpec("idle-skip", ("events_per_second", "skip"),
                       unit="events/s", flag_text="throughput regression"),
            MetricSpec("idle-skip speedup", ("speedup",), unit="x",
                       flag_text="speedup regression"),
        ),
    ),
    CheckSpec(
        key="engine_fork_ab", title="fork A/B",
        missing_note="not recorded in both runs "
                     "(older history predates engine_fork_ab)",
        metrics=(
            MetricSpec("layered forks", ("forks_per_second", "layered"),
                       unit="forks/s", flag_text="throughput regression"),
            MetricSpec("layered-fork speedup", ("speedup",), unit="x",
                       flag_text="speedup regression"),
        ),
    ),
    CheckSpec(
        key="engine_subtree_ab", title="subtree A/B",
        missing_note="not recorded in both runs "
                     "(older history predates engine_subtree_ab)",
        metrics=(
            MetricSpec("subtree schedule", ("nodes_per_second", "subtree"),
                       unit="nodes/s", flag_text="throughput regression"),
            MetricSpec("subtree speedup", ("speedup",), unit="x",
                       flag_text="speedup regression"),
            MetricSpec("subtree memory ratio", ("memory_ratio",), unit="x",
                       flag_text="retained-memory regression"),
        ),
    ),
    CheckSpec(
        key="store_ab", title="store write A/B",
        missing_note="not recorded in both runs "
                     "(older history predates store_ab)",
        metrics=(
            # The cap is enforced on the instrumented write ratio:
            # it hovers near zero (so a relative-growth check would
            # flag +0.1% -> +0.3% as a 200% regression) and, unlike
            # the whole-leg overhead, it is free of scheduler noise.
            MetricSpec("store write ratio", ("write_ratio",),
                       mode="cap", cap=STORE_OVERHEAD_CAP,
                       percentish=True,
                       flag_text="capture cost over budget"),
            MetricSpec("store A/B overhead", ("overhead",),
                       mode="info", percentish=True),
        ),
    ),
)


def store_diff(store_a: str, store_b: str) -> "tuple[list[str], bool]":
    """Per-scenario latency deltas between two store directories.

    A thin client of :meth:`repro.store.RunStore.diff`; imported
    lazily so the bench-history diff works without the package
    importable (e.g. a bare checkout without ``PYTHONPATH=src``).
    """
    from repro.store import RunStore

    result = RunStore(store_a).diff(RunStore(store_b))
    lines = [f"store diff: {store_b} minus {store_a}"]
    for delta in result.groups:
        experiment, scenario, load = delta.group
        where = f"{experiment}/{scenario}"
        if load is not None:
            where += f"@{load:g}"
        lines.append(
            f"  {where}  mean {delta.mean_a:,.1f} -> {delta.mean_b:,.1f} us"
            f"  (Δmean {delta.mean_delta:+,.1f}, Δp50 {delta.p50_delta:+,.1f},"
            f" Δp99 {delta.p99_delta:+,.1f}, Δmax {delta.max_delta:+,.1f})"
        )
    for group in result.only_in_a:
        lines.append(f"  only in {store_a}: {group}")
    for group in result.only_in_b:
        lines.append(f"  only in {store_b}: {group}")
    if not result.groups:
        lines.append("  no common (experiment, scenario, load) groups.")
    return lines, bool(result.groups)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare the last two runs in a bench-json history.")
    parser.add_argument("--file", default="BENCH_experiments.json",
                        help="bench history file (default: "
                             "BENCH_experiments.json)")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="relative wall-time growth flagged as a "
                             "regression (default: 0.20 = +20%%)")
    parser.add_argument("--min-seconds", type=float,
                        default=DEFAULT_MIN_SECONDS,
                        help="ignore experiments whose baseline is shorter "
                             "than this (default: 0.05s)")
    parser.add_argument("--strict", action="store_true",
                        help="exit with status 1 when any experiment "
                             "regressed beyond the threshold")
    parser.add_argument("--store-diff", nargs=2, default=None,
                        metavar=("STORE_A", "STORE_B"),
                        help="also print per-scenario latency deltas "
                             "between two run-artifact store directories")
    args = parser.parse_args(argv)

    if args.store_diff is not None:
        diff_lines, _ = store_diff(*args.store_diff)
        for line in diff_lines:
            print(line)

    runs = load_runs(Path(args.file))
    if len(runs) < 2:
        print(f"compare_bench: {args.file} has {len(runs)} run(s); "
              "need two to diff — nothing to compare.")
        return 0
    previous, latest = runs[-2], runs[-1]
    prev_config = (previous.get("scale"), previous.get("jobs"))
    new_config = (latest.get("scale"), latest.get("jobs"))
    print(f"compare_bench: {args.file} — run {len(runs) - 1} "
          f"(scale={prev_config[0]}, jobs={prev_config[1]}, "
          f"{previous.get('timestamp', '?')}) vs run {len(runs)} "
          f"(scale={new_config[0]}, jobs={new_config[1]}, "
          f"{latest.get('timestamp', '?')})")
    if prev_config != new_config:
        print("  runs used different scale/jobs — not comparable, "
              "skipping regression check.")
        return 0
    lines, regressions = compare(previous, latest,
                                 threshold=args.threshold,
                                 min_seconds=args.min_seconds)
    failed = bool(regressions)
    warnings: "list[str]" = []
    if regressions:
        warnings.append(f"WARNING: wall-time regression > "
                        f"{100 * args.threshold:.0f}% in: "
                        f"{', '.join(regressions)}")
    for check in CHECKS:
        check_lines, check_regressed = check.run(previous, latest,
                                                 args.threshold)
        lines.extend(check_lines)
        if check_regressed:
            warnings.append(f"WARNING: {check.title} regressed")
            failed = True
    for line in lines:
        print(line)
    for warning in warnings:
        print(warning)
    if failed:
        return 1 if args.strict else 0
    print("  no regressions beyond threshold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
