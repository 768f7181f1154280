"""Correctness gate of the end-to-end benchmark.

Parses the stdout of ``python -m repro.experiments all`` and the JSON
of the ``query`` subcommands, and lists every way they fail the
paper's shape.  An empty list means the command passed.
"""

from __future__ import annotations

import re
from typing import Any

#: fig6a's mean latency at seed 1, in µs, and the tolerance around it.
FIG6A_SEED1_US = 2379.7
FIG6A_TOLERANCE = 0.01
#: Smallest accepted fig6a ÷ fig6c mean-latency ratio (the paper's ≈16x).
MIN_IMPROVEMENT = 16.0

_SECTION = re.compile(r"^=== (\S+) =+$", re.MULTILINE)
_FIG6_MEAN = re.compile(r"avg latency: ([0-9.]+) us")
_FIG7_ROW = re.compile(
    r"^\s*([a-d])\s+\S+\s+([0-9]+)\s+([0-9]+)\s+([0-9]+)\s+[0-9]+\s+[0-9]+\s*$",
    re.MULTILINE)
_CONFIRMS = re.compile(r"simulation confirms analysis\s+(\S+)\s*$",
                       re.MULTILINE)


def sections(text: str) -> "dict[str, str]":
    """Experiment id -> the stdout block under its ``=== id ===`` banner."""
    marks = list(_SECTION.finditer(text))
    return {
        mark.group(1): text[mark.end():(marks[index + 1].start()
                                        if index + 1 < len(marks)
                                        else len(text))]
        for index, mark in enumerate(marks)
    }


def parse_campaign(text: str) -> "dict[str, Any]":
    """The shape-relevant numbers of an ``all`` run's stdout.

    ``fig6``: scenario -> mean latency (µs); ``fig7``: case -> run-mode
    average (µs); ``design_confirms``: the design table's verdict.
    Anything absent is left out, which :func:`check_campaign` reports.
    """
    blocks = sections(text)
    parsed: "dict[str, Any]" = {"fig6": {}, "fig7": {},
                                "design_confirms": None}
    for scenario in "abc":
        match = _FIG6_MEAN.search(blocks.get(f"fig6{scenario}", ""))
        if match:
            parsed["fig6"][scenario] = float(match.group(1))
    for match in _FIG7_ROW.finditer(blocks.get("fig7", "")):
        parsed["fig7"][match.group(1)] = float(match.group(3))
    match = _CONFIRMS.search(blocks.get("design", ""))
    if match:
        parsed["design_confirms"] = match.group(1) == "yes"
    return parsed


def check_campaign(parsed: "dict[str, Any]", seed: int) -> "list[str]":
    """Shape failures of one parsed ``all`` run at ``seed``."""
    failures = []
    fig6, fig7 = parsed["fig6"], parsed["fig7"]
    if sorted(fig6) != ["a", "b", "c"]:
        failures.append(f"fig6 means missing: found {sorted(fig6)}")
    else:
        if seed == 1 and (abs(fig6["a"] - FIG6A_SEED1_US)
                          > FIG6A_TOLERANCE * FIG6A_SEED1_US):
            failures.append(f"fig6a mean {fig6['a']} us is not "
                            f"{FIG6A_SEED1_US} us +-1% at seed 1")
        if not fig6["a"] > fig6["b"] > fig6["c"]:
            failures.append(f"fig6 means not ordered a > b > c: {fig6}")
        if fig6["c"] <= 0 or fig6["a"] / fig6["c"] < MIN_IMPROVEMENT:
            failures.append(f"fig6a / fig6c below {MIN_IMPROVEMENT}: {fig6}")
    if sorted(fig7) != ["a", "b", "c", "d"]:
        failures.append(f"fig7 run averages missing: found {sorted(fig7)}")
    elif not fig7["a"] < fig7["b"] < fig7["c"] < fig7["d"]:
        failures.append(f"fig7 run averages not ordered a < b < c < d: "
                        f"{fig7}")
    if parsed["design_confirms"] is not True:
        failures.append("design does not print 'simulation confirms "
                        "analysis ... yes'")
    return failures


def paper_error(parsed: "dict[str, Any]") -> float:
    """Mean relative error of the fig6 means and fig7 run averages
    against the paper values in ``PAPER_REFERENCE``."""
    from repro.experiments.fig6 import PAPER_REFERENCE as FIG6_PAPER
    from repro.experiments.fig7 import PAPER_REFERENCE as FIG7_PAPER

    pairs = [(parsed["fig6"][scenario], FIG6_PAPER[scenario]["avg_us"])
             for scenario in sorted(parsed["fig6"])]
    pairs += [(parsed["fig7"][case], FIG7_PAPER[case])
              for case in sorted(parsed["fig7"])]
    return sum(abs(value - paper) / paper for value, paper in pairs) / len(
        pairs)


def check_aggregate(document: "dict[str, Any]") -> "list[str]":
    """``query aggregate --json`` needs rows and p99 >= p50 > 0."""
    summary = document.get("summary") or {}
    if not document.get("count", 0) > 0:
        return ["query aggregate matched no latency rows"]
    p50, p99 = summary.get("p50", 0), summary.get("p99", 0)
    if not p99 >= p50 > 0:
        return [f"query aggregate percentiles out of order: "
                f"p50={p50} p99={p99}"]
    return []


def check_diff(document: "dict[str, Any]") -> "list[str]":
    """``query diff S S --json`` must join every group with zero deltas."""
    groups = document.get("groups", [])
    failures = []
    if not groups:
        failures.append("query diff joined no groups")
    if document.get("only_in_a") or document.get("only_in_b"):
        failures.append("query diff left groups unjoined")
    for group in groups:
        deltas = [group[name] for name in ("mean_delta", "p50_delta",
                                           "p99_delta", "max_delta")]
        if any(deltas):
            failures.append(f"query diff of a store with itself is "
                            f"nonzero for {group.get('experiment')}/"
                            f"{group.get('scenario')}: {deltas}")
    return failures
