"""The paper's shape as a gate over the stdout of ``all``.

Parses what ``python -m repro.experiments all`` prints and lists every
way it misses the paper's shape; an empty list means it passed.  Each
failure starts with the name of the check it fails:

``fig6-means``
    fig6a, fig6b and fig6c each print a mean latency;
``fig6a-mean``
    at paper scale and seed 1, fig6a's mean is 2379.7 µs ±1 %;
``fig6-order``
    the means fall a > b > c (monitoring beats classic handling);
``improvement``
    fig6a's mean is at least 16x fig6c's (the paper's ≈16x);
``fig6c-band``
    fig6c delays no IRQ, its maximum is at most the interposed cost
    (97.0 µs as printed) and its mean is, to print precision, the
    count-weighted mix of the direct cost C_TH + C_BH = 42.0 µs and the
    interposed cost C_TH + C_Mon + C_sched + C_ctx + C_BH = 97.025 µs:
    every IRQ takes one or the other, exactly;
``fig7-order``
    fig7's run-mode averages rise a < b < c < d as the admitted load
    shrinks;
``design-dmin``
    the design workflow's minimum admissible d_min is 380.1 µs;
``design-confirms``
    the design workflow prints "simulation confirms analysis ... yes".

The fig6a pin holds only for the paper-scale seed-1 run; every other
check also holds at ``--smoke`` scale, which the tests use through
``check_shape``.  The command line checks a paper-scale seed-1 run::

    python -m repro.experiments.shape paper-scale.txt

which prints the failures and exits 1 if there are any.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Optional, Sequence

#: fig6a's mean latency at paper scale and seed 1, in µs, and the
#: relative tolerance around it.
FIG6A_SEED1_US = 2379.7
FIG6A_TOLERANCE = 0.01
#: Smallest accepted fig6a / fig6c mean-latency ratio.
MIN_IMPROVEMENT = 16.0
#: The design workflow's minimum admissible d_min, as printed.
DESIGN_DMIN_US = "380.1"
#: fig6c's two latencies on the paper system, in µs: direct handling
#: (C_TH + C_BH, 8400 cycles) and an interposed window (C_TH + C_Mon +
#: C_sched + C_ctx + C_BH, 19405 cycles), both at 200 MHz.
FIG6C_DIRECT_US = 42.0
FIG6C_INTERPOSED_US = 97.025

_SECTION = re.compile(r"^=== (\S+) =+$", re.MULTILINE)
_FIG6_MEAN = re.compile(r"avg latency: ([0-9.]+) us")
_FIG6_MAX = re.compile(r"max: ([0-9.]+) us")
_FIG6_MODES = re.compile(
    r"(direct|interposed|delayed) [0-9.]+% \(([0-9]+)\)")
_FIG7_RUN_AVG = re.compile(r"^\s*([a-d])\s+\S+\s+[0-9]+\s+([0-9]+)\s",
                           re.MULTILINE)
_DESIGN_DMIN = re.compile(r"minimum admissible d_min\s+([0-9.]+) us")
_DESIGN_CONFIRMS = re.compile(r"simulation confirms analysis\s+(\S+)\s*$",
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


def check_shape(text: str, scale: str = "paper", seed: int = 1) -> "list[str]":
    """Every shape check the stdout ``text`` of ``all`` fails."""
    blocks = sections(text)
    failures = []
    fig6 = {}
    for scenario in "abc":
        match = _FIG6_MEAN.search(blocks.get(f"fig6{scenario}", ""))
        if match:
            fig6[scenario] = float(match.group(1))
    if sorted(fig6) != ["a", "b", "c"]:
        failures.append(f"fig6-means: found means for {sorted(fig6)}, "
                        f"not a, b and c")
    else:
        if (scale == "paper" and seed == 1
                and abs(fig6["a"] - FIG6A_SEED1_US)
                > FIG6A_TOLERANCE * FIG6A_SEED1_US):
            failures.append(f"fig6a-mean: {fig6['a']} us is not "
                            f"{FIG6A_SEED1_US} us +-1 % at seed 1")
        if not fig6["a"] > fig6["b"] > fig6["c"]:
            failures.append(f"fig6-order: means not a > b > c: {fig6}")
        if fig6["c"] <= 0 or fig6["a"] / fig6["c"] < MIN_IMPROVEMENT:
            failures.append(f"improvement: fig6a / fig6c is below "
                            f"{MIN_IMPROVEMENT:g}x: {fig6}")
    failures += _fig6c_band(blocks.get("fig6c", ""))
    fig7 = {case: int(run_avg) for case, run_avg
            in _FIG7_RUN_AVG.findall(blocks.get("fig7", ""))}
    if sorted(fig7) != ["a", "b", "c", "d"]:
        failures.append(f"fig7-order: found run averages for "
                        f"{sorted(fig7)}, not a to d")
    elif not fig7["a"] < fig7["b"] < fig7["c"] < fig7["d"]:
        failures.append(f"fig7-order: run averages not a < b < c < d: "
                        f"{fig7}")
    design = blocks.get("design", "")
    match = _DESIGN_DMIN.search(design)
    if match is None or match.group(1) != DESIGN_DMIN_US:
        found = match.group(1) if match else "nothing"
        failures.append(f"design-dmin: minimum admissible d_min is {found}, "
                        f"not {DESIGN_DMIN_US} us")
    match = _DESIGN_CONFIRMS.search(design)
    if match is None or match.group(1) != "yes":
        failures.append("design-confirms: no 'simulation confirms "
                        "analysis ... yes'")
    return failures


def _fig6c_band(block: str) -> "list[str]":
    """The ``fig6c-band`` check of one fig6c stdout block (a missing
    mean is ``fig6-means``'s failure, not this one's)."""
    mean = _FIG6_MEAN.search(block)
    if mean is None:
        return []
    maximum = _FIG6_MAX.search(block)
    counts = {mode: int(count) for mode, count in _FIG6_MODES.findall(block)}
    if maximum is None or sorted(counts) != ["delayed", "direct",
                                             "interposed"]:
        return ["fig6c-band: no max and mode counts for fig6c"]
    failures = []
    if counts["delayed"]:
        failures.append(f"fig6c-band: {counts['delayed']} IRQs delayed")
    band_max = f"{FIG6C_INTERPOSED_US:.1f}"
    if float(maximum.group(1)) > float(band_max):
        failures.append(f"fig6c-band: max {maximum.group(1)} us is above "
                        f"{band_max} us")
    served = counts["direct"] + counts["interposed"]
    mix = (counts["direct"] * FIG6C_DIRECT_US
           + counts["interposed"] * FIG6C_INTERPOSED_US) / (served or 1)
    if f"{mix:.1f}" != mean.group(1):
        failures.append(f"fig6c-band: mean {mean.group(1)} us is not the "
                        f"direct/interposed mix {mix:.1f} us")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.shape",
        description="Check the saved stdout of 'python -m repro.experiments "
                    "all --paper-scale --seed 1' against the paper's shape.")
    parser.add_argument("stdout", help="the saved stdout")
    args = parser.parse_args(argv)
    with open(args.stdout, encoding="utf-8") as handle:
        failures = check_shape(handle.read())
    for failure in failures:
        print(failure)
    if not failures:
        print("shape holds (paper scale, seed 1)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
