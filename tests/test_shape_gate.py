"""The paper-shape gate (``repro.experiments.shape``).

CI runs it on the paper-scale seed-1 stdout of ``all``; here it runs on
``all --smoke`` stdout with the checks that hold at that scale, and on
one broken input per check, each of which must fail exactly that
check, by name.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from repro.experiments.__main__ import main as cli_main
from repro.experiments.shape import check_shape, main

#: The shape-bearing lines of the paper-scale seed-1 stdout of ``all``.
PAPER_LINES = """\
=== fig6a =============================================
IRQs: 15000   avg latency: 2379.7 us (paper: ~2500 us)   max: 8048.0 us
=== fig6b =============================================
IRQs: 15000   avg latency: 1006.2 us (paper: ~1200 us)   max: 8040.0 us
=== fig6c =============================================
IRQs: 15000   avg latency: 73.6 us (paper: ~150 us)   max: 97.0 us
modes: direct 42.6% (6391), interposed 57.4% (8609), delayed 0.0% (0)
=== fig7 ==============================================
case  admitted load  learn avg us  run avg us  paper run avg us  interposed  delayed
   a      unbounded          2376          74               120        5612      637
   b            25%          2376         257               300        5142     1107
   c          12.5%          2376         782               900        3531     2718
   d          6.25%          2376        1377              1600        1932     4317
=== design ============================================
       minimum admissible d_min                           380.1 us
   simulation confirms analysis                                yes
"""

#: One edit of ``PAPER_LINES`` per check, breaking that check alone.
BROKEN = {
    "fig6-means": ("IRQs: 15000   avg latency: 73.6 us", "IRQs: 15000"),
    "fig6a-mean": ("avg latency: 2379.7 us", "avg latency: 2500.0 us"),
    "fig6-order": ("avg latency: 1006.2 us", "avg latency: 3000.0 us"),
    "improvement": ("avg latency: 2379.7 us", "avg latency: 1100.0 us"),
    "fig6c-band": ("max: 97.0 us", "max: 140.0 us"),
    "fig7-order": ("2376         257", "2376         900"),
    "design-dmin": ("380.1 us", "390.0 us"),
    "design-confirms": ("analysis                                yes",
                        "analysis                                no"),
}


#: Seeds other than 1 for the checks whose edit the fig6a pin would
#: also fail: with fig6c in its band (at most 97.0 us) and fig6a pinned
#: at 2379.7 us, fig6a / fig6c is above 24, so only a seed without the
#: pin lets the improvement check fail alone.
SEEDS = {"improvement": 2}


@pytest.fixture(scope="module")
def smoke_stdout() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["all", "--smoke", "--no-cache", "--jobs", "1"]) == 0
    return out.getvalue()


def test_smoke_stdout_has_the_smoke_scale_shape(smoke_stdout):
    assert check_shape(smoke_stdout, "smoke", 1) == []


def test_fig6a_pin_applies_only_to_the_paper_scale_seed1_run(smoke_stdout):
    failures = check_shape(smoke_stdout, "paper", 1)
    assert [failure.split(":")[0] for failure in failures] == ["fig6a-mean"]
    assert check_shape(smoke_stdout, "paper", 2) == []


def test_paper_scale_lines_pass():
    assert check_shape(PAPER_LINES, "paper", 1) == []


@pytest.mark.parametrize("check", sorted(BROKEN))
def test_each_broken_input_fails_its_own_check(check):
    old, new = BROKEN[check]
    assert PAPER_LINES.count(old) == 1
    failures = check_shape(PAPER_LINES.replace(old, new), "paper",
                           SEEDS.get(check, 1))
    assert len(failures) == 1, failures
    assert failures[0].startswith(f"{check}: ")


@pytest.mark.parametrize("old, new", [
    ("delayed 0.0% (0)", "delayed 0.1% (15)"),
    ("max: 97.0 us", "max: 97.1 us"),
    ("avg latency: 73.6 us", "avg latency: 73.7 us"),
    ("direct 42.6% (6391)", "direct 42.6% (5391)"),
    ("modes: direct 42.6% (6391), interposed 57.4% (8609), delayed 0.0% (0)\n",
     ""),
], ids=["delayed", "max", "mean", "counts", "no-modes"])
def test_fig6c_band_fails_on_each_of_its_conditions(old, new):
    """No delayed IRQ, nothing above the interposed cost, and a mean
    that is the direct/interposed mix to the printed digit."""
    assert PAPER_LINES.count(old) == 1
    failures = check_shape(PAPER_LINES.replace(old, new), "paper", 1)
    assert [failure.split(":")[0] for failure in failures] \
        == ["fig6c-band"], failures


def test_cli_exit_code_and_report(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text(PAPER_LINES)
    assert main([str(good)]) == 0
    assert "shape holds" in capsys.readouterr().out
    bad = tmp_path / "bad.txt"
    bad.write_text(PAPER_LINES.replace(*BROKEN["fig7-order"]))
    assert main([str(bad)]) == 1
    assert capsys.readouterr().out.startswith("fig7-order: ")
