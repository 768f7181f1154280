"""Tests for the design workflow and depth-ablation experiments."""

import pytest

from repro.analysis.schedulability import (
    InterposingLoad,
    TaskSpec,
    min_admissible_dmin,
    partition_schedulable,
)
from repro.experiments.ablation import (
    render_depth_ablation,
    run_depth_ablation,
)
from repro.experiments.design import (
    VICTIM_TASKS_US,
    render_design,
    run_design,
)
from repro.hypervisor.config import CostModel
from repro.sim.clock import Clock


class TestDesignWorkflow:
    @pytest.fixture(scope="class")
    def result(self):
        return run_design(irq_count=250)

    def test_analysis_finds_admissible_dmin(self, result):
        assert result.analytic_min_dmin_us > 0
        assert result.analytic_schedulable_at_min

    def test_simulation_confirms(self, result):
        assert result.simulated_misses_at_min == 0
        assert result.simulation_confirms_analysis

    def test_interposing_actually_happened(self, result):
        assert result.windows_opened > 0

    def test_bound_dominates_simulation(self, result):
        assert (result.simulated_max_response_us
                <= result.analytic_response_bound_us)

    def test_render(self, result):
        text = render_design(result)
        assert "minimum admissible d_min" in text
        assert "yes" in text


_CLOCK = Clock()
_SLOT = _CLOCK.us_to_cycles(2_000)
_C_BH = _CLOCK.us_to_cycles(40)
_VICTIMS = [TaskSpec(name, priority, _CLOCK.us_to_cycles(wcet),
                     _CLOCK.us_to_cycles(period))
            for name, priority, wcet, period in VICTIM_TASKS_US]


def _victim_report(dmin):
    return partition_schedulable(_VICTIMS, 2 * _SLOT, _SLOT,
                                 [InterposingLoad(dmin, _C_BH)], CostModel())


class TestDesignAnalysisGolden:
    """The design numbers EXPERIMENTS.md reports, pinned exactly.

    The analysis does not depend on the experiment scale: the victim
    set in a 2 ms slot of a 4 ms cycle against C_BH = 40 us.
    """

    @pytest.fixture(scope="class")
    def dmin(self):
        return min_admissible_dmin(_VICTIMS, 2 * _SLOT, _SLOT, _C_BH,
                                   CostModel())

    def test_min_admissible_dmin(self, dmin):
        assert dmin == 76_020
        assert _CLOCK.cycles_to_us(dmin) == pytest.approx(380.1)

    def test_worst_bound_is_the_logging_task(self, dmin):
        report = _victim_report(dmin)
        assert report.schedulable
        worst = max(report.verdicts, key=lambda v: v.response_time)
        assert worst.task.name == "logging"
        assert worst.response_time == 6_385_668
        assert round(_CLOCK.cycles_to_us(worst.response_time)) == 31_928

    @pytest.mark.parametrize("below_cycles", [1, 20])   # 0.005 us, 0.1 us
    def test_smaller_dmin_flags_logging_unschedulable(self, dmin,
                                                      below_cycles):
        report = _victim_report(dmin - below_cycles)
        assert not report.schedulable
        assert [v.task.name for v in report.verdicts
                if not v.schedulable] == ["logging"]


class TestDepthAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_depth_ablation(activation_count=1_200)

    def test_deep_table_wins_on_bursty_trace(self, result):
        assert result.deep_monitor_wins

    def test_same_irq_counts(self, result):
        assert len(result.deep.records) == len(result.shallow.records)

    def test_shallow_denies_bursts(self, result):
        assert (result.shallow.mode_counts.get("delayed", 0)
                > result.deep.mode_counts.get("delayed", 0))

    def test_table_structure(self, result):
        assert len(result.deep_table_us) == 5
        assert result.deep_table_us == sorted(result.deep_table_us)
        # the shallow d_min is the deep table's asymptotic rate
        assert result.shallow_dmin_us == pytest.approx(
            result.deep_table_us[-1] / 5, rel=0.01
        )

    def test_render(self, result):
        text = render_depth_ablation(result)
        assert "abl-depth" in text
