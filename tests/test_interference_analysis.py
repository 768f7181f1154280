"""Tests for the analytical interference bounds (Eqs. 13–15, Eq. 14)."""

import pytest

from event_model_oracle import interposed_interference_table
from repro.analysis.interference import (
    interference_budget_fraction,
    interposed_interference_dmin,
)
from repro.hypervisor.config import CostModel

COSTS = CostModel()


class TestEq14:
    def test_values(self):
        assert interposed_interference_dmin(0, 1000, 150) == 0
        assert interposed_interference_dmin(1, 1000, 150) == 150
        assert interposed_interference_dmin(2500, 1000, 150) == 450

    def test_validation(self):
        with pytest.raises(ValueError):
            interposed_interference_dmin(10, 0, 150)
        with pytest.raises(ValueError):
            interposed_interference_dmin(-1, 1000, 150)
        with pytest.raises(ValueError):
            interposed_interference_dmin(10, 1000, -1)


class TestTableBound:
    def test_l1_table_matches_eq14(self):
        bound = interposed_interference_table([1000], 150)
        for dt in (1, 999, 1000, 1001, 2500, 10_000):
            assert bound(dt) == interposed_interference_dmin(dt, 1000, 150)

    def test_deeper_table_is_tighter(self):
        """A table [d, 10d] admits far fewer events long-run than [d]."""
        loose = interposed_interference_table([1000], 150)
        tight = interposed_interference_table([1000, 10_000], 150)
        assert tight(100_000) < loose(100_000)
        assert tight(500) <= loose(500)

    def test_zero_window(self):
        bound = interposed_interference_table([1000, 5000], 150)
        assert bound(0) == 0


class TestCostModelEqs:
    def test_eq13(self):
        c_bh = 8_000
        expected = (c_bh + COSTS.scheduler_cycles()
                    + 2 * COSTS.context_switch_cycles())
        assert COSTS.effective_bottom_handler_cycles(c_bh) == expected

    def test_eq15(self):
        c_th = 400
        assert (COSTS.effective_top_handler_cycles(c_th)
                == c_th + COSTS.monitor_cycles())

    def test_paper_section62_values(self):
        assert COSTS.monitor_cycles() == 128
        assert COSTS.scheduler_cycles() == 877
        assert COSTS.context_switch_cycles() == 10_000

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            COSTS.effective_bottom_handler_cycles(-1)
        with pytest.raises(ValueError):
            COSTS.effective_top_handler_cycles(-1)


class TestBudgetHelpers:
    def test_budget_fraction(self):
        c_bh = 8_000
        effective = COSTS.effective_bottom_handler_cycles(c_bh)
        dmin = 10 * effective
        assert interference_budget_fraction(dmin, c_bh, COSTS) == pytest.approx(0.1)
