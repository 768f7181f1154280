"""Tests for the TDMA interference term (Eq. 8)."""

import pytest

from repro.analysis.tdma import tdma_interference


class TestEq8:
    def test_paper_system_values(self):
        """T_TDMA = 14000, T_i = 6000: one started cycle costs 8000."""
        assert tdma_interference(1, 14_000, 6_000) == 8_000
        assert tdma_interference(14_000, 14_000, 6_000) == 8_000
        assert tdma_interference(14_001, 14_000, 6_000) == 16_000

    def test_zero_window(self):
        assert tdma_interference(0, 14_000, 6_000) == 0

    def test_full_slot_no_interference(self):
        assert tdma_interference(500, 1_000, 1_000) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            tdma_interference(10, 0, 0)
        with pytest.raises(ValueError):
            tdma_interference(10, 100, 0)
        with pytest.raises(ValueError):
            tdma_interference(10, 100, 200)
        with pytest.raises(ValueError):
            tdma_interference(-1, 100, 50)
