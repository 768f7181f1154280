"""Tests for the Section 6.2 footprint model."""

import pytest

from repro.hypervisor.footprint import (
    PAPER_FOOTPRINT,
    monitor_data_bytes,
    render_footprint_table,
    total_paper_code_bytes,
    total_paper_data_bytes,
)


class TestPaperConstants:
    def test_total_code_bytes(self):
        """The paper: the entire implementation requires 1120 bytes."""
        assert total_paper_code_bytes() == 1120

    def test_total_data_bytes(self):
        assert total_paper_data_bytes() == 28

    def test_component_breakdown(self):
        by_name = {entry.name: entry for entry in PAPER_FOOTPRINT}
        assert by_name["TDMA scheduler modification"].paper_code_bytes == 392
        assert by_name["Modified top handler"].paper_code_bytes == 456
        assert by_name["Monitoring function"].paper_code_bytes == 272
        assert by_name["Monitoring function"].paper_data_bytes == 28


class TestMonitorDataModel:
    def test_depth_one_matches_paper(self):
        assert monitor_data_bytes(1) == 28

    def test_scales_with_depth(self):
        assert monitor_data_bytes(5) == 20 + 2 * 5 * 4

    def test_validation(self):
        with pytest.raises(ValueError):
            monitor_data_bytes(0)


class TestRendering:
    def test_table_contains_totals(self):
        text = render_footprint_table()
        assert "1120" in text
        assert "Monitoring function" in text
        assert "repro.core.monitor" in text
