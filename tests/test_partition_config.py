"""Tests for partitions and hypervisor configuration."""

import pytest

from repro.hypervisor.config import CostModel, HypervisorConfig, SlotConfig
from repro.hypervisor.partition import Partition
from repro.sim.clock import Clock


class TestPartition:
    def test_defaults(self):
        partition = Partition("P1")
        assert partition.busy_background
        assert partition.guest is None
        assert not partition.has_pending_irqs
        assert partition.mailbox == []

    def test_name_required(self):
        with pytest.raises(ValueError):
            Partition("")

    def test_repr(self):
        assert "P1" in repr(Partition("P1"))


class TestCostModel:
    def test_paper_defaults(self):
        costs = CostModel()
        assert costs.monitor_instructions == 128
        assert costs.scheduler_instructions == 877
        assert costs.ctx_invalidate_instructions == 5_000
        assert costs.ctx_writeback_cycles == 5_000

    def test_cpi_scaling(self):
        costs = CostModel(cycles_per_instruction=2.0)
        assert costs.monitor_cycles() == 256
        assert costs.context_switch_cycles() == 15_000

    def test_frozen(self):
        with pytest.raises(Exception):
            CostModel().monitor_instructions = 1


class TestHypervisorConfig:
    def test_defaults(self):
        config = HypervisorConfig()
        assert config.frequency_hz == 200_000_000

    def test_make_clock(self):
        clock = HypervisorConfig(frequency_hz=100_000_000).make_clock()
        assert isinstance(clock, Clock)
        assert clock.us_to_cycles(1) == 100


class TestSlotConfig:
    def test_valid(self):
        slot = SlotConfig("P1", 1_000)
        assert slot.partition == "P1"

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            SlotConfig("P1", 0)
        with pytest.raises(ValueError):
            SlotConfig("P1", -5)
