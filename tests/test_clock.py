"""Tests for the simulated clock and unit conversions."""

import pytest

from repro.sim.clock import Clock, DEFAULT_FREQUENCY_HZ


class TestClockConstruction:
    def test_default_frequency_is_200mhz(self):
        assert Clock().frequency_hz == 200_000_000
        assert DEFAULT_FREQUENCY_HZ == 200_000_000

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            Clock(0)

    def test_rejects_negative_frequency(self):
        with pytest.raises(ValueError):
            Clock(-5)

    def test_rejects_non_mhz_multiple(self):
        with pytest.raises(ValueError):
            Clock(1_500_000_123)


class TestConversions:
    def test_us_to_cycles(self):
        assert Clock().us_to_cycles(1) == 200
        assert Clock().us_to_cycles(6000) == 1_200_000

    def test_us_to_cycles_fractional(self):
        assert Clock().us_to_cycles(0.5) == 100

    def test_s_to_cycles(self):
        assert Clock().s_to_cycles(1) == 200_000_000

    def test_cycles_to_us_roundtrip(self):
        clock = Clock()
        for value in (0, 1, 17, 6000, 123456):
            assert clock.cycles_to_us(clock.us_to_cycles(value)) == value

    def test_repr_mentions_mhz(self):
        assert "200 MHz" in repr(Clock())
