"""Simulated clock and time-unit conversions.

All simulation time in this library is kept as *integer CPU cycles* to
avoid floating-point drift in long runs.  The :class:`Clock` converts
between wall-clock units (microseconds, seconds) and cycles for a
configurable CPU frequency.  The paper's evaluation
platform is an ARM926ej-s at 200 MHz, i.e. 200 cycles per microsecond,
which is the default here.
"""

from __future__ import annotations

DEFAULT_FREQUENCY_HZ = 200_000_000


class Clock:
    """Converts between wall-clock time and integer CPU cycles.

    Parameters
    ----------
    frequency_hz:
        CPU clock frequency in Hertz.  Must be a positive integer and a
        multiple of 1 MHz so that one microsecond is a whole number of
        cycles (this keeps all conversions exact).
    """

    def __init__(self, frequency_hz: int = DEFAULT_FREQUENCY_HZ):
        if frequency_hz <= 0:
            raise ValueError(f"frequency must be positive, got {frequency_hz}")
        if frequency_hz % 1_000_000 != 0:
            raise ValueError(
                "frequency must be a whole number of MHz so that 1 us is an "
                f"integer number of cycles, got {frequency_hz} Hz"
            )
        self._frequency_hz = int(frequency_hz)
        self._cycles_per_us = self._frequency_hz // 1_000_000

    @property
    def frequency_hz(self) -> int:
        """CPU clock frequency in Hertz."""
        return self._frequency_hz

    def us_to_cycles(self, microseconds: float) -> int:
        """Convert microseconds to cycles (rounded to nearest cycle)."""
        return round(microseconds * self._cycles_per_us)

    def s_to_cycles(self, seconds: float) -> int:
        """Convert seconds to cycles (rounded to nearest cycle)."""
        return round(seconds * 1_000_000.0 * self._cycles_per_us)

    def cycles_to_us(self, cycles: int) -> float:
        """Convert cycles to microseconds."""
        return cycles / self._cycles_per_us

    def __repr__(self) -> str:
        return f"Clock({self._frequency_hz // 1_000_000} MHz)"
