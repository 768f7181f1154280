"""Discrete-event simulation substrate.

This package provides the "hardware platform" of the reproduction: a
deterministic event engine, an integer-cycle clock, a latching
interrupt controller, programmable timers, a single-core CPU execution
model and a trace recorder.  The hypervisor in
:mod:`repro.hypervisor` is built entirely on these primitives.

The names resolve on first use (see :mod:`repro._lazy`), so importing
the package imports none of its submodules.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Clock",
    "DEFAULT_FREQUENCY_HZ",
    "Cpu",
    "CpuBusyError",
    "CpuSegment",
    "Execution",
    "SimulationEngine",
    "SimulationError",
    "EventHandle",
    "InterruptController",
    "IntervalSequenceTimer",
    "OneShotTimer",
    "TimestampTimer",
    "TraceEvent",
    "TraceKind",
    "TraceRecorder",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "clock": ("Clock", "DEFAULT_FREQUENCY_HZ"),
    "cpu": ("Cpu", "CpuBusyError", "CpuSegment", "Execution"),
    "engine": ("SimulationEngine", "SimulationError"),
    "events": ("EventHandle",),
    "intc": ("InterruptController",),
    "timers": ("IntervalSequenceTimer", "OneShotTimer", "TimestampTimer"),
    "trace": ("TraceEvent", "TraceKind", "TraceRecorder"),
})
