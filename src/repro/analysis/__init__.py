"""Formal worst-case analyses from Sections 4 and 5.1 of the paper.

Arrival curves / minimum-distance functions, the busy-window fixed
point (Eqs. 3–5), TDMA interference (Eq. 8), worst-case IRQ latency
for delayed and interposed handling (Eqs. 11, 12, 16) and the
interference bounds of sufficient temporal independence (Eqs. 13–15
and Eq. 14).

The names resolve on first use (see :mod:`repro._lazy`), so importing
the package imports none of its submodules.
"""

from repro._lazy import lazy_exports

__all__ = [
    "NotSchedulableError",
    "ResponseTimeResult",
    "response_time",
    "EventModel",
    "PeriodicEventModel",
    "TraceEventModel",
    "sporadic",
    "interference_budget_fraction",
    "interposed_interference_dmin",
    "InterferingIrq",
    "IrqLatencyBound",
    "classic_irq_latency",
    "interposed_irq_latency",
    "violated_irq_latency",
    "InterposingLoad",
    "SchedulabilityReport",
    "TaskSpec",
    "TaskVerdict",
    "min_admissible_dmin",
    "partition_schedulable",
    "task_response_time",
    "tdma_interference",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "busy_window": ("NotSchedulableError", "ResponseTimeResult",
                    "response_time"),
    "event_models": ("EventModel", "PeriodicEventModel", "TraceEventModel",
                     "sporadic"),
    "interference": ("interference_budget_fraction",
                     "interposed_interference_dmin"),
    "latency": ("InterferingIrq", "IrqLatencyBound", "classic_irq_latency",
                "interposed_irq_latency", "violated_irq_latency"),
    "schedulability": ("InterposingLoad", "SchedulabilityReport", "TaskSpec",
                       "TaskVerdict", "min_admissible_dmin",
                       "partition_schedulable", "task_response_time"),
    "tdma": ("tdma_interference",),
})
