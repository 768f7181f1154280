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
    "busy_time",
    "response_time",
    "DeltaTableEventModel",
    "EventModel",
    "PeriodicEventModel",
    "TraceEventModel",
    "check_duality",
    "sporadic",
    "dmin_for_budget_fraction",
    "interference_budget_fraction",
    "interposed_interference_dmin",
    "interposed_interference_table",
    "slot_interference_fits",
    "InterferingIrq",
    "IrqLatencyBound",
    "classic_irq_latency",
    "interposed_irq_latency",
    "latency_improvement_factor",
    "violated_irq_latency",
    "MemoizedEventModel",
    "memoize_model",
    "InterposingLoad",
    "SchedulabilityReport",
    "TaskSpec",
    "TaskVerdict",
    "min_admissible_dmin",
    "partition_schedulable",
    "task_response_time",
    "tdma_interference",
    "tdma_service",
    "worst_case_slot_wait",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "busy_window": ("NotSchedulableError", "ResponseTimeResult", "busy_time",
                    "response_time"),
    "event_models": ("DeltaTableEventModel", "EventModel",
                     "PeriodicEventModel", "TraceEventModel", "check_duality",
                     "sporadic"),
    "interference": ("dmin_for_budget_fraction",
                     "interference_budget_fraction",
                     "interposed_interference_dmin",
                     "interposed_interference_table",
                     "slot_interference_fits"),
    "latency": ("InterferingIrq", "IrqLatencyBound", "classic_irq_latency",
                "interposed_irq_latency", "latency_improvement_factor",
                "violated_irq_latency"),
    "memo": ("MemoizedEventModel", "memoize_model"),
    "schedulability": ("InterposingLoad", "SchedulabilityReport", "TaskSpec",
                       "TaskVerdict", "min_admissible_dmin",
                       "partition_schedulable", "task_response_time"),
    "tdma": ("tdma_interference", "tdma_service", "worst_case_slot_wait"),
})
