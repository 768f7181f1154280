"""The paper's primary contribution: monitored interposed IRQ handling.

* :mod:`repro.core.monitor` — δ⁻-based activation monitoring (Section 5).
* :mod:`repro.core.learning` — self-learning δ⁻ tables (Appendix A,
  Algorithms 1 and 2).
* :mod:`repro.core.policy` — interposing decision policies plugged into
  the modified top handler (Fig. 4b).
* :mod:`repro.core.independence` — interference accounting and the
  sufficient-temporal-independence property (Eqs. 1, 2 and 14).

The names resolve on first use (see :mod:`repro._lazy`), so importing
the package imports none of its submodules.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DminInterferenceBound",
    "IndependenceClass",
    "IndependenceReport",
    "InterferenceInterval",
    "InterferenceKind",
    "InterferenceLedger",
    "classify_independence",
    "verify_sufficient_independence",
    "UNLEARNED",
    "DeltaLearner",
    "build_monitor",
    "clamp_to_bound",
    "scale_table_to_load_fraction",
    "DeltaMinusMonitor",
    "normalize_delta_table",
    "verify_accepted_stream",
    "AlwaysInterpose",
    "HandlingMode",
    "InterposingPolicy",
    "LearningPhase",
    "MonitoredInterposing",
    "NeverInterpose",
    "SelfLearningInterposing",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "independence": ("DminInterferenceBound", "IndependenceClass",
                     "IndependenceReport", "InterferenceInterval",
                     "InterferenceKind", "InterferenceLedger",
                     "classify_independence",
                     "verify_sufficient_independence"),
    "learning": ("UNLEARNED", "DeltaLearner", "build_monitor",
                 "clamp_to_bound", "scale_table_to_load_fraction"),
    "monitor": ("DeltaMinusMonitor", "normalize_delta_table",
                "verify_accepted_stream"),
    "policy": ("AlwaysInterpose", "HandlingMode", "InterposingPolicy",
               "LearningPhase", "MonitoredInterposing", "NeverInterpose",
               "SelfLearningInterposing"),
})
