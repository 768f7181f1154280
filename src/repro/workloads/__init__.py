"""IRQ workload generation: exponential (Section 6.1) and automotive
trace (Appendix A substitute) workloads, plus trace containers.

The names resolve on first use (see :mod:`repro._lazy`), so importing
the package imports none of its submodules.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AutomotiveTraceConfig",
    "DEFAULT_PERIODIC_SOURCES",
    "DEFAULT_SPORADIC_SOURCES",
    "PeriodicActivationSource",
    "SporadicActivationSource",
    "generate_automotive_trace",
    "bursty_interarrivals",
    "clip_to_dmin",
    "exponential_interarrivals",
    "exponential_trace",
    "lambda_for_load",
    "ActivationTrace",
    "add_jitter",
    "merge",
    "offset",
    "scale",
    "thin",
    "window",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "automotive": ("AutomotiveTraceConfig", "DEFAULT_PERIODIC_SOURCES",
                   "DEFAULT_SPORADIC_SOURCES", "PeriodicActivationSource",
                   "SporadicActivationSource", "generate_automotive_trace"),
    "synthetic": ("bursty_interarrivals", "clip_to_dmin",
                  "exponential_interarrivals", "exponential_trace",
                  "lambda_for_load"),
    "traces": ("ActivationTrace",),
    "transforms": ("add_jitter", "merge", "offset", "scale", "thin", "window"),
})
