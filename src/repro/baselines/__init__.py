"""Baseline mechanisms from the related-work discussion (Section 2).

The names resolve on first use (see :mod:`repro._lazy`), so importing
the package imports none of its submodules.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BoostPolicy",
    "MinDistanceThrottle",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "boost": ("BoostPolicy",),
    "throttling": ("MinDistanceThrottle",),
})
