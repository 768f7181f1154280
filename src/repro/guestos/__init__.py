"""Guest operating system substrate (uC/OS-like fixed-priority kernel).

The names resolve on first use (see :mod:`repro._lazy`), so importing
the package imports none of its submodules.
"""

from repro._lazy import lazy_exports

__all__ = [
    "GuestKernel",
    "TaskStats",
    "GuestJob",
    "GuestTask",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "kernel": ("GuestKernel", "TaskStats"),
    "tasks": ("GuestJob", "GuestTask"),
})
