"""repro — reproduction of "Sufficient Temporal Independence and
Improved Interrupt Latencies in a Real-Time Hypervisor" (Beckert,
Neukirchner, Ernst, Petters; DAC 2014).

The package provides:

* :mod:`repro.sim` — discrete-event hardware substrate (engine, clock,
  interrupt controller, timers, CPU);
* :mod:`repro.hypervisor` — TDMA-scheduled hypervisor with split
  top/bottom interrupt handling;
* :mod:`repro.core` — the paper's contribution: δ⁻-monitored interposed
  bottom handlers with bounded interference;
* :mod:`repro.guestos` — fixed-priority guest OS kernel;
* :mod:`repro.analysis` — busy-window worst-case latency analysis
  (Eqs. 3–16);
* :mod:`repro.workloads` — IRQ workload generators (exponential and
  automotive-trace);
* :mod:`repro.metrics` — histograms, classification and reporting;
* :mod:`repro.baselines` — boost and source-throttling baselines;
* :mod:`repro.experiments` — one runner per paper table/figure.

Quickstart: see ``examples/quickstart.py`` for a complete runnable
scenario.

The names below resolve on first use (see :mod:`repro._lazy`), so
importing one subpackage does not import the others.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "DeltaLearner",
    "DeltaMinusMonitor",
    "DminInterferenceBound",
    "HandlingMode",
    "InterferenceKind",
    "InterferenceLedger",
    "MonitoredInterposing",
    "NeverInterpose",
    "SelfLearningInterposing",
    "verify_sufficient_independence",
    "GuestKernel",
    "GuestTask",
    "CostModel",
    "Hypervisor",
    "HypervisorConfig",
    "IpcRouter",
    "IrqSource",
    "LatencyRecord",
    "Partition",
    "SlotConfig",
    "TdmaScheduler",
    "Clock",
    "IntervalSequenceTimer",
    "SimulationEngine",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "core": ("DeltaLearner", "DeltaMinusMonitor", "DminInterferenceBound",
             "HandlingMode", "InterferenceKind", "InterferenceLedger",
             "MonitoredInterposing", "NeverInterpose",
             "SelfLearningInterposing", "verify_sufficient_independence"),
    "guestos": ("GuestKernel", "GuestTask"),
    "hypervisor": ("CostModel", "Hypervisor", "HypervisorConfig", "IpcRouter",
                   "IrqSource", "LatencyRecord", "Partition", "SlotConfig",
                   "TdmaScheduler"),
    "sim": ("Clock", "IntervalSequenceTimer", "SimulationEngine"),
})
