"""Simulated real-time hypervisor (uC/OS-MMU model).

TDMA partition scheduling, split top/bottom interrupt handling,
monitored interposed bottom handlers, context-switch cost accounting,
IPC and the Section 6.2 footprint model.

The names resolve on first use (see :mod:`repro._lazy`), so importing
the package imports none of its submodules.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CostModel",
    "HypervisorConfig",
    "SlotConfig",
    "PAPER_CTX_INVALIDATE_INSTRUCTIONS",
    "PAPER_CTX_WRITEBACK_CYCLES",
    "PAPER_MONITOR_INSTRUCTIONS",
    "PAPER_SCHEDULER_INSTRUCTIONS",
    "ContextSwitchModel",
    "SwitchReason",
    "PAPER_FOOTPRINT",
    "ComponentFootprint",
    "monitor_data_bytes",
    "render_footprint_table",
    "total_paper_code_bytes",
    "total_paper_data_bytes",
    "Hypervisor",
    "HypervisorStats",
    "LatencyRecord",
    "IpcChannel",
    "IpcChannelFull",
    "IpcRouter",
    "Message",
    "IrqEvent",
    "IrqQueue",
    "IrqQueueOverflow",
    "IrqSource",
    "Partition",
    "TdmaScheduler",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "config": ("CostModel", "HypervisorConfig", "SlotConfig",
               "PAPER_CTX_INVALIDATE_INSTRUCTIONS",
               "PAPER_CTX_WRITEBACK_CYCLES", "PAPER_MONITOR_INSTRUCTIONS",
               "PAPER_SCHEDULER_INSTRUCTIONS"),
    "context": ("ContextSwitchModel", "SwitchReason"),
    "footprint": ("PAPER_FOOTPRINT", "ComponentFootprint",
                  "monitor_data_bytes", "render_footprint_table",
                  "total_paper_code_bytes", "total_paper_data_bytes"),
    "hypervisor": ("Hypervisor", "HypervisorStats", "LatencyRecord"),
    "ipc": ("IpcChannel", "IpcChannelFull", "IpcRouter", "Message"),
    "irq": ("IrqEvent", "IrqQueue", "IrqQueueOverflow", "IrqSource"),
    "partition": ("Partition",),
    "scheduler": ("TdmaScheduler",),
})
