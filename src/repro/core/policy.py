"""Interposing policies — the decision logic of the modified top handler.

The hypervisor consults a policy whenever an IRQ arrives for a
partition other than the one whose TDMA slot is active ("foreign
slot").  The policy answers the Fig. 4b question "Interposing IRQ
denied?" and is where the δ⁻ monitor, the Appendix-A learning flow
and baseline behaviours (never interpose / always boost) plug in.

Policies are *per IRQ source*: each source has its own activation
pattern and its own monitoring condition (the paper's test setup
monitors the activation pattern of one IRQ source; Section 5 defines
``d_min`` per monitored source).
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence

from repro.core.learning import (
    DeltaLearner,
    build_monitor,
    scale_table_to_load_fraction,
)
from repro.core.monitor import DeltaMinusMonitor


class HandlingMode(enum.Enum):
    """How a particular IRQ invocation ended up being handled."""

    DIRECT = "direct"          # subscriber's own slot was active
    INTERPOSED = "interposed"  # executed inside a foreign slot
    DELAYED = "delayed"        # waited for the subscriber's own slot


class InterposingPolicy:
    """Interface for foreign-slot interposing decisions.

    ``observe_arrival`` is called for *every* IRQ arrival of the source
    (needed by learning policies); ``request_interpose`` is called only
    for foreign-slot arrivals and returns whether the bottom handler
    may run interposed right now.
    """

    def observe_arrival(self, time: int) -> None:
        """Notify the policy of an IRQ arrival (any slot)."""

    def request_interpose(self, time: int) -> bool:
        """Decide whether a foreign-slot IRQ may be interposed.

        A True return *commits* the activation: the policy records it
        as accepted and subsequent decisions account for it.
        """
        raise NotImplementedError

    @property
    def monitoring_cost_applies(self) -> bool:
        """Whether the top handler pays ``C_Mon`` for this policy.

        The unmodified top handler (Fig. 4a) has no monitoring call at
        all, so the baseline policy reports False and the hypervisor
        charges plain ``C_TH``.
        """
        return True

    # ------------------------------------------------------------------
    # Snapshot/fork support (see repro.sim.snapshot).  The defaults
    # serve stateless policies; stateful subclasses override both.
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Plain-data policy state for a world snapshot."""
        return {}

    @classmethod
    def restore_from_snapshot(cls, state: dict) -> "InterposingPolicy":
        return cls()


class NeverInterpose(InterposingPolicy):
    """The unmodified uC/OS-MMU behaviour (Fig. 4a): always delay.

    This is the paper's baseline ("monitoring disabled", Fig. 6a).
    """

    def request_interpose(self, time: int) -> bool:
        return False

    @property
    def monitoring_cost_applies(self) -> bool:
        return False


class AlwaysInterpose(InterposingPolicy):
    """Interpose every foreign-slot IRQ, without any shaping.

    Models the Xen-style "boost" schedulers discussed in Section 2
    (Ongaro et al.): good latency, but the interference on other
    partitions is unbounded — exactly the property the paper's monitor
    exists to prevent.  Used by :mod:`repro.baselines.boost`.
    """

    def request_interpose(self, time: int) -> bool:
        return True

    @property
    def monitoring_cost_applies(self) -> bool:
        return False


class MonitoredInterposing(InterposingPolicy):
    """Interpose when the δ⁻ monitor permits it (Section 5).

    The basic paper setup is ``MonitoredInterposing(DeltaMinusMonitor.from_dmin(d))``.
    """

    def __init__(self, monitor: DeltaMinusMonitor):
        self.monitor = monitor

    def request_interpose(self, time: int) -> bool:
        return self.monitor.check_and_accept(time)

    def snapshot_state(self) -> dict:
        return {"monitor": self.monitor.snapshot_state()}

    @classmethod
    def restore_from_snapshot(cls, state: dict) -> "MonitoredInterposing":
        return cls(DeltaMinusMonitor.restore_from_snapshot(state["monitor"]))

    def __repr__(self) -> str:
        return f"MonitoredInterposing({self.monitor!r})"


class LearningPhase(enum.Enum):
    LEARN = "learn"
    RUN = "run"


class SelfLearningInterposing(InterposingPolicy):
    """Appendix-A flow: learn δ⁻ online, then monitor against it.

    During the learning phase (the first ``learn_count`` arrivals) only
    direct and delayed handling are active: every interpose request is
    denied while Algorithm 1 records the observed δ⁻ table.  When the
    learning phase completes, the learned table is clamped to the
    configured bound (Algorithm 2) and the policy switches to run mode
    with a :class:`DeltaMinusMonitor` on the resulting table.

    Parameters
    ----------
    depth:
        Table length ``l`` (the paper uses 5).
    learn_count:
        Number of arrivals in the learning phase (the paper uses the
        first 10 % of the trace).
    bound:
        Explicit δ⁻ bound table (Algorithm 2 input), or None.
    load_fraction:
        Alternative to ``bound``: derive the bound from the *learned*
        table such that only this fraction of the recorded load is
        admitted (Fig. 7 uses 0.25, 0.125 and 0.0625).  A value of
        None or 1.0 with no explicit bound reproduces Fig. 7 case (a):
        the bound does not bind.
    """

    def __init__(self, depth: int, learn_count: int,
                 bound: Optional[Sequence[int]] = None,
                 load_fraction: Optional[float] = None):
        if learn_count <= depth:
            raise ValueError(
                f"learning phase of {learn_count} events cannot populate a "
                f"depth-{depth} table"
            )
        if bound is not None and load_fraction is not None:
            raise ValueError("give either an explicit bound or a load fraction")
        self._learner = DeltaLearner(depth)
        self._learn_count = learn_count
        self._bound = list(bound) if bound is not None else None
        self._load_fraction = load_fraction
        self._phase = LearningPhase.LEARN
        self.monitor: Optional[DeltaMinusMonitor] = None

    @property
    def phase(self) -> LearningPhase:
        return self._phase

    @property
    def learned_table(self) -> list[int]:
        return self._learner.table()

    def observe_arrival(self, time: int) -> None:
        if self._phase is not LearningPhase.LEARN:
            return
        self._learner.observe(time)
        if self._learner.observed_count >= self._learn_count:
            self._enter_run_mode()

    def request_interpose(self, time: int) -> bool:
        if self._phase is LearningPhase.LEARN or self.monitor is None:
            return False
        return self.monitor.check_and_accept(time)

    def _enter_run_mode(self) -> None:
        bound = self._bound
        if bound is None and self._load_fraction is not None:
            bound = scale_table_to_load_fraction(
                self._learner.table(), self._load_fraction
            )
        self.monitor = build_monitor(self._learner.table(), bound)
        self._phase = LearningPhase.RUN

    def snapshot_state(self) -> dict:
        return {
            "depth": self._learner.depth,
            "learn_count": self._learn_count,
            "bound": list(self._bound) if self._bound is not None else None,
            "load_fraction": self._load_fraction,
            "phase": self._phase.value,
            "learner": self._learner.snapshot_state(),
            "monitor": (self.monitor.snapshot_state()
                        if self.monitor is not None else None),
        }

    @classmethod
    def restore_from_snapshot(cls, state: dict) -> "SelfLearningInterposing":
        policy = cls(depth=state["depth"], learn_count=state["learn_count"],
                     bound=state["bound"],
                     load_fraction=state["load_fraction"])
        policy._learner = DeltaLearner.restore_from_snapshot(state["learner"])
        policy._phase = LearningPhase(state["phase"])
        if state["monitor"] is not None:
            policy.monitor = DeltaMinusMonitor.restore_from_snapshot(
                state["monitor"]
            )
        return policy

    def __repr__(self) -> str:
        return (
            f"SelfLearningInterposing(l={self._learner.depth}, "
            f"phase={self._phase.value})"
        )
