"""Worst-case IRQ latency analyses (Sections 4 and 5.1).

Three analyses, mirroring the paper:

* :func:`classic_irq_latency` — TDMA-delayed handling (Eqs. 6–12):
  the bottom handler only runs in its own slot, so the busy window
  includes the full TDMA interference term and the latency is
  dominated by the cycle length.
* :func:`interposed_irq_latency` — interrupts adhering to the
  monitoring condition (Eq. 16): TDMA interference disappears; the
  price is the inflated execution times C'_BH (Eq. 13) and C'_TH
  (Eq. 15).
* :func:`violated_irq_latency` — interrupts that violate d_min
  (Section 5.1 case 2): delayed handling as in the classic analysis,
  with the monitoring overhead C'_TH on every top handler.

Interfering IRQ sources contribute their top handlers (bottom handlers
of other sources run in their own partitions' slots, covered by the
TDMA term; same-source bottom handlers are serialized by the FIFO
queue).  One more term remains in the TDMA-delayed analyses: a slot
switch that hits another source's bottom handler is deferred until
that handler's budget ends ("Boundary semantics" in
``docs/architecture.md``), so each start of the analysed partition's
slot can come late by the longest such deferral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.busy_window import ResponseTimeResult, response_time
from repro.analysis.event_models import EventModel
from repro.analysis.tdma import tdma_interference
from repro.hypervisor.config import CostModel


@dataclass(frozen=True)
class InterferingIrq:
    """An interfering IRQ source: its arrival model and top-handler cost.

    ``monitored`` marks sources handled by the modified top handler,
    whose effective cost includes the monitoring call (Eq. 15).
    ``deferral_cycles`` is the longest the source's bottom-handler work
    can defer a slot switch into the analysed partition: its declared
    C_BH for a handler that runs at home, C'_BH (Eq. 13) for one that
    runs in an interposed window, 0 when it never runs in the slot
    before the analysed one.
    """

    model: EventModel
    top_handler_cycles: int
    monitored: bool = False
    deferral_cycles: int = 0

    def effective_top_cycles(self, costs: CostModel) -> int:
        if self.monitored:
            return costs.effective_top_handler_cycles(self.top_handler_cycles)
        return self.top_handler_cycles


@dataclass(frozen=True)
class IrqLatencyBound:
    """Result of a worst-case IRQ latency analysis."""

    response_time_cycles: int
    q_max: int
    critical_q: int
    busy_times: tuple[int, ...]
    #: The per-activation cost the analysis charged (C_BH or C'_BH).
    charged_bottom_cycles: int
    #: The top-handler cost charged for the analysed source.
    charged_top_cycles: int
    includes_tdma_term: bool


def _analyse(own_bottom: int, own_top: int, model: EventModel,
             interferers: Sequence[InterferingIrq], costs: CostModel,
             tdma: "tuple[int, int] | None",
             q_limit: int, horizon: int) -> IrqLatencyBound:
    effective = [(irq.model, irq.effective_top_cycles(costs))
                 for irq in interferers]
    deferral = max((irq.deferral_cycles for irq in interferers), default=0)

    def interference(window: int) -> int:
        total = model.eta_plus(window) * own_top
        if tdma is not None:
            cycle, slot = tdma
            total += tdma_interference(window, cycle, slot)
            # Each started cycle holds one start of the analysed slot.
            total += math.ceil(window / cycle) * deferral
        for other_model, top_cycles in effective:
            total += other_model.eta_plus(window) * top_cycles
        return total

    result: ResponseTimeResult = response_time(
        own_bottom, model, interference, q_limit=q_limit, horizon=horizon,
    )
    return IrqLatencyBound(
        response_time_cycles=result.response_time,
        q_max=result.q_max,
        critical_q=result.critical_q,
        busy_times=result.busy_times,
        charged_bottom_cycles=own_bottom,
        charged_top_cycles=own_top,
        includes_tdma_term=tdma is not None,
    )


def classic_irq_latency(model: EventModel, c_th: int, c_bh: int,
                        tdma_cycle: int, slot_length: int,
                        interferers: Sequence[InterferingIrq] = (),
                        costs: "CostModel | None" = None,
                        q_limit: int = 10_000,
                        horizon: int = 2**48) -> IrqLatencyBound:
    """Worst-case latency of delayed IRQ handling — Eqs. (11)/(12).

        W_i(q) = q*C_BH + η⁺_i(W)*C_TH
                 + ceil(W/T_TDMA)*(T_TDMA - T_i)
                 + Σ_j η⁺_j(W)*C_TH_j
    """
    costs = costs or CostModel()
    return _analyse(c_bh, c_th, model, interferers, costs,
                    (tdma_cycle, slot_length), q_limit, horizon)


def interposed_irq_latency(model: EventModel, c_th: int, c_bh: int,
                           costs: "CostModel | None" = None,
                           interferers: Sequence[InterferingIrq] = (),
                           q_limit: int = 10_000,
                           horizon: int = 2**48) -> IrqLatencyBound:
    """Worst-case latency of d_min-adherent interposed IRQs — Eq. (16).

        W_i(q) = q*C'_BH + η⁺_i(W)*C'_TH + Σ_j η⁺_j(W)*C_TH_j

    The TDMA term is gone: an adherent IRQ never waits for its
    partition's slot.  ``model`` must describe the *shaped* stream
    (e.g. a sporadic model with period d_min), otherwise the bound is
    meaningless.
    """
    costs = costs or CostModel()
    c_bh_eff = costs.effective_bottom_handler_cycles(c_bh)
    c_th_eff = costs.effective_top_handler_cycles(c_th)
    return _analyse(c_bh_eff, c_th_eff, model, interferers, costs,
                    None, q_limit, horizon)


def violated_irq_latency(model: EventModel, c_th: int, c_bh: int,
                         tdma_cycle: int, slot_length: int,
                         costs: "CostModel | None" = None,
                         interferers: Sequence[InterferingIrq] = (),
                         q_limit: int = 10_000,
                         horizon: int = 2**48) -> IrqLatencyBound:
    """Worst-case latency for IRQs violating d_min (Section 5.1, case 2).

    Delayed processing applies (Eq. 7 with the TDMA term), the bottom
    handler cost stays C_BH (no extra context switches), but every top
    handler of the source pays the monitoring overhead: C'_TH (Eq. 15).
    """
    costs = costs or CostModel()
    c_th_eff = costs.effective_top_handler_cycles(c_th)
    return _analyse(c_bh, c_th_eff, model, interferers, costs,
                    (tdma_cycle, slot_length), q_limit, horizon)
