"""Tests for the worst-case IRQ latency analyses (Eqs. 11, 12, 16)."""

import pytest

from repro.analysis.event_models import PeriodicEventModel, sporadic
from repro.analysis.latency import (
    InterferingIrq,
    classic_irq_latency,
    interposed_irq_latency,
    violated_irq_latency,
)
from repro.hypervisor.config import CostModel

# The paper system at 200 MHz, in cycles.
US = 200
CYCLE = 14_000 * US
SLOT = 6_000 * US
C_TH = 2 * US
C_BH = 40 * US
COSTS = CostModel()


class TestClassicLatency:
    def test_dominated_by_tdma(self):
        """Eq. 11's bound is dominated by the TDMA cycle term:
        C_TH, C_BH << T_TDMA - T_i (Section 4)."""
        model = sporadic(1_444 * US)
        bound = classic_irq_latency(model, C_TH, C_BH, CYCLE, SLOT,
                                    costs=COSTS)
        foreign = CYCLE - SLOT
        assert bound.response_time_cycles >= foreign
        assert bound.response_time_cycles <= foreign + 20 * (C_TH + C_BH)
        assert bound.includes_tdma_term

    def test_exact_single_activation_value(self):
        # Sparse stream: one activation per busy window.
        # W(1) = C_BH + eta(W)*C_TH + ceil(W/T)*(T - T_i)
        model = sporadic(1_000_000 * US)
        bound = classic_irq_latency(model, C_TH, C_BH, CYCLE, SLOT,
                                    costs=COSTS)
        # W = 8000+40 us + C_TH with one TDMA cycle started:
        assert bound.q_max == 1
        assert bound.response_time_cycles == C_BH + C_TH + (CYCLE - SLOT)

    def test_interferers_add_top_handlers(self):
        model = sporadic(1_000_000 * US)
        other = InterferingIrq(model=sporadic(100_000 * US),
                               top_handler_cycles=5 * US)
        with_j = classic_irq_latency(model, C_TH, C_BH, CYCLE, SLOT,
                                     interferers=[other], costs=COSTS)
        without = classic_irq_latency(model, C_TH, C_BH, CYCLE, SLOT,
                                      costs=COSTS)
        assert with_j.response_time_cycles > without.response_time_cycles

    def test_monitored_interferer_pays_cmon(self):
        base = InterferingIrq(model=sporadic(10_000 * US),
                              top_handler_cycles=5 * US)
        monitored = InterferingIrq(model=sporadic(10_000 * US),
                                   top_handler_cycles=5 * US, monitored=True)
        assert (monitored.effective_top_cycles(COSTS)
                == base.effective_top_cycles(COSTS) + COSTS.monitor_cycles())


class TestInterposedLatency:
    def test_independent_of_tdma(self):
        """Observation 2 of Section 5.1: the Eq. 16 bound contains no
        TDMA term at all."""
        model = sporadic(1_444 * US)
        bound = interposed_irq_latency(model, C_TH, C_BH, costs=COSTS)
        assert not bound.includes_tdma_term
        assert bound.response_time_cycles < (CYCLE - SLOT) // 10

    def test_exact_value_sparse(self):
        model = sporadic(1_000_000 * US)
        bound = interposed_irq_latency(model, C_TH, C_BH, costs=COSTS)
        expected = (COSTS.effective_bottom_handler_cycles(C_BH)
                    + COSTS.effective_top_handler_cycles(C_TH))
        assert bound.response_time_cycles == expected

    def test_charged_costs_are_effective(self):
        model = sporadic(1_444 * US)
        bound = interposed_irq_latency(model, C_TH, C_BH, costs=COSTS)
        assert bound.charged_bottom_cycles == COSTS.effective_bottom_handler_cycles(C_BH)
        assert bound.charged_top_cycles == COSTS.effective_top_handler_cycles(C_TH)

    def test_improvement_factor(self):
        model = sporadic(1_444 * US)
        classic = classic_irq_latency(model, C_TH, C_BH, CYCLE, SLOT,
                                      costs=COSTS)
        interposed = interposed_irq_latency(model, C_TH, C_BH, costs=COSTS)
        # the paper reports ~16x on averages
        assert (classic.response_time_cycles
                > 10 * interposed.response_time_cycles)


class TestViolatedLatency:
    def test_keeps_tdma_term_and_adds_cmon(self):
        """Section 5.1 case 2: delayed processing with C'_TH."""
        model = sporadic(1_000_000 * US)
        violated = violated_irq_latency(model, C_TH, C_BH, CYCLE, SLOT,
                                        costs=COSTS)
        classic = classic_irq_latency(model, C_TH, C_BH, CYCLE, SLOT,
                                      costs=COSTS)
        assert violated.includes_tdma_term
        assert (violated.response_time_cycles
                == classic.response_time_cycles + COSTS.monitor_cycles())

    def test_monitoring_overhead_is_small(self):
        """The paper: monitoring overhead is ~order of 10 cycles per
        check [8] and therefore tolerable; our C_Mon is 128 cycles and
        still < 1 us at 200 MHz."""
        assert COSTS.monitor_cycles() < US


class TestBoundOrdering:
    def test_interposed_below_violated_below_classic_plus_cmon(self):
        model = sporadic(1_444 * US)
        interposed = interposed_irq_latency(model, C_TH, C_BH, costs=COSTS)
        violated = violated_irq_latency(model, C_TH, C_BH, CYCLE, SLOT,
                                        costs=COSTS)
        assert interposed.response_time_cycles < violated.response_time_cycles

    def test_denser_streams_have_larger_bounds(self):
        slow = interposed_irq_latency(sporadic(10_000 * US), C_TH, C_BH,
                                      costs=COSTS)
        c_bh_eff = COSTS.effective_bottom_handler_cycles(C_BH)
        fast = interposed_irq_latency(sporadic(2 * c_bh_eff), C_TH, C_BH,
                                      costs=COSTS)
        assert fast.response_time_cycles >= slow.response_time_cycles
