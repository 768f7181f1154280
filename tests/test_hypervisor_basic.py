"""Hand-computed end-to-end latency tests for the hypervisor.

Every test uses the 200 MHz clock with a two-partition system
(P1 and P2, 1000 µs slots each), C_TH = 2 µs (400 cycles),
C_BH = 40 µs (8000 cycles), and the Section 6.2 cost model:
C_Mon = 128, C_sched = 877, C_ctx = 10000 cycles.
"""

import pytest

from conftest import build_system, run_system, us
from ledger_oracle import ListLedger
from repro.core.monitor import DeltaMinusMonitor
from repro.core.policy import HandlingMode, MonitoredInterposing, NeverInterpose

C_TH = us(2)          # 400
C_BH = us(40)         # 8000
C_MON = 128
C_SCHED = 877
C_CTX = 10_000


class TestDirectHandling:
    def test_latency_is_th_plus_bh(self):
        """IRQ in the subscriber's own slot: latency = C_TH + C_BH."""
        hv, timer = build_system(subscriber="P1", intervals=[us(100)])
        run_system(hv, timer, 1)
        (record,) = hv.latency_records
        assert record.mode is HandlingMode.DIRECT
        assert record.arrival == us(100)
        assert record.latency == C_TH + C_BH

    def test_direct_preempts_background_task(self):
        hv, timer = build_system(subscriber="P1", intervals=[us(100)])
        run_system(hv, timer, 1)
        # Background work of P1 ran before and after the handler.
        assert hv.cpu.consumed("task:P1") > 0
        assert hv.cpu.consumed("bh:P1") == C_BH


class TestDelayedHandling:
    def test_waits_for_home_slot(self):
        """IRQ for P2 arriving in P1's slot waits for P2's slot start
        plus the slot context switch: completion at 1000 us + C_ctx
        + C_BH."""
        hv, timer = build_system(subscriber="P2", intervals=[us(100)])
        run_system(hv, timer, 1)
        (record,) = hv.latency_records
        assert record.mode is HandlingMode.DELAYED
        expected_completion = us(1000) + C_CTX + C_BH
        assert record.completed_at == expected_completion
        assert record.latency == expected_completion - us(100)

    def test_worst_case_is_foreign_time_bound(self):
        """The delayed latency never exceeds T_TDMA - T_i plus handler
        processing and switch overhead."""
        hv, timer = build_system(subscriber="P2", intervals=[us(100)])
        run_system(hv, timer, 1)
        (record,) = hv.latency_records
        foreign_time = us(1000)   # the other partition's slot
        assert record.latency <= foreign_time + C_CTX + C_BH + C_TH


class TestInterposedHandling:
    def test_latency_breakdown(self):
        """Interposed latency = C_TH + C_Mon + C_sched + C_ctx + C_BH
        (the switch back happens after the bottom handler finished and
        is not part of the measured latency)."""
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(500)))
        hv, timer = build_system(subscriber="P2", policy=policy,
                                 intervals=[us(100)])
        run_system(hv, timer, 1)
        (record,) = hv.latency_records
        assert record.mode is HandlingMode.INTERPOSED
        assert record.latency == C_TH + C_MON + C_SCHED + C_CTX + C_BH

    def test_interposed_much_faster_than_delayed(self):
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(500)))
        hv_i, timer_i = build_system(subscriber="P2", policy=policy,
                                     intervals=[us(100)])
        run_system(hv_i, timer_i, 1)
        hv_d, timer_d = build_system(subscriber="P2",
                                     intervals=[us(100)])
        run_system(hv_d, timer_d, 1)
        assert (hv_i.latency_records[0].latency
                < hv_d.latency_records[0].latency / 5)

    def test_denied_irq_falls_back_to_delayed(self):
        """Two foreign IRQs 100 us apart with d_min = 500 us: the
        second violates the condition and is delayed."""
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(500)))
        hv, timer = build_system(subscriber="P2", policy=policy,
                                 intervals=[us(100), us(100)])
        run_system(hv, timer, 2)
        modes = [record.mode for record in hv.latency_records]
        assert modes == [HandlingMode.INTERPOSED, HandlingMode.DELAYED]

    def test_monitoring_cost_charged_even_when_denied(self):
        """Section 5.1 case 2: C'_TH applies to violating IRQs too."""
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(500)))
        hv, timer = build_system(subscriber="P2", policy=policy,
                                 intervals=[us(100), us(100)])
        run_system(hv, timer, 2)
        assert hv.stats.monitor_consultations == 2

    def test_no_monitor_cost_for_direct(self):
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(500)))
        hv, timer = build_system(subscriber="P1", policy=policy,
                                 intervals=[us(100)])
        run_system(hv, timer, 1)
        assert hv.stats.monitor_consultations == 0

    def test_context_switch_counts(self):
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(500)))
        hv, timer = build_system(subscriber="P2", policy=policy,
                                 intervals=[us(100)])
        run_system(hv, timer, 1)
        from repro.hypervisor.context import SwitchReason
        assert hv.context_switches.count(SwitchReason.INTERPOSE_ENTER) == 1
        assert hv.context_switches.count(SwitchReason.INTERPOSE_EXIT) == 1


class TestBudgetEnforcement:
    def test_misbehaving_handler_is_cut(self):
        """A bottom handler declaring C_BH = 40 us but running 120 us is
        cut at the budget in a foreign slot; the remainder completes in
        the home slot."""
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(500)))
        hv, timer = build_system(
            subscriber="P2", policy=policy, intervals=[us(100)],
            bottom_handler_actual=lambda seq: us(120),
        )
        run_system(hv, timer, 1)
        (record,) = hv.latency_records
        assert record.enforced_cut
        assert record.mode is HandlingMode.DELAYED   # finished at home
        assert hv.stats.budget_exhausted == 1
        # It completed in P2's slot: 1000 us + C_ctx + remaining 80 us.
        assert record.completed_at == us(1000) + C_CTX + us(80)

    def test_enforcement_bounds_foreign_slot_usage(self):
        """Even the misbehaving handler consumed at most C_BH inside
        the foreign slot (plus the fixed overheads of Eq. 13)."""
        from repro.core.independence import InterferenceKind
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(500)))
        hv, timer = build_system(
            subscriber="P2", policy=policy, intervals=[us(100)],
            bottom_handler_actual=lambda seq: us(10_000),
        )
        run_system(hv, timer, 1, limit_us=100_000)
        interference = ListLedger.of(hv.ledger).total(
            "P1", kinds=(InterferenceKind.INTERPOSED_BH,)
        )
        c_bh_eff = hv.config.costs.effective_bottom_handler_cycles(C_BH)
        assert interference <= c_bh_eff

    def test_well_behaved_handler_not_cut(self):
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(500)))
        hv, timer = build_system(
            subscriber="P2", policy=policy, intervals=[us(100)],
            bottom_handler_actual=lambda seq: us(25),   # under budget
        )
        run_system(hv, timer, 1)
        (record,) = hv.latency_records
        assert not record.enforced_cut
        assert record.mode is HandlingMode.INTERPOSED
        assert hv.stats.budget_exhausted == 0
