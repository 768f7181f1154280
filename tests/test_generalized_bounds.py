"""Integration tests for the *generalized* analysis pieces:

* the l > 1 table interference bound (generalized Eq. 14) against a
  measured ledger from a deep-table monitored run;
* the Σ_j interfering-top-handler term of Eq. 11 against a
  two-source simulation.
"""

import pytest

from conftest import us
from event_model_oracle import interposed_interference_table
from ledger_oracle import ListLedger
from repro.analysis.event_models import PeriodicEventModel
from repro.analysis.latency import InterferingIrq, classic_irq_latency
from repro.core.independence import InterferenceKind, verify_sufficient_independence
from repro.core.monitor import DeltaMinusMonitor
from repro.core.policy import MonitoredInterposing, NeverInterpose
from repro.hypervisor.config import CostModel, HypervisorConfig, SlotConfig
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.irq import IrqSource
from repro.hypervisor.partition import Partition
from repro.sim.timers import IntervalSequenceTimer
from repro.workloads.synthetic import bursty_interarrivals


class TestTableBoundOnMeasuredRun:
    def run_deep_monitored(self):
        """Bursty arrivals through an l = 3 table monitor."""
        table = [us(150), us(800), us(2_500)]
        slots = [SlotConfig("P1", us(1_000)), SlotConfig("P2", us(1_000))]
        hv = Hypervisor(slots, HypervisorConfig(trace_enabled=False))
        hv.add_partition(Partition("P1"))
        hv.add_partition(Partition("P2"))
        source = IrqSource(
            name="bursty", line=5, subscriber="P2",
            top_handler_cycles=us(2), bottom_handler_cycles=us(40),
            policy=MonitoredInterposing(DeltaMinusMonitor(table)),
        )
        hv.add_irq_source(source)
        gaps = bursty_interarrivals(300, burst_length=5,
                                    intra_burst=us(170),
                                    inter_burst=us(6_000), seed=31)
        timer = IntervalSequenceTimer(hv.engine, hv.intc, 5, gaps)
        source.on_top_handler = lambda event: timer.arm_next()
        hv.start()
        timer.arm_next()
        hv.run_until_irq_count(len(gaps),
                               limit_cycles=hv.clock.s_to_cycles(60))
        return hv, table

    def test_generalized_eq14_holds(self):
        hv, table = self.run_deep_monitored()
        c_bh_eff = hv.config.costs.effective_bottom_handler_cycles(us(40))
        bound = interposed_interference_table(table, c_bh_eff)
        report = verify_sufficient_independence(
            hv.ledger, "P1", bound,
            [us(w) for w in (100, 500, 1_000, 3_000, 10_000, 40_000)],
            kinds=(InterferenceKind.INTERPOSED_BH,),
        )
        assert report.holds, (
            f"generalized Eq.14 violated: {report.measured} vs {report.bounds}"
        )

    def test_deep_table_admits_bursts(self):
        hv, _ = self.run_deep_monitored()
        # burst spacing 170us > table[0]=150us, so burst members can be
        # admitted back-to-back (an l=1 condition with the same
        # long-run rate could not).
        assert hv.stats.windows_opened > 50


class TestMultiSourceTopHandlerInterference:
    def test_eq11_with_interferers_dominates_simulation(self):
        """Two IRQ sources; the analysed one is delayed-handled and
        suffers the other's top handlers (the Σ_j term of Eq. 11)."""
        clock_cycle, slot = us(2_000), us(1_000)
        costs = CostModel()
        slots = [SlotConfig("P1", slot), SlotConfig("P2", slot)]
        hv = Hypervisor(slots, HypervisorConfig(trace_enabled=False))
        hv.add_partition(Partition("P1"))
        hv.add_partition(Partition("P2"))
        analysed = IrqSource(name="a", line=5, subscriber="P2",
                             top_handler_cycles=us(2),
                             bottom_handler_cycles=us(40),
                             policy=NeverInterpose())
        noisy = IrqSource(name="b", line=6, subscriber="P1",
                          top_handler_cycles=us(10),
                          bottom_handler_cycles=us(5),
                          policy=NeverInterpose())
        hv.add_irq_source(analysed)
        hv.add_irq_source(noisy)
        gaps_a = [us(2_500)] * 40
        gaps_b = [us(400)] * 250
        timer_a = IntervalSequenceTimer(hv.engine, hv.intc, 5, gaps_a)
        timer_b = IntervalSequenceTimer(hv.engine, hv.intc, 6, gaps_b)
        analysed.on_top_handler = lambda event: timer_a.arm_next()
        noisy.on_top_handler = lambda event: timer_b.arm_next()
        hv.start()
        timer_a.arm_next()
        timer_b.arm_next()
        hv.run_until_irq_count(40, source="a",
                               limit_cycles=hv.clock.s_to_cycles(60))

        bound = classic_irq_latency(
            PeriodicEventModel(us(2_500)), us(2), us(40),
            clock_cycle, slot,
            interferers=[InterferingIrq(model=PeriodicEventModel(us(400)),
                                        top_handler_cycles=us(10))],
            costs=costs,
        )
        measured = max(rec.latency for rec in hv.latency_records
                       if rec.source == "a")
        assert measured <= bound.response_time_cycles
        # the interferer's top handlers show up in the ledger
        th = ListLedger.of(hv.ledger).total(
            "P2", kinds=(InterferenceKind.TOP_HANDLER,))
        assert th > 0
