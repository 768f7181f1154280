"""Property-based end-to-end tests of the hypervisor.

These are the paper's headline guarantees, checked over randomized
arrival patterns and monitor configurations:

* Eq. 14 — the interposing interference measured on every victim
  partition over sliding windows of many widths never exceeds
  ceil(Δt/d_min) * C'_BH;
* FIFO — bottom handlers of a source complete in arrival order;
* liveness — every IRQ eventually completes;
* time conservation — all simulated cycles are accounted for;
* boundary deferral — a slot switch is late by at most
  C'_BH + n * C'_TH.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_system, of_kind, run_system, us
from repro.core.independence import (
    DminInterferenceBound,
    InterferenceKind,
    verify_sufficient_independence,
)
from repro.core.monitor import DeltaMinusMonitor
from repro.core.policy import MonitoredInterposing
from repro.sim.trace import TraceKind

C_TH = us(2)
C_BH = us(40)

#: Random gaps, or a timer-like stream of equal whole-µs gaps.  Equal
#: gaps often land an IRQ at the very cycle a window's last bottom
#: handler ends; random cycle counts almost never do.
arrival_gaps = st.one_of(
    st.lists(st.integers(min_value=us(5), max_value=us(3_000)),
             min_size=5, max_size=40),
    st.builds(lambda gap_us, count: [us(gap_us)] * count,
              st.integers(min_value=5, max_value=100),
              st.integers(min_value=5, max_value=40)),
)

#: Short slots make TDMA boundaries meet handlers and windows often.
slot_lengths = st.sampled_from((300.0, 500.0, 1_000.0))

#: A dense timer stream on short slots that lands IRQs on the very
#: cycle a window's last bottom handler ends.  The draws above reach
#: that cycle only by chance, so each property also runs this stream
#: explicitly: a window closed under a returning top handler that
#: unmasks anyway fails every property on it, in every seed.
WINDOW_END_STREAM = dict(gaps=[us(10)] * 40, dmin_us=200, slot_us=300.0)


@settings(max_examples=40, deadline=None)
@given(gaps=arrival_gaps,
       dmin_us=st.integers(min_value=200, max_value=3_000),
       slot_us=slot_lengths)
@example(**WINDOW_END_STREAM)
def test_property_eq14_holds_for_all_victims(gaps, dmin_us, slot_us):
    policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(dmin_us)))
    hv, timer = build_system(subscriber="P2", policy=policy,
                             intervals=gaps, slot_us=slot_us, trace=False)
    run_system(hv, timer, len(gaps))
    bound = DminInterferenceBound(
        us(dmin_us),
        hv.config.costs.effective_bottom_handler_cycles(C_BH),
    )
    widths = [us(w) for w in (50, 300, 1_000, 2_500, 10_000, 40_000)]
    report = verify_sufficient_independence(
        hv.ledger, "P1", bound.max_interference, widths,
        kinds=(InterferenceKind.INTERPOSED_BH,),
    )
    assert report.holds, (
        f"Eq.14 violated: measured {report.measured} vs bounds "
        f"{report.bounds} for widths {report.window_widths}"
    )


@settings(max_examples=40, deadline=None)
@given(gaps=arrival_gaps,
       dmin_us=st.integers(min_value=100, max_value=2_000),
       slot_us=slot_lengths)
@example(**WINDOW_END_STREAM)
def test_property_fifo_and_liveness(gaps, dmin_us, slot_us):
    policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(dmin_us)))
    hv, timer = build_system(subscriber="P2", policy=policy,
                             intervals=gaps, slot_us=slot_us, trace=False)
    run_system(hv, timer, len(gaps))
    assert len(hv.latency_records) == len(gaps)           # liveness
    seqs = [record.seq for record in hv.latency_records]
    assert seqs == sorted(seqs)                           # FIFO
    for record in hv.latency_records:
        assert record.latency >= 0


@settings(max_examples=25, deadline=None)
@given(gaps=arrival_gaps,
       dmin_us=st.integers(min_value=100, max_value=2_000),
       slot_us=slot_lengths)
@example(**WINDOW_END_STREAM)
def test_property_time_conservation(gaps, dmin_us, slot_us):
    policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(dmin_us)))
    hv, timer = build_system(subscriber="P2", policy=policy,
                             intervals=gaps, slot_us=slot_us, trace=False)
    run_system(hv, timer, len(gaps))
    hv.cpu.preempt()
    assert hv.cpu.total_consumed() == hv.engine.now


@settings(max_examples=200, deadline=None)
@given(gaps=arrival_gaps,
       dmin_us=st.integers(min_value=100, max_value=2_000),
       subscriber=st.sampled_from(("P1", "P2")),
       actual_us=st.one_of(st.none(),
                           st.integers(min_value=1, max_value=400)),
       slot_us=slot_lengths)
@example(subscriber="P2", actual_us=None, **WINDOW_END_STREAM)
def test_property_slot_switch_lateness_is_bounded(gaps, dmin_us, subscriber,
                                                  actual_us, slot_us):
    """Each slot switch happens at most C'_BH + n * C'_TH after its
    nominal boundary, where n counts the top handlers started from
    C'_TH before the boundary until the switch.

    The deferral itself is at most C'_BH: an interposed window's
    enforced budget plus its scheduler and context-switch costs, or a
    home bottom handler capped at its declared C_BH.  On top of that
    the boundary can fall inside a masked top-handler-plus-monitor
    section before a window opens, and top handlers preempt a window
    whose budget counts CPU cycles, not wall time.  Misdeclared
    handlers (``actual_us`` above C_BH) check that the cap, not the
    handler's demand, ends a home bottom handler's deferral; short
    slots make boundaries meet handlers often.
    """
    policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(dmin_us)))
    hv, timer = build_system(
        subscriber=subscriber, policy=policy, intervals=gaps,
        slot_us=slot_us,
        bottom_handler_actual=(None if actual_us is None
                               else lambda seq: us(actual_us)),
    )
    run_system(hv, timer, len(gaps))
    hv.run_until(hv.engine.now + us(slot_us))   # let a deferred switch land
    costs = hv.config.costs
    c_th_eff = costs.effective_top_handler_cycles(C_TH)
    c_bh_eff = costs.effective_bottom_handler_cycles(C_BH)
    starts = [event.time
              for event in of_kind(hv.trace, TraceKind.TOP_HANDLER_START)]
    switches = of_kind(hv.trace, TraceKind.SLOT_SWITCH)
    assert switches and hv.scheduler.slots_skipped == 0
    boundary = 0
    for switch in switches:
        boundary = hv.scheduler.nominal_slot_at(boundary)[2]
        n = sum(boundary - c_th_eff <= start <= switch.time
                for start in starts)
        assert boundary <= switch.time <= boundary + c_bh_eff + n * c_th_eff


@settings(max_examples=25, deadline=None)
@given(gaps=arrival_gaps,
       actual_us=st.integers(min_value=1, max_value=200),
       dmin_us=st.integers(min_value=200, max_value=2_000),
       slot_us=slot_lengths)
@example(actual_us=40, **WINDOW_END_STREAM)
def test_property_enforcement_with_misdeclared_handlers(gaps, actual_us,
                                                        dmin_us, slot_us):
    """Even when actual bottom-handler demand exceeds the declared
    C_BH, the foreign-slot interference bound still holds (enforcement
    is what makes Eq. 14 independent of partition behaviour)."""
    policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(us(dmin_us)))
    hv, timer = build_system(
        subscriber="P2", policy=policy, intervals=gaps, slot_us=slot_us,
        trace=False, bottom_handler_actual=lambda seq: us(actual_us),
    )
    run_system(hv, timer, len(gaps))
    bound = DminInterferenceBound(
        us(dmin_us),
        hv.config.costs.effective_bottom_handler_cycles(C_BH),
    )
    widths = [us(w) for w in (100, 1_000, 5_000, 25_000)]
    report = verify_sufficient_independence(
        hv.ledger, "P1", bound.max_interference, widths,
        kinds=(InterferenceKind.INTERPOSED_BH,),
    )
    assert report.holds
    assert len(hv.latency_records) == len(gaps)
