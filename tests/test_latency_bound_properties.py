"""The worst-case latency bounds as properties of the simulator.

One IRQ source with d_min-sporadic arrivals on a two-partition TDMA
system, drawn at random: the slot length, the bottom-handler cost, the
subscribing partition, d_min and the gaps.  Whatever is drawn, no
simulated IRQ may take longer than its analysis allows:

* under ``NeverInterpose`` every IRQ is handled classically, so its
  latency is bounded by Eqs. 11/12 (:func:`classic_irq_latency`);
* under ``AlwaysInterpose`` every foreign-slot IRQ opens a window, and
  the d_min-shaped stream is bounded by Eq. 16
  (:func:`interposed_irq_latency`).

A draw is skipped only when the analysis itself raises
``NotSchedulableError`` (an overloaded system has no bound to check).
"""

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import build_system, run_system, us
from repro.analysis.busy_window import NotSchedulableError
from repro.analysis.event_models import sporadic
from repro.analysis.latency import classic_irq_latency, interposed_irq_latency
from repro.core.policy import AlwaysInterpose, NeverInterpose

C_TH_US = 2.0


@st.composite
def single_source(draw):
    """A d_min and a stream of at least 2 gaps no shorter than it: the
    gaps are d_min itself (the densest legal stream) or d_min plus a
    random slack."""
    dmin_us = draw(st.integers(min_value=50, max_value=3_000))
    gaps_us = draw(st.lists(
        st.one_of(st.just(dmin_us),
                  st.integers(min_value=dmin_us, max_value=3_000 + dmin_us)),
        min_size=2, max_size=30))
    return dict(
        dmin_us=dmin_us,
        gaps_us=gaps_us,
        slot_us=draw(st.sampled_from((300.0, 500.0, 1_000.0))),
        c_bh_us=draw(st.integers(min_value=5, max_value=200)),
        subscriber=draw(st.sampled_from(("P1", "P2"))),
    )


def worst_simulated_latency(policy, system) -> int:
    """Run the drawn system to completion; its largest latency in cycles."""
    gaps = [us(gap) for gap in system["gaps_us"]]
    hv, timer = build_system(subscriber=system["subscriber"], policy=policy,
                             intervals=gaps, slot_us=system["slot_us"],
                             c_th_us=C_TH_US, c_bh_us=system["c_bh_us"],
                             trace=False)
    run_system(hv, timer, len(gaps))
    records = hv.latency_columns.records()
    assert len(records) == len(gaps), "not every IRQ completed"
    return max(record.latency for record in records)


@settings(max_examples=80, deadline=None)
@given(system=single_source())
def test_classic_handling_meets_eq11_12(system):
    try:
        bound = classic_irq_latency(
            sporadic(us(system["dmin_us"])), us(C_TH_US),
            us(system["c_bh_us"]), tdma_cycle=2 * us(system["slot_us"]),
            slot_length=us(system["slot_us"]))
    except NotSchedulableError:
        reject()
    worst = worst_simulated_latency(NeverInterpose(), system)
    assert worst <= bound.response_time_cycles, (
        f"classic: simulated {worst} cycles > Eq. 11/12 bound "
        f"{bound.response_time_cycles} for {system}")


@settings(max_examples=80, deadline=None)
@given(system=single_source())
def test_interposed_handling_meets_eq16(system):
    try:
        bound = interposed_irq_latency(
            sporadic(us(system["dmin_us"])), us(C_TH_US),
            us(system["c_bh_us"]))
    except NotSchedulableError:
        reject()
    worst = worst_simulated_latency(AlwaysInterpose(), system)
    assert worst <= bound.response_time_cycles, (
        f"interposed: simulated {worst} cycles > Eq. 16 bound "
        f"{bound.response_time_cycles} for {system}")
