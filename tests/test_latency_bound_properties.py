"""The worst-case latency bounds as properties of the simulator.

IRQ sources with d_min-sporadic arrivals on a two-partition TDMA
system, drawn at random: the slot length, the bottom-handler cost, the
subscribing partition, d_min and the gaps.  Whatever is drawn, no
simulated IRQ may take longer than its analysis allows:

* under ``NeverInterpose`` every IRQ is handled classically, so its
  latency is bounded by Eqs. 11/12 (:func:`classic_irq_latency`), also
  when a second source's top handlers interfere (the Σ_j term of
  Eq. 11);
* under ``AlwaysInterpose`` every foreign-slot IRQ opens a window, and
  the d_min-shaped stream is bounded by Eq. 16
  (:func:`interposed_irq_latency`);
* under ``MonitoredInterposing`` with a δ⁻ table of depth l > 1, a
  stream that conforms to the table is bounded by Eq. 16 for the
  table's event model, and any stream, with the IRQs the monitor
  denies, by the violated-mode bound (:func:`violated_irq_latency`).

A draw is skipped only when the analysis itself raises
``NotSchedulableError`` (an overloaded system has no bound to check).
"""

from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conftest import build_system, of_kind, run_system, us
from event_model_oracle import DeltaTableEventModel
from repro.analysis.busy_window import NotSchedulableError
from repro.analysis.event_models import sporadic
from repro.analysis.latency import (
    InterferingIrq,
    classic_irq_latency,
    interposed_irq_latency,
    violated_irq_latency,
)
from repro.core.monitor import DeltaMinusMonitor
from repro.core.policy import (
    AlwaysInterpose,
    MonitoredInterposing,
    NeverInterpose,
)
from repro.hypervisor.config import CostModel, HypervisorConfig, SlotConfig
from repro.hypervisor.hypervisor import Hypervisor
from repro.hypervisor.irq import IrqSource
from repro.hypervisor.partition import Partition
from repro.sim.timers import IntervalSequenceTimer
from repro.sim.trace import TraceKind

C_TH_US = 2.0
#: The interfering source's bottom handler, which runs in the other
#: partition and can defer a slot switch into the analysed one.
OTHER_C_BH_US = 5.0


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


@st.composite
def interfered_source(draw):
    """:func:`single_source` plus a second source on the other partition
    whose top handlers (C_TH 1-30 us, d_min 50-2000 us) interfere."""
    system = draw(single_source())
    dmin_us = draw(st.integers(min_value=50, max_value=2_000))
    system.update(
        other_dmin_us=dmin_us,
        other_gaps_us=draw(st.lists(
            st.one_of(st.just(dmin_us),
                      st.integers(min_value=dmin_us,
                                  max_value=2_000 + dmin_us)),
            min_size=1, max_size=10)),
        other_c_th_us=draw(st.integers(min_value=1, max_value=30)),
    )
    return system


@st.composite
def deep_table_source(draw):
    """:func:`single_source` plus a δ⁻ table of depth 2 or 3, and a
    second stream that conforms to the table: each arrival comes at the
    earliest time the table allows, or later by a random slack.

    The table's first entry is at least one interposed window
    (C'_TH + C'_BH), so a window always closes before the monitor can
    admit the next IRQ.
    """
    system = draw(single_source())
    costs = CostModel()
    window = (costs.effective_top_handler_cycles(us(C_TH_US))
              + costs.effective_bottom_handler_cycles(us(system["c_bh_us"])))
    first = draw(st.integers(min_value=-(-window // us(1)),
                             max_value=3_000))
    rest = draw(st.lists(st.integers(min_value=0, max_value=3_000),
                         min_size=1, max_size=2))
    table = [first]
    for step in rest:
        table.append(table[-1] + step)
    slacks = draw(st.lists(
        st.one_of(st.just(0), st.integers(min_value=1, max_value=3_000)),
        min_size=2, max_size=30))
    arrivals = [table[0] + slacks[0]]
    for slack in slacks[1:]:
        earliest = max(arrivals[-1 - k] + distance
                       for k, distance in enumerate(table[:len(arrivals)]))
        arrivals.append(earliest + slack)
    system.update(table_us=table,
                  conformant_gaps_us=[arrivals[0]] + [
                      b - a for a, b in zip(arrivals, arrivals[1:])])
    return system


def simulated_records(policy, system, gaps_us=None, trace=False):
    """Run the drawn system until every IRQ completed; its hypervisor
    and latency records."""
    gaps = [us(gap) for gap in (gaps_us or system["gaps_us"])]
    hv, timer = build_system(subscriber=system["subscriber"], policy=policy,
                             intervals=gaps, slot_us=system["slot_us"],
                             c_th_us=C_TH_US, c_bh_us=system["c_bh_us"],
                             trace=trace)
    run_system(hv, timer, len(gaps))
    records = hv.latency_columns.records()
    assert len(records) == len(gaps), "not every IRQ completed"
    return hv, records


def worst_simulated_latency(policy, system) -> int:
    """Run the drawn system to completion; its largest latency in cycles."""
    _, records = simulated_records(policy, system)
    return max(record.latency for record in records)


def worst_interfered_latency(system) -> int:
    """Run the drawn source "a" beside the interfering source "b", both
    classically handled, until every IRQ of "a" completed; the largest
    latency of "a" in cycles."""
    slot = us(system["slot_us"])
    hv = Hypervisor([SlotConfig("P1", slot), SlotConfig("P2", slot)],
                    HypervisorConfig(trace_enabled=False))
    for name in ("P1", "P2"):
        hv.add_partition(Partition(name))
    other = "P1" if system["subscriber"] == "P2" else "P2"
    gaps = [us(gap) for gap in system["gaps_us"]]
    # Repeat the interferer's pattern until it spans the analysed stream.
    pattern = [us(gap) for gap in system["other_gaps_us"]]
    other_gaps = list(pattern)
    while sum(other_gaps) < sum(gaps) + 2 * us(system["slot_us"]):
        other_gaps += pattern
    timers = []
    for name, line, subscriber, c_th, c_bh, intervals in (
            ("a", 5, system["subscriber"], us(C_TH_US),
             us(system["c_bh_us"]), gaps),
            ("b", 6, other, us(system["other_c_th_us"]), us(OTHER_C_BH_US),
             other_gaps)):
        source = hv.add_irq_source(IrqSource(
            name=name, line=line, subscriber=subscriber,
            top_handler_cycles=c_th, bottom_handler_cycles=c_bh,
            policy=NeverInterpose()))
        timer = IntervalSequenceTimer(hv.engine, hv.intc, line, intervals)
        source.on_top_handler = lambda event, timer=timer: timer.arm_next()
        timers.append(timer)
    hv.start()
    for timer in timers:
        timer.arm_next()
    hv.run_until_irq_count(len(gaps), source="a",
                           limit_cycles=hv.clock.s_to_cycles(10))
    latencies = [record.latency for record in hv.latency_columns.records()
                 if record.source == "a"]
    assert len(latencies) == len(gaps), "not every IRQ of a completed"
    return max(latencies)


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


@settings(max_examples=80, deadline=None)
@given(system=interfered_source())
# The other source's 5 us handler, running when its slot ends, defers
# the switch into the analysed slot: without the deferral term the
# simulated latency is 400 cycles above the bound.
@example(system={"dmin_us": 1319, "gaps_us": [1319, 1319, 3059],
                 "slot_us": 300.0, "c_bh_us": 5, "subscriber": "P1",
                 "other_dmin_us": 442, "other_gaps_us": [442],
                 "other_c_th_us": 17})
def test_classic_handling_with_an_interfering_source_meets_eq11(system):
    try:
        bound = classic_irq_latency(
            sporadic(us(system["dmin_us"])), us(C_TH_US),
            us(system["c_bh_us"]), tdma_cycle=2 * us(system["slot_us"]),
            slot_length=us(system["slot_us"]),
            interferers=[InterferingIrq(
                model=sporadic(us(system["other_dmin_us"])),
                top_handler_cycles=us(system["other_c_th_us"]),
                deferral_cycles=us(OTHER_C_BH_US))])
    except NotSchedulableError:
        reject()
    worst = worst_interfered_latency(system)
    assert worst <= bound.response_time_cycles, (
        f"classic with interferer: simulated {worst} cycles > Eq. 11 bound "
        f"{bound.response_time_cycles} for {system}")


@settings(max_examples=80, deadline=None)
@given(system=deep_table_source())
def test_monitored_deep_table_conformant_stream_meets_eq16(system):
    table = [us(distance) for distance in system["table_us"]]
    try:
        bound = interposed_irq_latency(
            DeltaTableEventModel(table), us(C_TH_US), us(system["c_bh_us"]))
    except NotSchedulableError:
        reject()
    hv, records = simulated_records(
        MonitoredInterposing(DeltaMinusMonitor(table)), system,
        gaps_us=system["conformant_gaps_us"])
    assert hv.stats.monitor_denies == hv.stats.structural_denials == 0
    worst = max(record.latency for record in records)
    assert worst <= bound.response_time_cycles, (
        f"monitored l={len(table)}: simulated {worst} cycles > Eq. 16 "
        f"bound {bound.response_time_cycles} for {system}")


@settings(max_examples=80, deadline=None)
@given(system=deep_table_source())
def test_monitored_deep_table_denied_irqs_meet_the_violated_bound(system):
    """Any d_min-sporadic stream against a deep table: the IRQs the
    monitor denies, and with them every other IRQ of the source, are
    bounded by delayed handling with C'_TH on every top handler."""
    table = [us(distance) for distance in system["table_us"]]
    try:
        bound = violated_irq_latency(
            sporadic(us(system["dmin_us"])), us(C_TH_US),
            us(system["c_bh_us"]), tdma_cycle=2 * us(system["slot_us"]),
            slot_length=us(system["slot_us"]))
    except NotSchedulableError:
        reject()
    hv, records = simulated_records(
        MonitoredInterposing(DeltaMinusMonitor(table)), system, trace=True)
    denied = {event.data["seq"]
              for event in of_kind(hv.trace, TraceKind.MONITOR_DENY)}
    for record in records:
        assert record.latency <= bound.response_time_cycles, (
            f"monitored l={len(table)}: IRQ {record.seq} "
            f"({'denied' if record.seq in denied else 'not denied'}) took "
            f"{record.latency} cycles > violated bound "
            f"{bound.response_time_cycles} for {system}")
