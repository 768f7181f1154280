"""Cross-validation: the simulated system's *interposed windows*
conform to the event model the analysis assumes.

The Eq. 14/Eq. 16 analyses model the monitor's output as a stream with
minimum distance d_min.  The monitor shapes *window openings* (one per
accepted activation); the events completed inside a window also include
older queue-drained IRQs whose arrivals may be closer together — that
is FIFO draining, not a shaping violation.  These tests therefore
extract window openings from the interference ledger and check them
against the analytic model.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_system, run_system, us
from ledger_oracle import ListLedger
from repro.analysis.event_models import TraceEventModel, sporadic
from repro.core.independence import InterferenceKind
from repro.core.monitor import DeltaMinusMonitor
from repro.core.policy import MonitoredInterposing

#: Window openings start C_sched + C_ctx after the monitor decision,
#: and the decision itself can lag the accepted timestamp by the
#: masked top-handler section; consecutive openings can therefore
#: compress below d_min by at most this many cycles.
ENTRY_SLACK = us(2) + 128 + 877 + 10_000


def interposed_window_starts(hv, victim="P1", cluster_gap=None):
    """Start times of interposed windows, reconstructed from the ledger.

    A window's entry overhead, bottom-handler stints and exit switch
    are separated at most by preempting top-handler sections, so
    intervals closer than ``cluster_gap`` belong to the same window.
    """
    if cluster_gap is None:
        cluster_gap = us(100)   # far below any d_min used here
    intervals = sorted(
        ListLedger.of(hv.ledger).for_victim(
            victim, (InterferenceKind.INTERPOSED_BH,)),
        key=lambda iv: iv.start,
    )
    starts = []
    previous_end = None
    for interval in intervals:
        if previous_end is None or interval.start - previous_end > cluster_gap:
            starts.append(interval.start)
        previous_end = max(previous_end or 0, interval.end)
    return starts


class TestWindowOpeningConformance:
    def run(self, dmin_us=700):
        dmin = us(dmin_us)
        policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(dmin))
        gaps = [us(g % 900 + 50) for g in range(0, 40_000, 531)]
        hv, timer = build_system(subscriber="P2", policy=policy,
                                 intervals=gaps, trace=False)
        run_system(hv, timer, len(gaps))
        return hv, dmin

    def test_window_openings_respect_dmin(self):
        hv, dmin = self.run()
        starts = interposed_window_starts(hv)
        assert len(starts) >= 5
        for a, b in zip(starts, starts[1:]):
            assert b - a >= dmin - ENTRY_SLACK

    def test_window_openings_within_sporadic_model(self):
        hv, dmin = self.run()
        starts = interposed_window_starts(hv)
        empirical = TraceEventModel(starts)
        analytic = sporadic(dmin - ENTRY_SLACK)
        for q in range(2, min(12, len(starts) + 1)):
            assert empirical.delta_minus(q) >= analytic.delta_minus(q)

    def test_drained_events_may_arrive_closer_than_dmin(self):
        """Documented behaviour: an event denied by the monitor can
        still *complete* inside a later window (FIFO draining), so the
        arrival stream of interposed-completed events is denser than
        the window-opening stream."""
        hv, dmin = self.run()
        completed_arrivals = sorted(
            record.arrival for record in hv.latency_records
            if record.mode.value == "interposed"
        )
        window_count = len(interposed_window_starts(hv))
        assert len(completed_arrivals) >= window_count


@settings(max_examples=10, deadline=None)
@given(
    dmin_us=st.integers(min_value=300, max_value=1_500),
    seed_step=st.integers(min_value=31, max_value=977),
)
def test_property_window_spacing_respects_dmin(dmin_us, seed_step):
    """Consecutive interposed windows start at least d_min minus the
    bounded entry slack apart, for randomized arrival patterns."""
    dmin = us(dmin_us)
    policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(dmin))
    gaps = [us(g % 1_100 + 20) for g in range(0, 20_000, seed_step)]
    hv, timer = build_system(subscriber="P2", policy=policy,
                             intervals=gaps, trace=False)
    run_system(hv, timer, len(gaps))
    starts = interposed_window_starts(hv)
    for a, b in zip(starts, starts[1:]):
        assert b - a >= dmin - ENTRY_SLACK
