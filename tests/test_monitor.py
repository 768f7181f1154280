"""Tests for the δ⁻ activation monitor (Section 5 / RTSS'12 mechanism)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import DeltaMinusMonitor, normalize_delta_table


def verify_accepted_stream(times, table):
    """Offline oracle: does an accepted-event stream satisfy a δ⁻ table?

    For every pair of events ``q`` apart (``q <= l``), their distance
    must be at least ``table[q-1]``.
    """
    normalized = normalize_delta_table(table)
    stream = list(times)
    for i in range(len(stream)):
        for k in range(len(normalized)):
            j = i - (k + 1)
            if j < 0:
                break
            if stream[i] - stream[j] < normalized[k]:
                return False
    return True


class TestNormalization:
    def test_already_monotone_unchanged(self):
        assert normalize_delta_table([10, 20, 30]) == [10, 20, 30]

    def test_non_monotone_raised_to_running_max(self):
        assert normalize_delta_table([10, 5, 30, 20]) == [10, 10, 30, 30]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_delta_table([10, -1])

    def test_empty_is_empty(self):
        assert normalize_delta_table([]) == []


class TestDminMonitor:
    def test_first_event_always_accepted(self):
        monitor = DeltaMinusMonitor.from_dmin(1000)
        assert monitor.check_and_accept(12345)

    def test_dmin_violation_denied(self):
        monitor = DeltaMinusMonitor.from_dmin(1000)
        monitor.check_and_accept(0)
        assert not monitor.check_and_accept(999)

    def test_exact_dmin_accepted(self):
        monitor = DeltaMinusMonitor.from_dmin(1000)
        monitor.check_and_accept(0)
        assert monitor.check_and_accept(1000)

    def test_denied_event_not_recorded(self):
        """Acceptance is relative to the *accepted* history: a denied
        event does not push the window."""
        monitor = DeltaMinusMonitor.from_dmin(1000)
        monitor.check_and_accept(0)
        assert not monitor.check_and_accept(500)
        # 1000 after the last *accepted* event (t=0), not after t=500.
        assert monitor.check_and_accept(1000)

    def test_counters(self):
        monitor = DeltaMinusMonitor.from_dmin(1000)
        monitor.check_and_accept(0)
        monitor.check_and_accept(500)
        monitor.check_and_accept(1500)
        assert monitor.accepted_count == 2
        assert monitor.denied_count == 1

    def test_permits_does_not_mutate(self):
        monitor = DeltaMinusMonitor.from_dmin(1000)
        monitor.check_and_accept(0)
        assert monitor.permits(2000)
        assert monitor.permits(2000)
        assert monitor.accepted_count == 1

    def test_non_monotone_time_rejected(self):
        monitor = DeltaMinusMonitor.from_dmin(1000)
        monitor.check_and_accept(5000)
        with pytest.raises(ValueError):
            monitor.permits(4000)

    def test_reset(self):
        monitor = DeltaMinusMonitor.from_dmin(1000)
        monitor.check_and_accept(0)
        monitor.reset()
        assert monitor.accepted_count == 0
        assert monitor.check_and_accept(1)   # history cleared


class TestDeepTable:
    def test_depth_two_constraint(self):
        # consecutive >= 100, two-apart >= 500
        monitor = DeltaMinusMonitor([100, 500])
        assert monitor.check_and_accept(0)
        assert monitor.check_and_accept(100)
        # 200 is >= 100 after the last, but only 200 after the
        # second-to-last (< 500): denied.
        assert not monitor.check_and_accept(200)
        assert monitor.check_and_accept(500)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            DeltaMinusMonitor([])


class TestVerifyAcceptedStream:
    def test_conformant_stream(self):
        assert verify_accepted_stream([0, 100, 250, 400], [100])

    def test_violating_stream(self):
        assert not verify_accepted_stream([0, 100, 150], [100])

    def test_deep_violation(self):
        # consecutive ok (>=100) but 2-apart span 300 < 500
        assert not verify_accepted_stream([0, 150, 300], [100, 500])


@settings(max_examples=200, deadline=None)
@given(
    gaps=st.lists(st.integers(min_value=0, max_value=5_000),
                  min_size=1, max_size=80),
    table=st.lists(st.integers(min_value=1, max_value=3_000),
                   min_size=1, max_size=5),
)
def test_property_accepted_stream_always_conformant(gaps, table):
    """Whatever arrives, the accepted sub-stream satisfies the δ⁻ table.

    This is the load-bearing property behind Eq. 14: the monitor's
    output stream is shaped, so the interference it can inject is
    bounded regardless of the input pattern.
    """
    monitor = DeltaMinusMonitor(table)
    time = 0
    accepted = []
    for gap in gaps:
        time += gap
        if monitor.check_and_accept(time):
            accepted.append(time)
    assert verify_accepted_stream(accepted, table)


@settings(max_examples=100, deadline=None)
@given(
    gaps=st.lists(st.integers(min_value=0, max_value=2_000),
                  min_size=1, max_size=60),
    dmin=st.integers(min_value=1, max_value=1_500),
)
def test_property_eta_plus_of_accepted_stream(gaps, dmin):
    """At most ceil(dt/dmin) accepted events fall in any window dt."""
    import math

    monitor = DeltaMinusMonitor.from_dmin(dmin)
    time = 0
    accepted = []
    for gap in gaps:
        time += gap
        if monitor.check_and_accept(time):
            accepted.append(time)
    for i in range(len(accepted)):
        for j in range(i, len(accepted)):
            window = accepted[j] - accepted[i] + 1
            count = j - i + 1
            assert count <= math.ceil(window / dmin)
