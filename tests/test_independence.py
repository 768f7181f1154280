"""Tests for interference accounting and sufficient temporal
independence (Eqs. 1, 2 and 14)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.independence import (
    DminInterferenceBound,
    InterferenceInterval,
    InterferenceKind,
    InterferenceLedger,
    verify_sufficient_independence,
)
from ledger_oracle import ListLedger


class TestInterval:
    def test_duration(self):
        interval = InterferenceInterval(10, 30, "P1", "irq", InterferenceKind.INTERPOSED_BH)
        assert interval.duration == 20

    def test_overlap(self):
        interval = InterferenceInterval(10, 30, "P1", "irq", InterferenceKind.INTERPOSED_BH)
        assert interval.overlap(0, 100) == 20
        assert interval.overlap(15, 25) == 10
        assert interval.overlap(0, 10) == 0
        assert interval.overlap(30, 50) == 0

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            InterferenceInterval(30, 10, "P1", "irq", InterferenceKind.OTHER)


class TestLedger:
    def make_ledger(self):
        ledger = InterferenceLedger()
        ledger.record(0, 10, "P1", "irq", InterferenceKind.INTERPOSED_BH)
        ledger.record(100, 130, "P1", "irq", InterferenceKind.INTERPOSED_BH)
        ledger.record(50, 60, "P2", "irq", InterferenceKind.INTERPOSED_BH)
        ledger.record(20, 25, "P1", "irq", InterferenceKind.TOP_HANDLER)
        return ledger

    def test_max_window(self):
        ledger = self.make_ledger()
        worst = ledger.max_window_interference(
            "P1", 40, (InterferenceKind.INTERPOSED_BH,)
        )
        assert worst == 30   # the [100,130) burst fits one window

    def test_max_window_spanning(self):
        ledger = self.make_ledger()
        worst = ledger.max_window_interference(
            "P1", 200, (InterferenceKind.INTERPOSED_BH,)
        )
        assert worst == 40

    def test_max_window_empty_victim(self):
        assert InterferenceLedger().max_window_interference("X", 100) == 0

    def test_max_window_invalid_width(self):
        with pytest.raises(ValueError):
            InterferenceLedger().max_window_interference("X", 0)


class TestDminBound:
    def test_eq14_values(self):
        bound = DminInterferenceBound(dmin=1000, c_bh_effective=150)
        assert bound.max_interference(0) == 0
        assert bound.max_interference(1) == 150
        assert bound.max_interference(1000) == 150
        assert bound.max_interference(1001) == 300
        assert bound.max_interference(5000) == 5 * 150

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DminInterferenceBound(0, 100)
        with pytest.raises(ValueError):
            DminInterferenceBound(100, -1)


class TestVerification:
    def test_holds_for_shaped_stream(self):
        ledger = InterferenceLedger()
        # interposed executions exactly every dmin=1000, 150 each
        for k in range(10):
            ledger.record(k * 1000, k * 1000 + 150, "P1", "irq",
                          InterferenceKind.INTERPOSED_BH)
        bound = DminInterferenceBound(1000, 150)
        report = verify_sufficient_independence(
            ledger, "P1", bound.max_interference, [500, 1000, 3000, 10000]
        )
        assert report.holds
        assert report.worst_ratio() <= 1.0

    def test_detects_violation(self):
        ledger = InterferenceLedger()
        # two full executions only 100 apart: breaks dmin=1000 budget
        ledger.record(0, 150, "P1", "irq", InterferenceKind.INTERPOSED_BH)
        ledger.record(200, 350, "P1", "irq", InterferenceKind.INTERPOSED_BH)
        bound = DminInterferenceBound(1000, 150)
        report = verify_sufficient_independence(
            ledger, "P1", bound.max_interference, [400]
        )
        assert not report.holds
        assert report.worst_ratio() > 1.0


def brute_force_max_window(intervals, width):
    """O(n * candidates) reference implementation."""
    candidates = set()
    for start, end in intervals:
        candidates.add(start)
        candidates.add(max(0, end - width))
    best = 0
    for s in candidates:
        total = sum(max(0, min(end, s + width) - max(start, s))
                    for start, end in intervals)
        best = max(best, total)
    return best


@settings(max_examples=200, deadline=None)
@given(
    raw=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10_000),
                  st.integers(min_value=1, max_value=500)),
        min_size=1, max_size=40,
    ),
    width=st.integers(min_value=1, max_value=5_000),
)
def test_property_max_window_matches_brute_force(raw, width):
    """The prefix-sum sliding-window maximum equals the brute force."""
    intervals = [(start, start + length) for start, length in raw]
    ledger = InterferenceLedger()
    for start, end in intervals:
        ledger.record(start, end, "P", "irq", InterferenceKind.INTERPOSED_BH)
    assert (ledger.max_window_interference("P", width)
            == brute_force_max_window(intervals, width))


@settings(max_examples=100, deadline=None)
@given(
    dmin=st.integers(min_value=10, max_value=2_000),
    cost=st.integers(min_value=1, max_value=500),
    width=st.integers(min_value=1, max_value=50_000),
)
def test_property_eq14_monotone_and_superlinear(dmin, cost, width):
    bound = DminInterferenceBound(dmin, cost)
    assert bound.max_interference(width) >= bound.max_interference(max(0, width - 1))
    # never below the fluid rate
    assert bound.max_interference(width) >= math.floor(width / dmin) * cost


_VICTIMS = ("P1", "P2", "HK")
_KIND_SETS = st.one_of(
    st.none(), st.sets(st.sampled_from(list(InterferenceKind))))


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(0, 500),
                  st.sampled_from(_VICTIMS), st.sampled_from(("irq0", "irq1")),
                  st.sampled_from(list(InterferenceKind))),
        max_size=30,
    ),
    victim=st.sampled_from(_VICTIMS),
    kinds=_KIND_SETS,
    width=st.integers(1, 5_000),
)
def test_columnar_ledger_matches_the_interval_list_oracle(
        rows, victim, kinds, width):
    """Every reader of the columnar ledger equals the object-list oracle."""
    ledger, oracle = InterferenceLedger(), ListLedger()
    for start, length, name, source, kind in rows:
        ledger.record(start, start + length, name, source, kind)
        oracle.record(start, start + length, name, source, kind)
    assert ledger.intervals == oracle.intervals
    assert (ledger.max_window_interference(victim, width, kinds)
            == oracle.max_window_interference(victim, width, kinds))
    state = ledger.snapshot_state()
    assert state == oracle.snapshot_state()
    restored = InterferenceLedger()
    restored.restore_state(state)
    assert restored.snapshot_state() == state
    assert restored.intervals == oracle.intervals


def test_record_rejects_an_interval_that_ends_before_it_starts():
    ledger = InterferenceLedger()
    ledger.record(5, 5, "P1", "irq", InterferenceKind.MONITOR)
    with pytest.raises(ValueError, match="before start"):
        ledger.record(10, 9, "P1", "irq", InterferenceKind.INTERPOSED_BH)
    assert ledger.snapshot_state() == [(5, 5, "P1", "irq", "monitor")]
