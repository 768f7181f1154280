"""Tests for the TDMA scheduler (static table + nominal grid)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypervisor.config import SlotConfig
from repro.hypervisor.scheduler import TdmaScheduler


def paper_table():
    return [SlotConfig("P1", 6_000), SlotConfig("P2", 6_000),
            SlotConfig("HK", 2_000)]


class TestStaticQueries:
    def test_cycle_length(self):
        assert TdmaScheduler(paper_table()).cycle_length == 14_000

    def test_partitions(self):
        assert TdmaScheduler(paper_table()).partitions() == ["P1", "P2", "HK"]

    def test_owner_at(self):
        scheduler = TdmaScheduler(paper_table())
        owner_at = lambda time: scheduler.nominal_slot_at(time)[0]
        assert owner_at(0) == "P1"
        assert owner_at(5_999) == "P1"
        assert owner_at(6_000) == "P2"
        assert owner_at(12_000) == "HK"
        assert owner_at(14_000) == "P1"    # wraps
        assert owner_at(20_000) == "P2"

    def test_next_nominal_boundary_after(self):
        scheduler = TdmaScheduler(paper_table())
        boundary_after = lambda time: scheduler.nominal_slot_at(time)[2]
        assert boundary_after(0) == 6_000
        assert boundary_after(5_999) == 6_000
        assert boundary_after(6_000) == 12_000
        assert boundary_after(13_999) == 14_000
        assert boundary_after(14_000) == 20_000

    def test_nominal_slot_at_windows(self):
        scheduler = TdmaScheduler(paper_table())
        assert scheduler.nominal_slot_at(0) == ("P1", 0, 6_000)
        assert scheduler.nominal_slot_at(13_999) == ("HK", 12_000, 14_000)
        assert scheduler.nominal_slot_at(20_000) == ("P2", 20_000, 26_000)
        assert scheduler.nominal_slot_at(6_000) == ("P2", 6_000, 12_000)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            TdmaScheduler([])

    def test_zero_length_slot_rejected(self):
        with pytest.raises(ValueError):
            SlotConfig("P1", 0)


class TestRuntime:
    def test_start_returns_first_boundary(self):
        scheduler = TdmaScheduler(paper_table())
        assert scheduler.start(0) == 6_000
        assert scheduler.current_owner == "P1"

    def test_advance_cycles_through_table(self):
        scheduler = TdmaScheduler(paper_table())
        scheduler.start(0)
        assert scheduler.advance().partition == "P2"
        assert scheduler.next_boundary() == 12_000
        assert scheduler.advance().partition == "HK"
        assert scheduler.advance().partition == "P1"
        assert scheduler.next_boundary() == 20_000

    def test_advance_before_start_rejected(self):
        with pytest.raises(RuntimeError):
            TdmaScheduler(paper_table()).advance()

    def test_nonzero_epoch(self):
        scheduler = TdmaScheduler(paper_table())
        scheduler.start(1_000)
        assert scheduler.next_boundary() == 7_000
        assert scheduler.nominal_slot_at(1_000)[0] == "P1"
        assert scheduler.nominal_slot_at(7_000)[0] == "P2"
        assert scheduler.nominal_slot_at(7_000)[2] == 13_000

    def test_time_before_epoch_rejected(self):
        scheduler = TdmaScheduler(paper_table())
        scheduler.start(1_000)
        with pytest.raises(ValueError):
            scheduler.nominal_slot_at(500)

    def test_late_delivery_skips_slots(self):
        scheduler = TdmaScheduler(paper_table())
        scheduler.start(0)
        # Delivery so late that P2's whole nominal slot already passed.
        slot = scheduler.advance(now=12_500)
        assert slot.partition == "HK"
        assert scheduler.slots_skipped == 1
        assert scheduler.next_boundary() == 14_000

    def test_normal_advance_skips_nothing(self):
        scheduler = TdmaScheduler(paper_table())
        scheduler.start(0)
        scheduler.advance(now=6_010)
        assert scheduler.slots_skipped == 0


@settings(max_examples=100, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=1, max_value=1_000),
                     min_size=1, max_size=6),
    time=st.integers(min_value=0, max_value=100_000),
)
def test_property_owner_and_boundary_consistent(lengths, time):
    """The owner is constant within [t, next boundary) and changes at it
    (modulo repeated partitions in adjacent slots)."""
    slots = [SlotConfig(f"P{i}", length) for i, length in enumerate(lengths)]
    scheduler = TdmaScheduler(slots)
    owner, _, boundary = scheduler.nominal_slot_at(time)
    assert boundary > time
    assert owner == scheduler.nominal_slot_at(boundary - 1)[0]
    # boundary - time never exceeds the longest slot
    assert boundary - time <= max(lengths)


def brute_force_slot(lengths, epoch, time):
    """Walk the table slot by slot from the epoch until ``time``."""
    start = epoch
    index = 0
    while start + lengths[index] <= time:
        start += lengths[index]
        index = (index + 1) % len(lengths)
    return f"P{index}", start, start + lengths[index]


@st.composite
def slot_queries(draw):
    """A table, an epoch and times on, next to and far from boundaries."""
    lengths = draw(st.lists(st.integers(min_value=1, max_value=50),
                            min_size=1, max_size=6))
    epoch = draw(st.integers(min_value=0, max_value=1_000))
    cycle = sum(lengths)
    boundaries = [epoch]
    for wrap in range(3):
        for length in lengths:
            boundaries.append(boundaries[-1] + length)
    near = st.builds(lambda boundary, offset: max(epoch, boundary + offset),
                     st.sampled_from(boundaries),
                     st.integers(min_value=-1, max_value=1))
    far = st.integers(min_value=epoch, max_value=epoch + 40 * cycle)
    times = draw(st.lists(st.one_of(near, far), min_size=1, max_size=30))
    return lengths, epoch, times


@settings(max_examples=200, deadline=None)
@given(query=slot_queries())
def test_property_nominal_slot_matches_a_table_walk(query):
    """Every answer equals a brute-force walk of the table."""
    lengths, epoch, times = query
    scheduler = TdmaScheduler(
        [SlotConfig(f"P{i}", length) for i, length in enumerate(lengths)])
    scheduler.start(epoch)
    for time in times:
        assert scheduler.nominal_slot_at(time) == brute_force_slot(
            lengths, epoch, time)
