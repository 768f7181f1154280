"""Tests for the trace recorder."""

from conftest import of_kind
from repro.sim.trace import TraceKind, TraceRecorder


class TestRecording:
    def test_records_in_order(self):
        trace = TraceRecorder()
        trace.emit(10, TraceKind.IRQ_RAISED, line=1)
        trace.emit(20, TraceKind.SLOT_SWITCH)
        assert [event.time for event in trace] == [10, 20]

    def test_disabled_recorder_drops_everything(self):
        trace = TraceRecorder(enabled=False)
        trace.emit(10, TraceKind.IRQ_RAISED)
        assert len(trace) == 0

    def test_capacity_evicts_oldest(self):
        trace = TraceRecorder(capacity=2)
        for t in range(5):
            trace.emit(t, TraceKind.CUSTOM)
        assert len(trace) == 2
        assert trace.dropped == 3
        assert [event.time for event in trace] == [3, 4]

    def test_of_kind(self):
        trace = TraceRecorder()
        trace.emit(1, TraceKind.IRQ_RAISED)
        trace.emit(2, TraceKind.SLOT_SWITCH)
        trace.emit(3, TraceKind.IRQ_RAISED)
        raised = of_kind(trace, TraceKind.IRQ_RAISED)
        assert [event.time for event in raised] == [1, 3]

    def test_clear(self):
        trace = TraceRecorder()
        trace.emit(1, TraceKind.CUSTOM)
        trace.clear()
        assert len(trace) == 0

    def test_empty_recorder_is_falsy_but_usable(self):
        """A recorder with no events must still record (len-based
        truthiness caught a real bug in the interrupt controller)."""
        trace = TraceRecorder()
        assert len(trace) == 0
        trace.emit(1, TraceKind.CUSTOM)
        assert len(trace) == 1
