"""Discrete-event simulation engine.

A minimal, deterministic event-driven kernel: timestamped callbacks
with stable FIFO ordering for simultaneous events, lazy cancellation,
and bounded-run helpers.  All timestamps are integer CPU cycles (see
:mod:`repro.sim.clock`).

The engine is deliberately free of any domain knowledge; the
hypervisor, timers and interrupt controller are built on top of it.

The dispatch loop is the hottest code in the whole reproduction —
every simulated IRQ costs a dozen engine events — so pending events
live in a binary heap of ``(time, seq, callback, handle)`` tuples:
every sift comparison is a C-level tuple compare, the callback rides
in the entry so dispatch needs no attribute load, and lazily-cancelled
entries are compacted away when they outnumber live ones.  The
ordering contract — ``(time, seq)`` FIFO — is pinned against a sorted
reference list in ``tests/test_engine_oracle.py``.

The cheapest event is one that never enters the queue: a caller about
to schedule a continuation as its last action asks
:meth:`SimulationEngine.inline_continuation` first.  Inside an
unbounded ``run()``/``run_until()`` dispatch, with no stop requested,
within the ``run_until`` bound and with every queued entry (cancelled
ones and stop sentinels included) strictly later than the
continuation, the answer is yes and the caller runs it in place; the
clock, ``seq``, executed and batch counters move as if it had been
dispatched.  The hypervisor uses this for the five steps of its masked
sections; CPU completions and device timers always go through the
queue (their callers do more work after scheduling, or keep a
cancellable handle).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.events import EventHandle

#: Minimum number of dead (lazily-cancelled) queue entries before a
#: compaction is considered.  Below this floor the dead entries are
#: cheaper to skip during dispatch than to filter out.
COMPACTION_FLOOR = 64

#: Spans recorded for trace export; a cap so a pathological run cannot
#: grow the diagnostic log without bound.
SKIP_SPAN_LOG_CAP = 4096


class SimulationError(RuntimeError):
    """Raised for invalid use of the simulation engine."""


class SimulationEngine:
    """Deterministic discrete-event simulation core.

    Events scheduled for the same timestamp fire in scheduling order
    (stable FIFO), which makes simulations reproducible regardless of
    queue internals: the unique, monotonically increasing ``seq``
    attached to each event breaks timestamp ties.
    """

    __slots__ = ("_heap", "now", "_seq", "_events_executed", "_running",
                 "_stop_requested", "_pending", "_cancelled_count",
                 "_compactions", "_sentinel_seq", "_dispatch_batches",
                 "_skip_allowed", "_run_bound", "_inline_time",
                 "_skip_spans", "_skipped_events", "_skipped_cycles",
                 "_skip_span_log")

    def __init__(self):
        # Entries are (time, seq, callback, handle): the callback is
        # duplicated into the tuple so the dispatch loop never loads it
        # off the handle, and (time, seq) uniqueness guarantees the
        # trailing elements are never compared during sifts.
        self._heap: list[tuple] = []
        # Current simulation time in cycles.  A plain attribute, not a
        # property, because the model reads it on every step; only the
        # engine writes it.
        self.now: int = 0
        self._seq: int = 0
        self._events_executed: int = 0
        self._running = False
        self._stop_requested = False
        self._pending: int = 0
        self._cancelled_count: int = 0
        self._compactions: int = 0
        # Number of distinct-timestamp batches the dispatch loops have
        # drained; with same-cycle batch dispatch the clock is written
        # once per batch, not once per event.
        self._dispatch_batches: int = 0
        # Sentinel events (schedule_stop_at) use negative sequence
        # numbers so they never consume — or perturb — the FIFO
        # tie-break sequence of ordinary events.
        self._sentinel_seq: int = -1
        # Idle-skip protocol state.  ``_skip_allowed`` is raised only
        # inside an unbounded run()/run_until() dispatch loop (never in
        # step() or a max_events-bounded run, where the caller observes
        # individual events); ``_run_bound`` is the run_until horizon.
        # The skip counters feed telemetry only; they are not part of
        # snapshot digests (spans are a diagnostic, like
        # ``compactions``).
        self._skip_allowed = False
        self._run_bound: Optional[int] = None
        # Timestamp of the last batch opened by an inlined continuation
        # (see inline_continuation); the run loops do not count that
        # batch a second time when they pop an event at it.
        self._inline_time: int = -1
        self._skip_spans: int = 0
        self._skipped_events: int = 0
        self._skipped_cycles: int = 0
        self._skip_span_log: list[tuple[int, int, int]] = []

    # ------------------------------------------------------------------
    # Counters and introspection
    # ------------------------------------------------------------------

    @property
    def events_executed(self) -> int:
        """Total number of event callbacks executed so far."""
        return self._events_executed

    @property
    def events_scheduled(self) -> int:
        """Total number of events ever scheduled (fired or not)."""
        return self._seq

    @property
    def events_cancelled(self) -> int:
        """Total number of events cancelled before firing.

        Maintained by :meth:`~repro.sim.events.EventHandle.cancel` via
        the :meth:`_event_cancelled` hook; the telemetry collectors
        sample this (and the other live counters) after a run, so the
        dispatch loop itself carries no instrumentation cost.
        """
        return self._cancelled_count

    @property
    def heap_depth(self) -> int:
        """Stored heap entries, including lazily-cancelled dead ones."""
        return len(self._heap)

    @property
    def compactions(self) -> int:
        """Number of queue compactions performed (dead-entry rebuilds)."""
        return self._compactions

    @property
    def dispatch_batches(self) -> int:
        """Distinct-timestamp batches drained by the dispatch loops.

        Events sharing a timestamp are dispatched as one batch with a
        single clock write; ``events_executed / dispatch_batches`` is
        the average same-cycle batch size.
        """
        return self._dispatch_batches

    @property
    def pending_events(self) -> int:
        """Number of scheduled-but-not-yet-fired events (excluding cancelled).

        Maintained as an exact live counter (O(1)); the queue itself
        may still contain lazily-cancelled entries awaiting removal.
        """
        return self._pending

    # ------------------------------------------------------------------
    # Idle-skip protocol (analytic fast-forward across quiescent gaps)
    # ------------------------------------------------------------------
    #
    # The engine does not decide *when* to skip — quiescence is domain
    # knowledge, owned by the hypervisor — it only provides the window
    # in which a skip is sound and the accounting to make the skipped
    # execution byte-identical to the tick-by-tick one:
    #
    # * ``skip_window()`` tells the in-flight callback whether it may
    #   advance the clock itself (only from an unbounded run()/
    #   run_until() loop) and up to what bound;
    # * ``peek_next_time()`` is the skip horizon: no analytic span may
    #   reach the next pending queue event;
    # * ``fast_forward()`` applies the aggregate effect of the elided
    #   events — clock, seq counter and executed count move exactly as
    #   if each event had been scheduled and dispatched.

    @property
    def skip_spans(self) -> int:
        """Number of quiescent gaps crossed analytically."""
        return self._skip_spans

    @property
    def skipped_events(self) -> int:
        """Events elided (accounted analytically instead of dispatched)."""
        return self._skipped_events

    @property
    def skipped_cycles(self) -> int:
        """Simulated cycles crossed by fast-forwards."""
        return self._skipped_cycles

    @property
    def skip_span_log(self) -> list[tuple[int, int, int]]:
        """Recorded ``(start, end, events_elided)`` spans (capped)."""
        return list(self._skip_span_log)

    def skip_window(self) -> tuple[bool, Optional[int]]:
        """``(allowed, bound)`` for a skip decision at the current dispatch.

        ``allowed`` is True only while an unbounded ``run()`` or a
        ``run_until()`` loop is dispatching; ``bound`` is the
        ``run_until`` horizon (None for ``run()``).
        """
        return (self._skip_allowed, self._run_bound)

    def fast_forward(self, now: int, elided_events: int) -> None:
        """Apply the aggregate accounting of an analytically skipped span.

        The caller has reproduced every *observable* side effect of the
        ``elided_events`` events it did not dispatch; this moves the
        clock to ``now`` and advances the seq/executed counters by
        exactly what those events would have consumed, so every later
        event keeps its tick-by-tick ``(time, seq)`` identity.
        """
        if now < self.now:
            raise SimulationError(
                f"cannot fast-forward backwards (t={now}, now={self.now})"
            )
        if elided_events < 0:
            raise SimulationError(
                f"elided event count must be >= 0, got {elided_events}"
            )
        self._skip_spans += 1
        self._skipped_events += elided_events
        self._skipped_cycles += now - self.now
        if len(self._skip_span_log) < SKIP_SPAN_LOG_CAP:
            self._skip_span_log.append((self.now, now, elided_events))
        self.now = now
        self._seq += elided_events
        self._events_executed += elided_events

    def inline_continuation(self, delay: int) -> bool:
        """May the caller run its ``delay``-cycle continuation right now?

        A caller about to :meth:`schedule` a continuation as the very
        last thing it does before control returns to the run loop asks
        this first.  The answer is True only when the event would be
        the next one dispatched: inside an unbounded ``run()`` or
        ``run_until()`` dispatch (the skip window), with no stop
        requested, at or before the ``run_until`` bound, and with every
        queued entry — cancelled ones and stop sentinels included —
        strictly later than ``now + delay``.  Then the clock, the seq
        counter, the executed count and the batch count move exactly as
        if the event had been scheduled and dispatched, and the caller
        runs the continuation itself.  On False nothing changes and the
        caller schedules as usual (which also rejects a negative delay).
        """
        if not self._skip_allowed or self._stop_requested or delay < 0:
            return False
        now = self.now
        time = now + delay
        bound = self._run_bound
        if bound is not None and time > bound:
            return False
        heap = self._heap
        if heap and heap[0][0] <= time:
            return False
        if time != now:
            self.now = time
            self._inline_time = time
            self._dispatch_batches += 1
        self._seq += 1
        self._events_executed += 1
        return True

    # -- scheduling (hot) ----------------------------------------------

    def schedule(self, delay: int, callback: Callable[[], Any],
                 label: Optional[str] = None, *,
                 _push=heappush, _new=EventHandle.__new__, _cls=EventHandle) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        # Allocate the handle without a Python-level __init__ call.
        handle = _new(_cls)
        handle.time = time
        handle.seq = seq
        handle.callback = callback
        handle.label = label
        handle._cancelled = False
        handle._fired = False
        handle._engine = self
        self._pending += 1
        _push(self._heap, (time, seq, callback, handle))
        return handle

    def schedule_at(self, time: int, callback: Callable[[], Any],
                    label: Optional[str] = None, *,
                    _push=heappush, _new=EventHandle.__new__, _cls=EventHandle) -> EventHandle:
        """Schedule ``callback`` to run at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule an event in the past (t={time}, now={self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = _new(_cls)
        handle.time = time
        handle.seq = seq
        handle.callback = callback
        handle.label = label
        handle._cancelled = False
        handle._fired = False
        handle._engine = self
        self._pending += 1
        _push(self._heap, (time, seq, callback, handle))
        return handle

    def _insert_entry(self, time: int, seq: int, callback: Callable[[], Any],
                      handle: EventHandle) -> None:
        """Insert a fully-built entry into the heap.

        Cold path shared by :meth:`schedule_stop_at` (negative seqs)
        and :meth:`restore_event` (original seqs out of arrival order);
        the heap orders out-of-order sequence numbers like any other.
        """
        heappush(self._heap, (time, seq, callback, handle))

    # -- cancellation / compaction -------------------------------------

    def _event_cancelled(self) -> None:
        """Account a cancellation (called by :meth:`EventHandle.cancel`)."""
        pending = self._pending - 1
        self._pending = pending
        self._cancelled_count += 1
        # Compact when dead entries outnumber both the floor and the
        # live count.  Triggering at cancel time keeps the accounting
        # exact and keeps the check off the schedule hot path.
        dead = len(self._heap) - pending
        if dead > COMPACTION_FLOOR and dead > pending:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without lazily-cancelled dead entries.

        Mutates the heap list *in place* — the run loops hold a local
        alias to it — and preserves every live entry exactly, so event
        ordering (and therefore simulation output) is unchanged.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3]._cancelled]
        heapify(heap)
        self._compactions += 1

    def discard_pending(self) -> None:
        """Drop every pending event, and the callbacks it holds.

        For a finished run whose owner wants its objects freed: a
        pending callback bound to the owner keeps it alive in a cycle.
        """
        self._heap.clear()
        self._pending = 0

    # -- dispatch (hot) ------------------------------------------------

    def run(self, max_events: Optional[int] = None, *, _pop=heappop) -> int:
        """Run until the event queue is empty (or ``max_events`` fired).

        Returns the number of events executed by this call.
        """
        executed = 0
        self._running = True
        self._stop_requested = False
        heap = self._heap
        now = self.now
        batches = 0
        # Unbounded runs open the skip window: a dispatched callback
        # may fast-forward the clock across a quiescent gap (never past
        # the next pending event, so the stale loop-local ``now`` is
        # corrected by the next pop's clock write).  Bounded runs keep
        # it closed — the caller observes individual events.
        self._skip_allowed = max_events is None
        self._run_bound = None
        try:
            if max_events is None:
                while heap:
                    time, _seq, callback, handle = _pop(heap)
                    if handle._cancelled:
                        continue
                    # Same-cycle batch dispatch: the clock is written
                    # only when the timestamp actually advances.
                    if time != now:
                        self.now = now = time
                        if time != self._inline_time:
                            batches += 1
                    handle._fired = True
                    executed += 1
                    callback()
                    if self._stop_requested:
                        break
            else:
                while heap and executed != max_events:
                    time, _seq, callback, handle = _pop(heap)
                    if handle._cancelled:
                        continue
                    if time != now:
                        self.now = now = time
                        batches += 1
                    handle._fired = True
                    executed += 1
                    callback()
                    if self._stop_requested:
                        break
        finally:
            self._running = False
            self._skip_allowed = False
            # Counters are batched per run rather than bumped per
            # event; nothing observes them mid-callback (the telemetry
            # collectors sample after a run completes).
            self._events_executed += executed
            self._pending -= executed
            self._dispatch_batches += batches
        return executed

    def run_until(self, time: int, *, _pop=heappop) -> int:
        """Run all events with timestamps <= ``time``; advance clock to ``time``.

        Returns the number of events executed by this call.
        """
        if time < self.now:
            raise SimulationError(f"cannot run backwards (t={time}, now={self.now})")
        executed = 0
        self._running = True
        self._stop_requested = False
        heap = self._heap
        now = self.now
        batches = 0
        self._skip_allowed = True
        self._run_bound = time
        try:
            while heap:
                event_time, _seq, callback, handle = heap[0]
                if handle._cancelled:
                    _pop(heap)
                    continue
                if event_time > time:
                    break
                _pop(heap)
                if event_time != now:
                    self.now = now = event_time
                    if event_time != self._inline_time:
                        batches += 1
                handle._fired = True
                executed += 1
                callback()
                if self._stop_requested:
                    break
        finally:
            self._running = False
            self._skip_allowed = False
            self._events_executed += executed
            self._pending -= executed
            self._dispatch_batches += batches
        if not self._stop_requested:
            self.now = max(self.now, time)
        return executed

    def step(self) -> bool:
        """Execute the next pending event.

        Returns True if an event was executed, False if the queue was
        exhausted (only cancelled or no events remained).
        """
        heap = self._heap
        while heap:
            time, _seq, callback, handle = heappop(heap)
            if handle._cancelled:
                continue
            if time != self.now:
                self.now = time
                self._dispatch_batches += 1
            handle._fired = True
            self._pending -= 1
            self._events_executed += 1
            callback()
            return True
        return False

    # -- introspection -------------------------------------------------

    def _next_pending(self) -> Optional[EventHandle]:
        """Peek the earliest non-cancelled event, discarding dead entries."""
        heap = self._heap
        while heap:
            handle = heap[0][3]
            if handle._cancelled:
                heappop(heap)
                continue
            return handle
        return None

    def live_entries(self) -> list[tuple[int, int, EventHandle]]:
        """All pending (non-cancelled) ``(time, seq, handle)`` entries,
        sorted by ``(time, seq)`` — i.e. in dispatch order."""
        # (time, seq) pairs are unique, so plain tuple sort never
        # reaches the (uncomparable-in-general) handle element.
        return sorted((entry[0], entry[1], entry[3])
                      for entry in self._heap if not entry[3]._cancelled)

    # ------------------------------------------------------------------
    # Cold paths
    # ------------------------------------------------------------------

    def schedule_stop_at(self, time: int) -> EventHandle:
        """Schedule an out-of-band :meth:`stop` at absolute time ``time``.

        The sentinel uses a negative sequence number drawn from a
        separate counter, so — unlike a regular scheduled event — it
        neither consumes a FIFO tie-break sequence nor shifts the
        ordering of any simultaneous ordinary events.  That keeps a
        run that installs (and later cancels) a safety time limit
        byte-identical to one that never needed it, which is what lets
        a forked continuation re-install its own limit without
        diverging from the straight-line run (see
        :mod:`repro.sim.snapshot`).  A negative seq always fires
        before ordinary events at the same timestamp; at most one stop
        sentinel is meaningfully pending at a time, so sentinels never
        need to be ordered among themselves.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule an event in the past (t={time}, now={self.now})"
            )
        seq = self._sentinel_seq
        self._sentinel_seq = seq - 1
        handle = EventHandle(time, seq, self.stop, "stop-sentinel", self)
        self._pending += 1
        self._insert_entry(time, seq, self.stop, handle)
        return handle

    def stop(self) -> None:
        """Request that the current :meth:`run`/:meth:`run_until` stop
        after the in-flight event completes."""
        self._stop_requested = True

    def peek_next_time(self) -> Optional[int]:
        """Timestamp of the next pending event, or None if queue is empty."""
        handle = self._next_pending()
        return None if handle is None else handle.time

    # ------------------------------------------------------------------
    # Snapshot/fork support (see repro.sim.snapshot).
    #
    # The engine cannot serialize its queue directly — scheduled
    # callbacks are closures over the old world — so a snapshot
    # records the live (time, seq, label) entries, each component
    # *claims* the entries it owns, and on restore each component
    # re-binds a fresh callback with the original (time, seq).
    # Preserving the original sequence numbers (and the _seq counter)
    # keeps FIFO tie-breaks, and therefore the entire execution,
    # byte-identical to the straight-line run.
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Plain-data counter state for a world snapshot.

        ``_sentinel_seq`` is deliberately *not* captured: sentinel
        sequence numbers are unobservable (a negative seq always fires
        before any ordinary event at the same time, and at most one
        stop sentinel is meaningfully pending), and a forked
        continuation must allocate sentinels exactly like the fresh
        engine of a straight-line run would.  The ``compactions`` and
        ``dispatch_batches`` diagnostics are likewise excluded: they
        describe *how* the queue was stored and drained, not the
        semantic state, and a restored world rebuilds its heap from
        live entries only.  The idle-skip span counters are excluded
        for the same reason: how many gaps were crossed analytically is
        a diagnostic of *how* the run executed, and digests must be
        identical with skip on or off.
        """
        return {
            "now": self.now,
            "seq": self._seq,
            "events_executed": self._events_executed,
            "events_cancelled": self._cancelled_count,
            "pending": self._pending,
        }

    def restore_state(self, state: dict) -> None:
        """Restore counters onto a *fresh* engine.

        ``pending`` is not restored directly — it is rebuilt one
        :meth:`restore_event` at a time; the orchestrator asserts the
        final count against ``state["pending"]``.
        """
        if self.heap_depth or self._seq or self._events_executed:
            raise SimulationError("can only restore state onto a fresh engine")
        self.now = state["now"]
        self._seq = state["seq"]
        self._events_executed = state["events_executed"]
        self._cancelled_count = state["events_cancelled"]

    def restore_event(self, time: int, seq: int, callback: Callable[[], Any],
                      label: Optional[str] = None) -> EventHandle:
        """Re-schedule a snapshotted event with its *original* (time, seq).

        Unlike :meth:`schedule_at` this does not allocate a new
        sequence number: the restored entry must sort exactly where
        the original did among simultaneous events.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot restore an event in the past (t={time}, now={self.now})"
            )
        if seq >= self._seq:
            raise SimulationError(
                f"restored event seq {seq} not predated by the seq counter "
                f"({self._seq}); restore_state first"
            )
        handle = EventHandle(time, seq, callback, label, self)
        self._pending += 1
        self._insert_entry(time, seq, callback, handle)
        return handle

    def __repr__(self) -> str:
        return (f"SimulationEngine(now={self.now}, "
                f"pending={self.pending_events})")
