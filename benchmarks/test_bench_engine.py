"""Engine floors — discrete-event hot-path throughput and idle-skip.

Not a paper artifact — these are the perf-regression floors for the
simulation core that every experiment runs on.  The throughput floor
covers the two regimes of :func:`races.measure_engine_throughput`:

* **chain** — a single self-rescheduling timer over a near-empty heap,
  the profile of replaying one interarrival trace (Fig. 6/7);
* **pool** — 64 outstanding events churning, the profile of scenarios
  with many concurrent timers, where heap sift costs dominate.

Any regression to the O(n) ``pending_events`` scan, per-event
``__dict__`` allocation, or Python-level heap comparisons shows up
here as a large events/sec drop.

The idle-skip leg races the analytic fast-forward engine
(:func:`races.measure_idle_ab`) against tick-by-tick execution on an
idle-dominated scenario — sparse IRQ arrivals separated by tens of
quiescent TDMA cycles, the regime the skip layer exists for.  Both
legs must execute the identical event count (the byte-identity
contract).

Run with ``PYTHONPATH=src python -m pytest benchmarks
--ignore=benchmarks/e2e -q``.
"""

from races import measure_engine_throughput, measure_idle_ab


def test_engine_throughput():
    result = measure_engine_throughput(events=100_000, repeats=3)
    assert result.events_executed >= 100_000
    assert result.cancelled_events > 0            # lazy cancellation exercised
    # Deliberately conservative floor (the tuned engine measures around
    # 1M events/s on a loaded single-core CI container): catching a
    # collapse back to O(n) scans, not CI noise.
    assert result.events_per_second > 150_000
    assert result.chain_events_per_second > 150_000
    assert result.pool_events_per_second > 150_000


def test_idle_skip_ab():
    """Idle-dominated A/B: skip-on must be >= 5x skip-off (tick).

    The 5x floor is the acceptance threshold; the measured speedup on
    this scenario is typically >= 10x.  The harness itself raises when
    the two legs disagree on executed-event counts, so a green run
    also re-pins the byte-identity contract at benchmark scale.
    """
    result = measure_idle_ab(arrivals=30, gap_tdma_cycles=40, repeats=2)
    assert set(result.results) == {"skip", "tick"}
    assert result.skip_spans > 0
    assert result.skipped_events > 0
    assert (result.results["skip"].events_executed
            == result.results["tick"].events_executed)
    assert result.speedup >= 5.0
