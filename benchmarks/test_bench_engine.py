"""Benchmark engine — discrete-event hot-path throughput.

Not a paper artifact — this is the perf-regression floor for the
simulation core that every experiment runs on.  It tracks the
two-regime events/sec of :func:`races.measure_engine_throughput`:

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
"""

import pytest

from races import measure_engine_throughput, measure_idle_ab


def test_engine_throughput(benchmark):
    result = benchmark.pedantic(
        measure_engine_throughput,
        kwargs={"events": 100_000, "repeats": 3},
        rounds=1, iterations=1,
    )
    benchmark.extra_info["events_per_second"] = round(result.events_per_second)
    benchmark.extra_info["chain_events_per_second"] = round(
        result.chain_events_per_second
    )
    benchmark.extra_info["pool_events_per_second"] = round(
        result.pool_events_per_second
    )
    benchmark.extra_info["events_executed"] = result.events_executed
    benchmark.extra_info["cancelled_events"] = result.cancelled_events

    assert result.events_executed >= 100_000
    assert result.cancelled_events > 0            # lazy cancellation exercised
    # Deliberately conservative floor (the tuned engine measures around
    # 1M events/s on a loaded single-core CI container): catching a
    # collapse back to O(n) scans, not CI noise.
    assert result.events_per_second > 150_000
    assert result.chain_events_per_second > 150_000
    assert result.pool_events_per_second > 150_000


def test_idle_skip_ab(benchmark):
    """Idle-dominated A/B: skip-on must be >= 5x skip-off (tick).

    The 5x floor is the acceptance threshold; the measured speedup on
    this scenario is typically >= 10x.  The harness itself raises when
    the two legs disagree on executed-event counts, so a green run
    also re-pins the byte-identity contract at benchmark scale.
    """
    result = benchmark.pedantic(
        measure_idle_ab,
        kwargs={"arrivals": 30, "gap_tdma_cycles": 40, "repeats": 2},
        rounds=1, iterations=1,
    )
    benchmark.extra_info["speedup"] = round(result.speedup, 2)
    benchmark.extra_info["skip_spans"] = result.skip_spans
    benchmark.extra_info["skipped_events"] = result.skipped_events
    benchmark.extra_info["skipped_cycles"] = result.skipped_cycles
    for name, leg in result.results.items():
        benchmark.extra_info[f"{name}_events_per_second"] = round(
            leg.events_per_second)
    assert set(result.results) == {"skip", "tick"}
    assert result.skip_spans > 0
    assert result.skipped_events > 0
    assert (result.results["skip"].events_executed
            == result.results["tick"].events_executed)
    assert result.speedup >= 5.0


@pytest.mark.slow
def test_engine_throughput_paper_scale(benchmark):
    """Longer measurement for stable numbers; run via ``-m slow``."""
    result = benchmark.pedantic(
        measure_engine_throughput,
        kwargs={"events": 400_000, "repeats": 5},
        rounds=1, iterations=1,
    )
    benchmark.extra_info["events_per_second"] = round(result.events_per_second)
    benchmark.extra_info["chain_events_per_second"] = round(
        result.chain_events_per_second
    )
    benchmark.extra_info["pool_events_per_second"] = round(
        result.pool_events_per_second
    )
    assert result.events_per_second > 150_000
