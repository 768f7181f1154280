"""Benchmark engine — discrete-event hot-path throughput.

Not a paper artifact — this is the perf-regression harness for the
simulation core that every experiment runs on.  It tracks the
two-regime events/sec of :func:`repro.sim.benchmark
.measure_engine_throughput`:

* **chain** — a single self-rescheduling timer over a near-empty heap,
  the profile of replaying one interarrival trace (Fig. 6/7);
* **pool** — 64 outstanding events churning, the profile of scenarios
  with many concurrent timers, where heap sift costs dominate.

Any regression to the O(n) ``pending_events`` scan, per-event
``__dict__`` allocation, or Python-level heap comparisons shows up
here as a large events/sec drop.  The same measurement feeds the
``engine`` record of ``BENCH_experiments.json`` (CLI ``--bench-json``).

The idle-skip leg races the analytic fast-forward engine
(:func:`repro.sim.benchmark.measure_idle_ab`) against tick-by-tick
execution on an idle-dominated scenario — sparse IRQ arrivals
separated by tens of quiescent TDMA cycles, the regime the skip layer
exists for.  Both legs must execute the identical event count (the
byte-identity contract); the speedup lands in the ``engine_idle_ab``
record of ``BENCH_experiments.json``.

The fork leg races the layered copy-on-write world store
(:func:`repro.sim.benchmark.measure_fork_ab`) against deep-copy forks
over an identical scenario tree — every branch node a policy variant
of one warm world.  Leaf digests must be byte-identical between the
legs (the harness raises otherwise); the speedup and retained-memory
ratio land in the ``engine_fork_ab`` record of
``BENCH_experiments.json``.
"""

import pytest

from repro.sim.benchmark import (
    measure_engine_throughput,
    measure_fork_ab,
    measure_idle_ab,
)


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


def test_fork_ab(benchmark):
    """Layered-fork A/B: layered forks must be >= 5x deep-copy forks.

    The 5x floor is the acceptance threshold; the measured speedup on
    the 100-branch tree is typically ~10x, with an order of magnitude
    less retained memory (O(changes) vs O(world) per branch).  The
    harness raises when any leaf digest differs between the legs, so a
    green run also re-pins byte-identity at benchmark scale.
    """
    result = benchmark.pedantic(
        measure_fork_ab,
        kwargs={"branching": (3, 4), "arrivals": 120, "repeats": 2},
        rounds=1, iterations=1,
    )
    benchmark.extra_info["speedup"] = round(result.speedup, 2)
    benchmark.extra_info["memory_ratio"] = round(result.memory_ratio, 2)
    benchmark.extra_info["branches"] = result.branches
    benchmark.extra_info["nodes"] = result.nodes
    for name, leg in result.results.items():
        benchmark.extra_info[f"{name}_forks_per_second"] = round(
            leg.forks_per_second)
        benchmark.extra_info[f"{name}_retained_bytes"] = leg.retained_bytes
    assert set(result.results) == {"layered", "full"}
    assert result.branches == 12
    assert result.nodes == 3 + 12
    assert result.results["layered"].forks == result.results["full"].forks
    assert result.speedup >= 5.0
    # Retained memory must be O(changes), not O(world) per branch; the
    # true ratio is ~10x — 3x is the noise-proof floor.
    assert result.memory_ratio >= 3.0


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
