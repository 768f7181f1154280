"""Benchmark guard — telemetry must be free when disabled.

The telemetry layer is pull-based by design: the dispatch loop and the
IRQ path maintain the same plain integer counters they always did, and
collectors sample them *after* a run.  This guard pins that overhead
contract:

* engine throughput with a disabled registry sampled around the run
  stays within 5 % of the plain measurement (interleaved A/B pairs in
  one process, the first arm alternating, best of five each, so
  machine noise and thermal drift largely cancel);
* the absolute events/sec floor of the engine benchmark still holds
  with telemetry in the build;
* disabled-registry instruments are the shared no-op object, register
  nothing, and a million no-op emits complete in trivial time.
"""

import time

from races import measure_engine_throughput
from repro.sim.engine import SimulationEngine
from repro.telemetry import MetricsRegistry, collect_engine

_EVENTS = 80_000
_REPEATS = 2


def _guarded_events_per_second(registry):
    """One guarded measurement: the engine run plus the collection an
    instrumented run would do, against a disabled registry, timed
    together (the collection must degrade to no-op attribute calls)."""
    engine = SimulationEngine()
    result = measure_engine_throughput(events=_EVENTS, repeats=_REPEATS)
    started = time.perf_counter()
    collect_engine(registry, engine, run="bench")
    collection = time.perf_counter() - started
    return result.events_executed / (result.elapsed_seconds + collection)


def _interleaved_best_of(pairs):
    """Best plain and best guarded throughput from interleaved pairs.

    Interleaving matters: measuring all of one arm then all of the
    other lets thermal/load drift between the arms masquerade as
    telemetry overhead.  Alternating exposes both arms to the same
    conditions, the arm that runs first swaps every pair, and best-of-N
    discards transient stalls.
    """
    registry = MetricsRegistry(enabled=False)

    def plain():
        return measure_engine_throughput(
            events=_EVENTS, repeats=_REPEATS).events_per_second

    def guarded():
        return _guarded_events_per_second(registry)

    best = {plain: 0.0, guarded: 0.0}
    for pair in range(pairs):
        for arm in (plain, guarded) if pair % 2 == 0 else (guarded, plain):
            best[arm] = max(best[arm], arm())
    assert registry.snapshot() == {}       # nothing leaked into the registry
    return best[plain], best[guarded]


def test_disabled_telemetry_within_five_percent(benchmark):
    plain, guarded = benchmark.pedantic(
        _interleaved_best_of, args=(5,), rounds=1, iterations=1)

    ratio = guarded / plain
    benchmark.extra_info["plain_events_per_second"] = round(plain)
    benchmark.extra_info["guarded_events_per_second"] = round(guarded)
    benchmark.extra_info["throughput_ratio"] = round(ratio, 4)

    assert ratio > 0.95, (
        f"telemetry-disabled run lost {(1 - ratio) * 100:.1f}% engine "
        f"throughput ({guarded:,.0f} vs {plain:,.0f} events/s)"
    )
    # same conservative absolute floor as the engine benchmark
    assert guarded > 150_000


def test_disabled_instruments_are_shared_noops():
    registry = MetricsRegistry(enabled=False)
    counter = registry.counter("a_total", "", ("k",))
    gauge = registry.gauge("b")
    histogram = registry.histogram("c_seconds")
    assert counter is gauge is histogram          # one shared no-op object
    assert counter.labels(k="v") is counter       # labels() allocates nothing
    assert registry.names() == []


def test_noop_emit_cost_is_trivial():
    registry = MetricsRegistry(enabled=False)
    counter = registry.counter("spam_total", "", ("k",))
    started = time.perf_counter()
    for _ in range(1_000_000):
        counter.labels(k="x").inc()
    elapsed = time.perf_counter() - started
    # ~2 attribute calls per emit; even a slow CI box does this in well
    # under a second.  Generous bound: only a collapse into real
    # bookkeeping on the disabled path can fail it.
    assert elapsed < 2.0
