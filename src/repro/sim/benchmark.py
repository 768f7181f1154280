"""Engine microbenchmark.

A deterministic, self-contained workload that measures how many event
callbacks per second :class:`~repro.sim.engine.SimulationEngine` can
dispatch.  Two phases exercise the queue regimes real experiment runs
hit:

* **chain** — a self-rescheduling tick chain with a near-empty heap,
  the regime of a single replayed activation trace;
* **pool** — a fixed population of outstanding events (default 64)
  with constant schedule/fire churn, the regime of many concurrent
  timers/interpose windows where per-comparison heap costs dominate.

Both phases also schedule-and-immediately-cancel decoy events so the
lazy-deletion path (pop-and-skip in the run loop) is part of what is
measured.  Used by ``benchmarks/test_bench_engine.py`` and by the
``--bench-json`` option of ``python -m repro.experiments``, which
records the result in ``BENCH_experiments.json`` so engine-throughput
regressions are caught across PRs.

:func:`measure_idle_ab` races the idle-skip engine (analytic
fast-forward across quiescent TDMA gaps, see
``Hypervisor._boundary_dispatch``) against the tick-by-tick chain on an
idle-dominated full-system scenario, interleaving the legs round-robin
in one process so host noise hits both alike; recorded under
``engine_idle_ab``.

:func:`measure_fork_ab` races the layered copy-on-write world store
(:mod:`repro.sim.worldstore`) against full-copy forking on a deep
fig7-style scenario tree — every node a policy variant of its parent —
checking leaf digests are byte-identical across the legs; recorded
under ``engine_fork_ab``.

:func:`measure_subtree_ab` races the two campaign schedules on a
~1k-branch tree: the wave-deep leg re-pickles the parent snapshot
across a simulated pool boundary for every child, the subtree leg
walks the whole tree against one shared world store bounded by a
fragment spill budget.  Leaf digests must match byte for byte; peak
retained memory is compared against an unlimited-store walk of the
same tree; recorded under ``engine_subtree_ab``.
"""

from __future__ import annotations

import gc
import os
import pickle
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable

from repro.sim.engine import ENV_IDLE_SKIP, SimulationEngine


@dataclass(frozen=True)
class EngineBenchmarkResult:
    """Outcome of one engine-throughput measurement."""

    events_executed: int
    cancelled_events: int
    elapsed_seconds: float
    chain_events_per_second: float = 0.0
    pool_events_per_second: float = 0.0

    @property
    def events_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.events_executed / self.elapsed_seconds


def _run_chain(events: int, cancel_every: int) -> tuple[int, int, float]:
    """Tick chain: one live event at a time, plus cancelled decoys."""
    engine = SimulationEngine()
    remaining = [events]
    cancelled = [0]

    def noop() -> None:
        pass

    def tick() -> None:
        left = remaining[0]
        if left <= 0:
            return
        remaining[0] = left - 1
        engine.schedule(7, tick)
        if left % cancel_every == 0:
            engine.schedule(11, noop).cancel()
            cancelled[0] += 1

    engine.schedule(1, tick)
    # Collect before timing: when the benchmark runs after a campaign
    # the heap is full of long-lived garbage, and whichever contender
    # happens to trip the next gen-2 collection pays for all of it.
    gc.collect()
    started = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - started
    return engine.events_executed, cancelled[0], elapsed


def _run_pool(events: int, pool_size: int,
              cancel_every: int) -> tuple[int, int, float]:
    """Outstanding-event pool: ``pool_size`` live events churn forever."""
    engine = SimulationEngine()
    remaining = [events]
    cancelled = [0]
    # Deterministic, varied delays so the heap keeps reordering.
    offsets = (3, 17, 29, 7, 41, 13, 23, 11)

    def noop() -> None:
        pass

    def tick() -> None:
        left = remaining[0]
        if left <= 0:
            return
        remaining[0] = left - 1
        engine.schedule(offsets[left & 7], tick)
        if left % cancel_every == 0:
            engine.schedule(19, noop).cancel()
            cancelled[0] += 1

    for i in range(pool_size):
        engine.schedule(1 + i, tick)
    gc.collect()
    started = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - started
    return engine.events_executed, cancelled[0], elapsed


def measure_engine_throughput(events: int = 200_000,
                              cancel_every: int = 4,
                              repeats: int = 3,
                              pool_size: int = 64) -> EngineBenchmarkResult:
    """Measure raw engine dispatch throughput (best of ``repeats``).

    Each repeat runs the chain phase and the pool phase with
    ``events // 2`` ticks each; the headline ``events_per_second`` is
    total callbacks over total elapsed time.  Best-of-``repeats`` is
    reported because on a shared host interference only ever slows a
    run down, so the fastest repeat is the closest estimate of true
    engine speed.
    """
    if events <= 0:
        raise ValueError(f"events must be positive, got {events}")
    if cancel_every <= 0:
        raise ValueError(f"cancel_every must be positive, got {cancel_every}")
    if pool_size <= 0:
        raise ValueError(f"pool_size must be positive, got {pool_size}")
    per_phase = max(1, events // 2)
    best: EngineBenchmarkResult | None = None
    for _ in range(max(1, repeats)):
        chain_n, chain_c, chain_t = _run_chain(per_phase, cancel_every)
        pool_n, pool_c, pool_t = _run_pool(per_phase, pool_size, cancel_every)
        result = EngineBenchmarkResult(
            events_executed=chain_n + pool_n,
            cancelled_events=chain_c + pool_c,
            elapsed_seconds=chain_t + pool_t,
            chain_events_per_second=chain_n / chain_t if chain_t > 0 else 0.0,
            pool_events_per_second=pool_n / pool_t if pool_t > 0 else 0.0,
        )
        if best is None or result.events_per_second > best.events_per_second:
            best = result
    assert best is not None
    return best


@dataclass(frozen=True)
class IdleABResult:
    """Outcome of the idle-skip vs tick-by-tick A/B race.

    ``results`` holds the best-of-repeats measurement for the ``skip``
    and ``tick`` contenders.  Both legs simulate the *identical*
    scenario (same arrivals, same final world — the byte-identity
    contract), so ``events_executed`` is the same simulated work and
    the events/s ratio is a pure wall-clock speedup.
    """

    results: dict[str, EngineBenchmarkResult]
    skip_spans: int
    skipped_events: int
    skipped_cycles: int

    @property
    def speedup(self) -> float:
        """Wall-clock factor of the skip engine over tick-by-tick."""
        tick = self.results["tick"].events_per_second
        if tick <= 0:
            return 0.0
        return self.results["skip"].events_per_second / tick


def _run_idle_scenario(idle_skip: bool, arrivals: int,
                       gap_tdma_cycles: int) -> tuple[object, float]:
    """One leg of the idle A/B: a sparse-arrival full-system scenario.

    The workload is the Section 6.1 evaluation system with IRQ
    interarrivals of ``gap_tdma_cycles`` TDMA cycles (~hundreds of
    quiescent slot boundaries per arrival) — the regime where the
    boundary chain, not IRQ handling, dominates the event count.
    Returns the finished hypervisor and the elapsed wall-clock seconds.
    """
    # Function-level import: experiments.common sits above sim in the
    # layering; importing it at module load would be circular.
    from repro.core.policy import NeverInterpose
    from repro.experiments.common import PaperSystemConfig, run_irq_scenario

    previous = os.environ.get(ENV_IDLE_SKIP)
    os.environ[ENV_IDLE_SKIP] = "1" if idle_skip else "0"
    try:
        system = PaperSystemConfig()
        clock = system.clock()
        cycle = clock.us_to_cycles(system.tdma_cycle_us)
        # Deterministic phase jitter so arrivals land all over the slot
        # grid, not on one resonant offset.
        jitter = (0, 321_001, 777_017, 123_457, 555_111, 901_247, 432_101)
        intervals = [
            gap_tdma_cycles * cycle + jitter[i % len(jitter)]
            for i in range(arrivals)
        ]
        gc.collect()
        started = time.perf_counter()
        result = run_irq_scenario(system, NeverInterpose(), intervals)
        elapsed = time.perf_counter() - started
        return result.hypervisor, elapsed
    finally:
        if previous is None:
            os.environ.pop(ENV_IDLE_SKIP, None)
        else:
            os.environ[ENV_IDLE_SKIP] = previous


def measure_idle_ab(arrivals: int = 60,
                    gap_tdma_cycles: int = 40,
                    repeats: int = 3) -> IdleABResult:
    """Race the idle-skip engine against tick-by-tick execution.

    Both legs run the same idle-dominated scenario, interleaved
    round-robin within each repeat so host interference lands on both
    alike — back-to-back separate processes vary by more than the
    deltas being resolved; best-of-``repeats`` per leg, same rationale
    as :func:`measure_engine_throughput`.  The legs
    must execute the same number of simulated events — idle-skip
    counts elided events as executed — so a mismatch means the
    byte-identity contract broke and is raised loudly rather than
    reported as a speedup.
    """
    if arrivals <= 0:
        raise ValueError(f"arrivals must be positive, got {arrivals}")
    if gap_tdma_cycles <= 0:
        raise ValueError(
            f"gap_tdma_cycles must be positive, got {gap_tdma_cycles}")
    best: dict[str, EngineBenchmarkResult] = {}
    events_by_leg: dict[str, int] = {}
    skip_stats = (0, 0, 0)
    for _ in range(max(1, repeats)):
        for name, idle_skip in (("skip", True), ("tick", False)):
            hv, elapsed = _run_idle_scenario(idle_skip, arrivals,
                                             gap_tdma_cycles)
            executed = hv.engine.events_executed
            events_by_leg.setdefault(name, executed)
            if events_by_leg[name] != executed:
                raise RuntimeError(
                    f"idle A/B {name} leg executed {executed} events, "
                    f"previous repeat executed {events_by_leg[name]}"
                )
            if idle_skip:
                skip_stats = (hv.engine.skip_spans,
                              hv.engine.skipped_events,
                              hv.engine.skipped_cycles)
            result = EngineBenchmarkResult(
                events_executed=executed,
                cancelled_events=hv.engine.events_cancelled,
                elapsed_seconds=elapsed,
            )
            current = best.get(name)
            if (current is None
                    or result.events_per_second > current.events_per_second):
                best[name] = result
    if events_by_leg["skip"] != events_by_leg["tick"]:
        raise RuntimeError(
            f"idle A/B legs diverged: skip executed {events_by_leg['skip']} "
            f"events, tick executed {events_by_leg['tick']} (byte-identity "
            "contract broken)"
        )
    return IdleABResult(results=best,
                        skip_spans=skip_stats[0],
                        skipped_events=skip_stats[1],
                        skipped_cycles=skip_stats[2])


@dataclass(frozen=True)
class ForkLegResult:
    """One contender's measurement in the fork-tree A/B race."""

    forks: int
    elapsed_seconds: float
    retained_bytes: int

    @property
    def forks_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.forks / self.elapsed_seconds


@dataclass(frozen=True)
class ForkABResult:
    """Outcome of the layered vs full-copy fork-tree A/B race.

    Both legs build the *identical* scenario tree — every node is a
    load-fraction variant of its parent, every leaf digest must match
    byte for byte across the legs (checked, raised on mismatch) — so
    the time and retained-memory ratios are pure implementation costs.
    """

    results: dict[str, ForkLegResult]
    branches: int          # leaf count of the tree
    nodes: int             # total forks performed (internal + leaves)
    leaf_digest: str       # digest of the first leaf (same in both legs)

    @property
    def speedup(self) -> float:
        """Wall-clock factor of layered forks over full-copy forks."""
        layered = self.results["layered"].elapsed_seconds
        if layered <= 0:
            return 0.0
        return self.results["full"].elapsed_seconds / layered

    @property
    def memory_ratio(self) -> float:
        """Full-copy retained bytes per layered retained byte."""
        layered = self.results["layered"].retained_bytes
        if layered <= 0:
            return 0.0
        return self.results["full"].retained_bytes / layered


def _fork_tree_base(arrivals: int, budget_bytes: "int | None" = None):
    """Simulate a fig7-style learning prefix and settle a fork point.

    Returns ``(base_snapshot, store, irq_name)``: a quiescent world
    mid-learning-phase whose policy still accepts ``set_load_fraction``
    re-targeting — the exact shape of a fig7 prefix fork, without the
    cost of generating the automotive trace.  The store's budget is
    set explicitly (``None`` = unlimited) so benchmark legs never
    inherit an ambient ``REPRO_STORE_BUDGET``.
    """
    from repro.core.policy import SelfLearningInterposing
    from repro.experiments.common import PaperSystemConfig
    from repro.sim.snapshot import settle
    from repro.sim.worldstore import WorldStore

    system = PaperSystemConfig()
    clock = system.clock()
    base_gap = clock.us_to_cycles(900.0)
    intervals = [base_gap + 1017 * (i % 7) for i in range(arrivals)]
    policy = SelfLearningInterposing(depth=5, learn_count=arrivals + 1,
                                     load_fraction=None)
    hv, timer = system.build(policy, intervals)
    hv.start()
    timer.arm_next()
    hv.run_until_irq_count(max(8, arrivals // 2))
    store = WorldStore(budget_bytes=budget_bytes)
    snapshot = settle(hv, {timer.name: timer}, store=store)
    return snapshot, store, system.irq_name


def _build_fork_tree(base, fork_child, branching) -> list:
    """Fork a tree under ``base``; returns every created snapshot.

    ``fork_child(parent, fraction)`` forks one policy-variant node;
    fractions are unique per node so sibling *contents* differ (no
    trivial dedup) while the tree still shares its deep prefix.
    """
    level = [base]
    snapshots: list = []
    counter = 0
    for width in branching:
        next_level = []
        for parent in level:
            for _ in range(width):
                counter += 1
                fraction = 1.0 / (1.0 + counter)
                child = fork_child(parent, fraction)
                next_level.append(child)
        snapshots.extend(next_level)
        level = next_level
    return snapshots


def _fork_full(parent, fraction: float, irq_name: str):
    """Full-copy fork: restore a live world, mutate, re-capture flat."""
    from repro.sim.snapshot import WorldSnapshot, capture_world, restore_world

    hv, devices = restore_world(parent)
    hv.irq_source(irq_name).policy.set_load_fraction(fraction)
    snapshot = capture_world(hv, devices)
    snapshot.digest()
    if not isinstance(snapshot, WorldSnapshot):
        raise RuntimeError("full leg must produce flat snapshots")
    return snapshot


def _fork_layered(parent, fraction: float, irq_name: str):
    """Layered fork: splice the re-targeted policy into a child layer."""
    from repro.experiments.common import fork_warm_variant

    child = fork_warm_variant(
        parent, source_name=irq_name,
        configure_policy=lambda policy: policy.set_load_fraction(fraction))
    child.digest()
    return child


def measure_fork_ab(branching: "tuple[int, ...]" = (4, 5, 5),
                    arrivals: int = 240,
                    repeats: int = 3) -> ForkABResult:
    """Race layered copy-on-write forks against full-copy forks.

    Both legs grow the same deep scenario tree from one shared
    fig7-style prefix — default ``(4, 5, 5)``: 124 forks, 100 leaves —
    interleaved round-robin within each repeat so host noise lands on
    both alike (same rationale as :func:`measure_idle_ab`);
    best-of-``repeats`` per leg.  Every leaf digest must be
    byte-identical across the legs; a mismatch means the layered store
    broke the byte-identity contract and is raised loudly rather than
    reported as a speedup.

    Retained memory is measured in separate ``tracemalloc`` passes
    (instrumented allocation is far slower, so memory never pollutes
    the timing legs): bytes still reachable once the whole tree of
    snapshots is built, the O(changes)-vs-O(world) acceptance number.
    """
    if not branching or any(width <= 0 for width in branching):
        raise ValueError(f"branching must be positive widths, got {branching}")
    if arrivals < 16:
        raise ValueError(f"arrivals must be >= 16, got {arrivals}")

    legs: dict[str, Callable] = {
        "layered": _fork_layered,
        "full": _fork_full,
    }
    best_elapsed: dict[str, float] = {}
    leaf_digests: dict[str, list[str]] = {}
    nodes = 0
    branches = _leaf_count(branching)
    for _ in range(max(1, repeats)):
        # A fresh base world *and store* per round: the prefix is
        # deterministic (digests must agree across rounds), but reusing
        # one store would let later layered rounds ride the interning
        # memos of earlier ones — each round must pay full cost.
        base, _store, irq_name = _fork_tree_base(arrivals)
        for name, fork in legs.items():
            def fork_child(parent, fraction, fork=fork):
                return fork(parent, fraction, irq_name)
            gc.collect()
            started = time.perf_counter()
            snapshots = _build_fork_tree(base, fork_child, branching)
            elapsed = time.perf_counter() - started
            nodes = len(snapshots)
            digests = [snap.digest() for snap in snapshots[-branches:]]
            previous = leaf_digests.setdefault(name, digests)
            if previous != digests:
                raise RuntimeError(
                    f"fork A/B {name} leg diverged between repeats")
            if name not in best_elapsed or elapsed < best_elapsed[name]:
                best_elapsed[name] = elapsed
    if leaf_digests["layered"] != leaf_digests["full"]:
        raise RuntimeError(
            "fork A/B legs diverged: layered leaf digests do not match "
            "full-copy leaf digests (byte-identity contract broken)"
        )

    retained: dict[str, int] = {}
    for name, fork in legs.items():
        base, _store, irq_name = _fork_tree_base(arrivals)
        def fork_child(parent, fraction, fork=fork):
            return fork(parent, fraction, irq_name)
        gc.collect()
        tracemalloc.start()
        try:
            snapshots = _build_fork_tree(base, fork_child, branching)
            gc.collect()
            retained[name], _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del snapshots

    return ForkABResult(
        results={
            name: ForkLegResult(forks=nodes,
                                elapsed_seconds=best_elapsed[name],
                                retained_bytes=retained[name])
            for name in legs
        },
        branches=branches,
        nodes=nodes,
        leaf_digest=leaf_digests["layered"][0],
    )


def _leaf_count(branching) -> int:
    count = 1
    for width in branching:
        count *= width
    return count


@dataclass(frozen=True)
class SubtreeLegResult:
    """One schedule's measurement in the wave-vs-subtree A/B race."""

    nodes: int
    elapsed_seconds: float
    peak_retained_bytes: int

    @property
    def nodes_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.nodes / self.elapsed_seconds


@dataclass(frozen=True)
class SubtreeABResult:
    """Outcome of the wave-deep vs subtree scheduling A/B race.

    Both legs grow the *identical* ~1k-branch scenario tree.  The
    ``wave`` leg models wave-deep campaign dispatch: every child's
    parent snapshot crosses a pool boundary (``pickle`` round-trip,
    which flattens a layered snapshot to its full state) before the
    child restores, mutates and re-captures.  The ``subtree`` leg
    models a subtree worker: one shared world store under a fragment
    spill budget, every node an O(changes) data-level fork, nothing
    re-pickled.  Leaf digests must match byte for byte (checked,
    raised on mismatch).  ``memory_ratio`` compares the legs' peaks —
    wave-deep retains a full flat state per node, the budgeted subtree
    walk keeps at most the resident budget of fragments in RAM;
    ``unlimited_peak_bytes`` additionally anchors the same subtree
    walk *without* a budget, isolating the spill tier's own saving.
    """

    results: "dict[str, SubtreeLegResult]"
    branches: int                  # leaf count of the tree
    nodes: int                     # total forks performed
    leaf_digest: str               # digest of the first leaf (both legs)
    budget_bytes: int              # resident budget of the subtree leg
    unlimited_peak_bytes: int      # same walk, no budget
    spilled_fragments: int         # fragments written to the spill file
    spill_bytes_written: int

    @property
    def speedup(self) -> float:
        """Wall-clock factor of subtree scheduling over wave-deep."""
        subtree = self.results["subtree"].elapsed_seconds
        if subtree <= 0:
            return 0.0
        return self.results["wave"].elapsed_seconds / subtree

    @property
    def memory_ratio(self) -> float:
        """Wave-deep peak bytes per budgeted-subtree peak byte."""
        budgeted = self.results["subtree"].peak_retained_bytes
        if budgeted <= 0:
            return 0.0
        return self.results["wave"].peak_retained_bytes / budgeted


def _wave_child(parent, fraction: float, irq_name: str):
    """Wave-deep child: parent crosses a pool boundary, then full fork.

    ``pool.map`` pickles each work item separately, so wave scheduling
    re-ships the parent snapshot once *per child*; the round-trip is
    what flattens a layered parent into a full-state snapshot (see
    ``LayeredSnapshot.__reduce__``) and is modelled here 1:1.
    """
    from repro.sim.snapshot import capture_world, restore_world

    shipped = pickle.loads(
        pickle.dumps(parent, protocol=pickle.HIGHEST_PROTOCOL))
    hv, devices = restore_world(shipped)
    hv.irq_source(irq_name).policy.set_load_fraction(fraction)
    snapshot = capture_world(hv, devices)
    snapshot.digest()
    return snapshot


def measure_subtree_ab(branching: "tuple[int, ...]" = (10, 10, 10),
                       arrivals: int = 64,
                       repeats: int = 1,
                       budget_bytes: "int | None" = None,
                       ) -> SubtreeABResult:
    """Race wave-deep dispatch against subtree scheduling with spill.

    Default tree ``(10, 10, 10)``: 1110 forks, 1000 leaves — the
    "~1k-branch" shape deep interference sweeps take.  Legs are
    interleaved within each repeat so host noise lands on both alike;
    best-of-``repeats`` per leg.  Every leaf digest must be
    byte-identical across the legs — the subtree leg computes its
    digests *through* the spill tier (cold fragments fault back from
    disk during assembly), so a digest match also proves spilling
    preserves the byte-identity contract under memory pressure.

    ``budget_bytes`` defaults to twice the resident bytes of one base
    world: hot shared fragments stay in RAM while each node's cold
    policy-variant fragments spill.  Peak memory is measured in
    separate ``tracemalloc`` passes (wave, budgeted subtree, and an
    unlimited-store subtree walk that anchors
    ``unlimited_peak_bytes``).
    """
    if not branching or any(width <= 0 for width in branching):
        raise ValueError(f"branching must be positive widths, got {branching}")
    if arrivals < 16:
        raise ValueError(f"arrivals must be >= 16, got {arrivals}")

    if budget_bytes is None:
        _probe, probe_store, _name = _fork_tree_base(arrivals)
        budget_bytes = max(64 * 1024, 2 * probe_store.resident_bytes)
        del _probe
        probe_store.clear()

    branches = _leaf_count(branching)
    legs: "dict[str, tuple[Callable, int | None]]" = {
        "wave": (_wave_child, None),
        "subtree": (_fork_layered, budget_bytes),
    }
    best_elapsed: "dict[str, float]" = {}
    leaf_digests: "dict[str, list[str]]" = {}
    nodes = 0
    spilled_fragments = 0
    spill_bytes_written = 0
    for _ in range(max(1, repeats)):
        # A fresh base world and store per leg per round: the prefix is
        # deterministic (digests must agree across rounds and legs),
        # but sharing a store would let later rounds ride earlier
        # interning memos — each leg must pay its full cost.
        for name, (fork, budget) in legs.items():
            base, store, irq_name = _fork_tree_base(arrivals, budget)

            def fork_child(parent, fraction, fork=fork, irq=irq_name):
                return fork(parent, fraction, irq)

            gc.collect()
            started = time.perf_counter()
            snapshots = _build_fork_tree(base, fork_child, branching)
            elapsed = time.perf_counter() - started
            nodes = len(snapshots)
            digests = [snap.digest() for snap in snapshots[-branches:]]
            previous = leaf_digests.setdefault(name, digests)
            if previous != digests:
                raise RuntimeError(
                    f"subtree A/B {name} leg diverged between repeats")
            if name not in best_elapsed or elapsed < best_elapsed[name]:
                best_elapsed[name] = elapsed
            if name == "subtree":
                spilled_fragments = store.stats.fragments_spilled
                spill_bytes_written = store.stats.spill_bytes_written
            del snapshots, base
            store.clear()
    if leaf_digests["wave"] != leaf_digests["subtree"]:
        raise RuntimeError(
            "subtree A/B legs diverged: wave leaf digests do not match "
            "subtree leaf digests (byte-identity contract broken)"
        )

    peaks: "dict[str, int]" = {}
    memory_legs = dict(legs)
    memory_legs["unlimited"] = (_fork_layered, None)
    for name, (fork, budget) in memory_legs.items():
        base, store, irq_name = _fork_tree_base(arrivals, budget)

        def fork_child(parent, fraction, fork=fork, irq=irq_name):
            return fork(parent, fraction, irq)

        gc.collect()
        tracemalloc.start()
        try:
            snapshots = _build_fork_tree(base, fork_child, branching)
            gc.collect()
            _current, peaks[name] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del snapshots, base
        store.clear()

    return SubtreeABResult(
        results={
            name: SubtreeLegResult(nodes=nodes,
                                   elapsed_seconds=best_elapsed[name],
                                   peak_retained_bytes=peaks[name])
            for name in legs
        },
        branches=branches,
        nodes=nodes,
        leaf_digest=leaf_digests["subtree"][0],
        budget_bytes=budget_bytes,
        unlimited_peak_bytes=peaks["unlimited"],
        spilled_fragments=spilled_fragments,
        spill_bytes_written=spill_bytes_written,
    )
