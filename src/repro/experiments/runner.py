"""Parallel campaign runner for the paper-reproduction experiments.

Every experiment campaign decomposes into *tasks* that are independent
by construction — each regenerates its own inputs from a
deterministically derived seed (e.g. ``seed + load_index`` for the
per-load Fig. 6 cells) instead of sharing mutable state:

========== =====================================================
campaign   task decomposition
========== =====================================================
fig6a/b/c  one task per interrupt load (3 each)
fig7       shared learning-phase prefix (1) + one forked task
           per bound case a–d (4)
tab62      one task per interrupt load (3)
validation classic leg + monitored leg (2)
ablation   boost / throttle / depth (3)
sweep      one task per cycle-scale (4) + one per d_min multiplier (5)
design     single task (1)
========== =====================================================

Because the task functions derive their seeds exactly as the serial
loops do, and the merge functions consume task results in the serial
order, ``run_campaign(..., jobs=N)`` is **byte-identical** to
``jobs=1`` for every N: parallelism only changes wall-clock time.

Tasks that fork a shared snapshot (the fig7 cases) declare the
snapshot task in ``needs`` and receive its result through the ``feed``
kwarg.  The runner groups each connected ``needs`` chain into one
per-worker assignment (:func:`plan_subtrees`): the worker receives
the subtree root once and walks the descendants against the shared
layered world store, so intermediate worlds are never re-pickled.
Parent result digests are still folded into cache fingerprints inside
the worker, so incremental re-runs stay exact.  Dependencies never
reach a worker unresolved, and the byte-identity contract extends
across the whole task list.

Workload generation inside the workers is cheap and deterministic
(:mod:`repro.workloads` memoizes interarrival arrays and traces), so
tasks ship only small picklable configs in and
:class:`~repro.experiments.common.ScenarioSummary`-style picklable
results out; live :class:`~repro.hypervisor.hypervisor.Hypervisor`
objects (which hold closures) never cross process boundaries — any
audit that needs one (interference ledgers, context-switch counters)
runs inside the task.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.experiments.ablation import (
    run_boost_ablation,
    run_depth_ablation,
    run_throttle_ablation,
)
from repro.experiments.cache import (
    ResultCache,
    result_digest,
    task_fingerprint,
)
from repro.experiments.design import run_design
from repro.experiments.fig6 import Fig6Config, merge_fig6_loads, run_fig6_load
from repro.experiments.fig7 import (
    FIG7_CASES,
    Fig7Config,
    run_fig7_case,
    run_fig7_prefix,
)
from repro.experiments.overhead import merge_overhead, run_overhead_load
from repro.experiments.scale import ExperimentScale
from repro.experiments.sweep import run_cycle_sweep_point, run_dmin_sweep_point
from repro.experiments.validation import (
    merge_validation,
    run_validation_classic,
    run_validation_monitored,
)
from repro.workloads.automotive import AutomotiveTraceConfig

#: Default interrupt loads shared by the fig6 and tab62 campaigns.
DEFAULT_LOADS = (0.01, 0.05, 0.10)


@dataclass(frozen=True)
class CampaignTask:
    """One picklable unit of campaign work.

    Most tasks are independent; a *forked* task additionally names the
    campaign-wide indices of the tasks it ``needs`` finished first (its
    snapshot parents) and the kwarg (``feed``) through which the first
    parent's result is injected before dispatch.  A task and everything
    that depends on it run in one worker, in task-list order.
    """

    experiment: str                     #: campaign id ("fig6a", "sweep", ...)
    kind: str                           #: dispatch key into TASK_FUNCTIONS
    kwargs: "dict[str, Any]" = field(default_factory=dict)
    #: Indices (into the campaign task list) of prerequisite tasks.
    needs: "tuple[int, ...]" = ()
    #: Kwarg name receiving the first prerequisite's result, if any.
    feed: "str | None" = None

    def __repr__(self) -> str:          # compact pool-debugging aid
        return f"CampaignTask({self.experiment}:{self.kind})"


#: Task dispatch registry.  Entries must be top-level functions so that
#: worker processes can unpickle the reference regardless of the
#: multiprocessing start method.
TASK_FUNCTIONS: "dict[str, Callable[..., Any]]" = {
    "fig6-load": run_fig6_load,
    "fig7-prefix": run_fig7_prefix,
    "fig7-case": run_fig7_case,
    "overhead-load": run_overhead_load,
    "validation-classic": run_validation_classic,
    "validation-monitored": run_validation_monitored,
    "ablation-boost": run_boost_ablation,
    "ablation-throttle": run_throttle_ablation,
    "ablation-depth": run_depth_ablation,
    "sweep-cycle-point": run_cycle_sweep_point,
    "sweep-dmin-point": run_dmin_sweep_point,
    "design": run_design,
}


def execute_task(task: CampaignTask) -> Any:
    """Run one campaign task (in-process or inside a pool worker)."""
    return TASK_FUNCTIONS[task.kind](**task.kwargs)


@dataclass
class TaskTelemetry:
    """Execution record of one campaign task (for ``--metrics-json``)."""

    experiment: str
    kind: str
    index: int                      #: position in the campaign task list
    cached: bool                    #: replayed from the result cache
    wall_seconds: float             #: compute time (0.0 for cache hits)
    queue_wait_seconds: float       #: submission -> worker pickup delay
    started_offset_seconds: float   #: pickup time relative to campaign start
    worker_pid: int


@dataclass
class CampaignTelemetry:
    """Aggregated runner telemetry for one ``run_campaign`` call.

    Filled in-place when passed to :func:`run_campaign`; purely
    observational — the executor runs the same tasks in the same order
    with or without it, and merges still consume results in task order.
    """

    jobs: int = 1
    wall_seconds: float = 0.0
    tasks: "list[TaskTelemetry]" = field(default_factory=list)
    #: monotonic instant of the first run_campaign call sharing this
    #: object; all started_offset_seconds are measured against it, so
    #: per-worker task timelines stay monotone across several
    #: run_campaign calls (one trace track per worker pid).
    epoch: "float | None" = None

    @property
    def busy_seconds(self) -> float:
        """Summed compute time of executed (non-cached) tasks."""
        return sum(task.wall_seconds for task in self.tasks
                   if not task.cached)

    @property
    def worker_utilization(self) -> float:
        """``busy / (wall * jobs)`` — 1.0 means no worker ever idled."""
        if self.wall_seconds <= 0.0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.wall_seconds * self.jobs))


def plan_experiment(name: str, scale: ExperimentScale, seed: int,
                    ) -> "tuple[list[CampaignTask], Callable[[list], Any]]":
    """Decompose one experiment into tasks plus a merge function.

    The merge function runs in the parent process and consumes the task
    results *in task order* — the same order the serial loops produce —
    so merged results do not depend on worker scheduling.

    The fig7 campaign carries a snapshot task (the shared learning
    phase) that the per-case tasks fork from via ``needs``/``feed``;
    its merge skips that result slot.
    """
    if name.startswith("fig6") and name[-1] in ("a", "b", "c"):
        scenario = name[-1]
        config = Fig6Config(irqs_per_load=scale.fig6_irqs_per_load, seed=seed)
        tasks = [
            CampaignTask(name, "fig6-load",
                         {"scenario": scenario, "config": config,
                          "load_index": index})
            for index in range(len(config.loads))
        ]
        return tasks, lambda results: merge_fig6_loads(scenario, config,
                                                       results)
    if name == "fig7":
        config = Fig7Config(trace=AutomotiveTraceConfig(
            activation_count=scale.fig7_activations, seed=seed,
        ))
        labels = tuple(FIG7_CASES)
        tasks = [CampaignTask(name, "fig7-prefix", {"config": config})]
        tasks += [
            CampaignTask(name, "fig7-case",
                         {"label": label, "config": config},
                         needs=(0,), feed="prefix")
            for label in labels
        ]
        # results[0] is the prefix snapshot, not a case.
        return tasks, lambda results: dict(zip(labels, results[1:]))
    if name == "tab62":
        tasks = [
            CampaignTask(name, "overhead-load",
                         {"load_index": index, "loads": DEFAULT_LOADS,
                          "irqs_per_load": scale.tab62_irqs_per_load,
                          "seed": seed})
            for index in range(len(DEFAULT_LOADS))
        ]
        return tasks, lambda results: merge_overhead(list(results))
    if name == "validation":
        tasks = [
            CampaignTask(name, "validation-classic",
                         {"irq_count": scale.validation_irqs, "seed": seed}),
            CampaignTask(name, "validation-monitored",
                         {"irq_count": scale.validation_irqs, "seed": seed}),
        ]

        def merge_validation_results(results: list) -> Any:
            classic = results[0]
            monitored, reports = results[1]
            return merge_validation(classic, monitored, reports)

        return tasks, merge_validation_results
    if name == "ablation":
        tasks = [
            CampaignTask(name, "ablation-boost",
                         {"irq_count": scale.ablation_irqs, "seed": seed}),
            CampaignTask(name, "ablation-throttle",
                         {"irq_count": scale.ablation_irqs, "seed": seed}),
            CampaignTask(name, "ablation-depth",
                         {"activation_count": scale.ablation_depth_activations}),
        ]
        return tasks, tuple
    if name == "sweep":
        cycle_scales = (0.5, 1.0, 2.0, 4.0)
        multipliers = (1.0, 2.0, 4.0, 8.0, 16.0)
        tasks = [
            CampaignTask(name, "sweep-cycle-point",
                         {"scale": value, "irq_count": scale.sweep_irqs,
                          "seed": seed})
            for value in cycle_scales
        ]
        tasks += [
            CampaignTask(name, "sweep-dmin-point",
                         {"multiplier": value,
                          "irq_count": scale.sweep_irqs, "seed": seed})
            for value in multipliers
        ]
        split = len(cycle_scales)
        return tasks, lambda results: (results[:split], results[split:])
    if name == "design":
        tasks = [CampaignTask(name, "design",
                              {"irq_count": scale.design_irqs})]
        return tasks, lambda results: results[0]
    raise ValueError(f"unknown experiment {name!r}")


def plan_campaign(names: Sequence[str], scale: ExperimentScale, seed: int,
                  ) -> "tuple[list[CampaignTask], dict[str, Callable]]":
    """Flatten the selected experiments into one task list.

    Per-experiment ``needs`` indices are local to that experiment's
    task list; flattening rebases them onto campaign-wide positions.
    """
    tasks: "list[CampaignTask]" = []
    merges: "dict[str, Callable]" = {}
    for name in names:
        experiment_tasks, merge = plan_experiment(name, scale, seed)
        base = len(tasks)
        for task in experiment_tasks:
            if task.needs:
                task = dataclasses.replace(
                    task, needs=tuple(base + need for need in task.needs)
                )
            tasks.append(task)
        merges[name] = merge
    return tasks, merges


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork is cheapest and inherits the imported modules; fall back to
    # the platform default (spawn) where fork is unavailable.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _record_task(telemetry: "CampaignTelemetry | None",
                 progress: "Callable[[int, int, CampaignTask], None] | None",
                 task: CampaignTask, index: int, done: int, total: int, *,
                 cached: bool, wall: float, wait: float, offset: float,
                 pid: int) -> None:
    if telemetry is not None:
        telemetry.tasks.append(TaskTelemetry(
            experiment=task.experiment, kind=task.kind, index=index,
            cached=cached, wall_seconds=wall, queue_wait_seconds=wait,
            started_offset_seconds=offset, worker_pid=pid,
        ))
    if progress is not None:
        progress(done, total, task)


def plan_subtrees(tasks: "list[CampaignTask]",
                  include: "Sequence[int] | None" = None,
                  ) -> "list[list[int]]":
    """Group task indices into dependency-connected subtrees.

    Every ``needs`` edge joins its two endpoints into the same group;
    independent tasks become singleton groups.  Each group lists its
    indices in ascending task-list order — ``needs`` always point to
    earlier indices, so that order is a valid execution order — and
    the groups themselves are ordered by their first task, keeping the
    scatter (and the merges that consume it) deterministic.

    ``include`` restricts planning to a subset of indices (the cache
    misses of a warm run); edges to excluded tasks are ignored — their
    results are already resolved and get injected into the subtree.
    """
    members = sorted(range(len(tasks)) if include is None else include)
    member_set = set(members)
    parent = {index: index for index in members}

    def find(index: int) -> int:
        root = index
        while parent[root] != root:
            root = parent[root]
        while parent[index] != root:
            parent[index], index = root, parent[index]
        return root

    for index in members:
        for need in tasks[index].needs:
            if not 0 <= need < index:
                raise ValueError(
                    f"subtree scheduling requires dependencies that point "
                    f"to earlier tasks; task {index} needs {need}")
            if need in member_set:
                parent[find(need)] = find(index)
    groups: "dict[int, list[int]]" = {}
    for index in members:
        groups.setdefault(find(index), []).append(index)
    return sorted(groups.values(), key=lambda group: group[0])


def _execute_subtree(item: "tuple") -> "tuple[list, list, Any]":
    """Pool target running one whole subtree inside a single worker.

    The subtree root's injected parents crossed the process boundary
    exactly once, in ``item``; every descendant then forks from the
    *live* result of its parent task — for fig7's prefix that means
    restoring the worker's own layered snapshot, never a re-pickle of
    an intermediate world.

    With a cache directory the worker replays hits and stores misses
    itself (`ResultCache` writes are atomic and concurrent-safe), with
    parent digests folded into each fingerprint from the *local*
    results — snapshot-bearing results digest over canonical plain
    data, so the fingerprints match the parent process's exactly.
    Keys the parent already probed (and missed) arrive precomputed in
    ``known_keys`` so the miss is not double-counted.
    """
    (indices, subtree_tasks, injected, injected_digests, known_keys,
     epoch, cache_dir) = item
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    results: "dict[int, Any]" = dict(injected)
    digests: "dict[int, str]" = dict(injected_digests)
    meta: "list[tuple[bool, float, float, int]]" = []
    pid = os.getpid()

    def need_digest(need: int) -> str:
        if need not in digests:
            digests[need] = result_digest(results[need])
        return digests[need]

    for position, index in enumerate(indices):
        task = subtree_tasks[position]
        pickup = time.monotonic() - epoch
        key = None
        if cache is not None:
            key = known_keys.get(index)
            if key is None:
                parents = tuple(need_digest(need) for need in task.needs)
                key = task_fingerprint(task, parent_digests=parents)
                entry = cache.load(key)
                if entry is not None:
                    results[index] = entry.result
                    meta.append((True, pickup, 0.0, pid))
                    continue
        run_task = task
        if task.needs and task.feed is not None:
            kwargs = dict(task.kwargs)
            kwargs[task.feed] = results[task.needs[0]]
            run_task = CampaignTask(task.experiment, task.kind, kwargs)
        started = time.perf_counter()
        result = execute_task(run_task)
        elapsed = time.perf_counter() - started
        if cache is not None:
            cache.store(key, task, result, elapsed)
        results[index] = result
        meta.append((False, pickup, elapsed, pid))
    return ([results[index] for index in indices], meta,
            cache.stats if cache is not None else None)


def _merge_cache_stats(into: "Any", delta: "Any") -> None:
    """Fold a worker cache handle's counters into the parent's."""
    for name in ("hits", "misses", "stores", "invalidations", "bytes_read",
                 "bytes_written", "saved_seconds", "computed_seconds"):
        setattr(into, name, getattr(into, name) + getattr(delta, name))


def _run_tasks_subtree(
    tasks: "list[CampaignTask]", jobs: int,
    emit: "Callable[[list[CampaignTask], list], None]",
    telemetry: "CampaignTelemetry | None" = None,
    progress: "Callable[[int, int, CampaignTask], None] | None" = None,
    epoch: "float | None" = None,
    cache: "ResultCache | None" = None,
) -> None:
    """Execute tasks as per-worker subtree assignments in one pool.

    With a cache, the parent first replays every hit it can resolve in
    dependency order (a fully warm run therefore spawns no pool at
    all); the remaining misses are grouped into subtrees whose
    already-resolved parents are injected into the work item.  Every
    subtree of the campaign goes to one pool in plan order; each runs
    start-to-finish inside one worker, and results scatter back to
    their campaign indices.

    Plan order keeps each experiment's tasks contiguous and ``needs``
    never cross an experiment, so experiments resolve in plan order:
    as soon as the next experiment's tasks have all resolved,
    ``emit(experiment_tasks, experiment_results)`` receives them in
    task order — whatever the jobs count — and the runner drops them.
    With one job, an experiment is emitted before any task of the
    next one runs.
    """
    call_started = time.monotonic()
    base = 0.0 if epoch is None else call_started - epoch
    total = len(tasks)
    done = 0
    results: "list[Any]" = [None] * total
    spans: "list[list[int]]" = []          # [start, stop) per experiment
    span_of: "list[int]" = []
    for index, task in enumerate(tasks):
        if not index or task.experiment != tasks[index - 1].experiment:
            spans.append([index, index])
        spans[-1][1] = index + 1
        span_of.append(len(spans) - 1)
    unresolved = [stop - start for start, stop in spans]
    emitted = 0

    def resolve(index: int, result: Any) -> None:
        nonlocal emitted
        results[index] = result
        unresolved[span_of[index]] -= 1
        while emitted < len(spans) and not unresolved[emitted]:
            start, stop = spans[emitted]
            emitted += 1
            own = results[start:stop]
            results[start:stop] = [None] * (stop - start)
            emit(tasks[start:stop], own)

    resolved_digests: "dict[int, str]" = {}
    known_keys: "dict[int, str]" = {}
    pending = set(range(total))
    if cache is not None:
        for index, task in enumerate(tasks):
            if any(need in pending for need in task.needs):
                continue        # an ancestor missed; must execute
            parents = tuple(resolved_digests[need] for need in task.needs)
            key = task_fingerprint(task, parent_digests=parents)
            entry = cache.load(key)
            if entry is None:
                known_keys[index] = key
                continue
            resolved_digests[index] = result_digest(entry.result)
            pending.discard(index)
            done += 1
            _record_task(telemetry, progress, task, index, done, total,
                         cached=True, wall=0.0, wait=0.0,
                         offset=base + time.monotonic() - call_started,
                         pid=os.getpid())
            resolve(index, entry.result)
    if not pending:
        return
    cache_dir = str(cache.directory) if cache is not None else None
    items = []
    for indices in plan_subtrees(tasks, include=pending):
        member_set = set(indices)
        injected: "dict[int, Any]" = {}
        injected_digests: "dict[int, str]" = {}
        for index in indices:
            for need in tasks[index].needs:
                if need not in member_set:
                    injected[need] = results[need]
                    injected_digests[need] = resolved_digests[need]
        items.append((indices, [tasks[index] for index in indices],
                      injected, injected_digests,
                      {index: known_keys[index] for index in indices
                       if index in known_keys},
                      call_started, cache_dir))

    def consume(outcome_iter: "Any") -> None:
        nonlocal done
        for item, (sub_results, meta, stats_delta) in zip(items,
                                                          outcome_iter):
            indices = item[0]
            if cache is not None and stats_delta is not None:
                _merge_cache_stats(cache.stats, stats_delta)
            for position, index in enumerate(indices):
                cached, pickup, elapsed, pid = meta[position]
                done += 1
                _record_task(telemetry, progress, tasks[index], index,
                             done, total, cached=cached, wall=elapsed,
                             wait=pickup, offset=base + pickup, pid=pid)
                resolve(index, sub_results[position])

    if jobs <= 1 or len(items) <= 1:
        consume(map(_execute_subtree, items))
        return
    # Imported here: serial and fully warm runs never pay for it.
    from concurrent.futures import ProcessPoolExecutor

    # A worker that dies surfaces as BrokenProcessPool from map, never
    # as a hang; on any failure, subtrees not yet started are dropped.
    pool = ProcessPoolExecutor(min(jobs, len(items)),
                               mp_context=_pool_context())
    try:
        consume(pool.map(_execute_subtree, items))
    finally:
        pool.shutdown(cancel_futures=True)


def run_campaign(names: Sequence[str], scale: ExperimentScale,
                 seed: int = 1, jobs: "int | None" = None,
                 cache: "ResultCache | None" = None,
                 telemetry: "CampaignTelemetry | None" = None,
                 progress: "Callable[[int, int, CampaignTask], None] | None"
                 = None,
                 store: "Any | None" = None,
                 sink: "Callable[[str, Any], None] | None" = None,
                 ) -> "dict[str, Any]":
    """Run the selected experiment campaigns as one campaign.

    ``jobs=1`` executes every task in-process, exactly like the
    original serial loops.  ``jobs=N`` fans the subtrees of *every*
    selected experiment out over one ``N``-worker
    :class:`~concurrent.futures.ProcessPoolExecutor`, one subtree per
    call (tasks have very uneven durations, so greedy scheduling
    matters, and one pool lets a long experiment overlap the others).
    A worker that dies raises
    :class:`~concurrent.futures.process.BrokenProcessPool`.  Either
    way each merge consumes its experiment's results in the fixed task
    order, so the merged results — and anything rendered from them —
    are byte-identical.

    Results stream: as soon as an experiment's tasks have all resolved
    (cache hits included), in ``names`` order, the runner hands its
    tasks to ``store``, runs its merge, passes ``(name, merged)`` to
    ``sink`` and drops the per-task results.  Without a ``sink`` the
    merged results are collected into the returned dict; with one, the
    returned dict stays empty.

    With a :class:`~repro.experiments.cache.ResultCache`, tasks whose
    content fingerprint matches a stored entry replay the pickled
    result instead of simulating; only misses run (and are stored).
    Results remain byte-identical to an uncached run.

    ``telemetry`` (a :class:`CampaignTelemetry`, filled in-place) and
    ``progress`` (called as ``progress(done, total, task)`` after each
    task completes, in the parent process, counting over the whole
    campaign) observe per-task timing without changing the
    ordered-results contract.

    The fig7 campaign forks its per-case tasks from a shared snapshot
    task (see :mod:`repro.sim.snapshot`); each connected ``needs``
    chain runs inside one worker, so the parent snapshot crosses the
    pool boundary once and descendants fork from live results against
    the shared world store.

    ``store`` is any object exposing ``write_task(task, result,
    index)`` — in practice a
    :class:`repro.store.capture.CampaignStoreWriter` — called once per
    task in task order, in the parent process, with the task's index
    *within its experiment*, just before that experiment's merge.  The
    runner never imports the store package; capture is observational
    and results pass through untouched, so merged results stay
    byte-identical with or without it.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    started = time.monotonic()
    tasks, merges = plan_campaign(names, scale, seed)
    epoch: "float | None" = None
    if telemetry is not None:
        telemetry.jobs = jobs
        if telemetry.epoch is None:
            telemetry.epoch = started
        epoch = telemetry.epoch
    merged: "dict[str, Any]" = {}
    deliver = sink if sink is not None else merged.__setitem__

    def emit(experiment_tasks: "list[CampaignTask]",
             experiment_results: list) -> None:
        if store is not None:
            for index, (task, result) in enumerate(
                    zip(experiment_tasks, experiment_results)):
                store.write_task(task, result, index)
        name = experiment_tasks[0].experiment
        deliver(name, merges[name](experiment_results))

    _run_tasks_subtree(tasks, jobs, emit, telemetry, progress, epoch, cache)
    if telemetry is not None:
        telemetry.wall_seconds += time.monotonic() - started
    return merged

