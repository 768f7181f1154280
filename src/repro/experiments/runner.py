"""Parallel campaign runner for the paper-reproduction experiments.

Every experiment campaign decomposes into *tasks* that are independent
by construction — each regenerates its own inputs from a
deterministically derived seed (e.g. ``seed + load_index`` for the
per-load Fig. 6 cells) instead of sharing mutable state:

========== =====================================================
campaign   task decomposition
========== =====================================================
fig6a/b/c  one task per interrupt load (3 each)
fig7       one task per bound case a–d (4)
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

No task depends on another: every task runs straight-line from its
own kwargs, so each is one pool work item and one cache entry.

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
    import_closure,
    task_fingerprint,
)
from repro.experiments.design import run_design
from repro.experiments.fig6 import Fig6Config, merge_fig6_loads, run_fig6_load
from repro.experiments.fig7 import FIG7_CASES, Fig7Config, run_fig7_case
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
    """One picklable, independent unit of campaign work."""

    experiment: str                     #: campaign id ("fig6a", "sweep", ...)
    kind: str                           #: dispatch key into TASK_FUNCTIONS
    kwargs: "dict[str, Any]" = field(default_factory=dict)

    def __repr__(self) -> str:          # compact pool-debugging aid
        return f"CampaignTask({self.experiment}:{self.kind})"


#: Task dispatch registry.  Entries must be top-level functions so that
#: worker processes can unpickle the reference regardless of the
#: multiprocessing start method.
TASK_FUNCTIONS: "dict[str, Callable[..., Any]]" = {
    "fig6-load": run_fig6_load,
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

    jobs: int = 1                   #: workers used (1 when in-process)
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
        tasks = [
            CampaignTask(name, "fig7-case",
                         {"label": label, "config": config})
            for label in labels
        ]
        return tasks, lambda results: dict(zip(labels, results))
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
    """Flatten the selected experiments into one task list."""
    tasks: "list[CampaignTask]" = []
    merges: "dict[str, Callable]" = {}
    for name in names:
        experiment_tasks, merges[name] = plan_experiment(name, scale, seed)
        tasks += experiment_tasks
    return tasks, merges


def _pool_context() -> "Any":
    # fork is cheapest and inherits the imported modules; fall back to
    # the platform default (spawn) where fork is unavailable.
    import multiprocessing

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


def _execute_item(item: "tuple") -> "tuple[Any, float, float, int, Any]":
    """Pool target running one task (in-process or inside a worker).

    With a cache directory the worker stores its result itself
    (`ResultCache` writes are atomic and concurrent-safe) under the key
    the parent already probed, so the miss is not double-counted.
    Returns ``(result, pickup, elapsed, pid, cache stats or None)``.
    """
    task, key, epoch, cache_dir = item
    pickup = time.monotonic() - epoch
    started = time.perf_counter()
    result = execute_task(task)
    elapsed = time.perf_counter() - started
    stats = None
    if cache_dir is not None:
        cache = ResultCache(cache_dir)
        cache.store(key, task, result, elapsed)
        stats = cache.stats
    return result, pickup, elapsed, os.getpid(), stats


def _merge_cache_stats(into: "Any", delta: "Any") -> None:
    """Fold a worker cache handle's counters into the parent's."""
    for name in ("hits", "misses", "stores", "invalidations", "bytes_read",
                 "bytes_written", "saved_seconds", "computed_seconds"):
        setattr(into, name, getattr(into, name) + getattr(delta, name))


def _run_tasks(
    tasks: "list[CampaignTask]", jobs: int,
    emit: "Callable[[list[CampaignTask], list], None]",
    telemetry: "CampaignTelemetry | None" = None,
    progress: "Callable[[int, int, CampaignTask], None] | None" = None,
    epoch: "float | None" = None,
    cache: "ResultCache | None" = None,
) -> int:
    """Execute tasks in one pool; returns the worker count used.

    With a cache, the parent first replays every hit (a fully warm run
    therefore spawns no pool at all); each remaining miss is one work
    item.  Every item of the campaign goes to one pool in plan order,
    and results scatter back to their campaign indices.

    Plan order keeps each experiment's tasks contiguous, so experiments
    resolve in plan order: as soon as the next experiment's tasks have
    all resolved, ``emit(experiment_tasks, experiment_results)``
    receives them in task order — whatever the jobs count — and the
    runner drops them.  With one job, an experiment is emitted before
    any task of the next one runs.
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

    cache_dir = str(cache.directory) if cache is not None else None
    if cache is not None:
        cache.read_import_memo()
    pending: "list[int]" = []
    items = []
    for index, task in enumerate(tasks):
        key = None
        if cache is not None:
            key = task_fingerprint(task)
            entry = cache.load(key)
            if entry is not None:
                done += 1
                _record_task(telemetry, progress, task, index, done, total,
                             cached=True, wall=0.0, wait=0.0,
                             offset=base + time.monotonic() - call_started,
                             pid=os.getpid())
                resolve(index, entry.result)
                continue
        pending.append(index)
        items.append((task, key, call_started, cache_dir))
    if cache is not None:
        cache.write_import_memo()

    def consume(outcome_iter: "Any") -> None:
        nonlocal done
        for index, (result, pickup, elapsed, pid, stats_delta) in zip(
                pending, outcome_iter):
            if stats_delta is not None:
                _merge_cache_stats(cache.stats, stats_delta)
            done += 1
            _record_task(telemetry, progress, tasks[index], index,
                         done, total, cached=False, wall=elapsed,
                         wait=pickup, offset=base + pickup, pid=pid)
            resolve(index, result)

    if jobs <= 1 or len(items) <= 1:
        consume(map(_execute_item, items))
        return 1
    # Imported here: serial and fully warm runs never pay for it.
    from concurrent.futures import ProcessPoolExecutor

    # The task modules import the simulator inside their functions:
    # import it once here so that the forked workers inherit it.
    for module in sorted({TASK_FUNCTIONS[tasks[index].kind].__module__
                          for index in pending}):
        import_closure(module)

    # A worker that dies surfaces as BrokenProcessPool from map, never
    # as a hang; on any failure, items not yet started are dropped.
    workers = min(jobs, len(items))
    pool = ProcessPoolExecutor(workers, mp_context=_pool_context())
    try:
        consume(pool.map(_execute_item, items))
    finally:
        pool.shutdown(cancel_futures=True)
    return workers


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
    original serial loops.  ``jobs=N`` fans the tasks of *every*
    selected experiment out over one
    :class:`~concurrent.futures.ProcessPoolExecutor` of at most ``N``
    workers, one task per call (tasks have very uneven durations, so
    greedy scheduling matters, and one pool lets a long experiment
    overlap the others).
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
    ordered-results contract.  ``telemetry.jobs`` records the workers
    actually used: 1 in-process, else ``min(jobs, tasks to compute)``.

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

    workers = _run_tasks(tasks, jobs, emit, telemetry, progress, epoch, cache)
    if telemetry is not None:
        telemetry.jobs = workers
        telemetry.wall_seconds += time.monotonic() - started
    return merged

