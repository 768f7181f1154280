"""Straight-line campaign oracle: the byte-identity reference for the runner.

A deliberately naive twin of :func:`repro.experiments.runner.run_campaign`.
It plans the same task list, then runs every task in list order,
in-process, without its ``feed`` kwarg: forked tasks (the fig7 cases)
therefore simulate their shared prefix straight-line instead of
forking a snapshot, and the snapshot-producer slot they would have
read stays ``None`` — the merge skips that slot.
No pool, no subtree grouping, no world-store forks.  Whatever the
production executor does, its merged results must equal this one's
(see ``tests/test_campaign_runner.py``).

Given a cache, the oracle also stores every task — snapshot producers
included, since their result digests key their children — under the
fingerprint the production executor looks up, so a cache it writes can
be checked to be fully warm for ``run_campaign``.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from repro.experiments.cache import ResultCache, result_digest, task_fingerprint
from repro.experiments.runner import execute_task, plan_campaign
from repro.experiments.scale import ExperimentScale


def run_straight_line(names: Sequence[str], scale: ExperimentScale,
                      seed: int = 1,
                      cache: "ResultCache | None" = None) -> "dict[str, Any]":
    """Merged campaign results computed without any snapshot forking."""
    tasks, merges = plan_campaign(names, scale, seed)
    producers = {need for task in tasks for need in task.needs}
    results: "list[Any]" = []
    digests: "list[str | None]" = []
    for index, task in enumerate(tasks):
        if cache is None:
            results.append(None if index in producers
                           else execute_task(task))
            continue
        started = time.perf_counter()
        result = execute_task(task)
        elapsed = time.perf_counter() - started
        parents = tuple(digests[need] for need in task.needs)
        cache.store(task_fingerprint(task, parent_digests=parents),
                    task, result, elapsed)
        digests.append(result_digest(result))
        results.append(None if index in producers else result)
    return {
        name: merges[name]([result for task, result in zip(tasks, results)
                            if task.experiment == name])
        for name in names
    }
