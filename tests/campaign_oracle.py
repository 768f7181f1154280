"""Straight-line campaign oracle: the byte-identity reference for the runner.

A deliberately naive twin of :func:`repro.experiments.runner.run_campaign`.
It plans the same task list, then runs every task in list order,
in-process.  No pool, no streaming, no cache pre-pass.  Whatever the
production executor does, its merged results must equal this one's
(see ``tests/test_campaign_runner.py``).

Given a cache, the oracle also stores every task under the fingerprint
the production executor looks up, so a cache it writes can be checked
to be fully warm for ``run_campaign``.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from repro.experiments.cache import ResultCache, task_fingerprint
from repro.experiments.runner import execute_task, plan_campaign
from repro.experiments.scale import ExperimentScale


def run_straight_line(names: Sequence[str], scale: ExperimentScale,
                      seed: int = 1,
                      cache: "ResultCache | None" = None) -> "dict[str, Any]":
    """Merged campaign results computed task by task, in plan order."""
    tasks, merges = plan_campaign(names, scale, seed)
    results: "list[Any]" = []
    for task in tasks:
        started = time.perf_counter()
        result = execute_task(task)
        if cache is not None:
            cache.store(task_fingerprint(task), task, result,
                        time.perf_counter() - started)
        results.append(result)
    return {
        name: merges[name]([result for task, result in zip(tasks, results)
                            if task.experiment == name])
        for name in names
    }
