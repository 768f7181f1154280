"""Interleaved A/B benchmark of the run-artifact store's write cost.

``measure_store_ab`` runs the same quick campaign task list twice per
repeat — once plain, once writing one artifact per task into a
throwaway store directory — with the leg order alternating between
repeats, a ``gc.collect()`` before each timed leg, and one untimed
warm-up pair first (the warm-up absorbs first-call costs like
source-digest memoization).  Best-of-repeats per leg; the reported
``overhead`` is ``(store - plain) / plain`` of the best times.  The
acceptance bar (store capture costs <5% of campaign wall time at the
quick scale) is recorded as ``store_ab`` in the ``--bench-json``
history, where ``compare_bench.py`` watches it with an absolute cap
(a relative regression check is meaningless for a number expected to
hover near zero).
"""

from __future__ import annotations

import gc
import tempfile
import time
from dataclasses import dataclass

from repro.experiments.scale import QUICK, ExperimentScale
from repro.store.capture import (
    CampaignStoreWriter,
    StoreWriteStats,
    campaign_metadata,
)

#: Campaign the A/B replays (validation: two real simulation tasks).
DEFAULT_EXPERIMENTS = ("validation",)


@dataclass(frozen=True)
class StoreABResult:
    """Outcome of the store-write overhead race."""

    plain_seconds: float        #: best plain campaign leg
    store_seconds: float        #: best campaign-plus-capture leg
    write_stats: StoreWriteStats
    repeats: int

    @property
    def overhead(self) -> float:
        """End-to-end leg delta: ``(store - plain) / plain``.

        The whole-leg A/B measure; on short legs it carries the
        scheduler's noise floor on top of the true capture cost, so
        the cap check uses :attr:`write_ratio` instead.
        """
        if self.plain_seconds <= 0:
            return 0.0
        return (self.store_seconds - self.plain_seconds) / self.plain_seconds

    @property
    def write_ratio(self) -> float:
        """Precise capture cost: instrumented write seconds / plain leg.

        ``write_seconds`` is timed inside ``write_task``/``finalize``
        around exactly the work capture adds (summary extraction,
        column packing, interning, hashing, file writes, the index),
        so this ratio is stable where the end-to-end ``overhead``
        bounces with machine noise — it is the number the <5%
        acceptance cap is enforced on.
        """
        if self.plain_seconds <= 0:
            return 0.0
        return self.write_stats.write_seconds / self.plain_seconds


def _run_leg(tasks, capture: bool,
             campaign_meta) -> "tuple[float, StoreWriteStats | None]":
    """One timed leg: execute the tasks, optionally capturing them."""
    from repro.experiments.runner import _run_tasks_subtree

    gc.collect()
    if not capture:
        started = time.perf_counter()
        _run_tasks_subtree(tasks, 1, lambda own_tasks, own_results: None)
        return time.perf_counter() - started, None
    with tempfile.TemporaryDirectory(prefix="repro-store-ab-") as tmp:
        started = time.perf_counter()
        writer = CampaignStoreWriter(tmp, campaign_meta)

        def capture_experiment(own_tasks, own_results) -> None:
            # Same indexing as run_campaign: within the experiment.
            for index, (task, result) in enumerate(zip(own_tasks,
                                                       own_results)):
                writer.write_task(task, result, index)

        _run_tasks_subtree(tasks, 1, capture_experiment)
        stats = writer.finalize()
        return time.perf_counter() - started, stats


def measure_store_ab(experiments=DEFAULT_EXPERIMENTS,
                     scale: ExperimentScale = QUICK, seed: int = 1,
                     repeats: int = 5) -> StoreABResult:
    """Race a campaign with artifact capture against the same one without.

    The store leg pays for everything capture adds — summary
    extraction, column packing, interning, hashing, the atomic file
    writes, and the campaign index — inside its timed window.  The
    default scale is ``QUICK``, the scale the <5% acceptance bar is
    defined on (at smaller scales the legs are too short for the
    ratio to be meaningful).
    """
    from repro.experiments.runner import plan_campaign

    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    tasks, _ = plan_campaign(list(experiments), scale, seed)
    campaign_meta = campaign_metadata(scale_name=scale.name, seed=seed)
    # Untimed warm-up pair: first-call costs (imports, per-kind source
    # digests, bytecode warmth) must not land in either timed leg.
    for capture in (False, True):
        _run_leg(tasks, capture, campaign_meta)
    best_plain = float("inf")
    best_store = float("inf")
    write_stats = StoreWriteStats()
    for repeat in range(repeats):
        legs = (False, True) if repeat % 2 == 0 else (True, False)
        for capture in legs:
            elapsed, stats = _run_leg(tasks, capture, campaign_meta)
            if capture:
                if elapsed < best_store:
                    best_store = elapsed
                    write_stats = stats
            else:
                best_plain = min(best_plain, elapsed)
    return StoreABResult(plain_seconds=best_plain, store_seconds=best_store,
                         write_stats=write_stats, repeats=repeats)
