"""Campaign-side capture: one run artifact per task, plus an index.

The campaign runner stays store-agnostic — it duck-calls
``store.write_task(task, result, index)`` on whatever object the CLI
hands it, so this module may import experiment modules without
creating an import cycle.  It imports them, and the simulator they
pull in, only inside the functions that need them: ``runstore``
imports this module for :data:`INDEX_NAME`, and a store query must
not load the simulator.

Capture walks each task result recursively (dataclasses, dicts,
lists/tuples) for ``ScenarioSummary``-shaped legs — anything carrying
latency ``columns`` + ``latencies_us`` + ``summary`` — and writes every
leg's columns straight into one :class:`~repro.store.artifact.ArtifactWriter`
per task, labelled by its path in the result ("monitored", "boosted",
"scenario", ...).  Tasks whose results hold no latency rows (snapshot
prefixes, context-switch comparisons, the design point) are skipped
but still listed in the campaign index so a query layer can tell
"no data" from "not captured".

Artifact metadata carries the same fingerprint fields the result
cache keys on — experiment, task kind, kwargs-derived scenario/load/
seed, campaign scale, and the transitive source digest of the task's
implementing module — so stored runs are joinable with cache entries
and exported CSV manifests.  Metadata is free-form JSON: fields that
older stores wrote and this one no longer does (``idle_skip``,
``queue_backend``) still load and are ignored.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.store.artifact import ARTIFACT_SUFFIX, ArtifactWriter

#: Campaign index format identifier (the sibling of the artifacts).
INDEX_FORMAT = "repro-store-index-v1"

#: Name of the campaign-level index file inside a store directory.
INDEX_NAME = "index.json"


def _is_summary(value: Any) -> bool:
    return (hasattr(value, "columns") and hasattr(value, "latencies_us")
            and hasattr(value, "summary"))


def extract_summaries(result: Any, prefix: str = "",
                      ) -> "list[tuple[str, Any]]":
    """Find every ScenarioSummary-shaped leg inside a task result.

    Returns ``(leg_label, summary)`` pairs in a deterministic
    depth-first order; the label is the dotted field/key/index path
    from the result root ("" for a bare summary).
    """
    found: "list[tuple[str, Any]]" = []
    _walk(result, prefix, found)
    return found


def _walk(value: Any, path: str, found: "list[tuple[str, Any]]") -> None:
    if _is_summary(value):
        found.append((path, value))
        return
    if is_dataclass(value) and not isinstance(value, type):
        for spec in fields(value):
            child = getattr(value, spec.name)
            _walk(child, f"{path}.{spec.name}" if path else spec.name, found)
        return
    if isinstance(value, dict):
        for key, child in value.items():
            _walk(child, f"{path}.{key}" if path else str(key), found)
        return
    if isinstance(value, (list, tuple)):
        for index, child in enumerate(value):
            _walk(child, f"{path}.{index}" if path else str(index), found)


#: Memoized per-kind source digests: the transitive fingerprint walk
#: re-parses nothing after the first call, but still re-traverses the
#: import graph — a per-task cost worth skipping in the capture path.
_SOURCE_DIGESTS: "dict[str, Optional[str]]" = {}


def _task_source_digest(kind: str) -> Optional[str]:
    """Transitive source digest of the module implementing ``kind``.

    Deferred import: the runner imports nothing from ``repro.store``,
    and this module reaches back into the runner only at call time.
    """
    if kind in _SOURCE_DIGESTS:
        return _SOURCE_DIGESTS[kind]
    from repro.experiments.cache import source_fingerprint
    from repro.experiments.runner import TASK_FUNCTIONS

    function = TASK_FUNCTIONS.get(kind)
    digest = (None if function is None
              else source_fingerprint(function.__module__))
    _SOURCE_DIGESTS[kind] = digest
    return digest


def task_metadata(task: Any, index: int,
                  campaign_meta: "dict[str, Any]") -> "dict[str, Any]":
    """Self-describing metadata header for one task's artifact."""
    kwargs = dict(task.kwargs)
    meta: "dict[str, Any]" = dict(campaign_meta)
    meta.update({
        "experiment": task.experiment,
        "kind": task.kind,
        "task_index": index,
    })
    # Scenario / case label, wherever the task kind spells it.
    for key in ("scenario", "label"):
        if isinstance(kwargs.get(key), str):
            meta["scenario"] = kwargs[key]
            break
    else:
        meta.setdefault("scenario", task.experiment)
    # Interrupt load, for the per-load fig6/tab62 cells.
    load_index = kwargs.get("load_index")
    if isinstance(load_index, int):
        loads = kwargs.get("loads")
        if loads is None and hasattr(kwargs.get("config"), "loads"):
            loads = kwargs["config"].loads
        if loads is not None and 0 <= load_index < len(loads):
            meta["load"] = loads[load_index]
        meta["load_index"] = load_index
    # Per-task seed, preferring the explicit kwarg over config.seed,
    # with the fig6 per-load derivation applied (seed + load_index).
    seed = kwargs.get("seed")
    if seed is None and hasattr(kwargs.get("config"), "seed"):
        seed = kwargs["config"].seed
    if isinstance(seed, int):
        if task.kind == "fig6-load" and isinstance(load_index, int):
            seed += load_index
        meta["task_seed"] = seed
    digest = _task_source_digest(task.kind)
    if digest is not None:
        meta["source_digest"] = digest
    return meta


def campaign_metadata(scale_name: str, seed: int) -> "dict[str, Any]":
    """Campaign-wide metadata fields shared by every artifact.

    The jobs count is left out: it only changes scheduling, so a
    campaign's artifacts are byte-identical at every jobs count.
    """
    return {"scale": scale_name, "campaign_seed": seed}


@dataclass
class StoreWriteStats:
    """Write-side counters, fed to telemetry."""

    artifacts_written: int = 0
    rows_written: int = 0
    trace_rows_written: int = 0
    bytes_written: int = 0
    write_seconds: float = 0.0
    skipped_tasks: int = 0

    def as_dict(self) -> "dict[str, Any]":
        """The counters the campaign index records: all but
        ``write_seconds``, a wall time, so that two identical campaigns
        write byte-equal indexes."""
        return {
            "artifacts_written": self.artifacts_written,
            "rows_written": self.rows_written,
            "trace_rows_written": self.trace_rows_written,
            "bytes_written": self.bytes_written,
            "skipped_tasks": self.skipped_tasks,
        }


class CampaignStoreWriter:
    """Writes one artifact per campaign task into a store directory.

    The runner calls :meth:`write_task` after each task resolves (in
    task order, in the parent process — workers never touch the
    store); :meth:`finalize` lands the campaign index atomically.
    Capture is purely additive: results pass through untouched, so CSV
    exports and cached pickles stay byte-identical with or without a
    store attached.
    """

    def __init__(self, directory: "str | os.PathLike[str]",
                 campaign_meta: "dict[str, Any] | None" = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.campaign_meta = dict(campaign_meta or {})
        self.stats = StoreWriteStats()
        self._entries: "list[dict[str, Any]]" = []

    # ------------------------------------------------------- capture

    def write_task(self, task: Any, result: Any, index: int) -> Optional[str]:
        """Persist one task result; returns the artifact filename."""
        started = time.perf_counter()
        legs = extract_summaries(result)
        entry: "dict[str, Any]" = {
            "experiment": task.experiment,
            "kind": task.kind,
            "task_index": index,
        }
        if not legs:
            entry["artifact"] = None
            entry["rows"] = 0
            self._entries.append(entry)
            self.stats.skipped_tasks += 1
            self.stats.write_seconds += time.perf_counter() - started
            return None
        name = f"task-{index:04d}-{task.experiment}-{task.kind}{ARTIFACT_SUFFIX}"
        metadata = task_metadata(task, index, self.campaign_meta)
        rows = 0
        with ArtifactWriter(self.directory / name, metadata) as writer:
            for leg, summary in legs:
                rows += writer.append_summary(leg, summary.columns,
                                              summary.latencies_us)
        entry["artifact"] = name
        entry["rows"] = rows
        entry["legs"] = [leg for leg, _ in legs]
        entry["metadata"] = metadata
        self._entries.append(entry)
        self.stats.artifacts_written += 1
        self.stats.rows_written += rows
        self.stats.bytes_written += (self.directory / name).stat().st_size
        self.stats.write_seconds += time.perf_counter() - started
        return name

    def write_traced_run(self, run: Any,
                         name: str = "traced-run" + ARTIFACT_SUFFIX,
                         payloads: "Optional[Sequence[str]]" = None,
                         ) -> Optional[str]:
        """Persist a traced replay (latency + trace columns) if traced.

        ``run`` is a :class:`repro.telemetry.run.TracedRun`; its
        recorder holds the full event stream of the replayed fig6
        cell, which lands as trace columns next to the latency rows.
        ``payloads`` optionally carries the events' encoded data
        (:func:`repro.store.artifact.encode_trace_data`).
        """
        started = time.perf_counter()
        metadata = dict(self.campaign_meta)
        metadata.update({
            "experiment": f"fig6{run.scenario}",
            "kind": "traced-replay",
            "scenario": f"fig6{run.scenario}",
            "load": run.load,
            "task_seed": run.seed,
        })
        result = run.result
        rows = 0
        with ArtifactWriter(self.directory / name, metadata) as writer:
            rows += writer.append_summary("scenario", result.columns,
                                          result.latencies_us)
            trace_rows = writer.append_trace(run.trace.events, payloads)
        self._entries.append({
            "experiment": metadata["experiment"],
            "kind": "traced-replay",
            "task_index": None,
            "artifact": name,
            "rows": rows,
            "trace_rows": trace_rows,
            "legs": ["scenario"],
            "metadata": metadata,
        })
        self.stats.artifacts_written += 1
        self.stats.rows_written += rows
        self.stats.trace_rows_written += trace_rows
        self.stats.bytes_written += (self.directory / name).stat().st_size
        self.stats.write_seconds += time.perf_counter() - started
        return name

    def merge(self, other: "CampaignStoreWriter") -> None:
        """Append ``other``'s index entries and fold in its write stats.

        ``other`` wrote into the same directory, possibly in another
        process; merging it puts its entries where this writer's own
        writes at this point would have put them.
        """
        self._entries += other._entries
        for spec in fields(StoreWriteStats):
            setattr(self.stats, spec.name,
                    getattr(self.stats, spec.name)
                    + getattr(other.stats, spec.name))

    # ------------------------------------------------------ finalize

    def finalize(self) -> StoreWriteStats:
        """Write the campaign index atomically; return write stats."""
        started = time.perf_counter()
        index = {
            "format": INDEX_FORMAT,
            "campaign": self.campaign_meta,
            "tasks": self._entries,
            "stats": self.stats.as_dict(),
        }
        blob = json.dumps(index, indent=2, sort_keys=True) + "\n"
        fd, tmp_name = tempfile.mkstemp(dir=self.directory,
                                        prefix=INDEX_NAME, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(blob)
            os.replace(tmp_name, self.directory / INDEX_NAME)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.write_seconds += time.perf_counter() - started
        return self.stats


def artifact_from_hypervisor(hv: Any, path: "str | os.PathLike[str]",
                             metadata: "dict[str, Any] | None" = None,
                             include_trace: bool = True) -> int:
    """Persist a live hypervisor's latency columns (and trace) directly.

    The round-trip building block the property tests pin: the stored
    µs column is exactly ``latency_columns.latencies_us_array(clock)``.
    """
    # Deferred: the experiments' common module imports the simulator.
    from repro.experiments.common import LatencyColumnData

    columns = hv.latency_columns
    latencies = columns.latencies_us_array(hv.clock)
    with ArtifactWriter(path, metadata) as writer:
        rows = writer.append_summary("scenario",
                                     LatencyColumnData.of(columns), latencies)
        if include_trace and len(hv.trace):
            writer.append_trace(hv.trace.events)
    return rows
