"""Query layer over a directory of run artifacts.

A :class:`RunStore` scans a store directory (the campaign index when
present, otherwise every ``*.rpart`` header) and answers the three
fleet-scale questions the ROADMAP names without re-running anything:

* **filter** — select artifacts by experiment / kind / scenario /
  seed / load (metadata predicates, header-only reads);
* **aggregate** — merge the stored µs latency columns of the matching
  artifacts (optionally row-filtered by leg / source / handling mode)
  and summarize them through the exact
  :func:`repro.metrics.stats.summarize` single-sort fast path the live
  experiments use, plus arbitrary extra percentiles (p99.9, ...) off
  the same single sorted copy — so a store aggregate over one
  campaign's artifacts is *bit-identical* to summarizing the live
  ``LatencyColumns``, which the tests pin;
* **diff** — join two stores on (experiment, scenario, load) groups
  and report per-group latency deltas (mean/p50/p99/max), the
  machinery ``query diff`` and the CI query smoke leg drive.

Artifacts merge in campaign task order (index order), matching how
the experiment merge functions concatenate per-task samples, so
aggregates are independent of directory listing order.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.metrics.stats import (
    LatencySummary,
    percentile,
    summarize,
    summarize_sorted,
)
from repro.store.artifact import ARTIFACT_SUFFIX, RunArtifact
from repro.store.capture import INDEX_NAME


@dataclass
class StoreQueryStats:
    """Read-side counters, fed to the ``store_*`` telemetry collector."""

    artifacts_scanned: int = 0
    artifacts_read: int = 0
    rows_scanned: int = 0
    bytes_read: int = 0
    queries: int = 0
    query_seconds: float = 0.0

    def as_dict(self) -> "dict[str, Any]":
        return {
            "artifacts_scanned": self.artifacts_scanned,
            "artifacts_read": self.artifacts_read,
            "rows_scanned": self.rows_scanned,
            "bytes_read": self.bytes_read,
            "queries": self.queries,
            "query_seconds": round(self.query_seconds, 4),
        }


@dataclass(frozen=True)
class ArtifactRef:
    """One scanned artifact: path + metadata, loaded lazily on demand."""

    path: Path
    metadata: "Mapping[str, Any]"
    order: int                    #: campaign task order (merge order)

    def matches(self, filters: "Mapping[str, Any]") -> bool:
        for key, wanted in filters.items():
            if wanted is None:
                continue
            value = self.metadata.get(key)
            if isinstance(wanted, (list, tuple, set, frozenset)):
                if value not in wanted:
                    return False
            elif isinstance(wanted, float) and isinstance(value, (int, float)):
                if abs(float(value) - wanted) > 1e-12:
                    return False
            elif value != wanted:
                return False
        return True


@dataclass(frozen=True)
class AggregateResult:
    """One aggregate answer: the standard summary + extra percentiles."""

    count: int
    summary: "LatencySummary | None"
    percentiles: "dict[str, float]"
    artifacts: int

    def as_dict(self) -> "dict[str, Any]":
        payload: "dict[str, Any]" = {
            "count": self.count,
            "artifacts": self.artifacts,
            "percentiles": dict(self.percentiles),
        }
        if self.summary is not None:
            payload["summary"] = {
                "count": self.summary.count,
                "mean": self.summary.mean,
                "minimum": self.summary.minimum,
                "maximum": self.summary.maximum,
                "p50": self.summary.p50,
                "p95": self.summary.p95,
                "p99": self.summary.p99,
                "stddev": self.summary.stddev,
            }
        return payload


@dataclass(frozen=True)
class GroupDelta:
    """Per-group latency delta between two stores (B minus A)."""

    group: "tuple[Any, ...]"
    count_a: int
    count_b: int
    mean_a: float
    mean_b: float
    p50_delta: float
    p99_delta: float
    max_delta: float

    @property
    def mean_delta(self) -> float:
        return self.mean_b - self.mean_a

    def as_dict(self) -> "dict[str, Any]":
        experiment, scenario, load = self.group
        return {
            "experiment": experiment,
            "scenario": scenario,
            "load": load,
            "count_a": self.count_a,
            "count_b": self.count_b,
            "mean_a": self.mean_a,
            "mean_b": self.mean_b,
            "mean_delta": self.mean_delta,
            "p50_delta": self.p50_delta,
            "p99_delta": self.p99_delta,
            "max_delta": self.max_delta,
        }


@dataclass
class DiffResult:
    """A two-store diff: joined group deltas + unmatched groups."""

    groups: "list[GroupDelta]" = field(default_factory=list)
    only_in_a: "list[tuple[Any, ...]]" = field(default_factory=list)
    only_in_b: "list[tuple[Any, ...]]" = field(default_factory=list)

    def as_dict(self) -> "dict[str, Any]":
        return {
            "groups": [delta.as_dict() for delta in self.groups],
            "only_in_a": [list(group) for group in self.only_in_a],
            "only_in_b": [list(group) for group in self.only_in_b],
        }


class RunStore:
    """A directory of run artifacts, scanned once, queried many times.

    The scan prefers the campaign ``index.json`` (one read, preserves
    task order); directories without one — partial copies, hand-rolled
    artifact piles — fall back to header-only reads of every
    ``*.rpart`` file in sorted-name order.
    """

    def __init__(self, directory: "str | os.PathLike[str]",
                 stats: "StoreQueryStats | None" = None):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise FileNotFoundError(
                f"run store directory not found: {self.directory}"
            )
        self.stats = stats if stats is not None else StoreQueryStats()
        self._cache: "dict[Path, RunArtifact]" = {}
        self.refs = self._scan()

    # ---------------------------------------------------------- scan

    def _scan(self) -> "list[ArtifactRef]":
        started = time.perf_counter()
        refs: "list[ArtifactRef]" = []
        index_path = self.directory / INDEX_NAME
        if index_path.is_file():
            index = json.loads(index_path.read_text())
            for order, entry in enumerate(index.get("tasks", [])):
                name = entry.get("artifact")
                if not name:
                    continue
                path = self.directory / name
                if not path.is_file():
                    continue
                metadata = entry.get("metadata")
                if metadata is None:
                    metadata = RunArtifact.read_metadata(path)
                refs.append(ArtifactRef(path, metadata, order))
        else:
            names = sorted(self.directory.glob("*" + ARTIFACT_SUFFIX))
            for order, path in enumerate(names):
                refs.append(ArtifactRef(
                    path, RunArtifact.read_metadata(path), order))
        self.stats.artifacts_scanned += len(refs)
        self.stats.query_seconds += time.perf_counter() - started
        return refs

    def _load(self, ref: ArtifactRef) -> RunArtifact:
        artifact = self._cache.get(ref.path)
        if artifact is None:
            artifact = RunArtifact.read(ref.path)
            self._cache[ref.path] = artifact
            self.stats.artifacts_read += 1
            self.stats.rows_scanned += artifact.latency_rows
            self.stats.bytes_read += ref.path.stat().st_size
        return artifact

    # --------------------------------------------------------- filter

    def select(self, experiment: "str | Sequence[str] | None" = None,
               kind: Optional[str] = None,
               scenario: Optional[str] = None,
               seed: Optional[int] = None,
               load: Optional[float] = None,
               ) -> "list[ArtifactRef]":
        """Artifacts whose metadata matches every given predicate."""
        filters = {
            "experiment": (tuple(experiment)
                           if isinstance(experiment, (list, tuple, set))
                           else experiment),
            "kind": kind,
            "scenario": scenario,
            "task_seed": seed,
            "load": load,
        }
        return [ref for ref in self.refs if ref.matches(filters)]

    # ------------------------------------------------------ aggregate

    def latencies(self, refs: "Iterable[ArtifactRef] | None" = None,
                  leg: Optional[str] = None, source: Optional[str] = None,
                  mode: Optional[str] = None, **meta_filters: Any) -> array:
        """Merged µs latency column across matching artifacts.

        Artifacts merge in campaign task order; rows stay in each
        artifact's completion order — the concatenation the experiment
        merge functions themselves produce.
        """
        if refs is None:
            refs = self.select(**meta_filters)
        merged = array("d")
        for ref in sorted(refs, key=lambda r: r.order):
            artifact = self._load(ref)
            merged.extend(artifact.latencies_us(leg=leg, source=source,
                                                mode=mode))
        return merged

    def aggregate(self, percentiles: "Sequence[float]" = (),
                  leg: Optional[str] = None, source: Optional[str] = None,
                  mode: Optional[str] = None,
                  **meta_filters: Any) -> AggregateResult:
        """Summary + extra percentiles over the matching latency rows.

        ``percentiles`` are given as percent values (99.9 means the
        p99.9); the standard eight-number summary always comes from
        :func:`repro.metrics.stats.summarize_sorted` (the tail of
        ``summarize``) so its values are bit-identical to a live-run
        summary of the same sample, and the sample is sorted once.
        """
        started = time.perf_counter()
        self.stats.queries += 1
        refs = self.select(**meta_filters)
        merged = self.latencies(refs, leg=leg, source=source, mode=mode)
        if not merged:
            result = AggregateResult(0, None, {}, len(refs))
        else:
            ordered = sorted(merged)
            summary = summarize_sorted(ordered)
            extra = {f"p{percent:g}": percentile(ordered, percent / 100.0)
                     for percent in percentiles}
            result = AggregateResult(len(merged), summary, extra, len(refs))
        self.stats.query_seconds += time.perf_counter() - started
        return result

    # ----------------------------------------------------------- diff

    def _group_key(self, ref: ArtifactRef) -> "tuple[Any, ...]":
        return (ref.metadata.get("experiment"),
                ref.metadata.get("scenario"),
                ref.metadata.get("load"))

    def _grouped(self, **meta_filters: Any,
                 ) -> "dict[tuple[Any, ...], array]":
        groups: "dict[tuple[Any, ...], array]" = {}
        for ref in sorted(self.select(**meta_filters),
                          key=lambda r: r.order):
            key = self._group_key(ref)
            merged = groups.setdefault(key, array("d"))
            merged.extend(self._load(ref).latencies_us())
        return groups

    def diff(self, other: "RunStore", **meta_filters: Any) -> DiffResult:
        """Per-(experiment, scenario, load) latency deltas vs ``other``.

        Deltas are other-minus-self: positive numbers mean the second
        campaign (B) is slower.  Groups present in only one store are
        listed separately instead of silently dropped.
        """
        started = time.perf_counter()
        self.stats.queries += 1
        groups_a = self._grouped(**meta_filters)
        groups_b = other._grouped(**meta_filters)
        result = DiffResult()
        for key in sorted(groups_a, key=repr):
            if key not in groups_b:
                result.only_in_a.append(key)
                continue
            sample_a = groups_a[key]
            sample_b = groups_b[key]
            if not sample_a or not sample_b:
                continue
            summary_a = summarize(sample_a)
            summary_b = summarize(sample_b)
            result.groups.append(GroupDelta(
                group=key,
                count_a=summary_a.count, count_b=summary_b.count,
                mean_a=summary_a.mean, mean_b=summary_b.mean,
                p50_delta=summary_b.p50 - summary_a.p50,
                p99_delta=summary_b.p99 - summary_a.p99,
                max_delta=summary_b.maximum - summary_a.maximum,
            ))
        for key in sorted(groups_b, key=repr):
            if key not in groups_a:
                result.only_in_b.append(key)
        self.stats.query_seconds += time.perf_counter() - started
        return result

    # ------------------------------------------------------- summary

    def describe(self) -> "list[dict[str, Any]]":
        """One row per artifact: the listing the CLI ``list`` prints."""
        rows = []
        for ref in self.refs:
            rows.append({
                "artifact": ref.path.name,
                "experiment": ref.metadata.get("experiment"),
                "kind": ref.metadata.get("kind"),
                "scenario": ref.metadata.get("scenario"),
                "load": ref.metadata.get("load"),
                "seed": ref.metadata.get("task_seed"),
                "idle_skip": ref.metadata.get("idle_skip"),
            })
        return rows
