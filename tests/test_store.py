"""Tests for the columnar run-artifact store and query layer.

Covers the binary format (round trips, corruption/truncation error
paths, atomicity), campaign capture (summary extraction, metadata
derivation, the index), the :class:`~repro.store.RunStore` query API
(filter / aggregate / diff), the ``query`` CLI, and the contracts the
ISSUE pins:

* a store aggregate's percentiles are **bit-identical** to
  :func:`repro.metrics.stats.summarize` over the live in-memory
  ``LatencyColumns`` sample;
* the Perfetto exporter renders byte-identical Chrome traces from a
  live recorder and from a persisted artifact's trace columns.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from enum import Enum, IntEnum
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import build_system, run_system, us
from repro.core.policy import HandlingMode
from repro.experiments.common import LatencyColumnData
from repro.hypervisor.hypervisor import LatencyColumns, LatencyRecord
from repro.metrics.stats import summarize
from repro.sim.trace import TraceEvent, TraceKind
from repro.store import (
    ArtifactError,
    ArtifactWriter,
    CampaignStoreWriter,
    RunArtifact,
    RunStore,
    artifact_from_hypervisor,
    extract_summaries,
    task_metadata,
)
from repro.store.artifact import _CHUNK_LATENCY, LATENCY_SCHEMA
from repro.store.capture import INDEX_NAME


def sample_records():
    return [
        LatencyRecord("irq", 0, 100, 8500, HandlingMode.DIRECT, False),
        LatencyRecord("uart", 1, 9000, 180000, HandlingMode.DELAYED, False),
        LatencyRecord("irq", 2, 200000, 220000, HandlingMode.INTERPOSED,
                      True),
    ]


def columns_of(records):
    """The latency columns a run that completed ``records`` carries."""
    columns = LatencyColumns()
    for record in records:
        columns.append(record.source, record.seq, record.arrival,
                       record.completed_at, record.mode, record.enforced_cut)
    return LatencyColumnData.of(columns)


def sample_columns():
    return columns_of(sample_records())


def sample_latencies():
    return [42.0, 855.0, 100.0]


def sample_trace_events():
    return [
        TraceEvent(100, TraceKind.IRQ_RAISED, {"line": 5, "source": "irq"}),
        TraceEvent(140, TraceKind.TOP_HANDLER_START, {"source": "irq"}),
        TraceEvent(8500, TraceKind.SLOT_SWITCH, {"from": "P1", "to": "P2"}),
    ]


def write_sample(path, metadata=None, trace=False):
    with ArtifactWriter(path, metadata or {"experiment": "x"}) as writer:
        writer.append_summary("scenario", sample_columns(),
                              sample_latencies())
        if trace:
            writer.append_trace(sample_trace_events())
    return path


class TestArtifactRoundTrip:
    def test_latency_rows_round_trip(self, tmp_path):
        path = write_sample(tmp_path / "a.rpart",
                            metadata={"experiment": "x", "seed": 3})
        artifact = RunArtifact.read(path)
        assert artifact.metadata == {"experiment": "x", "seed": 3}
        assert artifact.latency_rows == 3
        assert artifact.legs() == ["scenario"]
        assert artifact.sources() == ["irq", "uart"]
        assert artifact.latency_records() == sample_records()
        assert list(artifact.latencies_us()) == sample_latencies()

    def test_row_filters(self, tmp_path):
        artifact = RunArtifact.read(write_sample(tmp_path / "a.rpart"))
        assert list(artifact.latencies_us(source="irq")) == [42.0, 100.0]
        assert list(artifact.latencies_us(mode="delayed")) == [855.0]
        assert list(artifact.latencies_us(source="nope")) == []
        assert artifact.latency_records(leg="scenario") \
            == sample_records()

    def test_trace_round_trip(self, tmp_path):
        path = write_sample(tmp_path / "t.rpart", trace=True)
        artifact = RunArtifact.read(path)
        assert artifact.trace_rows == 3
        events = artifact.trace_events()
        assert [e.time for e in events] == [100, 140, 8500]
        assert [e.kind for e in events] == [
            TraceKind.IRQ_RAISED, TraceKind.TOP_HANDLER_START,
            TraceKind.SLOT_SWITCH]
        assert events[0].data == {"line": 5, "source": "irq"}
        recorder = artifact.trace_recorder()
        assert len(recorder) == 3

    def test_multiple_legs_and_chunks(self, tmp_path):
        path = tmp_path / "m.rpart"
        with ArtifactWriter(path) as writer:
            writer.append_summary("monitored", sample_columns(),
                                  sample_latencies())
            writer.append_summary(
                "boosted", columns_of(sample_records()[:1]), [7.5])
        artifact = RunArtifact.read(path)
        assert artifact.legs() == ["monitored", "boosted"]
        assert artifact.latency_rows == 4
        assert list(artifact.latencies_us(leg="boosted")) == [7.5]

    def test_empty_artifact(self, tmp_path):
        path = tmp_path / "e.rpart"
        with ArtifactWriter(path) as writer:
            writer.append_summary("scenario", columns_of([]), [])
        artifact = RunArtifact.read(path)
        assert artifact.latency_rows == 0
        assert list(artifact.latencies_us()) == []


class _PerRecordWriter(ArtifactWriter):
    """The row-at-a-time ``append_summary`` over boxed records: the
    byte-level oracle of the columnar writer."""

    def append_summary(self, leg, records, latencies_us):
        leg_id = self._interner.intern(leg)
        columns = {name: array(code) for name, code in LATENCY_SCHEMA}
        intern = self._interner.intern
        for record, latency_us in zip(records, latencies_us):
            columns["leg"].append(leg_id)
            columns["source"].append(intern(record.source))
            columns["seq"].append(record.seq)
            columns["arrival"].append(record.arrival)
            columns["completed"].append(record.completed_at)
            columns["mode"].append(intern(record.mode.value))
            columns["cut"].append(1 if record.enforced_cut else 0)
            columns["latency_us"].append(latency_us)
        self._write_chunk(_CHUNK_LATENCY, len(records),
                          [columns[name] for name, _ in LATENCY_SCHEMA])
        self._latency_rows += len(records)
        return len(records)


_rows = st.lists(
    st.tuples(st.sampled_from(["irq", "uart", "delayed"]),
              st.sampled_from(list(HandlingMode)), st.booleans()),
    max_size=12)

#: Two sources and all three modes interleaved so that a source's first
#: row comes after a mode's first row, plus enforced cuts; and a second
#: leg that meets one known and one new source.
_INTERLEAVED = (
    [("uart", HandlingMode.DELAYED, False),
     ("uart", HandlingMode.DELAYED, True),
     ("irq", HandlingMode.INTERPOSED, True),
     ("uart", HandlingMode.DIRECT, False),
     ("irq", HandlingMode.DELAYED, True),
     ("irq", HandlingMode.DIRECT, False)],
    [("spi", HandlingMode.DIRECT, True),
     ("irq", HandlingMode.INTERPOSED, False)],
)


class TestColumnarWriter:
    @settings(deadline=None, max_examples=40)
    @given(legs=st.lists(_rows, min_size=1, max_size=3))
    @example(legs=list(_INTERLEAVED))
    def test_columns_write_the_per_record_bytes(self, tmp_path_factory,
                                                legs):
        directory = tmp_path_factory.mktemp("columnar")
        meta = {"experiment": "x"}
        with ArtifactWriter(directory / "columns.rpart", meta) as columnar, \
                _PerRecordWriter(directory / "records.rpart", meta) as oracle:
            for index, rows in enumerate(legs):
                records = [
                    LatencyRecord(source, seq, 10 * seq, 10 * seq + 7 + seq,
                                  mode, cut)
                    for seq, (source, mode, cut) in enumerate(rows)
                ]
                latencies = [0.5 * seq for seq in range(len(rows))]
                leg = f"leg{index}"
                assert (columnar.append_summary(leg, columns_of(records),
                                                latencies)
                        == oracle.append_summary(leg, records, latencies))
        assert ((directory / "columns.rpart").read_bytes()
                == (directory / "records.rpart").read_bytes())


class TestWriterValidation:
    def test_length_mismatch_raises(self, tmp_path):
        writer = ArtifactWriter(tmp_path / "bad.rpart")
        with pytest.raises(ArtifactError, match="2 records but 1"):
            writer.append_summary(
                "scenario", columns_of(sample_records()[:2]), [1.0])
        writer.abort()

    def test_abort_leaves_no_file(self, tmp_path):
        path = tmp_path / "gone.rpart"
        writer = ArtifactWriter(path)
        writer.append_summary("scenario", sample_columns(),
                              sample_latencies())
        writer.abort()
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_context_manager_aborts_on_error(self, tmp_path):
        path = tmp_path / "gone.rpart"
        with pytest.raises(RuntimeError):
            with ArtifactWriter(path) as writer:
                writer.append_summary("scenario", sample_columns(),
                                      sample_latencies())
                raise RuntimeError("boom")
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_no_partial_file_visible_before_close(self, tmp_path):
        path = tmp_path / "atomic.rpart"
        writer = ArtifactWriter(path)
        writer.append_summary("scenario", sample_columns(),
                              sample_latencies())
        assert not path.exists()
        writer.close()
        assert path.exists()


class TestReadErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.rpart"
        path.write_bytes(b"NOTASTORE" + b"\0" * 64)
        with pytest.raises(ArtifactError, match="bad magic"):
            RunArtifact.read(path)
        with pytest.raises(ArtifactError, match="bad magic"):
            RunArtifact.read_metadata(path)

    def test_truncated_file(self, tmp_path):
        path = write_sample(tmp_path / "a.rpart")
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(ArtifactError,
                           match="missing checksum|checksum mismatch"):
            RunArtifact.read(path)

    def test_corrupt_byte_fails_checksum(self, tmp_path):
        path = write_sample(tmp_path / "a.rpart")
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            RunArtifact.read(path)

    def test_unsupported_version(self, tmp_path):
        import hashlib
        path = write_sample(tmp_path / "a.rpart")
        blob = bytearray(path.read_bytes())
        blob[8:12] = (99).to_bytes(4, "little")
        # Recompute the trailer so the version check (not the checksum)
        # is what trips.
        body = bytes(blob[:-36])
        path.write_bytes(body + b"SUM0" + hashlib.sha256(body).digest())
        with pytest.raises(ArtifactError, match="unsupported.*version 99"):
            RunArtifact.read(path)


class FakeSummary(SimpleNamespace):
    """Duck-typed ScenarioSummary: columns + latencies_us + summary."""


def fake_summary():
    return FakeSummary(columns=sample_columns(),
                       latencies_us=sample_latencies(), summary=object())


@dataclass
class FakeAblation:
    monitored: FakeSummary
    boosted: FakeSummary


class TestExtractSummaries:
    def test_bare_summary(self):
        summary = fake_summary()
        assert extract_summaries(summary) == [("", summary)]

    def test_dataclass_fields(self):
        result = FakeAblation(monitored=fake_summary(),
                              boosted=fake_summary())
        legs = extract_summaries(result)
        assert [leg for leg, _ in legs] == ["monitored", "boosted"]

    def test_nested_containers(self):
        inner = fake_summary()
        result = {"cases": [FakeAblation(fake_summary(), fake_summary())],
                  "extra": inner}
        legs = extract_summaries(result)
        assert [leg for leg, _ in legs] == [
            "cases.0.monitored", "cases.0.boosted", "extra"]

    def test_no_summaries(self):
        assert extract_summaries({"a": 1, "b": [2, 3]}) == []


def fake_task(experiment="validation", kind="validation-classic", **kwargs):
    return SimpleNamespace(experiment=experiment, kind=kind, kwargs=kwargs)


class TestTaskMetadata:
    def test_scenario_and_seed_from_kwargs(self):
        meta = task_metadata(
            fake_task(kind="fig7-case", scenario="burst", seed=9),
            2, {"scale": "smoke"})
        assert meta["scenario"] == "burst"
        assert meta["task_seed"] == 9
        assert meta["task_index"] == 2
        assert meta["scale"] == "smoke"

    def test_fig6_load_seed_derivation(self):
        config = SimpleNamespace(loads=(0.1, 0.4, 0.8), seed=5)
        meta = task_metadata(
            fake_task(experiment="fig6", kind="fig6-load",
                      config=config, load_index=2, scenario="b"),
            0, {})
        assert meta["load"] == 0.8
        assert meta["task_seed"] == 7      # seed + load_index
        assert meta["scenario"] == "b"

    def test_defaults_scenario_to_experiment(self):
        meta = task_metadata(fake_task(experiment="tab61"), 0, {})
        assert meta["scenario"] == "tab61"


class TestCampaignStoreWriter:
    def test_write_tasks_and_index(self, tmp_path):
        store = CampaignStoreWriter(tmp_path / "store",
                                    {"scale": "smoke", "campaign_seed": 1})
        name = store.write_task(fake_task(), fake_summary(), 0)
        assert name == "task-0000-validation-validation-classic.rpart"
        # A latency-free result is skipped but still indexed.
        assert store.write_task(
            fake_task(kind="design"), {"answer": 42}, 1) is None
        stats = store.finalize()
        assert stats.artifacts_written == 1
        assert stats.rows_written == 3
        assert stats.skipped_tasks == 1
        assert stats.bytes_written > 0
        index = json.loads((tmp_path / "store" / INDEX_NAME).read_text())
        assert index["format"] == "repro-store-index-v1"
        assert index["campaign"]["scale"] == "smoke"
        assert [entry["artifact"] for entry in index["tasks"]] \
            == [name, None]
        assert index["tasks"][0]["rows"] == 3
        assert index["stats"]["artifacts_written"] == 1

    def test_artifact_metadata_carries_campaign_fields(self, tmp_path):
        # Stores written while the engine had selectable queue
        # backends carry a ``queue_backend`` field; they must still
        # load and list, with the retired field simply ignored.
        store = CampaignStoreWriter(
            tmp_path / "store",
            {"scale": "smoke", "queue_backend": "bucket",
             "idle_skip": True})
        name = store.write_task(fake_task(seed=4), fake_summary(), 0)
        store.finalize()
        meta = RunArtifact.read_metadata(tmp_path / "store" / name)
        assert meta["idle_skip"] is True
        assert meta["task_seed"] == 4
        (row,) = RunStore(tmp_path / "store").describe()
        assert row["artifact"] == name
        assert row["idle_skip"] is True
        assert "queue_backend" not in row

    def test_one_campaign_matches_per_experiment_campaigns(self, tmp_path):
        """A multi-experiment campaign captures exactly what one
        campaign per experiment, each with its own writer, captures:
        the same artifact names, the same index entries (``task_index``
        counts within each experiment) and byte-equal artifacts."""
        from repro.experiments.__main__ import EXPERIMENTS
        from repro.experiments.runner import run_campaign
        from repro.experiments.scale import SMOKE

        meta = {"scale": "smoke", "campaign_seed": 1}

        def captured(directory):
            index = json.loads((directory / INDEX_NAME).read_text())
            return index["tasks"], {path.name: path
                                    for path in directory.glob("*.rpart")}

        combined = CampaignStoreWriter(tmp_path / "combined", meta)
        run_campaign(EXPERIMENTS, SMOKE, seed=1, jobs=2, store=combined)
        combined.finalize()
        entries, artifacts = captured(tmp_path / "combined")

        oracle_entries, oracle_artifacts = [], {}
        for name in EXPERIMENTS:
            writer = CampaignStoreWriter(tmp_path / "oracle" / name, meta)
            run_campaign((name,), SMOKE, seed=1, jobs=1, store=writer)
            writer.finalize()
            own_entries, own_artifacts = captured(tmp_path / "oracle" / name)
            oracle_entries += own_entries
            oracle_artifacts.update(own_artifacts)

        assert [entry["artifact"] for entry in entries] \
            == [entry["artifact"] for entry in oracle_entries]
        assert [entry["task_index"] for entry in entries] \
            == [entry["task_index"] for entry in oracle_entries]
        assert entries == oracle_entries
        assert sorted(artifacts) == sorted(oracle_artifacts)
        assert len(artifacts) > len(EXPERIMENTS)
        for name, path in oracle_artifacts.items():
            assert (RunArtifact.read(artifacts[name]).latency
                    == RunArtifact.read(path).latency), name
            assert artifacts[name].read_bytes() == path.read_bytes(), name

def build_store(directory, specs):
    """Write one artifact per (metadata, latencies) spec, plus an index."""
    from pathlib import Path
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for index, (meta, latencies) in enumerate(specs):
        records = [
            LatencyRecord("irq", seq, seq * 10, seq * 10 + 5,
                          HandlingMode.DIRECT, False)
            for seq in range(len(latencies))
        ]
        name = f"task-{index:04d}.rpart"
        with ArtifactWriter(directory / name, meta) as writer:
            writer.append_summary("scenario", columns_of(records),
                                  latencies)
        entries.append({
            "experiment": meta.get("experiment", "validation"),
            "kind": meta.get("kind", "validation-classic"),
            "task_index": index, "artifact": name,
            "rows": len(latencies), "metadata": meta,
        })
    (directory / INDEX_NAME).write_text(json.dumps({
        "format": "repro-store-index-v1", "campaign": {},
        "tasks": entries, "stats": {},
    }))
    return directory


SPEC_A = [
    ({"experiment": "fig6", "scenario": "a", "load": 0.4,
      "task_seed": 1}, [10.0, 30.0, 20.0]),
    ({"experiment": "fig6", "scenario": "b", "load": 0.4,
      "task_seed": 1}, [100.0, 300.0]),
    ({"experiment": "validation", "scenario": "validation",
      "task_seed": 1}, [5.0, 7.0]),
]

SPEC_B = [
    ({"experiment": "fig6", "scenario": "a", "load": 0.4,
      "task_seed": 2}, [12.0, 36.0, 24.0]),
    ({"experiment": "tab61", "scenario": "tab61",
      "task_seed": 2}, [50.0]),
]


class TestRunStore:
    def test_select_filters(self, tmp_path):
        store = RunStore(build_store(tmp_path / "a", SPEC_A))
        assert len(store.refs) == 3
        assert len(store.select(experiment="fig6")) == 2
        assert len(store.select(scenario="b")) == 1
        assert len(store.select(experiment=["fig6", "validation"])) == 3
        assert len(store.select(load=0.4)) == 2
        assert store.select(seed=99) == []

    def test_aggregate_matches_summarize_bitwise(self, tmp_path):
        store = RunStore(build_store(tmp_path / "a", SPEC_A))
        merged = [10.0, 30.0, 20.0, 100.0, 300.0]
        result = store.aggregate(experiment="fig6",
                                 percentiles=(99.9,))
        live = summarize(merged)
        assert result.count == 5
        assert result.artifacts == 2
        assert result.summary == live
        from repro.metrics.stats import percentile
        assert result.percentiles["p99.9"] \
            == percentile(sorted(merged), 99.9 / 100.0)

    def test_aggregate_empty_selection(self, tmp_path):
        store = RunStore(build_store(tmp_path / "a", SPEC_A))
        result = store.aggregate(experiment="nope")
        assert result.count == 0
        assert result.summary is None

    def test_scan_without_index(self, tmp_path):
        directory = build_store(tmp_path / "a", SPEC_A)
        (directory / INDEX_NAME).unlink()
        store = RunStore(directory)
        assert len(store.refs) == 3
        assert store.aggregate(experiment="fig6").count == 5

    def test_diff_groups_and_orphans(self, tmp_path):
        store_a = RunStore(build_store(tmp_path / "a", SPEC_A))
        store_b = RunStore(build_store(tmp_path / "b", SPEC_B))
        result = store_a.diff(store_b)
        assert len(result.groups) == 1
        delta = result.groups[0]
        assert delta.group == ("fig6", "a", 0.4)
        assert delta.mean_a == pytest.approx(20.0)
        assert delta.mean_b == pytest.approx(24.0)
        assert delta.mean_delta == pytest.approx(4.0)
        assert ("fig6", "b", 0.4) in result.only_in_a
        assert ("validation", "validation", None) in result.only_in_a
        assert ("tab61", "tab61", None) in result.only_in_b

    def test_query_stats_accumulate(self, tmp_path):
        store = RunStore(build_store(tmp_path / "a", SPEC_A))
        store.aggregate(experiment="fig6")
        assert store.stats.artifacts_scanned == 3
        assert store.stats.artifacts_read == 2
        assert store.stats.rows_scanned == 5
        assert store.stats.queries == 1
        assert store.stats.bytes_read > 0

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RunStore(tmp_path / "nope")


class TestQueryCli:
    def test_list_json(self, tmp_path, capsys):
        from repro.store.cli import main
        build_store(tmp_path / "a", SPEC_A)
        assert main(["list", str(tmp_path / "a"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["artifacts"]) == 3
        assert payload["artifacts"][0]["experiment"] == "fig6"

    def test_aggregate_json(self, tmp_path, capsys):
        from repro.store.cli import main
        build_store(tmp_path / "a", SPEC_A)
        assert main(["aggregate", str(tmp_path / "a"),
                     "--experiment", "fig6",
                     "--percentiles", "50,99.9", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 5
        assert payload["summary"]["mean"] == pytest.approx(92.0)
        assert "p99.9" in payload["percentiles"]

    def test_aggregate_no_match_exits_nonzero(self, tmp_path, capsys):
        from repro.store.cli import main
        build_store(tmp_path / "a", SPEC_A)
        assert main(["aggregate", str(tmp_path / "a"),
                     "--experiment", "nope"]) == 1

    def test_diff_json(self, tmp_path, capsys):
        from repro.store.cli import main
        build_store(tmp_path / "a", SPEC_A)
        build_store(tmp_path / "b", SPEC_B)
        assert main(["diff", str(tmp_path / "a"), str(tmp_path / "b"),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["groups"]) == 1
        assert payload["groups"][0]["mean_delta"] == pytest.approx(4.0)

    def test_experiments_cli_intercepts_query(self, tmp_path, capsys):
        from repro.experiments.__main__ import main
        build_store(tmp_path / "a", SPEC_A)
        assert main(["query", "list", str(tmp_path / "a"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["artifacts"]) == 3


class TestLiveRoundTrip:
    """Store round trips of a real simulated run (the ISSUE's pin)."""

    def _run(self, n_irqs=40):
        hv, timer = build_system(intervals=[us(180.0)] * n_irqs,
                                 trace=True)
        return run_system(hv, timer, n_irqs)

    def test_hypervisor_round_trip_bit_identical(self, tmp_path):
        hv = self._run()
        path = tmp_path / "live.rpart"
        rows = artifact_from_hypervisor(hv, path, {"experiment": "live"})
        live_records = hv.latency_columns.records()
        live_us = hv.latency_columns.latencies_us_array(hv.clock)
        assert rows == len(live_records)
        artifact = RunArtifact.read(path)
        assert artifact.latency_records() == live_records
        # Element-for-element float equality — not approx.
        assert artifact.latencies_us().tobytes() == live_us.tobytes()
        assert summarize(artifact.latencies_us()) == summarize(live_us)

    def test_trace_events_round_trip_exactly(self, tmp_path):
        hv = self._run()
        path = tmp_path / "live.rpart"
        artifact_from_hypervisor(hv, path)
        artifact = RunArtifact.read(path)
        assert artifact.trace_events() == list(hv.trace.events)

    def test_perfetto_byte_identical_from_store(self, tmp_path):
        from repro.telemetry.perfetto import write_chrome_trace
        hv = self._run()
        path = tmp_path / "live.rpart"
        artifact_from_hypervisor(hv, path)
        artifact = RunArtifact.read(path)
        live_path = tmp_path / "live.json"
        stored_path = tmp_path / "stored.json"
        write_chrome_trace(live_path, hv.trace, clock=hv.clock)
        write_chrome_trace(stored_path, artifact.trace_recorder(),
                           clock=hv.clock)
        assert live_path.read_bytes() == stored_path.read_bytes()

    def test_column_data_round_trip(self):
        from repro.hypervisor.hypervisor import LatencyColumns
        hv = self._run()
        columns = hv.latency_columns
        clone = LatencyColumns.from_column_data(columns.column_data())
        assert clone.records() == columns.records()
        assert clone.latencies_us_array(hv.clock).tobytes() \
            == columns.latencies_us_array(hv.clock).tobytes()


class TestStoreTelemetry:
    def test_collect_store_counters(self):
        from repro.store.capture import StoreWriteStats
        from repro.telemetry import MetricsRegistry, collect_store
        registry = MetricsRegistry()
        write_stats = StoreWriteStats(artifacts_written=2, rows_written=40,
                                      trace_rows_written=7,
                                      bytes_written=1234,
                                      write_seconds=0.5, skipped_tasks=1)
        collect_store(registry, write_stats=write_stats, run="test")
        snapshot = registry.snapshot()

        def value(name):
            return snapshot[name]["values"][0]["value"]

        assert value("store_artifacts_written_total") == 2
        assert value("store_rows_written_total") == 40
        assert value("store_bytes_written_total") == 1234
        assert value("store_tasks_skipped_total") == 1


# ------------------------------------------------------------ json_safe

def _json_safe_oracle(value):
    """The recursive coercion ``json_safe`` must agree with."""
    from collections.abc import Mapping

    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe_oracle(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _json_safe_oracle(item)
                for key, item in value.items()}
    return repr(value)


class _Colour(Enum):
    RED = "red"
    BLUE = 2


class _Line(IntEnum):
    TIMER = 0
    CAN = 5


_scalars = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=True, allow_infinity=True) | st.text()
            | st.sampled_from(list(_Colour)) | st.sampled_from(list(_Line)))
_keys = (st.text() | st.integers() | st.booleans()
         | st.sampled_from(list(_Line)))
_values = st.recursive(
    _scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_keys, children, max_size=4)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(value=_values | st.dictionaries(st.text(), _scalars, max_size=6))
@example(value={"line": 5, "ok": True, "x": float("nan"), "n": None})
@example(value={"line": _Line.CAN})
@example(value={_Line.CAN: 1})
@example(value={True: "x", 2: None})
def test_json_safe_fast_path_matches_recursive_oracle(value):
    """Flat scalar dicts take the exact-type fast path; everything else
    the recursion.  Either way the JSON text equals the oracle's."""
    from repro.store.artifact import json_safe

    encode = json.JSONEncoder(separators=(",", ":")).encode
    assert encode(json_safe(value)) == encode(_json_safe_oracle(value))


def test_merge_appends_entries_and_folds_stats(tmp_path):
    """A writer merged into another lands its entries after the other's
    and adds its write counters to the other's."""
    directory = tmp_path / "store"
    store = CampaignStoreWriter(directory, {"scale": "smoke"})
    store.write_task(fake_task(), fake_summary(), 0)
    other = CampaignStoreWriter(directory, {"scale": "smoke"})
    other.write_task(fake_task(kind="design"), {"answer": 42}, 1)
    other.write_task(fake_task(), fake_summary(), 2)
    before = store.stats.as_dict()
    store.merge(other)
    stats = store.finalize()
    assert stats.artifacts_written == before["artifacts_written"] + 1
    assert stats.rows_written == 6
    assert stats.skipped_tasks == 1
    index = json.loads((directory / INDEX_NAME).read_text())
    assert [entry["task_index"] for entry in index["tasks"]] == [0, 1, 2]
