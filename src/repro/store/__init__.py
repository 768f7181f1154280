"""Columnar run-artifact store and campaign query layer.

``repro.store`` finishes the columnar turn ``LatencyColumns`` started:
every campaign task's measured latency columns (and, for traced
replays, the trace-event columns) persist as compact stdlib-``array``
binary artifacts with interned string tables
(:mod:`~repro.store.artifact`), the campaign runner captures one
artifact per task plus an index (:mod:`~repro.store.capture`), and a
:class:`~repro.store.runstore.RunStore` answers filter / aggregate /
diff queries across whole campaigns — "p99.9 interposed latency
across every scenario at every load bound" is one call against
persisted artifacts, not a re-run.  The ``python -m repro.experiments
query`` subcommand (:mod:`~repro.store.cli`) exposes the same queries
as tables or JSON.

Reading a store imports nothing of the simulator: the names below
resolve on first use (see :mod:`repro._lazy`), and the store modules
import simulator types only inside the functions that build them.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ARTIFACT_SUFFIX",
    "FORMAT_VERSION",
    "AggregateResult",
    "ArtifactError",
    "ArtifactRef",
    "ArtifactWriter",
    "CampaignStoreWriter",
    "DiffResult",
    "GroupDelta",
    "RunArtifact",
    "RunStore",
    "StoreQueryStats",
    "StoreWriteStats",
    "artifact_from_hypervisor",
    "campaign_metadata",
    "extract_summaries",
    "task_metadata",
    "trace_events_from_columns",
    "trace_events_to_columns",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "artifact": ("ARTIFACT_SUFFIX", "FORMAT_VERSION", "ArtifactError",
                 "ArtifactWriter", "RunArtifact", "trace_events_from_columns",
                 "trace_events_to_columns"),
    "capture": ("CampaignStoreWriter", "StoreWriteStats",
                "artifact_from_hypervisor", "campaign_metadata",
                "extract_summaries", "task_metadata"),
    "runstore": ("AggregateResult", "ArtifactRef", "DiffResult", "GroupDelta",
                 "RunStore", "StoreQueryStats"),
})
