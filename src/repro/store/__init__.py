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
"""

from repro.store.artifact import (
    ARTIFACT_SUFFIX,
    FORMAT_VERSION,
    ArtifactError,
    ArtifactWriter,
    RunArtifact,
    trace_events_from_columns,
    trace_events_to_columns,
)
from repro.store.capture import (
    CampaignStoreWriter,
    StoreWriteStats,
    artifact_from_hypervisor,
    campaign_metadata,
    extract_summaries,
    task_metadata,
)
from repro.store.runstore import (
    AggregateResult,
    ArtifactRef,
    DiffResult,
    GroupDelta,
    RunStore,
    StoreQueryStats,
)

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
