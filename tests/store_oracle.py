"""Store round-trip helpers: write a live hypervisor's run as one
artifact, and read an artifact's rows back as latency records.

No product path does either: the campaign stores task summaries and
the queries read columns.  The round-trip tests need both directions
to compare a stored run with the live one.
"""

from repro.core.policy import HandlingMode
from repro.experiments.common import LatencyColumnData
from repro.hypervisor.hypervisor import LatencyRecord
from repro.store.artifact import ArtifactWriter


def write_hypervisor_artifact(hv, path, metadata=None, include_trace=True):
    """Persist ``hv``'s latency columns (and trace) as one ``scenario``
    leg; the stored µs column is exactly
    ``hv.latency_columns.latencies_us_array(hv.clock)``."""
    columns = hv.latency_columns
    with ArtifactWriter(path, metadata) as writer:
        rows = writer.append_summary("scenario",
                                     LatencyColumnData.of(columns),
                                     columns.latencies_us_array(hv.clock))
        if include_trace and len(hv.trace):
            writer.append_trace(hv.trace.events)
    return rows


def distinct(artifact, column):
    """The distinct strings of a latency ``column`` (``leg`` or
    ``source``), in first-appearance order."""
    return list(dict.fromkeys(artifact.strings[cell]
                              for cell in artifact.latency[column]))


def latency_records(artifact, leg=None):
    """The stored rows (of one ``leg``, or all) as latency records."""
    strings = artifact.strings
    columns = artifact.latency
    return [
        LatencyRecord(
            source=strings[columns["source"][index]],
            seq=columns["seq"][index],
            arrival=columns["arrival"][index],
            completed_at=columns["completed"][index],
            mode=HandlingMode(strings[columns["mode"][index]]),
            enforced_cut=bool(columns["cut"][index]),
        )
        for index in range(artifact.latency_rows)
        if leg is None or strings[columns["leg"][index]] == leg
    ]
