"""Property tests pinning the store round trip against live columns.

The acceptance bar: latency columns persisted through a run artifact
must come back **value-identical** to the in-memory
:class:`~repro.hypervisor.hypervisor.LatencyColumns` — for any
interarrival schedule, with the idle-skip engine and with its
tick-by-tick oracle (the execution difference that most reshapes
event dispatch).
Identity is checked at the byte level (``array.tobytes()``), not
approximate equality: the stored µs column must be the exact floats
``latencies_us_array`` produced, so downstream percentile queries are
bit-identical to live summaries.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (
    RETIRED_BACKENDS,
    build_system,
    engine_mode,
    run_system,
    us,
)
from repro.hypervisor.hypervisor import LatencyColumns
from repro.metrics.stats import summarize
from repro.store import RunArtifact
from store_oracle import latency_records, write_hypervisor_artifact

#: The ``backend`` axis keeps the names of the retired queue backends
#: (see ``conftest.RETIRED_BACKENDS``); every id runs the one engine.
#: ``idle_skip`` "1" is the production engine, "0" its tick-by-tick
#: oracle (``conftest.tick_by_tick``).
pytestmark = pytest.mark.parametrize(
    "backend,idle_skip",
    [(backend, idle_skip)
     for backend in RETIRED_BACKENDS
     for idle_skip in ("1", "0")],
)

#: Interarrival gaps in µs — wide enough to cross slot boundaries so
#: every handling mode (direct / interposed / delayed) shows up.
_gaps = st.lists(st.floats(min_value=5.0, max_value=2_500.0,
                           allow_nan=False, allow_infinity=False),
                 min_size=1, max_size=12)


def _run_live(idle_skip, gaps_us):
    with engine_mode(idle_skip == "1"):
        hv, timer = build_system(intervals=[us(gap) for gap in gaps_us],
                                 trace=True)
        return run_system(hv, timer, len(gaps_us))


@settings(deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gaps_us=_gaps)
def test_store_roundtrip_value_identical(backend, idle_skip, tmp_path,
                                         gaps_us):
    """Persisted columns == live columns, byte for byte."""
    hv = _run_live(idle_skip, gaps_us)
    columns = hv.latency_columns
    live_records = columns.records()
    live_us = columns.latencies_us_array(hv.clock)

    path = tmp_path / f"prop-{idle_skip}.rpart"
    rows = write_hypervisor_artifact(hv, path, {"experiment": "prop"})
    artifact = RunArtifact.read(path)

    assert rows == len(live_records)
    assert latency_records(artifact) == live_records
    assert artifact.latencies_us().tobytes() == live_us.tobytes()
    if live_records:
        assert summarize(artifact.latencies_us()) == summarize(live_us)


@settings(deadline=None, max_examples=15)
@given(gaps_us=_gaps)
def test_column_data_roundtrip(backend, idle_skip, gaps_us):
    """LatencyColumns.column_data/from_column_data is lossless."""
    hv = _run_live(idle_skip, gaps_us)
    columns = hv.latency_columns
    clone = LatencyColumns.from_column_data(columns.column_data())
    assert clone.records() == columns.records()
    assert clone.mode_counts() == columns.mode_counts()
    assert clone.latencies_us_array(hv.clock).tobytes() \
        == columns.latencies_us_array(hv.clock).tobytes()
