"""The bench-history diff tool: table-driven section checks.

``benchmarks/compare_bench.py`` diffs the last two records of a
``BENCH_experiments.json``.  These tests pin the ``engine_subtree_ab``
check added with subtree scheduling (throughput, speedup, and
retained-memory-ratio regressions), the skip note for history that
predates a section, and that sections only older records carry (the
retired ``engine_ab`` queue-backend race) are ignored.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

_MODULE_PATH = (Path(__file__).resolve().parent.parent
                / "benchmarks" / "compare_bench.py")
_spec = importlib.util.spec_from_file_location("compare_bench", _MODULE_PATH)
compare_bench = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("compare_bench", compare_bench)
_spec.loader.exec_module(compare_bench)


def _retired_engine_ab() -> dict:
    """An ``engine_ab`` section as records from before one engine carry."""
    return {
        "baseline": "legacy",
        "winner": "array",
        "improvement_vs_legacy": 0.25,
        "storm_events_per_second": {"legacy": 700_000.0,
                                    "array": 3_300_000.0},
        "array_dispatch_speedup_vs_bucket": 2.75,
    }


def test_history_missing_section_skips_with_note():
    check = next(check for check in compare_bench.CHECKS
                 if check.key == "engine_idle_ab")
    record = {"speedup": 12.0,
              "events_per_second": {"skip": 9e6, "tick": 7.5e5}}
    lines, regressed = check.run({}, {"engine_idle_ab": record},
                                 threshold=0.20)
    assert not regressed
    assert "predates engine_idle_ab" in lines[0]


def _subtree_ab(nodes_per_second: float, speedup: float,
                memory_ratio: float) -> dict:
    return {
        "speedup": speedup,
        "memory_ratio": memory_ratio,
        "branches": 1000,
        "nodes": 1111,
        "leaf_digest": "0" * 16,
        "budget_bytes": 1_048_576,
        "unlimited_peak_bytes": 4_000_000,
        "spilled_fragments": 999,
        "spill_bytes_written": 480_000,
        "nodes_per_second": {"wave": nodes_per_second / speedup,
                             "subtree": nodes_per_second},
        "peak_retained_bytes": {"wave": 27_000_000, "subtree": 2_500_000,
                                "unlimited": 4_000_000},
    }


def _subtree_run(subtree_ab: "dict | None") -> dict:
    record = {"scale": "smoke", "jobs": 1,
              "experiment_wall_seconds": {"fig6a": 1.0}}
    if subtree_ab is not None:
        record["engine_subtree_ab"] = subtree_ab
    return record


def _subtree_ab_check() -> "compare_bench.CheckSpec":
    return next(check for check in compare_bench.CHECKS
                if check.key == "engine_subtree_ab")


def test_subtree_drop_is_flagged():
    check = _subtree_ab_check()
    lines, regressed = check.run(
        _subtree_run(_subtree_ab(140.0, 5.2, 10.8)),
        _subtree_run(_subtree_ab(60.0, 1.4, 2.0)),
        threshold=0.20,
    )
    assert regressed
    assert any("throughput regression" in line for line in lines)
    assert any("speedup regression" in line for line in lines)
    assert any("retained-memory regression" in line for line in lines)


def test_subtree_steady_passes():
    check = _subtree_ab_check()
    lines, regressed = check.run(
        _subtree_run(_subtree_ab(140.0, 5.2, 10.8)),
        _subtree_run(_subtree_ab(135.0, 5.0, 10.1)),
        threshold=0.20,
    )
    assert not regressed
    assert any("subtree schedule" in line for line in lines)
    assert any("subtree memory ratio" in line for line in lines)


def test_history_predating_subtree_ab_skips_with_note():
    check = _subtree_ab_check()
    lines, regressed = check.run(
        _subtree_run(None), _subtree_run(_subtree_ab(140.0, 5.2, 10.8)),
        threshold=0.20)
    assert not regressed
    assert "predates engine_subtree_ab" in lines[0]


def test_full_diff_ignores_retired_engine_ab_section(tmp_path, capsys):
    runs = [dict(_subtree_run(_subtree_ab(140.0, 5.2, 10.8)),
                 total_wall_seconds=1.0, timestamp=stamp)
            for stamp in ("2026-08-08T00:00:00Z", "2026-08-08T01:00:00Z")]
    runs[0]["engine_ab"] = _retired_engine_ab()
    runs[0]["engine"] = {"backend": "bucket", "events_per_second": 1e6}
    runs[1]["engine"] = {"events_per_second": 1e6}
    path = tmp_path / "BENCH_experiments.json"
    path.write_text(json.dumps({"runs": runs}))
    assert compare_bench.main(["--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "engine_ab" not in out
    assert "array" not in out
    # Engine throughput compares across the old backend-tagged record.
    assert "engine  1,000,000 -> 1,000,000 events/s" in out
    assert "subtree schedule" in out
    assert "no regressions beyond threshold." in out
