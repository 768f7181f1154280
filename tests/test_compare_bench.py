"""The bench-history diff tool: table-driven section checks.

``benchmarks/compare_bench.py`` diffs the last two records of a
``BENCH_experiments.json``.  These tests pin the ``engine_fork_ab``
check (throughput and speedup regressions), the skip note for history
that predates a section, and that sections only older records carry
(the retired ``engine_ab`` queue-backend race and ``engine_subtree_ab``
wave-vs-subtree scheduling race) are ignored.
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


def _retired_subtree_ab() -> dict:
    """An ``engine_subtree_ab`` section as records from before one
    campaign executor carry."""
    return {
        "speedup": 5.2,
        "memory_ratio": 10.8,
        "branches": 1000,
        "nodes": 1110,
        "leaf_digest": "0" * 16,
        "budget_bytes": 1_048_576,
        "unlimited_peak_bytes": 4_000_000,
        "spilled_fragments": 999,
        "spill_bytes_written": 480_000,
        "nodes_per_second": {"wave": 150.0, "subtree": 780.0},
        "peak_retained_bytes": {"wave": 27_000_000, "subtree": 2_500_000},
    }


def _fork_ab(forks_per_second: float, speedup: float) -> dict:
    return {
        "speedup": speedup,
        "memory_ratio": 12.4,
        "branches": 100,
        "nodes": 124,
        "leaf_digest": "0" * 16,
        "forks_per_second": {"layered": forks_per_second,
                             "full": forks_per_second / speedup},
        "retained_bytes": {"layered": 437_034, "full": 5_406_972},
    }


def _fork_run(fork_ab: "dict | None") -> dict:
    record = {"scale": "smoke", "jobs": 1,
              "experiment_wall_seconds": {"fig6a": 1.0}}
    if fork_ab is not None:
        record["engine_fork_ab"] = fork_ab
    return record


def _fork_ab_check() -> "compare_bench.CheckSpec":
    return next(check for check in compare_bench.CHECKS
                if check.key == "engine_fork_ab")


def test_fork_drop_is_flagged():
    check = _fork_ab_check()
    lines, regressed = check.run(
        _fork_run(_fork_ab(6800.0, 9.6)),
        _fork_run(_fork_ab(3000.0, 4.0)),
        threshold=0.20,
    )
    assert regressed
    assert any("throughput regression" in line for line in lines)
    assert any("speedup regression" in line for line in lines)


def test_fork_steady_passes():
    check = _fork_ab_check()
    lines, regressed = check.run(
        _fork_run(_fork_ab(6800.0, 9.6)),
        _fork_run(_fork_ab(6500.0, 9.1)),
        threshold=0.20,
    )
    assert not regressed
    assert any("layered forks" in line for line in lines)
    assert any("layered-fork speedup" in line for line in lines)


def test_history_predating_fork_ab_skips_with_note():
    check = _fork_ab_check()
    lines, regressed = check.run(
        _fork_run(None), _fork_run(_fork_ab(6800.0, 9.6)),
        threshold=0.20)
    assert not regressed
    assert "predates engine_fork_ab" in lines[0]


def test_full_diff_ignores_retired_engine_ab_section(tmp_path, capsys):
    runs = [dict(_fork_run(_fork_ab(6800.0, 9.6)),
                 total_wall_seconds=1.0, timestamp=stamp)
            for stamp in ("2026-08-08T00:00:00Z", "2026-08-08T01:00:00Z")]
    runs[0]["engine_ab"] = _retired_engine_ab()
    runs[0]["engine"] = {"backend": "bucket", "events_per_second": 1e6}
    runs[1]["engine"] = {"events_per_second": 1e6}
    for run in runs:
        run["engine_subtree_ab"] = _retired_subtree_ab()
    path = tmp_path / "BENCH_experiments.json"
    path.write_text(json.dumps({"runs": runs}))
    assert compare_bench.main(["--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "engine_ab" not in out
    assert "array" not in out
    assert "subtree" not in out
    # Engine throughput compares across the old backend-tagged record.
    assert "engine  1,000,000 -> 1,000,000 events/s" in out
    assert "layered forks" in out
    assert "no regressions beyond threshold." in out
