"""The shape gate, against a trimmed stdout of ``all --paper-scale --seed 1``.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from pathlib import Path

import pytest

import gate

FIXTURE = Path(__file__).with_name("fixtures") / "all_paper_seed1.txt"


@pytest.fixture
def stdout() -> str:
    return FIXTURE.read_text(encoding="utf-8")


def test_parses_the_shape_numbers(stdout):
    parsed = gate.parse_campaign(stdout)
    assert parsed["fig6"] == {"a": 2379.7, "b": 1006.2, "c": 73.6}
    assert parsed["fig7"] == {"a": 74.0, "b": 257.0, "c": 782.0, "d": 1377.0}
    assert parsed["design_confirms"] is True
    assert list(gate.sections(stdout)) == [
        "fig6a", "fig6b", "fig6c", "fig7", "tab62", "validation",
        "ablation", "sweep", "design"]


def test_seed1_output_passes_and_matches_paper_error(stdout):
    parsed = gate.parse_campaign(stdout)
    assert gate.check_campaign(parsed, seed=1) == []
    assert gate.paper_error(parsed) == pytest.approx(0.2166, abs=1e-4)


def test_fig6a_pin_applies_only_at_seed_1(stdout):
    parsed = gate.parse_campaign(stdout.replace("avg latency: 2379.7",
                                                "avg latency: 2500.0"))
    assert any("seed 1" in failure
               for failure in gate.check_campaign(parsed, seed=1))
    assert gate.check_campaign(parsed, seed=2) == []


def test_corrupted_expectation_fails(stdout, monkeypatch):
    monkeypatch.setattr(gate, "FIG6A_SEED1_US", 2000.0)
    assert gate.check_campaign(gate.parse_campaign(stdout), seed=1)


@pytest.mark.parametrize("old, new, reason", [
    ("avg latency: 73.6", "avg latency: 1500.0", "ordered a > b > c"),
    ("avg latency: 73.6", "avg latency: 300.0", "fig6a / fig6c"),
    ("257               300", "900               300",
     "ordered a < b < c < d"),
    ("simulation confirms analysis                                yes",
     "simulation confirms analysis                                 no",
     "simulation confirms analysis"),
    ("=== design", "=== designx", "simulation confirms analysis"),
    ("   d          6.25%", "   e          6.25%", "fig7 run averages missing"),
])
def test_shape_violations_are_reported(stdout, old, new, reason):
    assert old in stdout
    failures = gate.check_campaign(gate.parse_campaign(stdout.replace(old, new)),
                                   seed=3)
    assert any(reason in failure for failure in failures), failures


def test_query_checks():
    good = {"count": 10, "summary": {"p50": 97.0, "p99": 7657.4}}
    assert gate.check_aggregate(good) == []
    assert gate.check_aggregate({"count": 0, "summary": None})
    assert gate.check_aggregate({"count": 3, "summary": {"p50": 5, "p99": 4}})
    group = {"experiment": "fig6a", "scenario": "a", "mean_delta": 0.0,
             "p50_delta": 0.0, "p99_delta": 0.0, "max_delta": 0.0}
    assert gate.check_diff({"groups": [group], "only_in_a": [],
                            "only_in_b": []}) == []
    assert gate.check_diff({"groups": [], "only_in_a": [], "only_in_b": []})
    assert gate.check_diff({"groups": [group], "only_in_a": [["x", "y", None]],
                            "only_in_b": []})
    assert gate.check_diff({"groups": [dict(group, p99_delta=1.5)],
                            "only_in_a": [], "only_in_b": []})
