"""Tests of the content-addressed campaign result cache.

The load-bearing guarantees:

* **byte-identity** — a warm run replays pickled results and renders
  exactly what a cold (or uncached) run renders;
* **exact invalidation** — changing task kwargs, the seed, the scale
  or the source of a transitively imported module changes the
  fingerprint of exactly the affected tasks and no others;
* **robustness** — corrupt/truncated entries read as misses, and
  entries land atomically.
"""

import json
import pickle
import textwrap

import pytest

from repro.experiments.__main__ import EXPERIMENTS, main
from repro.experiments.cache import (
    CACHE_FORMAT,
    ResultCache,
    canonicalize,
    clear_source_caches,
    default_cache_dir,
    source_fingerprint,
    task_fingerprint,
)
from repro.experiments.runner import (
    CampaignTask,
    plan_campaign,
    run_campaign,
)
from repro.experiments.scale import QUICK, SMOKE


# -------------------------------------------------------- canonicalize

def test_canonicalize_primitives_and_containers():
    assert canonicalize({"b": 2, "a": (1, True, None)}) == \
        {"a": [1, True, None], "b": 2}
    # floats are encoded exactly — 0.1 + 0.2 must not alias 0.3
    assert canonicalize(0.1 + 0.2) != canonicalize(0.3)
    assert canonicalize(1.0) == {"__float__": (1.0).hex()}


def test_canonicalize_dataclasses_tagged_by_class():
    from repro.experiments.fig6 import Fig6Config

    one = canonicalize(Fig6Config(seed=1))
    same = canonicalize(Fig6Config(seed=1))
    other = canonicalize(Fig6Config(seed=2))
    assert one == same
    assert one != other
    assert one["__dataclass__"].endswith("Fig6Config")


def test_canonicalize_rejects_unknown_objects():
    with pytest.raises(TypeError):
        canonicalize(object())
    with pytest.raises(TypeError):
        canonicalize({1: "non-string key"})


# -------------------------------------------------------- fingerprints

def _keys(names, scale, seed):
    tasks, _ = plan_campaign(names, scale, seed)
    return tasks, [task_fingerprint(task) for task in tasks]


def test_fingerprints_are_stable_across_plans():
    _, first = _keys(EXPERIMENTS, SMOKE, seed=1)
    _, second = _keys(EXPERIMENTS, SMOKE, seed=1)
    assert first == second


def test_seed_change_invalidates_exactly_seeded_tasks():
    tasks, base = _keys(EXPERIMENTS, SMOKE, seed=1)
    _, reseeded = _keys(EXPERIMENTS, SMOKE, seed=2)
    unchanged = {task.kind for task, a, b in zip(tasks, base, reseeded)
                 if a == b}
    # the only tasks whose kwargs carry no seed survive a --seed change
    assert unchanged == {"design", "ablation-depth"}


def test_scale_change_invalidates_every_task():
    tasks, base = _keys(EXPERIMENTS, SMOKE, seed=1)
    _, rescaled = _keys(EXPERIMENTS, QUICK, seed=1)
    assert all(a != b for a, b in zip(base, rescaled))
    assert len(tasks) == len(base)


def test_kwargs_change_invalidates_single_task():
    task = CampaignTask("design", "design", {"irq_count": 60})
    changed = CampaignTask("design", "design", {"irq_count": 61})
    assert task_fingerprint(task) != task_fingerprint(changed)
    assert task_fingerprint(task) == task_fingerprint(
        CampaignTask("design", "design", {"irq_count": 60})
    )


# ------------------------------------------------- source fingerprints

def _write_package(root, **sources):
    package = root / "fpdemo"
    package.mkdir(exist_ok=True)
    (package / "__init__.py").write_text("")
    for name, body in sources.items():
        (package / f"{name}.py").write_text(textwrap.dedent(body))


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    _write_package(
        tmp_path,
        a="from fpdemo.b import helper\nimport fpdemo.c\n",
        b="def helper():\n    return 1\n",
        c="VALUE = 1\n",
        unrelated="OTHER = 1\n",
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    clear_source_caches()
    yield tmp_path
    clear_source_caches()


def test_source_fingerprint_follows_transitive_imports(fake_package):
    base = source_fingerprint("fpdemo.a", root_package="fpdemo")
    assert base == source_fingerprint("fpdemo.a", root_package="fpdemo")

    # editing a transitively imported module invalidates...
    _write_package(fake_package, b="def helper():\n    return 2\n")
    clear_source_caches()
    assert source_fingerprint("fpdemo.a", root_package="fpdemo") != base


def test_source_fingerprint_ignores_unrelated_modules(fake_package):
    base = source_fingerprint("fpdemo.a", root_package="fpdemo")
    # ...while editing a module outside the import closure does not
    _write_package(fake_package, unrelated="OTHER = 2\n")
    clear_source_caches()
    assert source_fingerprint("fpdemo.a", root_package="fpdemo") == base


def test_task_fingerprint_covers_task_module_source():
    """Every campaign task's fingerprint embeds a source closure hash."""
    task = CampaignTask("design", "design", {"irq_count": 60})
    fingerprint = source_fingerprint("repro.experiments.design")
    assert fingerprint            # non-empty closure over repro.*
    # the engine is in the closure of every simulation experiment
    clear_source_caches()
    assert source_fingerprint("repro.experiments.design") == fingerprint
    assert task_fingerprint(task) == task_fingerprint(task)


# ---------------------------------------------------------- the cache

def test_result_cache_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    task = CampaignTask("design", "design", {"irq_count": 60})
    key = task_fingerprint(task)

    assert cache.load(key) is None
    cache.store(key, task, {"payload": [1, 2, 3]}, elapsed_seconds=1.5)
    entry = cache.load(key)
    assert entry is not None
    assert entry.result == {"payload": [1, 2, 3]}
    assert entry.kind == "design"
    assert entry.elapsed_seconds == 1.5
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.stores == 1
    assert cache.stats.saved_seconds == 1.5
    assert cache.stats.bytes_written > 0
    # no stray temp files after atomic writes
    assert not list((tmp_path / "cache").rglob("*.tmp"))


def test_result_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    task = CampaignTask("design", "design", {"irq_count": 60})
    key = task_fingerprint(task)
    cache.store(key, task, "result", elapsed_seconds=0.1)

    path = cache._path(key)
    path.write_bytes(b"\x80corrupt")
    assert cache.load(key) is None

    # wrong format version also misses
    path.write_bytes(pickle.dumps({"format": CACHE_FORMAT + 1, "key": key,
                                   "result": "stale"}))
    assert cache.load(key) is None


def test_default_cache_dir_env_override(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert str(default_cache_dir()) == ".repro-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/elsewhere")
    assert str(default_cache_dir()) == "/tmp/elsewhere"


# --------------------------------------------------------- campaigns

def test_campaign_cold_warm_and_uncached_results_identical(tmp_path):
    cache_dir = tmp_path / "cache"
    cold_cache = ResultCache(cache_dir)
    cold = run_campaign(("validation",), SMOKE, seed=1, jobs=1,
                        cache=cold_cache)
    assert cold_cache.stats.misses == 2 and cold_cache.stats.hits == 0

    warm_cache = ResultCache(cache_dir)
    warm = run_campaign(("validation",), SMOKE, seed=1, jobs=1,
                        cache=warm_cache)
    assert warm_cache.stats.hits == 2 and warm_cache.stats.misses == 0

    plain = run_campaign(("validation",), SMOKE, seed=1, jobs=1)
    for result in (cold, warm):
        assert (result["validation"].interposed_result.latencies_us
                == plain["validation"].interposed_result.latencies_us)
        assert (result["validation"].classic_measured_max_us
                == plain["validation"].classic_measured_max_us)


def test_campaign_partial_warm_runs_only_misses(tmp_path):
    cache_dir = tmp_path / "cache"
    run_campaign(("design",), SMOKE, seed=1, jobs=1,
                 cache=ResultCache(cache_dir))
    both = ResultCache(cache_dir)
    run_campaign(("design", "ablation"), SMOKE, seed=1, jobs=1, cache=both)
    assert both.stats.hits == 1             # design replayed
    assert both.stats.misses == 3           # ablation computed


def test_cli_no_cache_and_cached_stdout_identical(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["validation", "--smoke", "--jobs", "1",
                 "--no-cache"]) == 0
    uncached = capsys.readouterr().out
    assert main(["validation", "--smoke", "--jobs", "1",
                 "--cache-dir", cache_dir]) == 0
    cold = capsys.readouterr().out
    assert main(["validation", "--smoke", "--jobs", "1",
                 "--cache-dir", cache_dir]) == 0
    warm = capsys.readouterr().out
    assert uncached == cold == warm


def test_cli_cache_stats_reports_hits(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    argv = ["design", "--smoke", "--jobs", "1",
            "--cache-dir", cache_dir, "--cache-stats"]
    assert main(argv) == 0
    cold_err = capsys.readouterr().err
    assert "[cache] hits=0 misses=1" in cold_err
    assert main(argv) == 0
    warm_err = capsys.readouterr().err
    assert "[cache] hits=1 misses=0" in warm_err

