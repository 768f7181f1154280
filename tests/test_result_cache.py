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

import ast
import hashlib
import importlib.util
import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments import cache as cache_module
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
    TASK_FUNCTIONS,
    CampaignTask,
    plan_campaign,
    run_campaign,
)
from repro.experiments.scale import QUICK, SMOKE

SRC = str(Path(cache_module.__file__).resolve().parents[2])


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
    # An earlier test's fpdemo would make find_spec resolve submodules
    # in that test's directory.
    for name in [name for name in sys.modules
                 if name == "fpdemo" or name.startswith("fpdemo.")]:
        monkeypatch.delitem(sys.modules, name)
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


def test_import_memo_keeps_one_entry_per_module(fake_package):
    """Editing a module replaces its memo entry instead of adding one:
    a write drops every entry whose content hash no current file has."""
    directory = fake_package / "cache"
    source_fingerprint("fpdemo.a", root_package="fpdemo")
    ResultCache(directory).write_import_memo()

    _write_package(fake_package, b="def helper():\n    return 2\n")
    clear_source_caches()                   # a new process
    cache = ResultCache(directory)
    cache.read_import_memo()
    source_fingerprint("fpdemo.a", root_package="fpdemo")
    cache.write_import_memo()

    clear_source_caches()
    ResultCache(directory).read_import_memo()
    closure = ("a", "b", "c")
    assert set(cache_module._IMPORT_MEMO) == {
        ("fpdemo", hashlib.sha256(
            (fake_package / "fpdemo" / f"{name}.py").read_bytes()).hexdigest())
        for name in closure}


def test_task_fingerprint_covers_task_module_source():
    """Every campaign task's fingerprint embeds a source closure hash."""
    task = CampaignTask("design", "design", {"irq_count": 60})
    fingerprint = source_fingerprint("repro.experiments.design")
    assert fingerprint            # non-empty closure over repro.*
    # the engine is in the closure of every simulation experiment
    clear_source_caches()
    assert source_fingerprint("repro.experiments.design") == fingerprint
    assert task_fingerprint(task) == task_fingerprint(task)


def _walk_fingerprint(module_name, root_package="repro"):
    """Oracle: the source closure hash found with a full ``ast.walk``."""

    def origin(name):
        try:
            spec = importlib.util.find_spec(name)
        except (ImportError, AttributeError, ValueError):
            return None
        if spec is None or spec.origin is None \
                or not spec.origin.endswith(".py"):
            return None
        return spec.origin

    def local(name):
        return name == root_package or name.startswith(root_package + ".")

    seen, stack, entries = set(), [module_name], []
    while stack:
        name = stack.pop()
        if name in seen or origin(name) is None:
            continue
        seen.add(name)
        with open(origin(name), "rb") as handle:
            source = handle.read()
        entries.append((name, hashlib.sha256(source).hexdigest()))
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                stack.extend(alias.name for alias in node.names
                             if local(alias.name))
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module and local(node.module)):
                stack.append(node.module)
                stack.extend(f"{node.module}.{alias.name}"
                             for alias in node.names)
    payload = hashlib.sha256()
    for name, digest in sorted(entries):
        payload.update(f"{name}\0{digest}\n".encode())
    return payload.hexdigest()


TASK_MODULES = sorted({f.__module__ for f in TASK_FUNCTIONS.values()})


def _memo_cache(directory):
    """A cache whose import memo holds every task module's closure."""
    clear_source_caches()
    for module in TASK_MODULES:
        source_fingerprint(module)
    cache = ResultCache(directory)
    cache.write_import_memo()
    clear_source_caches()
    return cache


def _count_parses(monkeypatch):
    """Count the module parses ``source_fingerprint`` makes."""
    parses = []
    parse = cache_module._import_candidates

    def counting(source, root_package):
        parses.append(root_package)
        return parse(source, root_package)

    monkeypatch.setattr(cache_module, "_import_candidates", counting)
    return parses


def test_source_fingerprint_matches_full_ast_walk(tmp_path, monkeypatch):
    """Walking statement lists finds every import a full walk finds,
    and file resolution from the package directory finds the modules
    ``find_spec`` finds: with the import memo cold (every module
    parsed) and warm (none parsed), the fingerprints are the oracle's."""
    oracle = {module: _walk_fingerprint(module) for module in TASK_MODULES}
    cache = _memo_cache(tmp_path)
    parses = _count_parses(monkeypatch)
    cold = {module: source_fingerprint(module) for module in TASK_MODULES}
    assert parses, "a cold memo parses the closure"
    clear_source_caches()
    cache.read_import_memo()
    del parses[:]
    warm = {module: source_fingerprint(module) for module in TASK_MODULES}
    assert parses == []
    assert cold == warm == oracle
    clear_source_caches()


@pytest.mark.parametrize("damage", [
    lambda blob: blob[:len(blob) // 2],
    lambda blob: blob[:64],
    lambda blob: b"",
    lambda blob: blob.replace(b"repro.sim.engine", b"repro.sim.enfine", 1),
    lambda blob: b"0" * 64 + blob[64:],
    lambda blob: blob.split(b"\n", 1)[1],
    lambda blob: (hashlib.sha256(b"[]").hexdigest().encode() + b"\n[]"),
    lambda blob: (hashlib.sha256(b'{"repro":{"0":[1]}}').hexdigest().encode()
                  + b'\n{"repro":{"0":[1]}}'),
], ids=["torn", "checksum-only", "empty", "flipped-name", "bad-checksum",
        "no-checksum", "wrong-shape", "wrong-type"])
def test_corrupt_import_memo_means_a_reparse(tmp_path, monkeypatch, damage):
    """A torn or corrupt memo reads as empty: every module is parsed
    again and the fingerprints are the cold ones, never an error and
    never a fingerprint from damaged data."""
    cache = _memo_cache(tmp_path)
    memo = tmp_path / cache_module.IMPORT_MEMO_NAME
    expected = {module: _walk_fingerprint(module) for module in TASK_MODULES}
    memo.write_bytes(damage(memo.read_bytes()))
    parses = _count_parses(monkeypatch)
    ResultCache(tmp_path).read_import_memo()
    assert {module: source_fingerprint(module)
            for module in TASK_MODULES} == expected
    assert len(parses) >= len(TASK_MODULES)
    clear_source_caches()


def test_source_fingerprint_imports_nothing(tmp_path):
    """In a fresh interpreter, fingerprinting every task module loads no
    ``repro`` module; with a warm import memo it loads no module at all
    (nothing to parse, so not even ``ast``)."""
    _memo_cache(tmp_path)
    code = textwrap.dedent("""
        import sys
        from repro.experiments.cache import ResultCache, source_fingerprint
        memo, directory, *modules = sys.argv[1:]
        before = set(sys.modules)
        if memo == "warm":
            ResultCache(directory).read_import_memo()
        for module in modules:
            source_fingerprint(module)
        print(" ".join(sorted(set(sys.modules) - before)))
        """)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    added = {}
    for memo in ("cold", "warm"):
        run = subprocess.run([sys.executable, "-c", code, memo,
                              str(tmp_path), *TASK_MODULES],
                             env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        added[memo] = run.stdout.split()
    assert [name for name in added["cold"] if name.startswith("repro")] == []
    assert added["warm"] == []


def _lazy_namespaces():
    """``repro`` packages whose ``__init__`` is a lazy namespace."""
    found = set()
    for init in sorted(Path(SRC, "repro").rglob("__init__.py")):
        tree = ast.parse(init.read_bytes())
        if any(isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "lazy_exports"
               for node in ast.walk(tree)):
            found.add(".".join(init.parent.relative_to(SRC).parts))
    return found


def test_no_module_imports_a_name_through_a_lazy_namespace():
    """The source closure follows import statements, not the strings a
    lazy namespace resolves: ``from repro.sim import Clock`` would put
    ``repro/sim/__init__.py`` in the closure but not ``repro/sim/clock.py``,
    so an edit there would replay a stale result.  Every ``from <lazy
    namespace> import name`` in ``src/repro`` must name a submodule."""
    lazy = _lazy_namespaces()
    assert {"repro", "repro.sim", "repro.hypervisor", "repro.core",
            "repro.experiments"} <= lazy
    offenders = []
    for path in sorted(Path(SRC, "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_bytes())):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module in lazy):
                base = Path(SRC, *node.module.split("."))
                offenders += [
                    f"{path.relative_to(SRC)}:{node.lineno}: "
                    f"{node.module}.{alias.name}"
                    for alias in node.names
                    if not (base / f"{alias.name}.py").is_file()
                    and not (base / alias.name / "__init__.py").is_file()]
    assert offenders == []


def test_runner_fingerprint_covers_every_task_closure():
    """The export manifest's ``source_digest`` is the runner's source
    fingerprint: its closure holds every task module's closure."""
    clear_source_caches()
    runner = cache_module.source_closure("repro.experiments.runner")
    for module in TASK_MODULES:
        closure = cache_module.source_closure(module)
        assert closure.items() <= runner.items(), module


def test_source_fingerprint_finds_imports_in_every_statement_list(
        fake_package):
    """Imports under try/except/else/finally, match cases and nested
    blocks all enter the closure, as a full walk finds them."""
    _write_package(fake_package, a="""
        try:
            import fpdemo.b
        except ImportError:
            import fpdemo.c
        else:
            import fpdemo.d
        finally:
            import fpdemo.e
        match 1:
            case 1:
                import fpdemo.f
        def g():
            if True:
                pass
            else:
                from fpdemo.unrelated import OTHER
        """, **{name: "X = 1\n" for name in "bcdef"})
    clear_source_caches()
    fingerprint = source_fingerprint("fpdemo.a", root_package="fpdemo")
    assert fingerprint == _walk_fingerprint("fpdemo.a", "fpdemo")
    _write_package(fake_package, unrelated="OTHER = 2\n")
    clear_source_caches()
    assert source_fingerprint("fpdemo.a", root_package="fpdemo") \
        != fingerprint


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


def test_task_results_pickle_no_boxed_records(tmp_path):
    """Results carry latency columns, never one object per IRQ."""
    run_campaign(EXPERIMENTS, SMOKE, seed=1, jobs=1,
                 cache=ResultCache(tmp_path / "cache"))
    tasks, _ = plan_campaign(EXPERIMENTS, SMOKE, 1)
    entries = sorted((tmp_path / "cache").glob("*/*.pkl"))
    assert len(entries) == len({task_fingerprint(task) for task in tasks})
    for entry in entries:
        assert b"LatencyRecord" not in entry.read_bytes(), entry.name


def test_cache_filled_before_a_common_edit_replays_as_misses(tmp_path,
                                                             capsys):
    """``repro.experiments.common`` defines the result types, and every
    task that returns latency data has it in its source closure: entries
    written while it read differently (a stand-in digest here) are
    misses, and the run renders what the filling run rendered.  Only
    ``design``, whose result holds no latency data, replays."""
    argv = ["all", "--smoke", "--jobs", "1", "--cache-stats",
            "--cache-dir", str(tmp_path / "cache")]
    tasks, _ = plan_campaign(EXPERIMENTS, SMOKE, 1)
    assert [task.kind for task in tasks].count("design") == 1
    clear_source_caches()
    _, imports = cache_module._module_info("repro.experiments.common",
                                           "repro")
    cache_module._MODULE_INFO_CACHE["repro.experiments.common"] = (
        "0" * 64, imports)
    try:
        assert main(argv) == 0
    finally:
        clear_source_caches()
    filled = capsys.readouterr()
    assert f"[cache] hits=0 misses={len(tasks)} " in filled.err
    assert main(argv) == 0
    replayed = capsys.readouterr()
    assert f"[cache] hits=1 misses={len(tasks) - 1} " in replayed.err
    assert replayed.out == filled.out


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

