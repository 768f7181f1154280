"""Import structure: each command imports only what it runs.

* ``query aggregate`` / ``query diff`` answer from a store without
  loading any simulator module (checked in a fresh interpreter, through
  ``sys.modules`` at exit);
* a fully cached ``all`` replays, merges and renders without loading
  the engine, the hypervisor model, the monitor, the workload
  generators, the guest OS or the baselines;
* the lazy package namespaces (``repro`` and the ``LAZY_PACKAGES``
  below) still resolve every public name to its submodule's object,
  list them in ``dir()``, reject unknown names and support
  ``from … import *``.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

LAZY_PACKAGES = ("repro", "repro.experiments", "repro.metrics", "repro.store",
                 "repro.sim", "repro.hypervisor", "repro.core",
                 "repro.analysis", "repro.workloads", "repro.guestos",
                 "repro.baselines")

#: Modules a store query must never load.
SIMULATOR_PREFIXES = ("repro.sim", "repro.hypervisor", "repro.core",
                      "repro.guestos", "repro.experiments.runner")

#: Modules a fully cached campaign must never load, and the prefixes
#: of which it must load nothing.
WARM_FORBIDDEN = ("repro.sim.engine", "repro.sim.cpu",
                  "repro.hypervisor.hypervisor", "repro.hypervisor.scheduler",
                  "repro.core.monitor", "repro.core.policy",
                  "repro.workloads.synthetic")
WARM_FORBIDDEN_PREFIXES = ("repro.guestos", "repro.baselines")

#: What a fully cached ``all`` does load under ``repro.sim``,
#: ``repro.hypervisor`` and ``repro.core``: the namespaces, the clock and
#: the cost model (configs), the footprint table (tab62 prints it) and
#: the independence reports (validation's results hold them).
WARM_SIMULATOR_MODULES = ["repro.core", "repro.core.independence",
                          "repro.hypervisor", "repro.hypervisor.config",
                          "repro.hypervisor.footprint", "repro.sim",
                          "repro.sim.clock"]

#: Runs ``python -m repro.experiments <args>`` and writes the names of
#: the loaded modules to the file named by the first argument.
_RUN_AND_LIST_MODULES = """
import json, runpy, sys
out = sys.argv[1]
sys.argv = ["repro.experiments", *sys.argv[2:]]
try:
    runpy.run_module("repro.experiments", run_name="__main__",
                     alter_sys=True)
except SystemExit as exit:
    code = exit.code
else:
    code = 0
with open(out, "w") as handle:
    json.dump({"code": code, "modules": sorted(sys.modules)}, handle)
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture(scope="module")
def smoke_store(tmp_path_factory):
    store = tmp_path_factory.mktemp("imports") / "store"
    subprocess.run(
        [sys.executable, "-m", "repro.experiments", "validation", "--smoke",
         "--no-cache", "--jobs", "1", "--store", str(store)],
        env=_env(), check=True, capture_output=True, timeout=300)
    return store


@pytest.mark.parametrize("query", [
    ["aggregate", "{store}", "--percentiles", "50,99.9", "--json"],
    ["diff", "{store}", "{store}", "--json"],
], ids=["aggregate", "diff"])
def test_store_query_loads_no_simulator_module(query, smoke_store,
                                               tmp_path):
    report = tmp_path / "modules.json"
    args = [arg.replace("{store}", str(smoke_store)) for arg in query]
    run = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_MODULES, str(report),
         "query", *args],
        env=_env(), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    loaded = json.loads(report.read_text())
    assert loaded["code"] == 0
    assert json.loads(run.stdout)
    leaked = [name for name in loaded["modules"]
              if name.startswith(SIMULATOR_PREFIXES)]
    assert leaked == []


def test_cached_campaign_loads_no_simulator(tmp_path):
    """A fully cached ``all --smoke`` replays every task and renders
    what the cold run rendered, loading only the result types' modules."""
    cache = str(tmp_path / "cache")
    campaign = ["all", "--smoke", "--jobs", "1", "--cache-dir", cache]
    cold = subprocess.run(
        [sys.executable, "-m", "repro.experiments", *campaign],
        env=_env(), capture_output=True, text=True, timeout=300, check=True)
    report = tmp_path / "modules.json"
    run = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_MODULES, str(report),
         *campaign, "--cache-stats"],
        env=_env(), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == cold.stdout
    assert " misses=0 " in run.stderr
    modules = json.loads(report.read_text())["modules"]
    assert [name for name in modules if name in WARM_FORBIDDEN
            or name.startswith(WARM_FORBIDDEN_PREFIXES)] == []
    assert [name for name in modules if name.startswith(
        ("repro.sim", "repro.hypervisor", "repro.core"))] \
        == WARM_SIMULATOR_MODULES


def _targets(package):
    return importlib.import_module(package).__getattr__.targets


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_is_its_submodule_object(package):
    module = importlib.import_module(package)
    targets = _targets(package)
    for name in module.__all__:
        if name == "__version__":
            continue
        assert name in targets, name
        source, attribute = targets[name]
        expected = getattr(importlib.import_module(source), attribute)
        assert getattr(module, name) is expected, name


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_dir_lists_public_names_and_unknown_names_raise(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import_binds_every_public_name(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)


def test_importing_a_package_imports_none_of_its_submodules():
    """In a fresh interpreter, the package namespaces load no submodule
    until a name is read."""
    code = (f"import sys, {', '.join(LAZY_PACKAGES)}; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro')))")
    run = subprocess.run([sys.executable, "-c", code], env=_env(),
                         capture_output=True, text=True, timeout=60,
                         check=True)
    assert run.stdout.strip() == repr(sorted(
        ["repro", "repro._lazy", *LAZY_PACKAGES[1:]]))
