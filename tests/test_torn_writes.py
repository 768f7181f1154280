"""A process killed mid-write never turns into a wrong answer.

Every persistent write of a campaign lands through temp file +
``os.replace``: the result cache entry (``ResultCache.store``), the
cache's import memo (``ResultCache.write_import_memo``), each ``.rpart``
run artifact (``ArtifactWriter.close``) and the campaign ``index.json``
(``CampaignStoreWriter.finalize``).  Each test runs the CLI in a child
process whose ``os.replace`` calls ``os._exit(9)`` at one of those four
sites — the process dies with the temp file written and
the rename not done, skipping every cleanup handler.  A re-run on the
same cache and store directories must then print exactly what an
uncached run prints — the interrupted write is a miss, never a wrong
answer — and ``query list`` must only ever show artifacts that read
back with a valid checksum.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.store import RunArtifact

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Child bootstrap: wrap ``os.replace`` so that the ``nth`` call made
#: from ``function`` in ``filename`` kills the process, then run the CLI.
TORN_CHILD = """
import os, sys
filename, function, nth = sys.argv[1], sys.argv[2], int(sys.argv[3])
real_replace = os.replace
calls = 0

def torn_replace(src, dst, *args, **kwargs):
    global calls
    code = sys._getframe(1).f_code
    if (os.path.basename(code.co_filename), code.co_name) == (filename,
                                                              function):
        calls += 1
        if calls == nth:
            os._exit(9)
    return real_replace(src, dst, *args, **kwargs)

os.replace = torn_replace
from repro.experiments.__main__ import main
sys.exit(main(sys.argv[4:]))
"""

#: A campaign of two tasks, each with latency rows, so every site runs
#: more than once per invocation.
CAMPAIGN = ["validation", "--smoke", "--jobs", "1", "--seed", "1"]


def _run(args: "list[str]") -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)


def _cli(*args: str) -> subprocess.CompletedProcess:
    return _run(["-m", "repro.experiments", *args])


def _complete_listing(store: Path) -> "list[dict]":
    """``query list`` of ``store``; every artifact it shows must verify."""
    listed = _cli("query", "list", str(store), "--json")
    assert listed.returncode == 0, listed.stderr
    rows = json.loads(listed.stdout)["artifacts"]
    for row in rows:
        RunArtifact.read(store / row["artifact"])
    return rows


@pytest.fixture(scope="module")
def uncached(tmp_path_factory):
    """Stdout and store listing of a clean, uncached run."""
    store = tmp_path_factory.mktemp("clean") / "store"
    run = _cli(*CAMPAIGN, "--no-cache", "--store", str(store))
    assert run.returncode == 0, run.stderr
    return run.stdout, _complete_listing(store)


@pytest.mark.parametrize("filename, function, nth", [
    ("cache.py", "store", 2),
    ("cache.py", "write_import_memo", 1),
    ("artifact.py", "close", 2),
    ("capture.py", "finalize", 1),
], ids=["cache-store", "import-memo", "rpart-close", "index-finalize"])
def test_kill_mid_write_is_a_miss_never_a_wrong_answer(
        tmp_path, uncached, filename, function, nth):
    expected_stdout, expected_rows = uncached
    cache_dir = tmp_path / "cache"
    store = tmp_path / "store"
    persist = ["--cache-dir", str(cache_dir), "--store", str(store)]

    def hung(signum, frame):
        raise TimeoutError("torn-write scenario hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        killed = _run(["-c", TORN_CHILD, filename, function, str(nth),
                       *CAMPAIGN, *persist])
        assert killed.returncode == 9, killed.stderr
        # The temp file of the interrupted write was left behind.
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers, "the kill did not interrupt a write"
        _complete_listing(store)

        rerun = _cli(*CAMPAIGN, *persist, "--cache-stats")
        assert rerun.returncode == 0, rerun.stderr
        assert rerun.stdout == expected_stdout
        misses = int(re.search(r"^\[cache\] hits=\d+ misses=(\d+)",
                               rerun.stderr, re.MULTILINE).group(1))
        if function == "store":
            # The entry whose rename never happened is recomputed.
            assert misses >= 1, rerun.stderr
        assert _complete_listing(store) == expected_rows
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
