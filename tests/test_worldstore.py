"""Layered world store: O(changes) forks, byte-identical to deep copies.

The contract of :mod:`repro.sim.worldstore` is that nothing observable
changes — a layered capture has the same ``state`` and the same
``digest()`` as the flat :func:`repro.sim.snapshot.capture_world`, and
a data-level fork records only the parts it replaced.  These tests
pin:

* the canonical-JSON assembly (a layer root digest equals the flat
  ``json.dumps`` digest, fragment by fragment, hypothesis-driven);
* layered captures against flat ones, and a store that keeps working
  after :meth:`~repro.sim.worldstore.WorldStore.clear`;
* data-level forks (:func:`fork_snapshot`), sibling layer dedup,
  and pickling down to a plain :class:`WorldSnapshot`;
* the capture_world source-naming errors (world/device missing the
  protocol, capture attempted mid-dispatch).
"""

from __future__ import annotations

import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.monitor import DeltaMinusMonitor
from repro.core.policy import MonitoredInterposing, NeverInterpose
from repro.experiments.common import PaperSystemConfig
from repro.sim.engine import SimulationEngine
from repro.sim.snapshot import (
    SnapshotError,
    WorldSnapshot,
    capture_world,
    class_path,
    settle,
)
from repro.sim.worldstore import (
    LayeredSnapshot,
    WorldStore,
    capture_world_layered,
    fork_snapshot,
)
from repro.workloads.synthetic import clip_to_dmin, exponential_interarrivals


def _flat_digest(state: dict) -> str:
    payload = json.dumps(state, sort_keys=True, separators=(",", ":"),
                         ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _warm_parts(seed: int = 3, count: int = 20):
    """A started paper world at its t=0 quiescent point."""
    system = PaperSystemConfig()
    clock = system.clock()
    dmin = clock.us_to_cycles(1_444.0)
    intervals = clip_to_dmin(
        exponential_interarrivals(count, dmin, seed=seed), dmin
    )
    hv, timer = system.build(NeverInterpose(), intervals)
    hv.start()
    timer.arm_next()
    return system, hv, timer, intervals, dmin


# ------------------------------------------------- canonical assembly

_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**40, 2**40),
    st.text(max_size=12))
_PART_VALUES = st.one_of(
    _JSON_SCALARS,
    st.lists(_JSON_SCALARS, max_size=4),
    st.dictionaries(st.text(max_size=8), _JSON_SCALARS, max_size=4))


@settings(max_examples=30, deadline=None)
@given(world=st.dictionaries(st.text(max_size=10), _PART_VALUES, max_size=5),
       devices=st.dictionaries(st.text(max_size=10), _PART_VALUES,
                               max_size=3),
       pending=st.integers(0, 99))
def test_layer_root_digest_matches_flat_json(world, devices, pending):
    """Fragment-by-fragment assembly == json.dumps, byte for byte."""
    state = {"format": 1, "world_class": "m:Cls", "pending": pending,
             "world": world, "devices": devices}
    store = WorldStore()
    delta = {key: store.put_fragment(state[key])
             for key in ("format", "world_class", "pending")}
    for name, value in world.items():
        delta[f"world.{name}"] = store.put_fragment(value)
    for name, value in devices.items():
        delta[f"devices.{name}"] = store.put_fragment(value)
    layer = store.make_layer(None, delta)
    assert store.layer_root_digest(layer) == _flat_digest(state)


# -------------------------------------------------- captures & digests

def test_layered_capture_matches_flat_capture():
    _system, hv, timer, _intervals, _dmin = _warm_parts()
    devices = {timer.name: timer}
    flat = capture_world(hv, devices)
    store = WorldStore()
    layered = capture_world_layered(hv, devices, store)
    assert isinstance(layered, LayeredSnapshot)
    assert layered.digest() == flat.digest()
    assert layered.state == flat.state
    assert store.resident_bytes > 0
    # A cleared store drops everything and keeps working.
    store.clear()
    assert store.resident_bytes == 0 and store.fragment_count == 0
    again = capture_world_layered(hv, devices, store)
    assert again.digest() == flat.digest()


def test_layered_capture_midrun_with_trace_matches_flat():
    system = PaperSystemConfig(trace_enabled=True)
    clock = system.clock()
    dmin = clock.us_to_cycles(1_444.0)
    intervals = clip_to_dmin(
        exponential_interarrivals(20, dmin, seed=11), dmin
    )
    hv, timer = system.build(
        MonitoredInterposing(DeltaMinusMonitor.from_dmin(dmin)), intervals
    )
    hv.start()
    timer.arm_next()
    hv.run_until_irq_count(7)
    store = WorldStore()
    layered = settle(hv, {timer.name: timer}, store=store)
    assert isinstance(layered, LayeredSnapshot)
    # settle stepped to a quiescent point; the flat capture of the very
    # same world must agree byte for byte.
    flat = capture_world(hv, {timer.name: timer})
    assert layered.digest() == flat.digest()


# ------------------------------------------------------ data-level forks

def test_sibling_forks_share_one_layer():
    _system, hv, timer, _intervals, dmin = _warm_parts()
    store = WorldStore()
    warm = capture_world_layered(hv, {timer.name: timer}, store)
    policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(dmin))
    sources = [
        dict(source, policy={"class": class_path(type(policy)),
                             "state": policy.snapshot_state()})
        for source in warm.state["world"]["sources"]
    ]
    before = store.stats.layer_dedup_hits
    a = fork_snapshot(warm, {"world.sources": sources})
    b = fork_snapshot(warm, {"world.sources": sources})
    assert set(a.layer.delta) == {"world.sources"}
    assert a.layer is b.layer
    assert store.stats.layer_dedup_hits > before
    assert a.digest() == b.digest()
    assert store.stats.data_forks == 2


def test_fork_snapshot_rejects_unknown_part():
    _system, hv, timer, _intervals, _dmin = _warm_parts()
    warm = capture_world_layered(hv, {timer.name: timer}, WorldStore())
    with pytest.raises(SnapshotError, match="unknown snapshot part"):
        fork_snapshot(warm, {"world.no_such_part": 1})


def test_layered_snapshot_pickles_to_plain_worldsnapshot():
    _system, hv, timer, _intervals, _dmin = _warm_parts()
    warm = capture_world_layered(hv, {timer.name: timer}, WorldStore())
    clone = pickle.loads(pickle.dumps(warm))
    assert type(clone) is WorldSnapshot
    assert clone.state == warm.state
    assert clone.digest() == warm.digest()


# ------------------------------------- capture_world source-naming errors

def test_capture_names_world_without_engine():
    class NotAWorld:
        pass

    with pytest.raises(SnapshotError, match=r"exposes no \.engine"):
        capture_world(NotAWorld())


def test_capture_names_world_missing_protocol():
    class HalfWorld:
        def __init__(self):
            self.engine = SimulationEngine()

        def snapshot_state(self, ctx):
            return {}

    with pytest.raises(SnapshotError) as excinfo:
        capture_world(HalfWorld())
    message = str(excinfo.value)
    assert "HalfWorld" in message
    assert "restore_from_snapshot" in message
    assert "rebind_hooks" in message
    assert "snapshot_state" not in message.split("missing")[1]


def test_capture_names_device_missing_protocol():
    _system, hv, timer, _intervals, _dmin = _warm_parts()

    class Gizmo:
        pass

    with pytest.raises(SnapshotError) as excinfo:
        capture_world(hv, {timer.name: timer, "gizmo": Gizmo()})
    message = str(excinfo.value)
    assert "device 'gizmo'" in message
    assert "Gizmo" in message
    assert "snapshot_state" in message


def test_capture_mid_dispatch_names_world_and_time():
    _system, hv, timer, _intervals, _dmin = _warm_parts()
    caught: list = []

    def try_capture():
        try:
            capture_world(hv, {timer.name: timer})
        except SnapshotError as error:
            caught.append(str(error))

    hv.engine.schedule(1, try_capture, label="capture-mid-dispatch")
    hv.engine.run_until(2)
    assert len(caught) == 1
    assert "is dispatching" in caught[0]
    assert type(hv).__qualname__ in caught[0]
    assert "capture only between runs" in caught[0]

