"""Layered world store: O(changes) forks, byte-identical to deep copies.

The contract of :mod:`repro.sim.worldstore` is that nothing observable
changes — a layered capture has the same ``state`` and the same
``digest()`` as the flat :func:`repro.sim.snapshot.capture_world`, a
data-level fork equals restore → mutate → capture, and continuations
run from either produce identical traces.  These tests pin:

* the canonical-JSON assembly (a layer root digest equals the flat
  ``json.dumps`` digest, fragment by fragment, hypothesis-driven);
* fast captures (engine activity fingerprint + per-part change epochs)
  and their fallback to the full audit on a stale basis;
* data-level forks (:func:`fork_warm_variant`), sibling layer dedup,
  and pickling down to a plain :class:`WorldSnapshot`;
* the capture_world source-naming errors (world/device missing the
  protocol, capture attempted mid-dispatch);
* the fork-tree property: random fork points × mutation bursts ×
  idle-skip on/off produce digests and traces byte-identical to
  full-copy forks;
* the spill tier: a store squeezed under an artificially tiny
  resident-bytes budget produces digests byte-identical to the
  unlimited-RAM store (hypothesis-driven, with idle-skip on and off),
  cold fragments fault back transparently, corrupt or
  truncated spill records are misses repaired by re-derivation, and
  values whose Python identity JSON cannot round-trip stay pinned.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.independence import InterferenceKind, InterferenceLedger
from repro.core.monitor import DeltaMinusMonitor
from repro.core.policy import MonitoredInterposing, NeverInterpose
from repro.experiments.common import (
    IRQ_TIMER_DEVICE,
    PaperSystemConfig,
    build_warm_world,
    fork_warm_variant,
    run_irq_scenario_from,
)
from repro.sim.engine import ENV_IDLE_SKIP, SimulationEngine
from repro.sim.snapshot import (
    SnapshotError,
    WorldSnapshot,
    capture_world,
    restore_world,
    settle,
)
from repro.sim.trace import TraceKind, TraceRecorder
from repro.sim.worldstore import (
    ENV_STORE_BUDGET,
    LayeredSnapshot,
    WorldStore,
    canonical_json,
    capture_world_layered,
    default_store,
    fork_snapshot,
    parse_store_budget,
    reset_default_store,
    resolve_store_budget,
    restore_world_layered,
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


def scenario_fingerprint(result) -> dict:
    """Everything observable about one run, as comparable plain data."""
    hv = result.hypervisor
    return {
        "records": list(result.records),
        "latencies_us": list(result.latencies_us),
        "mode_counts": dict(result.mode_counts),
        "stats": dataclasses.asdict(hv.stats),
        "trace": list(hv.trace.events),
        "engine": (hv.engine.now, hv.engine.events_executed,
                   hv.engine.events_scheduled, hv.engine.events_cancelled),
    }


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
    layered, _basis = capture_world_layered(hv, devices, WorldStore())
    assert isinstance(layered, LayeredSnapshot)
    assert layered.digest() == flat.digest()
    assert layered.state == flat.state


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


def test_fast_capture_skips_unchanged_world():
    _system, hv, timer, _intervals, _dmin = _warm_parts()
    store = WorldStore()
    snapshot, basis = capture_world_layered(hv, {timer.name: timer}, store)
    assert store.stats.full_captures == 1
    again, _ = capture_world_layered(hv, {timer.name: timer}, store, basis)
    assert store.stats.fast_captures == 1
    # Nothing changed: the empty delta dedups to the very same layer.
    assert again.layer is snapshot.layer
    assert again.digest() == snapshot.digest()
    assert store.stats.parts_reused > 0


def test_fast_capture_isolates_policy_mutation():
    system, hv, timer, _intervals, dmin = _warm_parts()
    store = WorldStore()
    snapshot, _ = capture_world_layered(hv, {timer.name: timer}, store)
    world, devices, basis = restore_world_layered(snapshot)
    source = world.irq_source(system.irq_name)
    source.policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(dmin))
    child, _ = capture_world_layered(world, devices, store, basis)
    assert store.stats.fast_captures == 1
    # Only the sources part landed in the child layer — O(changes).
    assert set(child.layer.delta) == {"world.sources"}
    assert child.layer.parent is snapshot.layer
    # And the result is byte-identical to a flat capture of the world.
    assert child.digest() == capture_world(world, devices).digest()


def test_stale_basis_falls_back_to_full_capture():
    _system, hv, timer, _intervals, _dmin = _warm_parts()
    store = WorldStore()
    _snapshot, basis = capture_world_layered(hv, {timer.name: timer}, store)
    # Schedule-then-cancel keeps the world quiescent but moves the
    # engine activity fingerprint: the basis no longer proves anything.
    hv.engine.schedule(10, lambda: None, label="poke").cancel()
    child, _ = capture_world_layered(hv, {timer.name: timer}, store, basis)
    assert store.stats.fast_captures == 0
    assert store.stats.full_captures == 2
    assert child.digest() == capture_world(hv, {timer.name: timer}).digest()


def test_engine_activity_fingerprint_moves_on_schedule_and_cancel():
    engine = SimulationEngine()
    base = engine.activity_fingerprint
    handle = engine.schedule(5, lambda: None)
    after_schedule = engine.activity_fingerprint
    assert after_schedule != base
    handle.cancel()
    assert engine.activity_fingerprint != after_schedule


# ------------------------------------------------------ data-level forks

def test_fork_warm_variant_matches_restore_mutate_capture():
    system, hv, timer, intervals, dmin = _warm_parts()
    store = WorldStore()
    warm = build_warm_world(system, NeverInterpose(), intervals, store=store)
    policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(dmin))
    forked = fork_warm_variant(warm, policy=policy)
    assert set(forked.layer.delta) == {"world.sources"}

    world, devices = restore_world(warm)
    source = world.irq_source(system.irq_name)
    source.policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(dmin))
    flat = capture_world(world, devices)
    assert forked.digest() == flat.digest()
    assert forked.state == flat.state

    # The continuations are byte-identical too.
    from_fork = run_irq_scenario_from(forked, system)
    from_flat = run_irq_scenario_from(flat, system)
    assert (scenario_fingerprint(from_fork)
            == scenario_fingerprint(from_flat))


def test_sibling_forks_share_one_layer():
    system, _hv, _timer, intervals, dmin = _warm_parts()
    store = WorldStore()
    warm = build_warm_world(system, NeverInterpose(), intervals, store=store)
    policy = MonitoredInterposing(DeltaMinusMonitor.from_dmin(dmin))
    before = store.stats.layer_dedup_hits
    a = fork_warm_variant(warm, policy=policy)
    b = fork_warm_variant(warm, policy=policy)
    assert a.layer is b.layer
    assert store.stats.layer_dedup_hits > before
    assert a.digest() == b.digest()
    assert store.stats.data_forks == 2


def test_fork_snapshot_rejects_unknown_part():
    system, _hv, _timer, intervals, _dmin = _warm_parts()
    warm = build_warm_world(system, NeverInterpose(), intervals,
                            store=WorldStore())
    with pytest.raises(SnapshotError, match="unknown snapshot part"):
        fork_snapshot(warm, {"world.no_such_part": 1})


def test_layered_snapshot_pickles_to_plain_worldsnapshot():
    system, _hv, _timer, intervals, _dmin = _warm_parts()
    store = WorldStore()
    warm = build_warm_world(system, NeverInterpose(), intervals, store=store)
    clone = pickle.loads(pickle.dumps(warm))
    assert type(clone) is WorldSnapshot
    assert clone.state == warm.state
    assert clone.digest() == warm.digest()


# ------------------------------------------------------- change epochs

def test_trace_recorder_bumps_epoch_on_mutation():
    trace = TraceRecorder(enabled=True)
    start = trace.snapshot_epoch
    trace.emit(0, TraceKind.CUSTOM, note="x")
    assert trace.snapshot_epoch != start
    at_emit = trace.snapshot_epoch
    trace.enabled = False
    assert trace.snapshot_epoch != at_emit
    # A disabled emit is a no-op and must NOT bump the epoch.
    silent = trace.snapshot_epoch
    trace.emit(1, TraceKind.CUSTOM, note="y")
    assert trace.snapshot_epoch == silent
    trace.clear()
    assert trace.snapshot_epoch != silent


def test_ledger_bumps_epoch_on_record():
    ledger = InterferenceLedger()
    start = ledger.snapshot_epoch
    ledger.record(0, 5, "rt", "hk", InterferenceKind.INTERPOSED_BH)
    assert ledger.snapshot_epoch != start


def test_timer_bumps_epoch_on_program_and_cancel():
    _system, hv, timer, _intervals, _dmin = _warm_parts()
    start = timer.snapshot_epoch
    timer.arm_next()
    assert timer.snapshot_epoch != start


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


# ------------------------------------------------- fork-tree property

def _with_idle_skip(idle_skip: bool, fn):
    """Run ``fn`` with the engine's idle-skip default forced on or off."""
    saved = os.environ.get(ENV_IDLE_SKIP)
    os.environ[ENV_IDLE_SKIP] = "1" if idle_skip else "0"
    try:
        return fn()
    finally:
        if saved is None:
            os.environ.pop(ENV_IDLE_SKIP, None)
        else:
            os.environ[ENV_IDLE_SKIP] = saved


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16),
       fork_at=st.integers(1, 12),
       multipliers=st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]),
                            min_size=1, max_size=3, unique=True),
       idle_skip=st.booleans())
def test_fork_tree_is_byte_identical_to_full_copy_forks(
        seed, fork_at, multipliers, idle_skip):
    """Random fork trees: layered forks == full-copy forks, everywhere.

    One warm world is captured mid-run at a random quiescent point,
    then a burst of policy-variant children is forked from it two ways
    — the O(changes) data-level fork and the deep restore → mutate →
    flat-capture path.  Digests must agree per child, and the
    continuations run from both must produce identical traces, with
    idle-skip both on and off.
    """
    def build_tree():
        system = PaperSystemConfig(trace_enabled=True)
        clock = system.clock()
        dmin = clock.us_to_cycles(1_444.0)
        intervals = clip_to_dmin(
            exponential_interarrivals(30, dmin, seed=seed), dmin
        )
        hv, timer = system.build(NeverInterpose(), intervals)
        hv.start()
        timer.arm_next()
        hv.run_until_irq_count(min(fork_at, len(intervals)))
        store = WorldStore()
        parent = settle(hv, {timer.name: timer}, store=store)
        assert isinstance(parent, LayeredSnapshot)

        fingerprints = []
        for multiplier in multipliers:
            policy = MonitoredInterposing(
                DeltaMinusMonitor.from_dmin(round(dmin * multiplier)))
            layered_child = fork_warm_variant(parent, policy=policy)

            world, devices = restore_world_layered(parent)[:2]
            source = world.irq_source(system.irq_name)
            source.policy = MonitoredInterposing(
                DeltaMinusMonitor.from_dmin(round(dmin * multiplier)))
            full_child = capture_world(world, devices)

            assert layered_child.digest() == full_child.digest()
            assert layered_child.state == full_child.state

            from_layered = run_irq_scenario_from(layered_child, system)
            from_full = run_irq_scenario_from(full_child, system)
            assert (scenario_fingerprint(from_layered)
                    == scenario_fingerprint(from_full))
            fingerprints.append(scenario_fingerprint(from_layered))
        return fingerprints

    _with_idle_skip(idle_skip, build_tree)


# ------------------------------------------------- spill tier: budget

def test_parse_store_budget_accepts_sizes_and_none():
    assert parse_store_budget("262144") == 262144
    assert parse_store_budget("256k") == 256 * 1024
    assert parse_store_budget("16M") == 16 * 1024 ** 2
    assert parse_store_budget("1g") == 1024 ** 3
    assert parse_store_budget("") is None
    assert parse_store_budget("none") is None
    assert parse_store_budget("unlimited") is None
    for bad in ("nope", "-1", "3.5k", "1kb"):
        with pytest.raises(SnapshotError, match="invalid store budget"):
            parse_store_budget(bad)


def test_resolve_store_budget_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(ENV_STORE_BUDGET, "4k")
    assert resolve_store_budget() == 4096
    assert resolve_store_budget(explicit=128) == 128
    monkeypatch.setenv(ENV_STORE_BUDGET, "")
    assert resolve_store_budget() is None
    monkeypatch.delenv(ENV_STORE_BUDGET)
    assert resolve_store_budget() is None


def test_default_store_picks_up_env_budget(monkeypatch):
    reset_default_store()
    try:
        monkeypatch.setenv(ENV_STORE_BUDGET, "2k")
        store = default_store()
        assert store.budget_bytes == 2048
        assert default_store() is store
    finally:
        reset_default_store()
    assert default_store() is not store
    reset_default_store()


def _fill(store: WorldStore, count: int = 30,
          width: int = 64) -> "list[tuple[str, dict]]":
    """Put ``count`` distinct fragments; returns (digest, value) pairs."""
    pairs = []
    for index in range(count):
        value = {"part": index, "payload": "x" * width}
        pairs.append((store.put_fragment(value), value))
    return pairs


def test_lru_eviction_spills_cold_fragments_and_faults_back():
    store = WorldStore(budget_bytes=256)
    pairs = _fill(store)
    assert store.spilled_count > 0
    assert store.resident_bytes <= max(256, len(
        canonical_json(pairs[-1][1])))
    assert store.stats.fragments_spilled == store.spilled_count
    assert store.stats.spill_bytes_written > 0
    assert store.spill_path is not None and store.spill_path.exists()
    # Every fragment — resident or spilled — resolves byte-identically.
    for digest, value in pairs:
        assert store.fragment_text(digest) == canonical_json(value)
        assert store.fragment_value(digest) == value
    assert store.stats.spill_faults > 0
    assert store.stats.spill_bytes_read > 0
    store.clear()


def test_repeated_put_of_spilled_fragment_readmits_without_disk_read():
    store = WorldStore(budget_bytes=256)
    pairs = _fill(store)
    digest, value = pairs[0]
    faults = store.stats.spill_faults
    assert store.put_fragment(value) == digest
    # The dedup hit re-admitted from the caller's copy — no disk fault.
    assert store.stats.spill_faults == faults
    assert store.fragment_value(digest) == value
    store.clear()


def test_spill_corruption_is_a_miss_repaired_by_rederivation():
    store = WorldStore(budget_bytes=256)
    pairs = _fill(store)
    digest, value = next((d, v) for d, v in pairs if d in store._spilled)
    offset, _nbytes = store._spilled[digest]
    with open(store.spill_path, "r+b") as handle:
        handle.seek(offset)
        handle.write(b"\x00garbage\x00")
    with pytest.raises(SnapshotError, match="corrupt or truncated"):
        store.fragment_value(digest)
    assert store.stats.spill_corrupt_records == 1
    # Re-deriving (re-putting) the fragment repairs the store.
    assert store.put_fragment(value) == digest
    assert store.fragment_value(digest) == value
    store.clear()


def test_spill_truncation_is_a_miss():
    store = WorldStore(budget_bytes=256)
    pairs = _fill(store)
    # Truncate mid-way through the newest spill record.
    last_digest = max(store._spilled, key=lambda d: store._spilled[d][0])
    offset, nbytes = store._spilled[last_digest]
    os.truncate(store.spill_path, offset + nbytes // 2)
    with pytest.raises(SnapshotError, match="corrupt or truncated"):
        store.fragment_text(last_digest)
    assert store.stats.spill_corrupt_records == 1
    assert last_digest not in store._spilled
    store.clear()


def test_unfaithful_values_stay_pinned_in_ram():
    store = WorldStore(budget_bytes=64)
    # Tuples serialize as JSON arrays but json.loads gives lists back:
    # spilling would silently change the resolved Python identity.
    digest = store.put_fragment({"point": (1, 2), "pad": "y" * 80})
    _fill(store, count=10)
    assert store.pinned_count == 1
    assert store.stats.fragments_pinned == 1
    assert store.fragment_value(digest) == {"point": (1, 2), "pad": "y" * 80}
    store.clear()


def test_clear_removes_spill_file_and_keeps_store_usable():
    store = WorldStore(budget_bytes=256)
    _fill(store)
    path = store.spill_path
    assert path is not None and path.exists()
    store.clear()
    assert not path.exists()
    assert store.resident_bytes == 0 and store.spilled_count == 0
    # The store keeps working (and re-creates a spill file on demand).
    pairs = _fill(store)
    assert store.fragment_value(pairs[0][0]) == pairs[0][1]
    store.clear()


def test_unlimited_store_never_spills():
    store = WorldStore(budget_bytes=None)
    _fill(store, count=50)
    assert store.spilled_count == 0
    assert store.stats.fragments_spilled == 0
    assert store.spill_path is None


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16),
       fork_at=st.integers(1, 10),
       multipliers=st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]),
                            min_size=1, max_size=3, unique=True),
       idle_skip=st.booleans())
def test_tiny_spill_budget_is_byte_identical_to_unlimited_store(
        seed, fork_at, multipliers, idle_skip):
    """Random fork trees under a tiny budget == the unlimited store.

    The same deterministic world is captured twice — once into a store
    squeezed under an artificially tiny resident-bytes budget (so
    almost every fragment round-trips through the spill file) and once
    into an unlimited store — then the same burst of policy-variant
    children and grandchildren is forked in both.  Every snapshot's
    digest and materialized state must agree byte for byte, with
    idle-skip both on and off.
    """
    def build(store: WorldStore) -> "list[tuple[str, dict]]":
        system = PaperSystemConfig()
        clock = system.clock()
        dmin = clock.us_to_cycles(1_444.0)
        intervals = clip_to_dmin(
            exponential_interarrivals(24, dmin, seed=seed), dmin
        )
        hv, timer = system.build(NeverInterpose(), intervals)
        hv.start()
        timer.arm_next()
        hv.run_until_irq_count(min(fork_at, len(intervals)))
        parent = settle(hv, {timer.name: timer}, store=store)
        observed = [(parent.digest(), parent.state)]
        for multiplier in multipliers:
            policy = MonitoredInterposing(
                DeltaMinusMonitor.from_dmin(round(dmin * multiplier)))
            child = fork_warm_variant(parent, policy=policy)
            grandchild = fork_warm_variant(
                child, policy=MonitoredInterposing(
                    DeltaMinusMonitor.from_dmin(round(dmin * 2))))
            observed.append((child.digest(), child.state))
            observed.append((grandchild.digest(), grandchild.state))
        return observed

    def run_both():
        tiny = WorldStore(budget_bytes=1024)
        unlimited = WorldStore(budget_bytes=None)
        try:
            squeezed = build(tiny)
            assert tiny.stats.fragments_spilled > 0
            assert build(unlimited) == squeezed
        finally:
            tiny.clear()

    _with_idle_skip(idle_skip, run_both)
