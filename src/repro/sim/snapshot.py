"""Checkpoint/fork of complete simulation worlds.

This module lets a driver simulate a shared prefix *once*, capture
the complete world — engine clock/seq/heap, hypervisor, scheduler,
partitions, policies/monitors, timers, interrupt controller, trace
recorder — and fork independent continuations that are
**byte-identical** to straight-line runs.  No campaign forks a world
(every task runs straight-line); the tests drive this protocol as the
determinism contract of every component's snapshot hooks.

Why not ``copy.deepcopy``?  Scheduled events are closures over the old
world: deep-copying the heap would either duplicate the entire object
graph through the closures (fragile, and still aliased through
module-level state) or silently keep references into the parent world.
Instead every component implements an explicit snapshot protocol:

* ``snapshot_state(ctx)`` returns *plain data* (JSON-able dicts,
  lists, tuples, scalars) describing the component, and *claims* the
  pending heap entries it owns via :meth:`SnapshotContext.claim` —
  recording their ``(time, seq)`` so the callback can be re-bound on
  restore with its original position among simultaneous events;
* a restore hook (``restore_from_snapshot`` / ``restore_state``)
  rebuilds the component in a fresh world and re-schedules its claimed
  events via ``engine.restore_event(time, seq, callback)``.

A snapshot is only well-defined at a **quiescent point**: no
hypervisor event chain in flight (interrupts unmasked), no interpose
window open, and every live heap entry claimed by a known owner
(boundary timer, device timer, CPU completion).  Components raise
:class:`SnapshotError` when their state is not reconstructible;
:func:`settle` steps the engine event by event until capture succeeds.

This module is domain-free: it never imports the hypervisor.  Classes
are recorded as ``module:qualname`` strings and resolved via importlib
on restore, so the dependency arrow stays hypervisor → sim.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.sim.engine import SimulationEngine
from repro.sim.events import EventHandle

#: Format tag stored in every snapshot, bumped on incompatible change.
SNAPSHOT_FORMAT = 1


class SnapshotError(RuntimeError):
    """The world is not at a reconstructible quiescent point."""


def class_path(cls: type) -> str:
    """``module:qualname`` reference for restore-time resolution."""
    return f"{cls.__module__}:{cls.__qualname__}"


def resolve_class(path: str) -> type:
    """Inverse of :func:`class_path`."""
    module_name, _, qualname = path.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


class SnapshotContext:
    """Tracks which pending heap entries have been claimed by an owner.

    Built over the engine's live entries at capture time; every
    component that owns a scheduled event must :meth:`claim` it.
    Unclaimed entries after capture mean some event's callback could
    not be re-bound on restore — the capture fails rather than
    producing a fork that silently diverges.
    """

    def __init__(self, engine: SimulationEngine,
                 devices: Optional[dict[str, Any]] = None):
        self.engine = engine
        self.devices: dict[str, Any] = dict(devices or {})
        self._live: dict[int, tuple[int, int, EventHandle]] = {
            id(entry[2]): entry for entry in engine.live_entries()
        }

    def claim(self, handle: Optional[EventHandle]) -> tuple[int, int]:
        """Claim a pending event; returns its ``(time, seq)``."""
        if handle is None:
            raise SnapshotError("cannot claim a missing event handle")
        entry = self._live.pop(id(handle), None)
        if entry is None or entry[2] is not handle:
            raise SnapshotError(
                f"event {handle.label!r} is not a live pending entry "
                "(already claimed, cancelled, or foreign)"
            )
        return entry[0], entry[1]

    def assert_drained(self) -> None:
        """Fail if any pending event was not claimed by a component."""
        if self._live:
            labels = sorted(
                repr(entry[2].label) for entry in self._live.values()
            )
            raise SnapshotError(
                f"unclaimed pending events (no owner to re-bind them): "
                f"{', '.join(labels)}"
            )

    def device_method_spec(self, hook: Callable) -> Optional[dict]:
        """Describe a bound device method as ``{device, method}``.

        Returns ``None`` when the hook is not a bound method of a
        registered device (e.g. an ad-hoc lambda) — the caller decides
        whether that is an error.
        """
        owner = getattr(hook, "__self__", None)
        if owner is None:
            return None
        for name, device in self.devices.items():
            if device is owner:
                return {"device": name, "method": hook.__name__}
        return None


@dataclass(frozen=True)
class WorldSnapshot:
    """An immutable, picklable, plain-data image of a simulation world.

    ``state`` contains only JSON-able data (dicts with string keys,
    lists, tuples, strings, ints, floats, bools, None), so the
    snapshot pickles and hashes stably.
    """

    state: dict

    def digest(self) -> str:
        """Stable SHA-256 over the canonical JSON of the state."""
        payload = json.dumps(self.state, sort_keys=True,
                             separators=(",", ":"), ensure_ascii=False)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _require_snapshot_protocol(obj: Any, described_as: str,
                               methods: tuple[str, ...]) -> None:
    """Fail with the *source* named, not an AttributeError mid-capture."""
    missing = [name for name in methods if not callable(getattr(obj, name,
                                                               None))]
    if missing:
        raise SnapshotError(
            f"{described_as} ({type(obj).__module__}."
            f"{type(obj).__qualname__}) does not implement the snapshot "
            f"protocol: missing {', '.join(missing)} "
            "(see repro.sim.snapshot for the capture/restore contract)"
        )


def capture_world(world: Any,
                  devices: Optional[dict[str, Any]] = None) -> WorldSnapshot:
    """Capture ``world`` (a hypervisor-like object) and its devices.

    ``world`` must expose ``engine`` and implement the snapshot
    protocol (``snapshot_state(ctx)`` plus a ``restore_from_snapshot``
    classmethod).  ``devices`` maps stable names to timer-like devices
    whose hooks into the world are re-bound by name on restore.

    Raises :class:`SnapshotError` unless every pending event is
    claimed by exactly one owner — the quiescence check.  A component
    that is mid-dispatch or does not speak the protocol fails with an
    error naming it, not an AttributeError deep in the capture.
    """
    engine = getattr(world, "engine", None)
    if engine is None:
        raise SnapshotError(
            f"world {type(world).__module__}.{type(world).__qualname__} "
            "exposes no .engine — not a capturable simulation world"
        )
    _require_snapshot_protocol(world, "world", ("snapshot_state",
                                               "restore_from_snapshot",
                                               "rebind_hooks"))
    for name, device in (devices or {}).items():
        _require_snapshot_protocol(device, f"device {name!r}",
                                   ("snapshot_state",
                                    "restore_from_snapshot"))
    if getattr(engine, "_running", False):
        # Mid-dispatch the engine's counters are batched per run (the
        # in-flight event is popped but not yet counted), so
        # live_entries()/counters would be inconsistent; capture only
        # between runs.
        raise SnapshotError(
            f"cannot capture {type(world).__qualname__} while its engine "
            f"is dispatching (t={engine.now}): capture only between runs"
        )
    ctx = SnapshotContext(world.engine, devices)
    state = {
        "format": SNAPSHOT_FORMAT,
        "world_class": class_path(type(world)),
        "pending": world.engine.pending_events,
        "world": world.snapshot_state(ctx),
        "devices": {
            name: {
                "class": class_path(type(device)),
                "state": device.snapshot_state(ctx),
            }
            for name, device in ctx.devices.items()
        },
    }
    ctx.assert_drained()
    return WorldSnapshot(state)


def restore_world(snapshot: WorldSnapshot) -> tuple[Any, dict[str, Any]]:
    """Build a fresh, independent world from a snapshot.

    Returns ``(world, devices)``.  Can be called any number of times
    on the same snapshot — each call forks an independent
    continuation.
    """
    state = snapshot.state
    if state.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"snapshot format {state.get('format')!r} != {SNAPSHOT_FORMAT}"
        )
    world_cls = resolve_class(state["world_class"])
    world = world_cls.restore_from_snapshot(state["world"])
    devices: dict[str, Any] = {}
    for name, spec in state["devices"].items():
        device_cls = resolve_class(spec["class"])
        devices[name] = device_cls.restore_from_snapshot(
            spec["state"], world.engine, world.intc
        )
    world.rebind_hooks(state["world"], devices)
    if world.engine.pending_events != state["pending"]:
        raise SnapshotError(
            f"restore re-bound {world.engine.pending_events} pending events; "
            f"the snapshot recorded {state['pending']}"
        )
    return world, devices


def settle(world: Any, devices: Optional[dict[str, Any]] = None,
           max_steps: int = 256) -> WorldSnapshot:
    """Advance the world event by event until a capture succeeds.

    A run usually stops inside a hypervisor event chain (interrupts
    masked, window open, ...); the next quiescent point is at most a
    handful of events away.  ``max_steps`` bounds the search so a
    world that never quiesces (e.g. one with a guest kernel attached)
    fails loudly instead of running to completion.
    """
    last: Optional[SnapshotError] = None
    for _ in range(max_steps):
        try:
            return capture_world(world, devices)
        except SnapshotError as error:
            last = error
            if not world.engine.step():
                raise SnapshotError(
                    f"event queue ran dry before reaching a quiescent "
                    f"point (last obstacle: {last})"
                )
    raise SnapshotError(
        f"no quiescent point within {max_steps} events "
        f"(last obstacle: {last})"
    )
