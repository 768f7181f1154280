"""Content-addressed store for world snapshots and their data-level forks.

:mod:`repro.sim.snapshot` captures a world as a flat ``state`` dict.
This module interns that state part by part, so forks of one warm
world share every part they did not change:

* a **fragment store** interns each component state as canonical JSON
  text keyed by its SHA-256 — identical states (the engine counters of
  sibling forks, the shared interarrival array) are stored once;
* a **layer** maps part names to fragment digests; a fork is a thin
  child layer recording only the parts that changed, falling through
  to its parent for everything else.  Layers themselves are interned
  by content, so identical sibling forks collapse to one layer;
* a :class:`LayeredSnapshot` presents a layer stack as the plain
  :class:`~repro.sim.snapshot.WorldSnapshot` interface — same
  ``state`` dict, same ``digest()`` — so restore, campaign caching and
  pickling are unchanged.  **Digests are byte-identical to the
  deep-copy path**: the canonical JSON of the assembled state is
  reconstructed fragment by fragment and must equal
  ``json.dumps(state, sort_keys=True, ...)`` exactly.

A capture is always the full :func:`~repro.sim.snapshot.capture_world`
audit followed by interning; only :func:`fork_snapshot` (a policy or
source variant of a captured world) is O(changes).

No campaign path captures or restores a world any more, so nothing in
``repro`` imports this module; it stays only while the end-to-end
benchmark's layer tracer still names its functions.

The module stays domain-free like :mod:`repro.sim.snapshot`: the part
split is structural (top-level scalars, one part per ``world`` sub-key,
one per device), never hypervisor-specific.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Optional

from repro.sim.snapshot import (
    SnapshotError,
    WorldSnapshot,
    capture_world,
    restore_world,
)

#: Keys of a snapshot ``state`` dict that are stored as their own parts.
_TOP_SCALARS = ("format", "world_class", "pending")


def canonical_json(value: Any) -> str:
    """The canonical encoding every snapshot digest is defined over."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class WorldStoreStats:
    """Counters exposed through telemetry as ``sim_world_layers_*``."""

    __slots__ = ("fragments_stored", "fragment_dedup_hits", "bytes_stored",
                 "bytes_shared", "layers_created", "layer_dedup_hits",
                 "full_captures", "data_forks")

    def __init__(self) -> None:
        self.fragments_stored = 0
        self.fragment_dedup_hits = 0
        self.bytes_stored = 0
        self.bytes_shared = 0
        self.layers_created = 0
        self.layer_dedup_hits = 0
        self.full_captures = 0
        self.data_forks = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class WorldLayer:
    """One immutable level of the copy-on-write stack.

    ``delta`` maps part keys (``"world.<name>"``, ``"devices.<name>"``
    or a top-level scalar key) to fragment digests; reads of keys not
    in the delta fall through to ``parent``.  Layers are interned by
    the digest of their *resolved* mapping, so two forks that end up
    with identical content are the same object regardless of the path
    that produced them.
    """

    __slots__ = ("parent", "delta", "digest", "depth", "_mapping")

    def __init__(self, parent: Optional["WorldLayer"],
                 delta: dict[str, str], digest: str):
        self.parent = parent
        self.delta = delta
        self.digest = digest
        self.depth = 0 if parent is None else parent.depth + 1
        self._mapping: Optional[dict[str, str]] = None

    def mapping(self) -> dict[str, str]:
        """Resolved ``part key -> fragment digest`` view of the stack."""
        if self._mapping is None:
            if self.parent is None:
                resolved = dict(self.delta)
            else:
                resolved = dict(self.parent.mapping())
                resolved.update(self.delta)
            self._mapping = resolved
        return self._mapping


class LayeredSnapshot:
    """A :class:`WorldSnapshot`-compatible view over a layer stack.

    ``state`` materializes lazily from the store's *shared* Python
    values (not a JSON round-trip, so tuples and non-string dict keys
    survive exactly as the components produced them); restore treats
    snapshot state as read-only, so sharing values across siblings is
    safe.  Pickling reduces to a plain :class:`WorldSnapshot` — a
    campaign worker or the disk cache never drags the store along.
    """

    __slots__ = ("store", "layer", "_state", "_digest")

    def __init__(self, store: "WorldStore", layer: WorldLayer):
        self.store = store
        self.layer = layer
        self._state: Optional[dict] = None
        self._digest: Optional[str] = None

    @property
    def state(self) -> dict:
        if self._state is None:
            world: dict[str, Any] = {}
            devices: dict[str, Any] = {}
            top: dict[str, Any] = {}
            for key, digest in self.layer.mapping().items():
                value = self.store.fragment_value(digest)
                if key.startswith("world."):
                    world[key[len("world."):]] = value
                elif key.startswith("devices."):
                    devices[key[len("devices."):]] = value
                else:
                    top[key] = value
            top["world"] = world
            top["devices"] = devices
            self._state = top
        return self._state

    def digest(self) -> str:
        """Byte-identical to ``WorldSnapshot(self.state).digest()``.

        Assembled from the interned canonical fragments instead of
        re-serializing the whole state: the JSON of a dict node with
        string keys is exactly the sorted, comma-joined concatenation
        of ``key:fragment`` pieces, so no part is ever re-encoded.
        """
        if self._digest is None:
            self._digest = self.store.layer_root_digest(self.layer)
        return self._digest

    def __reduce__(self):
        return (WorldSnapshot, (self.state,))


class WorldStore:
    """Content-addressed fragment + layer store shared by a fork tree.

    Every fragment stays resident until :meth:`clear`.
    """

    def __init__(self) -> None:
        self._resident_bytes = 0
        # digest -> (canonical text, shared Python value, encoded bytes)
        self._fragments: dict[str, tuple[str, Any, int]] = {}
        # layer-mapping digest -> interned WorldLayer
        self._layers: dict[str, WorldLayer] = {}
        # layer digest -> whole-state digest (assembly memo)
        self._root_digests: dict[str, str] = {}
        self.stats = WorldStoreStats()

    # -- fragments ----------------------------------------------------

    def put_fragment(self, value: Any) -> str:
        """Intern ``value``; returns its content digest."""
        text = canonical_json(value)
        data = text.encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        if digest in self._fragments:
            self.stats.fragment_dedup_hits += 1
            self.stats.bytes_shared += len(text)
        else:
            self._fragments[digest] = (text, value, len(data))
            self._resident_bytes += len(data)
            self.stats.fragments_stored += 1
            self.stats.bytes_stored += len(text)
        return digest

    def fragment_text(self, digest: str) -> str:
        return self._fragments[digest][0]

    def fragment_value(self, digest: str) -> Any:
        return self._fragments[digest][1]

    @property
    def resident_bytes(self) -> int:
        """Encoded bytes of the fragments held in RAM."""
        return self._resident_bytes

    def clear(self) -> None:
        """Drop every fragment, layer and memo.

        ``stats`` counters are cumulative and survive a clear; the
        resident-bytes gauge resets to zero.
        """
        self._fragments.clear()
        self._layers.clear()
        self._root_digests.clear()
        self._resident_bytes = 0

    # -- layers -------------------------------------------------------

    def make_layer(self, parent: Optional[WorldLayer],
                   delta: dict[str, str]) -> WorldLayer:
        """Intern a layer; identical content returns the same object."""
        for key in delta:
            if not isinstance(key, str):
                raise SnapshotError(
                    f"layer part keys must be strings, got {key!r}")
        if parent is not None and not delta:
            self.stats.layer_dedup_hits += 1
            return parent
        if parent is None:
            resolved = dict(delta)
        else:
            resolved = dict(parent.mapping())
            resolved.update(delta)
        digest = _sha256(canonical_json(resolved))
        layer = self._layers.get(digest)
        if layer is not None:
            self.stats.layer_dedup_hits += 1
            return layer
        layer = WorldLayer(parent, dict(delta), digest)
        layer._mapping = resolved
        self._layers[digest] = layer
        self.stats.layers_created += 1
        return layer

    @property
    def layer_count(self) -> int:
        return len(self._layers)

    @property
    def fragment_count(self) -> int:
        return len(self._fragments)

    def layer_root_digest(self, layer: WorldLayer) -> str:
        """SHA-256 of the full canonical state, assembled from fragments."""
        memo = self._root_digests.get(layer.digest)
        if memo is not None:
            return memo
        world_items: list[tuple[str, str]] = []
        device_items: list[tuple[str, str]] = []
        top_items: list[tuple[str, str]] = []
        for key, digest in layer.mapping().items():
            text = self.fragment_text(digest)
            if key.startswith("world."):
                world_items.append((key[len("world."):], text))
            elif key.startswith("devices."):
                device_items.append((key[len("devices."):], text))
            else:
                top_items.append((key, text))
        top_items.append(("world", _join_object(world_items)))
        top_items.append(("devices", _join_object(device_items)))
        root = _sha256(_join_object(top_items))
        self._root_digests[layer.digest] = root
        return root


def _join_object(items: list[tuple[str, str]]) -> str:
    """Assemble a JSON object from ``(string key, encoded value)`` pairs.

    Byte-identical to ``json.dumps`` of the dict with ``sort_keys``:
    both sort by the raw string key and join with ``,``/``:`` and no
    whitespace.
    """
    pieces = [f"{json.dumps(key, ensure_ascii=False)}:{text}"
              for key, text in sorted(items)]
    return "{" + ",".join(pieces) + "}"


_DEFAULT_STORE: Optional[WorldStore] = None


def default_store() -> WorldStore:
    """The per-process store :func:`capture_world_layered` defaults to."""
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = WorldStore()
    return _DEFAULT_STORE


def capture_world_layered(world: Any,
                          devices: Optional[dict[str, Any]] = None,
                          store: Optional[WorldStore] = None,
                          ) -> LayeredSnapshot:
    """Capture ``world`` into ``store`` as a :class:`LayeredSnapshot`.

    Semantically identical to :func:`repro.sim.snapshot.capture_world`
    — same quiescence rules, same state, same digest — but the result
    shares every unchanged part with the rest of the store.
    """
    if store is None:
        store = default_store()
    state = capture_world(world, devices).state
    delta: dict[str, str] = {}
    for key in _TOP_SCALARS:
        delta[key] = store.put_fragment(state[key])
    for name, value in state["world"].items():
        _require_str_key(name, "world part")
        delta[f"world.{name}"] = store.put_fragment(value)
    for name, value in state["devices"].items():
        _require_str_key(name, "device name")
        delta[f"devices.{name}"] = store.put_fragment(value)
    layer = store.make_layer(None, delta)
    store.stats.full_captures += 1
    return LayeredSnapshot(store, layer)


def _require_str_key(name: Any, what: str) -> None:
    if not isinstance(name, str):
        raise SnapshotError(f"{what} keys must be strings, got {name!r}")


def restore_world_layered(snapshot: LayeredSnapshot,
                          ) -> tuple[Any, dict[str, Any]]:
    """Fork a live world; returns ``(world, devices)``."""
    # Kept only because the benchmark harness traces this name; it goes
    # with the module when the layered store is retired.
    return restore_world(snapshot)


def fork_snapshot(snapshot: LayeredSnapshot,
                  replacements: dict[str, Any]) -> LayeredSnapshot:
    """Data-level fork: replace whole parts without a live world.

    ``replacements`` maps part keys (``"world.sources"``, ...) to new
    plain-data values.  This is the O(changes) branch-node operation:
    no restore, no re-simulation, no O(world) serialization — just the
    replaced parts are encoded, and the child layer records only the
    digests that actually differ.  The caller owns semantic validity:
    the result must equal restore → mutate → capture.
    """
    store = snapshot.store
    mapping = snapshot.layer.mapping()
    delta: dict[str, str] = {}
    for key, value in replacements.items():
        if key not in mapping:
            raise SnapshotError(
                f"unknown snapshot part {key!r} "
                f"(have: {', '.join(sorted(mapping))})")
        digest = store.put_fragment(value)
        if mapping[key] != digest:
            delta[key] = digest
    layer = store.make_layer(snapshot.layer, delta)
    store.stats.data_forks += 1
    return LayeredSnapshot(store, layer)
