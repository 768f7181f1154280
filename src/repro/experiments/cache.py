"""Content-addressed, on-disk campaign result cache.

``python -m repro.experiments`` re-runs recompute every simulation task
from scratch even when nothing changed.  This module makes campaigns
*incremental*: each :class:`~repro.experiments.runner.CampaignTask` is
fingerprinted by everything its result can depend on, and the runner
replays the stored (picklable) result whenever the fingerprint matches
a previous run.

The fingerprint covers, in one SHA-256 over a canonical JSON payload:

* the task ``kind`` (the dispatch key into ``TASK_FUNCTIONS``);
* the **canonicalized kwargs** — dataclass configs are flattened
  field-by-field with their class identity, floats are encoded via
  ``float.hex()`` so formatting can never alias two values, dict keys
  are sorted.  The experiment *scale* and *seed* enter here: the
  campaign planner bakes both into each task's kwargs, so changing
  either invalidates exactly the tasks that consume them (e.g. the
  ``design`` task takes no seed and survives a ``--seed`` change);
* a **source fingerprint** of the task function's module and every
  ``repro.*`` module it transitively imports (resolved statically from
  the AST, hashed by file content) — editing the engine, a workload
  generator, or an analysis module invalidates exactly the tasks whose
  code paths changed, and nothing else.

Because task results already cross process boundaries through
``pickle`` in parallel campaigns (and the byte-identity tests pin that
round trip), replaying a pickled result is byte-identical to
recomputing it: a warm campaign differs from a cold one only in wall
clock.

Cache entries live under ``<dir>/<key[:2]>/<key>.pkl`` and are written
atomically (temp file + ``os.replace``), so concurrent campaigns can
share a directory; a corrupt or truncated entry is treated as a miss
and rewritten.  Every entry records the compute time of the original
miss, which is how :class:`CacheStats` can report the wall-clock time
a warm run saved.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import importlib.util
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Optional

#: Bumped whenever the entry layout or fingerprint payload changes so
#: stale caches from older code read as misses instead of garbage.
CACHE_FORMAT = 1

#: Environment override for the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default on-disk location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> Path:
    """The cache directory the CLI uses when ``--cache-dir`` is absent."""
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


# --------------------------------------------------------------- kwargs

def canonicalize(value: Any) -> Any:
    """Reduce a task-kwargs value to a canonical JSON-safe form.

    Supported: ``None``, ``bool``, ``int``, ``str``, ``float`` (encoded
    exactly via ``float.hex()``), ``Enum``, ``list``/``tuple``,
    ``dict`` with string keys, and dataclass instances (tagged with
    their qualified class name and flattened field-by-field, so two
    config classes with coincidentally equal fields cannot alias).
    Anything else raises ``TypeError`` — silently hashing an unknown
    object's ``repr`` would risk cache collisions or spurious misses.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"__float__": value.hex()}
    if isinstance(value, Enum):
        cls = type(value)
        return {"__enum__": f"{cls.__module__}.{cls.__qualname__}",
                "name": value.name}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            "__dataclass__": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {
                f.name: canonicalize(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(
                    f"cannot canonicalize dict key {key!r}: only string "
                    "keys are cacheable"
                )
        return {key: canonicalize(value[key]) for key in sorted(value)}
    raise TypeError(
        f"cannot canonicalize {type(value).__qualname__!r} for the result "
        "cache; task kwargs must be primitives, tuples, dicts, enums or "
        "dataclasses thereof"
    )


# --------------------------------------------------------------- source

#: module name -> (content hash, frozenset of package-local imports);
#: per-process memo so a 31-task campaign parses each module once.
_MODULE_INFO_CACHE: "dict[str, Optional[tuple[str, frozenset]]]" = {}


def clear_source_caches() -> None:
    """Drop the per-process module-source memo (tests rewrite files)."""
    _MODULE_INFO_CACHE.clear()


def _module_origin(name: str) -> "str | None":
    try:
        spec = importlib.util.find_spec(name)
    except (ImportError, AttributeError, ValueError):
        return None
    if spec is None or spec.origin is None:
        return None
    if not spec.origin.endswith(".py"):
        return None
    return spec.origin


def _in_package(name: str, root_package: str) -> bool:
    return name == root_package or name.startswith(root_package + ".")


def _module_info(name: str,
                 root_package: str) -> "tuple[str, frozenset] | None":
    """(content hash, package-local imports) of one module, memoized."""
    if name in _MODULE_INFO_CACHE:
        return _MODULE_INFO_CACHE[name]
    origin = _module_origin(name)
    info = None
    if origin is not None:
        try:
            source = Path(origin).read_bytes()
        except OSError:
            source = None
        if source is not None:
            digest = hashlib.sha256(source).hexdigest()
            imports: "set[str]" = set()
            try:
                tree = ast.parse(source)
            except SyntaxError:
                tree = None
            if tree is not None:
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        for alias in node.names:
                            if _in_package(alias.name, root_package):
                                imports.add(alias.name)
                    elif isinstance(node, ast.ImportFrom):
                        if (node.level == 0 and node.module
                                and _in_package(node.module, root_package)):
                            imports.add(node.module)
                            for alias in node.names:
                                sub = f"{node.module}.{alias.name}"
                                if _module_origin(sub) is not None:
                                    imports.add(sub)
            info = (digest, frozenset(imports))
    _MODULE_INFO_CACHE[name] = info
    return info


def source_fingerprint(module_name: str,
                       root_package: str = "repro") -> str:
    """Hash the transitive package-local source closure of a module.

    Imports are resolved *statically* (AST, not ``sys.modules``) so the
    fingerprint is stable regardless of import order, and restricted to
    ``root_package`` — the Python stdlib is part of the interpreter
    version, not of the experiment definition.
    """
    seen: "set[str]" = set()
    stack = [module_name]
    entries: "list[tuple[str, str]]" = []
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        info = _module_info(name, root_package)
        if info is None:
            continue
        digest, imports = info
        entries.append((name, digest))
        stack.extend(imports)
    payload = hashlib.sha256()
    for name, digest in sorted(entries):
        payload.update(name.encode())
        payload.update(b"\0")
        payload.update(digest.encode())
        payload.update(b"\n")
    return payload.hexdigest()


def result_digest(result: Any) -> str:
    """Stable content digest of one task result.

    Results that define ``digest()`` (world snapshots) use it — their
    digest is a hash over canonical plain data, stable across
    processes.  Anything else is hashed through its pickle, which is
    exactly the representation the cache stores.  No fingerprint folds
    it in: no campaign task depends on another's result.
    """
    digest = getattr(result, "digest", None)
    if callable(digest):
        return str(digest())
    blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest()


def task_fingerprint(task: Any, root_package: str = "repro") -> str:
    """Content-address one campaign task (see the module docstring)."""
    from repro.experiments.runner import TASK_FUNCTIONS

    function = TASK_FUNCTIONS[task.kind]
    payload = {
        "format": CACHE_FORMAT,
        "kind": task.kind,
        "kwargs": canonicalize(dict(task.kwargs)),
        "source": source_fingerprint(function.__module__, root_package),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------- cache

@dataclass
class CacheStats:
    """Cumulative hit/miss/bytes/time accounting for one cache handle."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Misses where an entry *existed* but was unreadable, corrupt, or
    #: written by an incompatible format — i.e. a stored result was
    #: discarded rather than simply absent.
    invalidations: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    #: Recorded compute time of the hits — the wall clock a warm run
    #: did not spend simulating.
    saved_seconds: float = 0.0
    #: Compute time of the misses this handle stored.
    computed_seconds: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> "dict[str, Any]":
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "saved_seconds": round(self.saved_seconds, 3),
            "computed_seconds": round(self.computed_seconds, 3),
        }

    def render(self) -> str:
        return (f"hits={self.hits} misses={self.misses} "
                f"hit_rate={100 * self.hit_rate:.0f}% "
                f"read={self.bytes_read}B written={self.bytes_written}B "
                f"saved~{self.saved_seconds:.2f}s")


@dataclass(frozen=True)
class CacheEntry:
    """One replayed result plus the metadata stored next to it."""

    key: str
    kind: str
    experiment: str
    elapsed_seconds: float
    result: Any


class ResultCache:
    """Content-addressed pickle store for campaign task results."""

    def __init__(self, directory: "str | os.PathLike[str]"):
        self.directory = Path(directory)
        self.stats = CacheStats()

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def load(self, key: str) -> "CacheEntry | None":
        """Fetch a stored entry; any read/format problem is a miss."""
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            payload = pickle.loads(blob)
        except Exception:
            self.stats.misses += 1
            self.stats.invalidations += 1
            return None
        if (not isinstance(payload, dict)
                or payload.get("format") != CACHE_FORMAT
                or payload.get("key") != key):
            self.stats.misses += 1
            self.stats.invalidations += 1
            return None
        self.stats.hits += 1
        self.stats.bytes_read += len(blob)
        elapsed = float(payload.get("elapsed_seconds", 0.0))
        self.stats.saved_seconds += elapsed
        return CacheEntry(
            key=key,
            kind=str(payload.get("kind", "")),
            experiment=str(payload.get("experiment", "")),
            elapsed_seconds=elapsed,
            result=payload.get("result"),
        )

    def store(self, key: str, task: Any, result: Any,
              elapsed_seconds: float) -> None:
        """Atomically persist one computed result under its key."""
        payload = {
            "format": CACHE_FORMAT,
            "key": key,
            "kind": task.kind,
            "experiment": task.experiment,
            "elapsed_seconds": float(elapsed_seconds),
            "created": time.time(),
            "result": result,
        }
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                        prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        self.stats.bytes_written += len(blob)
        self.stats.computed_seconds += float(elapsed_seconds)

    def __repr__(self) -> str:
        return f"ResultCache({str(self.directory)!r}, {self.stats.render()})"
