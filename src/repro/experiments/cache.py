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
and rewritten.  ``<dir>/imports.memo`` keeps each module's parsed
import list keyed by the module's content hash, so a warm process
fingerprints without parsing (see :meth:`ResultCache.read_import_memo`).  Every entry records the compute time of the original
miss, which is how :class:`CacheStats` can report the wall-clock time
a warm run saved.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import pickle
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
#: per-process memo so a 31-task campaign reads each module once.
_MODULE_INFO_CACHE: "dict[str, Optional[tuple[str, frozenset]]]" = {}

#: (root package, content hash) -> the module's raw package-local import
#: candidates, as parsed from those bytes.  Keyed by content, so an
#: entry can never describe other source; :meth:`ResultCache.read_import_memo`
#: fills it from disk so a warm process parses no module.
_IMPORT_MEMO: "dict[tuple[str, str], tuple[str, ...]]" = {}

#: Name of the import memo file in a cache directory.
IMPORT_MEMO_NAME = "imports.memo"


def clear_source_caches() -> None:
    """Drop the per-process source memos (tests rewrite files)."""
    _MODULE_INFO_CACHE.clear()
    _IMPORT_MEMO.clear()


def _module_origin(name: str) -> "str | None":
    """The source file of module ``name``, found from its root package's
    directory as the import system would (``a/b/__init__.py`` before
    ``a/b.py``).  Only the root package is imported (the campaign runs
    in it already); ``find_spec`` would import every parent package."""
    root, *parts = name.split(".")
    try:
        directories = importlib.import_module(root).__path__
    except (ImportError, AttributeError):
        return None
    for directory in directories:
        base = os.path.join(directory, *parts)
        candidates = [os.path.join(base, "__init__.py")]
        if parts:
            candidates.append(base + ".py")
        for path in candidates:
            if os.path.isfile(path):
                return path
    return None


def _package_digests(root_package: str) -> "set[str]":
    """Content hashes of every module file under ``root_package``."""
    try:
        directories = importlib.import_module(root_package).__path__
    except (ImportError, AttributeError):
        return set()
    digests = set()
    for directory in directories:
        for path in Path(directory).rglob("*.py"):
            try:
                digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
            except OSError:
                pass
    return digests


def _in_package(name: str, root_package: str) -> bool:
    return name == root_package or name.startswith(root_package + ".")


#: The fields that hold statement lists.  Imports are statements, so
#: they can only sit in these lists, never inside an expression.
_STATEMENT_FIELDS = ("body", "orelse", "finalbody", "handlers", "cases")


def _import_candidates(source: bytes,
                       root_package: str) -> "tuple[str, ...]":
    """Every package-local name an import statement of ``source`` may
    load: ``import a.b`` gives ``a.b``; ``from a.b import c`` gives
    ``a.b`` and ``a.b.c``, which is a module only if its file exists.
    Imports sit only in statement lists (``_STATEMENT_FIELDS``), so the
    walk visits no expression."""
    import ast

    try:
        tree = ast.parse(source)
    except SyntaxError:
        return ()
    found: "set[str]" = set()
    stack: "list[ast.AST]" = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names
                         if _in_package(alias.name, root_package))
        elif isinstance(node, ast.ImportFrom):
            if (node.level == 0 and node.module
                    and _in_package(node.module, root_package)):
                found.add(node.module)
                found.update(f"{node.module}.{alias.name}"
                             for alias in node.names)
        for field_name in _STATEMENT_FIELDS:
            children = getattr(node, field_name, None)
            if isinstance(children, list):
                stack.extend(children)
    return tuple(sorted(found))


def _module_info(name: str,
                 root_package: str) -> "tuple[str, frozenset] | None":
    """(content hash, package-local imports) of one module, memoized.

    The imports are the module's import candidates; a candidate that
    names no module file has no info and drops out of the closure."""
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
            key = (root_package, digest)
            imports = _IMPORT_MEMO.get(key)
            if imports is None:
                imports = _IMPORT_MEMO[key] = _import_candidates(
                    source, root_package)
            info = (digest, frozenset(imports))
    _MODULE_INFO_CACHE[name] = info
    return info


def source_closure(module_name: str,
                   root_package: str = "repro") -> "dict[str, str]":
    """Module name -> content hash over the transitive package-local
    import closure of ``module_name`` (see :func:`source_fingerprint`)."""
    closure: "dict[str, str]" = {}
    seen: "set[str]" = set()
    stack = [module_name]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        info = _module_info(name, root_package)
        if info is None:
            continue
        digest, imports = info
        closure[name] = digest
        stack.extend(imports)
    return closure


def source_fingerprint(module_name: str,
                       root_package: str = "repro") -> str:
    """Hash the transitive package-local source closure of a module.

    Imports are resolved *statically* (AST, not ``sys.modules``) so the
    fingerprint is stable regardless of import order, and restricted to
    ``root_package`` — the Python stdlib is part of the interpreter
    version, not of the experiment definition.  Module names resolve to
    files from the package directory, so fingerprinting imports nothing;
    with a warm import memo it parses nothing either, but it still reads
    and hashes every file of the closure.
    """
    payload = hashlib.sha256()
    for name, digest in sorted(source_closure(module_name,
                                              root_package).items()):
        payload.update(name.encode())
        payload.update(b"\0")
        payload.update(digest.encode())
        payload.update(b"\n")
    return payload.hexdigest()


def import_closure(module_name: str, root_package: str = "repro") -> None:
    """Import every module of ``module_name``'s source closure.

    A process about to fork workers calls it, so each worker inherits
    the modules its task needs instead of importing them itself.
    """
    for name in sorted(source_closure(module_name, root_package)):
        importlib.import_module(name)


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
        #: Import-memo keys this directory's memo file held when read.
        self._memo_keys: "set[tuple[str, str]]" = set()

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
        # Imported here: a campaign that only replays never writes.
        import tempfile

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

    def read_import_memo(self) -> None:
        """Merge this directory's import memo into the process memo.

        The file is a SHA-256 line over the JSON body that follows it,
        ``{root package: {content hash: [import candidates]}}``.  A
        missing, torn or corrupt file reads as empty: its modules are
        parsed again, which costs time but never changes a fingerprint.
        """
        try:
            blob = (self.directory / IMPORT_MEMO_NAME).read_bytes()
            checksum, body = blob.split(b"\n", 1)
            if hashlib.sha256(body).hexdigest().encode() != checksum:
                return
            entries = []
            for root, modules in json.loads(body).items():
                for digest, candidates in modules.items():
                    if not all(isinstance(name, str) for name in candidates):
                        raise TypeError(candidates)
                    entries.append(((root, digest), tuple(candidates)))
        except (OSError, ValueError, AttributeError, TypeError):
            return
        for key, candidates in entries:
            _IMPORT_MEMO.setdefault(key, candidates)
            self._memo_keys.add(key)

    def write_import_memo(self) -> None:
        """Persist the process memo if this directory's file lacks any
        of it.  Only the campaign parent calls this; workers never do.

        An entry whose content hash matches no current module file of
        its root package describes edited-away source; it is dropped,
        so the file holds one entry per module, not one per edit."""
        if set(_IMPORT_MEMO) <= self._memo_keys:
            return
        current = {root: _package_digests(root)
                   for root in {root for root, _ in _IMPORT_MEMO}}
        for root, digest in list(_IMPORT_MEMO):
            if digest not in current[root]:
                del _IMPORT_MEMO[root, digest]
        memo: "dict[str, dict[str, list[str]]]" = {}
        for (root, digest), candidates in sorted(_IMPORT_MEMO.items()):
            memo.setdefault(root, {})[digest] = list(candidates)
        body = json.dumps(memo, sort_keys=True,
                          separators=(",", ":")).encode()
        checksum = hashlib.sha256(body).hexdigest().encode()
        path = self.directory / IMPORT_MEMO_NAME
        # The writer's pid names the temp file; the rename makes a
        # reader see the old file or the new one, never a torn one.
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        self.directory.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_bytes(checksum + b"\n" + body)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self._memo_keys = set(_IMPORT_MEMO)

    def __repr__(self) -> str:
        return f"ResultCache({str(self.directory)!r}, {self.stats.render()})"

