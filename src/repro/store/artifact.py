"""The columnar run-artifact format (``.rpart``).

One artifact persists the measured output of one campaign task — its
latency columns (the same ``source/seq/arrival/completion/mode`` data
:class:`~repro.hypervisor.hypervisor.LatencyColumns` keeps in memory)
plus, when available, the trace-event columns of a traced run — as a
single compact binary file built entirely from stdlib ``array``
buffers:

========== ==========================================================
section    layout
========== ==========================================================
magic      ``b"RPRSTOR1"`` + ``u32`` format version
header     ``u32`` length + JSON: byteorder, column schemas, and the
           free-form run ``metadata`` (experiment, kind, scenario,
           scale, seed, idle-skip flag, source digest —
           the same fingerprint fields the result cache uses)
chunks     ``b"CHNK"`` + ``u8`` kind (latency/trace) + ``u64`` rows +
           one raw ``array.tobytes()`` buffer per schema column,
           each prefixed with its ``u64`` byte length
footer     ``b"FOOT"`` + ``u32`` length + JSON: the interned string
           table (sources, legs, handling modes, trace kinds, trace
           data blobs all share one table) and the total row counts
checksum   ``b"SUM0"`` + raw SHA-256 of every preceding byte
========== ==========================================================

Strings never appear in the row data: every string-valued cell is an
``array('i')`` id into the footer's interned table, so a million-row
artifact stores each source name exactly once.  Chunks stream: a
writer may append row batches incrementally (the header carries no
counts; the footer, written on close, does), and the finished file
lands atomically via temp file + ``os.replace`` so a directory scan
never sees a half-written artifact.

Timestamps are 64-bit cycles (``array('q')``) and the derived
``latency_us`` column stores the *exact* ``array('d')`` floats the
live run produced via ``Clock.cycles_to_us`` — reading them back and
feeding :func:`repro.metrics.stats.summarize` is bit-identical to
summarizing the in-memory columns, which the store tests pin.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
import tempfile
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence

if TYPE_CHECKING:
    # Reading an artifact needs none of the simulator; the functions
    # that build these types import them when called.
    from repro.hypervisor.hypervisor import LatencyRecord
    from repro.sim.trace import TraceEvent, TraceRecorder

#: First eight bytes of every artifact.
MAGIC = b"RPRSTOR1"

#: Bumped on any change to the binary layout or column schemas.
FORMAT_VERSION = 1

#: File extension campaign artifacts are written (and scanned) with.
ARTIFACT_SUFFIX = ".rpart"

#: Latency row schema: (column name, array typecode), in chunk order.
#: ``leg``/``source``/``mode`` are interned-string ids.
LATENCY_SCHEMA = (
    ("leg", "i"),
    ("source", "i"),
    ("seq", "q"),
    ("arrival", "q"),
    ("completed", "q"),
    ("mode", "i"),
    ("cut", "b"),
    ("latency_us", "d"),
)

#: Trace row schema; ``kind``/``data`` are interned-string ids (the
#: data cell is the event's canonical-JSON payload).
TRACE_SCHEMA = (
    ("time", "q"),
    ("kind", "i"),
    ("data", "i"),
)

_CHUNK_LATENCY = 0
_CHUNK_TRACE = 1

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class ArtifactError(ValueError):
    """A malformed, truncated or corrupt run artifact."""


#: JSON scalar types :func:`json_safe` passes through by exact type.
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def json_safe(value: Any) -> Any:
    """Coerce a trace-event data value into something JSON can carry.

    Tuples become lists, mapping keys strings, and anything that is not
    a JSON scalar its ``repr``.  The trace columns store event data in
    this form, and the Perfetto exporter renders instant args through
    the same function, so a live and a persisted event give the same
    Chrome trace bytes.

    A plain dict of ``str`` keys and exact JSON scalar values — the
    shape of every event the hypervisor records — is already JSON-safe
    and is returned as it is, without a copy.
    """
    if type(value) is dict:
        for key, item in value.items():
            if type(key) is not str or type(item) not in _SCALAR_TYPES:
                break
        else:
            return value
    return _json_safe_tree(value)


def _json_safe_tree(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe_tree(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _json_safe_tree(item)
                for key, item in value.items()}
    return repr(value)


#: Compact JSON, one value per ``encode`` call (the C encoder runs).
_encode = json.JSONEncoder(separators=(",", ":")).encode


def encode_trace_data(events: Iterable[TraceEvent]) -> "list[str]":
    """The canonical JSON of each event's data, in event order.

    One text per event serves both the ``.rpart`` trace columns and
    the Chrome trace instants, so a traced run encodes its args once.
    """
    return [_encode(json_safe(event.data)) for event in events]


class _Interner:
    """Append-only string table: string -> small stable id."""

    __slots__ = ("strings", "_index")

    def __init__(self, strings: Optional[Sequence[str]] = None):
        self.strings: "list[str]" = list(strings or ())
        self._index = {s: i for i, s in enumerate(self.strings)}

    def intern(self, value: str) -> int:
        index = self._index.get(value)
        if index is None:
            index = len(self.strings)
            self._index[value] = index
            self.strings.append(value)
        return index


def trace_events_to_columns(events: Iterable[TraceEvent],
                            interner: Optional[_Interner] = None,
                            payloads: Optional[Sequence[str]] = None,
                            ) -> "tuple[dict[str, array], _Interner]":
    """Pack trace events into the columnar form (time/kind/data ids).

    ``payloads`` is :func:`encode_trace_data` of the same events, when
    the caller already has it.
    """
    interner = interner or _Interner()
    events = list(events)
    if payloads is None:
        payloads = encode_trace_data(events)
    elif len(payloads) != len(events):
        raise ArtifactError(f"{len(payloads)} encoded payloads for "
                            f"{len(events)} trace events")
    intern = interner.intern
    times = array("q")
    kinds = array("i")
    blobs = array("i")
    for event, payload in zip(events, payloads):
        times.append(event.time)
        kinds.append(intern(event.kind.value))
        blobs.append(intern(payload))
    return {"time": times, "kind": kinds, "data": blobs}, interner


def trace_events_from_columns(columns: "Mapping[str, array]",
                              strings: Sequence[str],
                              ) -> "list[TraceEvent]":
    """Rebuild :class:`TraceEvent` objects from stored trace columns."""
    from repro.sim.trace import TraceEvent, TraceKind

    return [
        TraceEvent(time, TraceKind(strings[kind]),
                   json.loads(strings[blob]))
        for time, kind, blob in zip(columns["time"], columns["kind"],
                                    columns["data"])
    ]


class ArtifactWriter:
    """Streaming writer for one run artifact.

    Opens a temp file next to ``path`` immediately; ``append_summary``
    and ``append_trace`` each flush one chunk; :meth:`close` writes the
    footer + checksum and atomically renames the file into place.
    Usable as a context manager (aborting on exceptions).
    """

    def __init__(self, path: "str | os.PathLike[str]",
                 metadata: "Mapping[str, Any] | None" = None):
        self.path = Path(path)
        self.metadata = dict(metadata or {})
        self._interner = _Interner()
        self._latency_rows = 0
        self._trace_rows = 0
        self._bytes = 0
        self._sha = hashlib.sha256()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, self._tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=self.path.name, suffix=".tmp")
        self._handle = os.fdopen(fd, "wb")
        header = {
            "format": "repro-run-artifact",
            "version": FORMAT_VERSION,
            "byteorder": sys.byteorder,
            "latency_columns": [list(column) for column in LATENCY_SCHEMA],
            "trace_columns": [list(column) for column in TRACE_SCHEMA],
            "metadata": self.metadata,
        }
        blob = json.dumps(header, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        self._write(MAGIC)
        self._write(_U32.pack(FORMAT_VERSION))
        self._write(_U32.pack(len(blob)))
        self._write(blob)

    # ------------------------------------------------------------ io

    def _write(self, data: bytes) -> None:
        self._handle.write(data)
        self._sha.update(data)
        self._bytes += len(data)

    def _write_chunk(self, kind: int, rows: int,
                     columns: "Sequence[array]") -> None:
        self._write(b"CHNK")
        self._write(bytes([kind]))
        self._write(_U64.pack(rows))
        for column in columns:
            raw = column.tobytes()
            self._write(_U64.pack(len(raw)))
            self._write(raw)

    # ------------------------------------------------------- append

    def append_summary(self, leg: str, columns: Any,
                       latencies_us: Sequence[float]) -> int:
        """Append one scenario's latency columns under the ``leg`` label.

        ``columns`` carries the :meth:`LatencyColumns.column_data
        <repro.hypervisor.hypervisor.LatencyColumns.column_data>` arrays
        as attributes (as :class:`repro.experiments.common.LatencyColumnData`
        does).  ``latencies_us`` must align 1:1 with its rows (both are
        in completion order); the µs floats are stored verbatim so the
        round trip is bit-exact.
        """
        from repro.core.policy import HandlingMode

        rows = len(columns.seqs)
        if rows != len(latencies_us):
            raise ArtifactError(
                f"{self.path.name}: leg {leg!r} has {rows} records "
                f"but {len(latencies_us)} latency values"
            )
        intern = self._interner.intern
        leg_id = intern(leg)
        # Intern in row order: each row's source, then its mode, at
        # their first appearance.  The string table, and so the artifact
        # bytes, must not depend on whether rows arrive as columns or
        # one at a time.
        source_ids, modes = columns.source_ids, columns.modes
        firsts = sorted(
            [(source_ids.index(sid), 0, sid) for sid in set(source_ids)]
            + [(modes.index(code), 1, code) for code in set(modes)])
        # ``LatencyColumns`` codes modes in ``HandlingMode`` declaration
        # order.
        mode_values = [mode.value for mode in HandlingMode]
        source_map: "dict[int, int]" = {}
        mode_map: "dict[int, int]" = {}
        for _, is_mode, code in firsts:
            if is_mode:
                mode_map[code] = intern(mode_values[code])
            else:
                source_map[code] = intern(columns.source_names[code])
        self._write_chunk(_CHUNK_LATENCY, rows, [
            array("i", [leg_id]) * rows,
            array("i", map(source_map.__getitem__, source_ids)),
            columns.seqs,
            columns.arrivals,
            columns.completions,
            array("i", map(mode_map.__getitem__, modes)),
            columns.cuts,
            array("d", latencies_us),
        ])
        self._latency_rows += rows
        return rows

    def append_trace(self, events: Iterable[TraceEvent],
                     payloads: Optional[Sequence[str]] = None) -> int:
        """Append trace events as columnar rows (time/kind/data).

        ``payloads`` optionally carries the events' already-encoded
        data (see :func:`encode_trace_data`).
        """
        columns, _ = trace_events_to_columns(events, self._interner,
                                             payloads)
        rows = len(columns["time"])
        self._write_chunk(_CHUNK_TRACE, rows,
                          [columns[name] for name, _ in TRACE_SCHEMA])
        self._trace_rows += rows
        return rows

    # -------------------------------------------------------- close

    def close(self) -> int:
        """Finalize footer + checksum; atomically rename; return bytes."""
        footer = {
            "strings": self._interner.strings,
            "latency_rows": self._latency_rows,
            "trace_rows": self._trace_rows,
        }
        blob = json.dumps(footer, separators=(",", ":")).encode("utf-8")
        self._write(b"FOOT")
        self._write(_U32.pack(len(blob)))
        self._write(blob)
        digest = self._sha.digest()
        self._handle.write(b"SUM0")
        self._handle.write(digest)
        self._bytes += 4 + len(digest)
        self._handle.close()
        os.replace(self._tmp_name, self.path)
        return self._bytes

    def abort(self) -> None:
        """Discard the temp file without producing an artifact."""
        try:
            self._handle.close()
        finally:
            try:
                os.unlink(self._tmp_name)
            except OSError:
                pass

    def __enter__(self) -> "ArtifactWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


@dataclass
class RunArtifact:
    """One fully-parsed run artifact (columns + string table)."""

    path: Path
    metadata: "dict[str, Any]"
    strings: "list[str]"
    latency: "dict[str, array]" = field(default_factory=dict)
    trace: "dict[str, array]" = field(default_factory=dict)

    # ------------------------------------------------------- loading

    @staticmethod
    def read_metadata(path: "str | os.PathLike[str]") -> "dict[str, Any]":
        """Read only the header's ``metadata`` dict (cheap scan path)."""
        with open(path, "rb") as handle:
            header = _read_header(handle, path)
        return header.get("metadata", {})

    @classmethod
    def read(cls, path: "str | os.PathLike[str]") -> "RunArtifact":
        """Parse (and checksum-verify) a whole artifact."""
        blob = Path(path).read_bytes()
        if len(blob) < len(MAGIC) + 8 or not blob.startswith(MAGIC):
            raise ArtifactError(f"{path}: not a run artifact (bad magic)")
        if len(blob) < 36 or blob[-36:-32] != b"SUM0":
            raise ArtifactError(f"{path}: missing checksum trailer")
        if hashlib.sha256(blob[:-36]).digest() != blob[-32:]:
            raise ArtifactError(f"{path}: checksum mismatch (corrupt file)")
        offset = len(MAGIC)
        version = _U32.unpack_from(blob, offset)[0]
        offset += 4
        if version != FORMAT_VERSION:
            raise ArtifactError(
                f"{path}: unsupported artifact version {version} "
                f"(supported: {FORMAT_VERSION})"
            )
        header_len = _U32.unpack_from(blob, offset)[0]
        offset += 4
        header = json.loads(blob[offset:offset + header_len].decode("utf-8"))
        offset += header_len
        swap = header.get("byteorder", "little") != sys.byteorder
        latency_schema = [tuple(col) for col in header["latency_columns"]]
        trace_schema = [tuple(col) for col in header["trace_columns"]]
        latency = {name: array(code) for name, code in latency_schema}
        trace = {name: array(code) for name, code in trace_schema}
        footer: "dict[str, Any] | None" = None
        end = len(blob) - 36
        while offset < end:
            marker = blob[offset:offset + 4]
            offset += 4
            if marker == b"FOOT":
                footer_len = _U32.unpack_from(blob, offset)[0]
                offset += 4
                footer = json.loads(
                    blob[offset:offset + footer_len].decode("utf-8"))
                offset += footer_len
                break
            if marker != b"CHNK":
                raise ArtifactError(
                    f"{path}: unknown section marker {marker!r} at byte "
                    f"{offset - 4}"
                )
            kind = blob[offset]
            offset += 1
            rows = _U64.unpack_from(blob, offset)[0]
            offset += 8
            schema = (latency_schema if kind == _CHUNK_LATENCY
                      else trace_schema)
            target = latency if kind == _CHUNK_LATENCY else trace
            for name, code in schema:
                nbytes = _U64.unpack_from(blob, offset)[0]
                offset += 8
                column = array(code)
                column.frombytes(blob[offset:offset + nbytes])
                offset += nbytes
                if swap:
                    column.byteswap()
                if len(column) != rows:
                    raise ArtifactError(
                        f"{path}: column {name!r} has {len(column)} values "
                        f"in a {rows}-row chunk"
                    )
                target[name].extend(column)
        if footer is None:
            raise ArtifactError(f"{path}: missing footer")
        artifact = cls(path=Path(path), metadata=header.get("metadata", {}),
                       strings=list(footer.get("strings", [])),
                       latency=latency, trace=trace)
        if artifact.latency_rows != footer.get("latency_rows"):
            raise ArtifactError(
                f"{path}: footer claims {footer.get('latency_rows')} latency "
                f"rows, chunks hold {artifact.latency_rows}"
            )
        if artifact.trace_rows != footer.get("trace_rows"):
            raise ArtifactError(
                f"{path}: footer claims {footer.get('trace_rows')} trace "
                f"rows, chunks hold {artifact.trace_rows}"
            )
        return artifact

    # ------------------------------------------------------- queries

    @property
    def latency_rows(self) -> int:
        return len(self.latency.get("seq", ()))

    @property
    def trace_rows(self) -> int:
        return len(self.trace.get("time", ()))

    def legs(self) -> "list[str]":
        """Distinct leg labels, in first-appearance order."""
        seen: "list[str]" = []
        for leg_id in self.latency["leg"]:
            name = self.strings[leg_id]
            if name not in seen:
                seen.append(name)
        return seen

    def sources(self) -> "list[str]":
        """Distinct IRQ source names, in first-appearance order."""
        seen: "list[str]" = []
        for source_id in self.latency["source"]:
            name = self.strings[source_id]
            if name not in seen:
                seen.append(name)
        return seen

    def _row_mask(self, leg: Optional[str], source: Optional[str],
                  mode: Optional[str]) -> "Optional[list[bool]]":
        wanted: "list[tuple[str, int]]" = []
        for column, value in (("leg", leg), ("source", source),
                              ("mode", mode)):
            if value is None:
                continue
            try:
                wanted.append((column, self.strings.index(value)))
            except ValueError:
                return [False] * self.latency_rows
        if not wanted:
            return None
        mask = [True] * self.latency_rows
        for column, target in wanted:
            for index, cell in enumerate(self.latency[column]):
                if cell != target:
                    mask[index] = False
        return mask

    def latencies_us(self, leg: Optional[str] = None,
                     source: Optional[str] = None,
                     mode: Optional[str] = None) -> array:
        """The stored µs latency column, optionally row-filtered.

        Returned as ``array('d')`` in completion order — element for
        element the floats the live run produced, so feeding it to
        :func:`repro.metrics.stats.summarize` is bit-identical to
        summarizing the in-memory columns.
        """
        values = self.latency["latency_us"]
        mask = self._row_mask(leg, source, mode)
        if mask is None:
            return array("d", values)
        return array("d", (value for value, keep in zip(values, mask)
                           if keep))

    def latency_records(self, leg: Optional[str] = None,
                        ) -> "list[LatencyRecord]":
        """Materialize stored rows as classic :class:`LatencyRecord`."""
        from repro.core.policy import HandlingMode
        from repro.hypervisor.hypervisor import LatencyRecord

        strings = self.strings
        mask = self._row_mask(leg, None, None)
        columns = self.latency
        records = []
        for index in range(self.latency_rows):
            if mask is not None and not mask[index]:
                continue
            records.append(LatencyRecord(
                source=strings[columns["source"][index]],
                seq=columns["seq"][index],
                arrival=columns["arrival"][index],
                completed_at=columns["completed"][index],
                mode=HandlingMode(strings[columns["mode"][index]]),
                enforced_cut=bool(columns["cut"][index]),
            ))
        return records

    def trace_events(self) -> "list[TraceEvent]":
        """Rebuild the stored trace stream as :class:`TraceEvent`."""
        return trace_events_from_columns(self.trace, self.strings)

    def trace_recorder(self) -> TraceRecorder:
        """An enabled recorder holding the stored trace stream."""
        from repro.sim.trace import TraceRecorder

        return TraceRecorder.from_events(self.trace_events())


def _read_header(handle, path) -> "dict[str, Any]":
    magic = handle.read(len(MAGIC))
    if magic != MAGIC:
        raise ArtifactError(f"{path}: not a run artifact (bad magic)")
    version = _U32.unpack(handle.read(4))[0]
    if version != FORMAT_VERSION:
        raise ArtifactError(
            f"{path}: unsupported artifact version {version} "
            f"(supported: {FORMAT_VERSION})"
        )
    header_len = _U32.unpack(handle.read(4))[0]
    blob = handle.read(header_len)
    if len(blob) != header_len:
        raise ArtifactError(f"{path}: truncated header")
    return json.loads(blob.decode("utf-8"))
