"""The write-ahead log: length-prefixed, checksummed, versioned records.

The WAL is the redo log of the durability subsystem.  Every record is
framed as::

    +----------------+----------------+------------------+
    | length (u32 BE)| CRC32 (u32 BE) | payload          |
    +----------------+----------------+------------------+

preceded (once, at file start) by an 8-byte versioned magic header.
The CRC covers the payload bytes, so a torn write — a crash mid-append
leaves a short or garbled final frame — is *detected*, never
mis-parsed: scanning stops at the first frame that fails to decode,
and everything from that point on is treated as the log's end (the
same discipline PostgreSQL applies to its redo log).  Reopening for
append truncates the damaged tail so new frames always start at a
boundary.  A file whose 8-byte header is missing or carries another
format generation raises :class:`~repro.errors.WALCorruptionError`
instead — that is not a crash artifact, it is not our log.

A payload's first byte says what it is:

``{`` (0x7B)
    a compact-JSON **control record**: DDL, ``open`` and ``truncate``
    (rare, human-debuggable, synced immediately);
``0xB2`` / ``0xB3`` / ``0xB4``
    a binary ``batch`` / ``prepare`` / ``decide`` record — the only
    layout committed events are ever written in.  It has one form:
    tables are spelled by name and every count is a varint, so any
    batch the engine can hold encodes and a record decodes without a
    catalog.  The layout is spelled out above :func:`encode_batch`.

Logs of an earlier generation are **refused** with
:class:`~repro.errors.WALCorruptionError`, never skipped and never
half-read: a generation-1 or generation-2 header (generation 2 could
reference tables by catalog position instead of by name), or a JSON
frame typed ``batch`` / ``prepare`` / ``decide`` (the pre-v2 layout).
Open them with the release that wrote them and checkpoint.

Record types:

``create_table`` / ``drop_table`` / ``create_view`` / ``drop_view``
    schema DDL issued through the database facade;
``install``
    event-capture installation (tables instrumented by TINTIN);
``assertion_add`` / ``assertion_drop``
    assertion DDL — the record carries the original ``CREATE
    ASSERTION`` SQL, so recovery re-runs the whole compilation
    pipeline and rebuilds the EDC views bit-for-bit;
``batch``
    one *committed* event batch: the inserts/deletes ``safeCommit``
    (or a whole commit group) applied, plus the per-table row counts
    observed right after the apply, which recovery re-verifies;
``prepare`` / ``decide``
    the two-phase-commit protocol records of the sharded deployment.
    A participant logs ``prepare`` (the batch body plus the global
    transaction id) and fsyncs it *before* voting yes — that record IS
    the vote; ``decide`` later records the coordinator's verdict
    (commit or abort) for the same gid, with commit decides carrying
    the post-apply row counts so replay verification covers them too.
    A prepare with no matching decide is *in doubt*: recovery
    surfaces it for resolution against the coordinator's decision log
    (itself a WAL of ``decide`` records) instead of replaying or
    discarding it unilaterally.

Every record carries a monotonically increasing ``seq``.  Checkpoints
remember the last sequence they include, so replay after a crash that
hit between checkpoint-rename and WAL-truncation skips the prefix the
checkpoint already covers instead of double-applying it.

Row values are the engine's scalar types (int, float, str, bool,
None); the codec round-trips all of them exactly (including
±infinity) and restores rows as tuples.  NaN is the one value it
refuses: ``NaN != NaN`` would poison the row-equality checks replay
verification relies on.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from ..errors import DurabilityError, WALCorruptionError
from ..obs.metrics import StatsBlock

#: 8-byte file header: magic + format generation.  No other generation
#: is readable (see the module docstring on earlier logs).
WAL_MAGIC = b"TNTWAL\x00\x03"
_HEADER_LEN = len(WAL_MAGIC)

_FRAME = struct.Struct(">II")  # payload length, CRC32(payload)

#: first payload byte of a binary ``batch`` record (JSON payloads
#: start with ``{`` = 0x7B; the two can never be confused)
BATCH_V2_TAG = 0xB2
#: first payload byte of a binary two-phase-commit ``prepare`` record:
#: the batch layout plus a global-transaction-id field
PREPARE_V2_TAG = 0xB3
#: first payload byte of a binary two-phase-commit ``decide`` record:
#: the coordinator's commit/abort verdict for one gid
DECIDE_V2_TAG = 0xB4
#: binary payload tags mapped to the record type they carry (all three
#: share the layout prefix "tag byte, seq varint")
_BINARY_TAGS = {
    BATCH_V2_TAG: "batch",
    PREPARE_V2_TAG: "prepare",
    DECIDE_V2_TAG: "decide",
}

#: how many times :func:`read_wal` performed a full file scan in this
#: process — the single-pass-open regression tests assert the delta
_scan_count = 0


def wal_scan_count() -> int:
    """Process-lifetime count of full WAL scans (see :func:`read_wal`)."""
    return _scan_count


def encode_record(record: dict) -> bytes:
    """Frame one JSON control record: length + CRC32 + compact JSON."""
    payload = json.dumps(
        record, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


# -- the binary record codec -------------------------------------------------
#
# Payload layout (all integers unsigned unless noted; "varint" = LEB128
# base-128 little-endian groups; "str" = varint byte length + UTF-8):
#
#   u8      tag: 0xB2 batch, 0xB3 prepare, 0xB4 decide
#   varint  seq
#   [decide]          u8 verdict (1 = commit, 0 = abort)
#   [prepare/decide]  str gid
#   u8      flags: bit 0 — a counts section closes the record (every
#                  other bit is reserved and refused on read)
#   [batch/prepare]   the insert table blocks, then the delete table
#                     blocks, each section a varint block count
#   [flags&1]         varint entry count, then per entry the str table
#                     name and the varint post-apply row count
#
# One table block: str table name, then
#
#   u8      mode: 0 = column-typed fixed stride, 1 = tagged values
#   mode 0: varint column count, one struct code per column (one of
#           b/h/i/q  = signed int of 1/2/4/8 bytes, chosen per column
#           from the narrowest width that holds every value,
#           d = IEEE-754 double, ? = bool), varint row count, then
#           row count × struct(">"+codes) packed rows — decoded in one
#           C-level struct.iter_unpack pass;
#   mode 1: exactly :func:`encode_tagged_rows` — varint row count,
#           then per row a varint column count and per value a type
#           tag: 0 NULL, 1 False, 2 True, 3 int (zigzag varint,
#           arbitrary precision), 4 float (8-byte BE double), 5 str.
#
# Mode 0 is the fast path (every value non-NULL, columns uniformly
# int/float/bool, ints within i64): numeric OLTP batches decode at
# struct speed.  Mode 1 covers everything else (strings, NULLs, mixed
# columns, >64-bit ints).  Every count is a varint and every table is
# named, so the codec is total: any batch the engine can hold encodes,
# and a record decodes without a catalog.

_TAG_NULL = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_INT = 3
_TAG_FLOAT = 4
_TAG_STR = 5

_FLAG_COUNTS = 1

_F64 = struct.Struct(">d")

#: struct.Struct cache for mode-0 row formats, keyed by the code bytes
_ROW_STRUCTS: dict[bytes, struct.Struct] = {}


def _row_struct(codes: bytes) -> struct.Struct:
    fmt = _ROW_STRUCTS.get(codes)
    if fmt is None:
        fmt = _ROW_STRUCTS[codes] = struct.Struct(">" + codes.decode("ascii"))
    return fmt


def _append_uvarint(out: bytearray, n: int) -> None:
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data: bytes, i: int) -> tuple[int, int]:
    b = data[i]
    i += 1
    if b < 0x80:
        return b, i
    n = b & 0x7F
    shift = 7
    while True:
        b = data[i]
        i += 1
        n |= (b & 0x7F) << shift
        if b < 0x80:
            return n, i
        shift += 7


def _append_str(out: bytearray, text: str) -> None:
    encoded = text.encode("utf-8")
    _append_uvarint(out, len(encoded))
    out += encoded


def _read_str(data: bytes, i: int) -> tuple[str, int]:
    n, i = _read_uvarint(data, i)
    return data[i : i + n].decode("utf-8"), i + n


def _nan_guard(value: float) -> None:
    if math.isnan(value):
        raise DurabilityError(
            "NaN cannot be logged: it breaks the row-equality "
            "checks recovery verification depends on"
        )


def _column_codes(rows: list[tuple]) -> Optional[bytes]:
    """Mode-0 struct codes for these rows, or None when they need the
    tagged encoding (NULLs, strings, mixed columns, >64-bit ints)."""
    arity = len(rows[0])
    if arity == 0:
        return None  # struct cannot iter_unpack a zero-size format
    codes = bytearray()
    for j in range(arity):
        kind = None  # 'i' | 'f' | 'b'
        lo = hi = 0
        for row in rows:
            if len(row) != arity:
                return None
            value = row[j]
            if value is True or value is False:
                if kind is None:
                    kind = "b"
                elif kind != "b":
                    return None
            elif isinstance(value, int):
                if kind is None:
                    kind = "i"
                elif kind != "i":
                    return None
                if value < lo:
                    lo = value
                elif value > hi:
                    hi = value
            elif isinstance(value, float):
                _nan_guard(value)
                if kind is None:
                    kind = "f"
                elif kind != "f":
                    return None
            else:
                return None  # None, str, or anything exotic
        if kind == "b":
            codes.append(ord("?"))
        elif kind == "f":
            codes.append(ord("d"))
        else:
            if lo >= -128 and hi <= 127:
                codes.append(ord("b"))
            elif lo >= -32768 and hi <= 32767:
                codes.append(ord("h"))
            elif lo >= -(2**31) and hi <= 2**31 - 1:
                codes.append(ord("i"))
            elif lo >= -(2**63) and hi <= 2**63 - 1:
                codes.append(ord("q"))
            else:
                return None  # beyond i64: tagged varint handles it
    return bytes(codes)


def _encode_tagged_value(out: bytearray, value) -> None:
    if value is None:
        out.append(_TAG_NULL)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        zigzag = value * 2 if value >= 0 else -value * 2 - 1
        _append_uvarint(out, zigzag)
    elif isinstance(value, float):
        _nan_guard(value)
        out.append(_TAG_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        out.append(_TAG_STR)
        _append_str(out, value)
    else:
        raise DurabilityError(
            f"value {value!r} of type {type(value).__name__} is not a "
            "loggable scalar"
        )


def encode_tagged_rows(rows: Iterable[tuple]) -> bytes:
    """Rows as a standalone tagged-value block: a WAL mode-1 table
    block, and the network front end's result/row payloads.

    Framed as: varint row count, then per row a varint arity followed
    by the tagged values — same tags, same zigzag varints, same NaN
    rejection wherever it is used.  Rows may be heterogeneous in width
    (a result set never is, but the codec does not care).
    """
    materialized = [tuple(row) for row in rows]
    out = bytearray()
    _append_uvarint(out, len(materialized))
    for row in materialized:
        _append_uvarint(out, len(row))
        for value in row:
            _encode_tagged_value(out, value)
    return bytes(out)


def decode_tagged_rows(data: bytes, i: int = 0) -> tuple[list[tuple], int]:
    """Inverse of :func:`encode_tagged_rows`; returns ``(rows, end)``
    so callers embedding a block inside a larger payload can keep
    decoding after it."""
    n_rows, i = _read_uvarint(data, i)
    rows: list[tuple] = []
    for _ in range(n_rows):
        n_cols = data[i]
        i += 1
        if n_cols >= 0x80:
            n_cols, i = _read_uvarint(data, i - 1)
        row = []
        for _ in range(n_cols):
            tag = data[i]
            i += 1
            if tag == _TAG_NULL:
                row.append(None)
            elif tag == _TAG_TRUE:
                row.append(True)
            elif tag == _TAG_FALSE:
                row.append(False)
            elif tag == _TAG_INT:
                zigzag, i = _read_uvarint(data, i)
                row.append(
                    zigzag >> 1 if not zigzag & 1 else -((zigzag + 1) >> 1)
                )
            elif tag == _TAG_FLOAT:
                row.append(_F64.unpack_from(data, i)[0])
                i += 8
            elif tag == _TAG_STR:
                text, i = _read_str(data, i)
                row.append(text)
            else:
                raise DurabilityError(f"unknown value tag {tag}")
        rows.append(tuple(row))
    return rows, i


def _append_table_blocks(out: bytearray, events: dict[str, list[tuple]]) -> None:
    """Append one section of table blocks (tables with no rows write
    none)."""
    blocks = [(name, rows) for name, rows in events.items() if rows]
    _append_uvarint(out, len(blocks))
    for name, rows in blocks:
        _append_str(out, name)
        codes = _column_codes(rows)
        if codes is None:
            out.append(1)  # mode: tagged
            out += encode_tagged_rows(rows)
            continue
        out.append(0)  # mode: fixed stride
        _append_uvarint(out, len(codes))
        out += codes
        _append_uvarint(out, len(rows))
        pack = _row_struct(codes).pack
        for row in rows:
            out += pack(*row)


def _append_counts(out: bytearray, counts: dict[str, int]) -> None:
    _append_uvarint(out, len(counts))
    for name, count in counts.items():
        if count < 0:  # a varint cannot hold it (and no table can)
            raise DurabilityError(
                f"row count {count} of table {name!r} is negative"
            )
        _append_str(out, name)
        _append_uvarint(out, count)


def _encode(
    tag: int,
    seq: int,
    gid: Optional[str],
    verdict: Optional[bool],
    inserts: Optional[dict],
    deletes: Optional[dict],
    counts: Optional[dict[str, int]],
) -> bytes:
    """One binary payload (``inserts`` None: a decide has no table
    sections)."""
    out = bytearray((tag,))
    _append_uvarint(out, seq)
    if verdict is not None:
        out.append(1 if verdict else 0)
    if gid is not None:
        _append_str(out, gid)
    out.append(_FLAG_COUNTS if counts is not None else 0)
    if inserts is not None:
        _append_table_blocks(out, inserts)
        _append_table_blocks(out, deletes)
    if counts is not None:
        _append_counts(out, counts)
    return bytes(out)


def encode_batch(
    seq: int,
    inserts: dict[str, list[tuple]],
    deletes: dict[str, list[tuple]],
    counts: Optional[dict[str, int]] = None,
) -> bytes:
    """One binary ``batch`` payload.  NaN and non-scalar values raise
    :class:`DurabilityError`."""
    return _encode(BATCH_V2_TAG, seq, None, None, inserts, deletes, counts)


def encode_prepare(
    seq: int,
    gid: str,
    inserts: dict[str, list[tuple]],
    deletes: dict[str, list[tuple]],
    counts: Optional[dict[str, int]] = None,
) -> bytes:
    """One binary ``prepare`` payload: the batch layout with the
    global transaction id spliced in between the seq and the flags."""
    return _encode(PREPARE_V2_TAG, seq, gid, None, inserts, deletes, counts)


def encode_decide(
    seq: int,
    gid: str,
    verdict: bool,
    counts: Optional[dict[str, int]] = None,
) -> bytes:
    """One binary ``decide`` payload: seq, verdict byte (1 = commit,
    0 = abort), the gid, then an optional counts section (commit
    decides log the post-apply row counts for replay verification).
    """
    return _encode(DECIDE_V2_TAG, seq, gid, bool(verdict), None, None, counts)


def _decode(
    tag: int, data: bytes, start: int, end: Optional[int]
) -> tuple[
    Optional[str], Optional[bool], Optional[dict], Optional[dict], Optional[dict]
]:
    """Decode the binary record ``data[start:end]`` *in place* (no
    payload copy — ``data`` is usually the whole log file) as
    ``(gid, verdict, inserts, deletes, counts)``.

    Raises :class:`DurabilityError` for a payload that lies about its
    own shape (the CRC already passed, so that is an encoder bug, not a
    torn write).
    """
    if end is None:
        end = len(data)
    try:
        if data[start] != tag:
            raise ValueError(f"payload tag is {data[start]:#x}, not {tag:#x}")
        i = start + 1
        while data[i] >= 0x80:  # skip the seq varint (the scan has it)
            i += 1
        i += 1
        gid = verdict = inserts = deletes = counts = None
        if tag == DECIDE_V2_TAG:
            if data[i] not in (0, 1):
                raise ValueError(f"unknown decide verdict byte {data[i]}")
            verdict = bool(data[i])
            i += 1
        if tag != BATCH_V2_TAG:
            gid, i = _read_str(data, i)
        flags = data[i]
        i += 1
        if flags & ~_FLAG_COUNTS:
            raise ValueError(f"unknown flags byte {flags:#x}")
        if tag != DECIDE_V2_TAG:
            inserts, i = _decode_table_blocks(data, i, end)
            deletes, i = _decode_table_blocks(data, i, end)
        if flags & _FLAG_COUNTS:
            counts, i = _decode_counts(data, i)
        if i != end:
            raise ValueError(f"payload has {end - i} trailing byte(s)")
        return gid, verdict, inserts, deletes, counts
    except DurabilityError:
        raise
    except (IndexError, ValueError, struct.error, UnicodeDecodeError) as exc:
        raise DurabilityError(
            f"malformed binary {_BINARY_TAGS[tag]} payload (CRC passed — "
            f"encoder bug?): {exc}"
        ) from exc


def decode_batch(
    data: bytes, start: int = 0, end: Optional[int] = None
) -> tuple[dict, dict, Optional[dict]]:
    """One binary ``batch`` record as ``(inserts, deletes, counts)``;
    see :func:`_decode` for the in-place span."""
    return _decode(BATCH_V2_TAG, data, start, end)[2:]


def decode_prepare(
    data: bytes, start: int = 0, end: Optional[int] = None
) -> tuple[str, dict, dict, Optional[dict]]:
    """One binary ``prepare`` record as ``(gid, inserts, deletes,
    counts)``."""
    gid, _, inserts, deletes, counts = _decode(
        PREPARE_V2_TAG, data, start, end
    )
    return gid, inserts, deletes, counts


def decode_decide(
    data: bytes, start: int = 0, end: Optional[int] = None
) -> tuple[str, bool, Optional[dict]]:
    """One binary ``decide`` record as ``(gid, commit, counts)`` —
    ``commit`` True for a commit verdict, False for an abort;
    ``counts`` only on commit decides that logged post-apply row
    counts."""
    gid, commit, _, _, counts = _decode(DECIDE_V2_TAG, data, start, end)
    return gid, commit, counts


def _decode_table_blocks(p: bytes, i: int, length: int) -> tuple[dict, int]:
    """One section of table blocks at ``i``; returns ``(events,
    next_offset)``.  ``p`` is usually the whole file and ``length``
    the frame's end offset.

    This is recovery's hot loop, hence the inlined single-byte varint
    fast paths: an all-numeric OLTP batch costs a few byte reads, one
    name decode and one C-level ``struct`` unpack per table.
    """
    structs = _ROW_STRUCTS
    n_tables = p[i]
    i += 1
    if n_tables >= 0x80:
        n_tables, i = _read_uvarint(p, i - 1)
    events: dict = {}
    for _ in range(n_tables):
        name, i = _read_str(p, i)
        mode = p[i]
        i += 1
        if mode == 0:
            n_cols = p[i]
            i += 1
            if n_cols >= 0x80:
                n_cols, i = _read_uvarint(p, i - 1)
            codes = p[i : i + n_cols]
            i += n_cols
            n_rows = p[i]
            i += 1
            if n_rows >= 0x80:
                n_rows, i = _read_uvarint(p, i - 1)
            fmt = structs.get(codes)
            if fmt is None:
                fmt = _row_struct(codes)
            end = i + n_rows * fmt.size
            if end > length:
                raise ValueError("fixed-stride block overruns the payload")
            if n_rows == 1:
                events[name] = [fmt.unpack_from(p, i)]
            else:
                events[name] = list(fmt.iter_unpack(memoryview(p)[i:end]))
            i = end
        elif mode == 1:
            events[name], i = decode_tagged_rows(p, i)
        else:
            raise ValueError(f"unknown table-block mode {mode}")
    return events, i


def _decode_counts(p: bytes, i: int) -> tuple[dict, int]:
    """One counts section at ``i``; returns ``(counts, next_offset)``."""
    n_counts, i = _read_uvarint(p, i)
    counts: dict = {}
    for _ in range(n_counts):
        name, i = _read_str(p, i)
        counts[name], i = _read_uvarint(p, i)
    return counts, i


# -- frame scanning ----------------------------------------------------------


class WalRecord(NamedTuple):
    """The scan-time view of one frame, whatever its payload: a
    durable open needs types and sequences, not rows, so binary
    payloads stay undecoded until replay reaches them."""

    type: Optional[str]
    seq: int
    #: the payload's span inside the scanned bytes (``WalScan.data``);
    #: binary records are decoded from it in place
    start: int
    end: int
    #: the parsed object of a JSON control frame, None for binary ones
    fields: Optional[dict]


def scan_frames(
    data: bytes, offset: int = 0
) -> tuple[list[WalRecord], int, Optional[str]]:
    """Scan frames from ``offset``; stop at the first invalid one.

    Returns ``(records, valid_length, tail_error)`` where
    ``valid_length`` is the byte length of the decodable prefix
    (including ``offset``) and ``tail_error`` describes why scanning
    stopped early (``None`` when the data ends exactly on a frame
    boundary): a frame failing the length or CRC check, or whose
    header cannot be read.  The caller decides whether a non-empty
    tail is a tolerable torn write or corruption.  A binary frame
    costs only its integrity check and its seq — no payload copy.

    A JSON frame typed ``batch`` / ``prepare`` / ``decide`` is neither:
    its CRC passed, so it is a committed record in the pre-v2 layout
    this build no longer reads.  Treating it as a tail would truncate
    acknowledged commits; it raises :class:`WALCorruptionError`.
    """
    records: list[WalRecord] = []
    position = offset
    total = len(data)
    view = memoryview(data)
    while position < total:
        if position + _FRAME.size > total:
            return records, position, "truncated frame header"
        length, crc = _FRAME.unpack_from(data, position)
        start = position + _FRAME.size
        end = start + length
        if end > total:
            return records, position, "truncated payload"
        if zlib.crc32(view[start:end]) != crc:
            return records, position, "checksum mismatch"
        first = data[start] if length else -1
        if first in _BINARY_TAGS:
            try:
                b = data[start + 1]
                seq = b if b < 0x80 else _read_uvarint(data, start + 1)[0]
            except IndexError:
                return records, position, "undecodable payload"
            records.append(
                WalRecord(_BINARY_TAGS[first], seq, start, end, None)
            )
        elif first == 0x7B:  # "{" — a JSON control record
            try:
                fields = json.loads(data[start:end].decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                return records, position, "undecodable payload"
            if not isinstance(fields, dict):
                return records, position, "non-object record"
            kind = fields.get("type")
            if kind in _BINARY_TAGS.values():
                raise WALCorruptionError(
                    f"{kind} record seq={fields.get('seq')} at byte "
                    f"{position} is in the pre-v2 JSON layout, which this "
                    "build no longer reads — open the log with the release "
                    "that wrote it and checkpoint"
                )
            records.append(
                WalRecord(kind, fields.get("seq", 0), start, end, fields)
            )
        else:
            return records, position, "unknown payload format"
        position = end
    return records, position, None


# -- the log file -----------------------------------------------------------


class WalStats(StatsBlock):
    """Counters for one log's lifetime in this process.

    Increment through :meth:`bump` and read through :meth:`snapshot`:
    the log's writers (window leaders, DDL) and readers (the
    ``/metrics`` endpoint) run concurrently, and unguarded
    multi-field reads would be torn relative to each other.
    """

    COUNTERS = ("appends", "fsyncs", "bytes_written", "truncations")
    PREFIX = "tintin_wal"
    HELP = {
        "appends": "WAL records appended",
        "fsyncs": "fsync calls issued on the log file",
        "bytes_written": "Bytes appended to the log",
        "truncations": "Torn-tail truncations performed on open",
    }


@dataclass
class WalScan:
    """Result of reading a log file back."""

    records: list[WalRecord] = field(default_factory=list)
    valid_length: int = _HEADER_LEN
    tail_error: Optional[str] = None
    torn_bytes: int = 0
    #: the raw file bytes the records' ``start``/``end`` spans index
    data: bytes = b""

    def resume(self) -> WalResume:
        """What :class:`WriteAheadLog` needs to reopen the scanned file
        for append without reading it again."""
        return WalResume(
            valid_length=self.valid_length,
            file_length=self.valid_length + self.torn_bytes,
            last_seq=max((r.seq for r in self.records), default=0),
        )


@dataclass
class WalResume:
    """Handoff from an already-performed scan, so opening a log for
    append after recovery does not read the file a second time.

    ``valid_length`` is the decodable prefix (anything past it is a
    torn tail to truncate, 0 marks a torn-creation artifact to
    reinitialize); ``file_length`` the on-disk size that scan saw;
    ``last_seq`` the highest sequence to resume after — the max over
    the log's records *and* the checkpoint's ``wal_seq`` (a crash
    between WAL truncation and the marker fsync leaves a header-only
    log whose numbering must still not restart below the checkpoint).
    """

    valid_length: int
    file_length: int
    last_seq: int


def read_wal(path: str) -> WalScan:
    """Read every decodable record of a WAL file (tolerating a torn
    tail) — the one full scan of a durable open.

    An empty file or a strict prefix of the magic is a torn-creation
    artifact — the crash hit between creating the file and the header
    write becoming durable, so the log holds no records by
    construction: recoverable (``valid_length`` 0), not foreign.  A
    missing header, or one of another format generation, raises
    :class:`WALCorruptionError` — the file is not (a readable version
    of) a WAL at all, and must never be silently overwritten.
    """
    global _scan_count
    _scan_count += 1
    with open(path, "rb") as handle:
        data = handle.read()
    header = data[:_HEADER_LEN]
    if header != WAL_MAGIC:
        if WAL_MAGIC.startswith(data):
            return WalScan(
                valid_length=0,
                tail_error="torn header (file created but never written)",
                torn_bytes=len(data),
                data=data,
            )
        if header[:-1] == WAL_MAGIC[:-1]:
            raise WALCorruptionError(
                f"{path!r} is a WAL of format generation {header[-1]}; this "
                f"build reads generation {WAL_MAGIC[-1]} only (open it with "
                "the release that wrote it and checkpoint)"
            )
        raise WALCorruptionError(
            f"{path!r} does not start with the WAL magic header "
            f"{WAL_MAGIC!r}"
        )
    records, valid_length, tail_error = scan_frames(data, _HEADER_LEN)
    return WalScan(
        records=records,
        valid_length=valid_length,
        tail_error=tail_error,
        torn_bytes=len(data) - valid_length,
        data=data,
    )


class WriteAheadLog:
    """Append-only framed log with explicit fsync control.

    ``append`` buffers a frame; ``sync`` makes everything appended so
    far durable.  Callers choose the batching: the commit scheduler's
    group-commit path appends one combined record per group and syncs
    once, which is exactly where N sessions share a single fsync.

    Opening an existing file truncates any torn tail (crash artifact)
    so new appends always start at a frame boundary, and resumes the
    sequence numbering after the highest sequence seen.  When the
    caller already scanned the file (recovery did, moments ago), pass
    the scan's outcome as ``resume`` and the constructor skips its own
    read — a durable open then touches the log exactly once.
    """

    def __init__(self, path: str, resume: Optional[WalResume] = None):
        self.path = path
        self.stats = WalStats()
        self._synced = True
        self._failed = False
        if resume is None and os.path.exists(path):
            # a foreign file raises here rather than being overwritten
            resume = read_wal(path).resume()
        if resume is not None and resume.valid_length >= _HEADER_LEN:
            self.last_seq = resume.last_seq
            self._handle = open(path, "r+b")
            if resume.file_length > resume.valid_length:
                self._handle.truncate(resume.valid_length)
                self.stats.bump(truncations=1)
            self._handle.seek(resume.valid_length)
            self._synced_offset = resume.valid_length
        else:
            # fresh log, or rewriting a torn creation artifact
            self.last_seq = 0
            self._handle = open(path, "w+b")
            self._handle.write(WAL_MAGIC)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            _fsync_directory(os.path.dirname(path) or ".")
            self._synced_offset = _HEADER_LEN
        self._synced_seq = self.last_seq

    # -- writing -----------------------------------------------------------

    def _check_usable(self) -> None:
        if self._failed:
            raise DurabilityError(
                f"write-ahead log {self.path!r} failed a flush; its "
                "unsynced records were discarded and the log is closed "
                "to writes — reopen the engine to continue"
            )

    def advance_seq(self, seq: int) -> None:
        """Never assign sequences at or below ``seq``.

        The durability manager seeds this from the checkpoint's
        ``wal_seq`` on open: a crash between the WAL-file truncation
        and the truncate marker's fsync leaves a header-only log, and
        without re-seeding, new records would restart at 1 and replay
        would skip them as checkpoint-covered — silent loss of
        acknowledged commits.
        """
        if seq > self.last_seq:
            self.last_seq = seq
            self._synced_seq = max(self._synced_seq, seq)

    def _write_frame(self, frame: bytes) -> None:
        self._handle.write(frame)
        self._synced = False
        self.stats.bump(appends=1, bytes_written=len(frame))

    def append(self, record_type: str, **fields) -> dict:
        """Buffer one JSON control record (DDL, ``open``, ``truncate``);
        returns it (with its ``seq``)."""
        self._check_usable()
        self.last_seq += 1
        record = {"type": record_type, "seq": self.last_seq, **fields}
        self._write_frame(encode_record(record))
        return record

    def _append_binary(self, tag: int, *args) -> dict:
        """Buffer one binary record; returns its type and ``seq``."""
        self._check_usable()
        payload = _encode(tag, self.last_seq + 1, *args)
        self.last_seq += 1
        self._write_frame(
            _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        )
        return {"type": _BINARY_TAGS[tag], "seq": self.last_seq}

    def append_batch(
        self,
        inserts: dict[str, list[tuple]],
        deletes: dict[str, list[tuple]],
        counts: Optional[dict[str, int]] = None,
    ) -> dict:
        """Buffer one committed-batch record."""
        return self._append_binary(
            BATCH_V2_TAG, None, None, inserts, deletes, counts
        )

    def append_prepare(
        self,
        gid: str,
        inserts: dict[str, list[tuple]],
        deletes: dict[str, list[tuple]],
        counts: Optional[dict[str, int]] = None,
    ) -> dict:
        """Buffer one 2PC ``prepare`` record.

        The caller must :meth:`sync` before reporting a yes vote —
        the durable prepare record *is* the vote.
        """
        return self._append_binary(
            PREPARE_V2_TAG, gid, None, inserts, deletes, counts
        )

    def append_decide(
        self,
        gid: str,
        verdict: bool,
        counts: Optional[dict[str, int]] = None,
    ) -> dict:
        """Buffer one 2PC ``decide`` record: the coordinator's verdict
        for ``gid`` (True = commit, False = abort); commit decides may
        carry post-apply row counts for replay verification."""
        return self._append_binary(
            DECIDE_V2_TAG, gid, bool(verdict), None, None, counts
        )

    def sync(self) -> None:
        """Flush buffered frames and fsync — the durability point.

        A failed fsync is terminal (the fsyncgate lesson: the kernel
        may have dropped the dirty pages, so retrying proves nothing).
        The unsynced tail is rolled back — through a *fresh* file
        descriptor, because the failed handle's own buffer must never
        flush again (an ENOSPC flush retried by a later ``close``
        would make a commit that was reported FAILED durable after
        all) — and the log refuses further writes.
        """
        self._check_usable()
        if self._handle.closed:
            # a post-close flush (an in-flight window's dispatch racing
            # Tintin.close): the close path synced everything it could;
            # reject cleanly instead of dying on the dead handle
            raise DurabilityError(
                f"write-ahead log {self.path!r} is closed"
            )
        try:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except BaseException:
            self._failed = True
            self.last_seq = self._synced_seq
            # kill the buffered handle's OS-level fd, then immediately
            # tear down the Python object (its flush attempt dies on
            # EBADF here and now): whatever sat in its userspace
            # buffer can never reach this file — or, via fd reuse,
            # anyone else's
            try:
                os.close(self._handle.fileno())
            except OSError:  # pragma: no cover - already gone
                pass
            try:
                self._handle.close()
            except (OSError, ValueError):
                pass
            # roll the file itself back to the durable prefix and
            # fsync the truncation, via a fresh descriptor
            try:
                fd = os.open(self.path, os.O_RDWR)
                try:
                    os.ftruncate(fd, self._synced_offset)
                    os.fsync(fd)
                finally:
                    os.close(fd)
            except OSError:  # pragma: no cover - cascading I/O failure
                pass  # the log is poisoned either way; reopen truncates
            raise
        self._synced = True
        self._synced_offset = self._handle.tell()
        self._synced_seq = self.last_seq
        self.stats.bump(fsyncs=1)

    def truncate(self) -> None:
        """Discard every record (post-checkpoint compaction).

        Sequence numbering continues — the checkpoint remembers the
        last sequence it covers, and record sequences must stay
        monotonic across truncation so replay can tell a pre-checkpoint
        record from a post-checkpoint one no matter when the crash hit.
        A ``truncate`` marker record is written immediately, carrying
        the next sequence number: without it, reopening the compacted
        log in a fresh process would restart numbering at 1, and replay
        would skip the new records as "already covered by the
        checkpoint" — silently losing acknowledged commits.
        """
        self._check_usable()
        self._handle.truncate(_HEADER_LEN)
        self._handle.seek(_HEADER_LEN)
        self._synced_offset = _HEADER_LEN
        self._synced_seq = self.last_seq
        self.append("truncate")
        self.sync()
        self.stats.bump(truncations=1)

    def close(self) -> None:
        if self._handle.closed:
            return
        if self._failed:
            # the OS fd was already closed by the failure path; tear
            # down the Python object without letting it flush
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - EBADF from dead fd
                pass
            return
        if not self._synced:
            self.sync()
        self._handle.close()

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WriteAheadLog({self.path!r}, seq={self.last_seq})"


def _fsync_directory(path: str) -> None:
    """fsync a directory so a just-created/renamed entry is durable.

    Best-effort on platforms whose directories cannot be opened
    (Windows); the data-file fsyncs still hold there.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
