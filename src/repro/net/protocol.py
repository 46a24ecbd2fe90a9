"""The wire protocol of the network front end.

A conversation is a stream of length-prefixed binary frames over one
TCP connection:

.. code-block:: text

    +----------------+---------+---------------+----------------+
    | u32 length     | u8 type | u32 request id| payload bytes  |
    +----------------+---------+---------------+----------------+
      big-endian       frame     client-chosen   ``length`` bytes
      payload length   type      (0 reserved
                                 for unsolicited
                                 server frames)

Requests are **pipelined**: a client may send any number of frames
without waiting, and the server answers each with a frame carrying the
same request id.  Session-bound requests (staging, queries, commits)
are processed strictly in arrival order per connection — pipelining
hides round trips, it does not reorder a session's operations.
``HEALTH``/``METRICS`` are answered out of band and may overtake them.

The intended use is **one round trip per transaction**: the staging
frames of an update and the ``COMMIT`` that ends it travel in one
flush, the server stages the run in one step and answers every frame.
A ``COMMIT`` sent behind staging frames whose answers its sender has
not read yet says so in its payload (``guard``, see :data:`T_COMMIT`):
if one of those frames failed, the server refuses the commit instead of
committing the part of the update that did stage.  A server buffers a
bounded number of unprocessed requests per connection and stops reading
the socket beyond it, so a sender that never reads its answers is
slowed by TCP flow control, not served without limit.

Row payloads (query results, staged inserts/deletes) reuse the WAL v2
typed-row codec's tagged-value encoding verbatim
(:func:`repro.durability.wal.encode_tagged_rows`): NULL/bool/zigzag-
varint int/f64/length-prefixed UTF-8, one tag byte per value — the
same bytes the engine writes to its log.  Small structured payloads
(handshake, commit verdicts, errors, metrics) are compact JSON: they
are rare and irregular, exactly the trade-off the WAL makes for its
DDL records.

The server also answers plain ``GET /health`` and ``GET /metrics``
HTTP requests on the same port (the first bytes of a connection
distinguish ``GET `` from a binary HELLO frame), so curl and load
balancers need no custom client.
"""

from __future__ import annotations

import json
import struct
from typing import Optional

from ..errors import ProtocolError
from ..durability.wal import decode_tagged_rows, encode_tagged_rows

#: protocol magic, sent in the HELLO payload (not as a frame prefix —
#: the frame header is uniform so readers stay trivial)
PROTOCOL_MAGIC = "tintin-net"
#: 2: COMMIT's ``guard`` key (a version 1 server would ignore it and
#: commit behind a failed staging frame)
PROTOCOL_VERSION = 2

#: frame header: payload length, frame type, request id
HEADER = struct.Struct(">IBI")
HEADER_LEN = HEADER.size

#: refuse absurd frames before allocating for them
MAX_FRAME_PAYLOAD = 64 << 20

# -- client -> server frame types -------------------------------------------

T_HELLO = 0x01  #: JSON {magic, version, client, priority}
T_EXECUTE = 0x02  #: UTF-8 SQL (DML stages; SELECT answers ROWS)
T_QUERY = 0x03  #: UTF-8 SQL (SELECT only)
T_INSERT = 0x04  #: binary: table name + tagged rows
T_DELETE = 0x05  #: binary: table name + tagged rows
T_COMMIT = 0x06  #: JSON {timeout: seconds | null, trace: true | hex id, guard: n}
T_DISCARD = 0x07  #: empty
T_HEALTH = 0x08  #: empty
T_METRICS = 0x09  #: empty
T_GOODBYE = 0x0A  #: empty; server closes the session and the socket

# -- server -> client frame types -------------------------------------------

T_OK = 0x81  #: JSON payload (shape depends on the request)
T_ROWS = 0x82  #: binary: column names + tagged rows
T_ERROR = 0x83  #: JSON {code, message, retriable, retry_after}
T_SLOWDOWN = 0x84  #: JSON {delay: seconds}; request id 0, unsolicited

#: the optional ``trace`` key of a COMMIT payload requests commit-path
#: tracing for that one commit: ``true`` lets the server allocate a
#: trace id, a string (16 hex chars by convention) propagates a
#: caller-chosen id end to end.  Either way the verdict payload echoes
#: the id as ``trace_id``, so a client can join its own records with
#: the spans the server's tracer captured.
#:
#: The optional ``guard`` key is the number of INSERT/DELETE frames
#: directly preceding this COMMIT on the connection whose answers the
#: sender had not read when it sent the COMMIT.  If any of those frames
#: was answered with an ERROR, the server answers the COMMIT with the
#: same error, commits nothing and leaves what did stage in the
#: session; the sender, who has now seen the failure, may DISCARD or
#: COMMIT again.  Without the key a COMMIT commits whatever is staged —
#: right for a sender that read every staging answer before committing.

REQUEST_TYPES = frozenset(
    (
        T_HELLO,
        T_EXECUTE,
        T_QUERY,
        T_INSERT,
        T_DELETE,
        T_COMMIT,
        T_DISCARD,
        T_HEALTH,
        T_METRICS,
        T_GOODBYE,
    )
)

#: frame-type names for metrics labels and logs
FRAME_NAMES = {
    T_HELLO: "hello",
    T_EXECUTE: "execute",
    T_QUERY: "query",
    T_INSERT: "insert",
    T_DELETE: "delete",
    T_COMMIT: "commit",
    T_DISCARD: "discard",
    T_HEALTH: "health",
    T_METRICS: "metrics",
    T_GOODBYE: "goodbye",
    T_OK: "ok",
    T_ROWS: "rows",
    T_ERROR: "error",
    T_SLOWDOWN: "slowdown",
}

#: error codes carried in T_ERROR payloads; the client library maps
#: them back onto the exception hierarchy
E_PROTOCOL = "protocol"
E_OVERLOAD = "overload"  # shed before admission: always retriable
E_DEADLINE = "deadline"  # cancelled before validation: retriable
E_SESSION = "session_expired"
E_SHUTTING_DOWN = "shutting_down"  # drain refused it: retriable elsewhere
E_EXECUTION = "execution"
E_INTERNAL = "internal"


def encode_frame(ftype: int, request_id: int, payload: bytes = b"") -> bytes:
    """One wire frame: header + payload."""
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_PAYLOAD}-byte limit"
        )
    return HEADER.pack(len(payload), ftype, request_id) + payload


def decode_header(header: bytes) -> tuple[int, int, int]:
    """``(payload length, frame type, request id)`` of one header."""
    length, ftype, request_id = HEADER.unpack(header)
    if length > MAX_FRAME_PAYLOAD:
        raise ProtocolError(
            f"peer announced a {length}-byte frame payload (limit "
            f"{MAX_FRAME_PAYLOAD})"
        )
    return length, ftype, request_id


# -- JSON payloads ----------------------------------------------------------


def encode_json(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False).encode(
        "utf-8"
    )


def decode_json(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON payload: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("JSON payload must be an object")
    return obj


def error_payload(
    code: str,
    message: str,
    retriable: bool = False,
    retry_after: Optional[float] = None,
) -> bytes:
    payload = {"code": code, "message": message, "retriable": retriable}
    if retry_after is not None:
        payload["retry_after"] = retry_after
    return encode_json(payload)


# -- binary payloads (the WAL v2 tagged-row codec on the wire) --------------


def _append_string(out: bytearray, text: str) -> None:
    encoded = text.encode("utf-8")
    n = len(encoded)
    while True:  # uvarint, matching the WAL codec's
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            break
    out += encoded


def _read_string(data: bytes, i: int) -> tuple[str, int]:
    n = 0
    shift = 0
    while True:
        b = data[i]
        i += 1
        n |= (b & 0x7F) << shift
        if b < 0x80:
            break
        shift += 7
    return data[i : i + n].decode("utf-8"), i + n


def encode_events_payload(table: str, rows: list[tuple]) -> bytes:
    """T_INSERT / T_DELETE body: table name, then tagged rows."""
    out = bytearray()
    _append_string(out, table)
    return bytes(out) + encode_tagged_rows(rows)


def decode_events_payload(payload: bytes) -> tuple[str, list[tuple]]:
    try:
        table, i = _read_string(payload, 0)
        rows, end = decode_tagged_rows(payload, i)
    except (IndexError, struct.error, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed events payload: {exc}") from exc
    if end != len(payload):
        raise ProtocolError(
            f"events payload has {len(payload) - end} trailing byte(s)"
        )
    return table, rows


def encode_rows_payload(columns: list[str], rows: list[tuple]) -> bytes:
    """T_ROWS body: varint column count + names, then tagged rows."""
    out = bytearray()
    n = len(columns)
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            break
    for column in columns:
        _append_string(out, column)
    return bytes(out) + encode_tagged_rows(rows)


def decode_rows_payload(payload: bytes) -> tuple[list[str], list[tuple]]:
    try:
        n = 0
        shift = 0
        i = 0
        while True:
            b = payload[i]
            i += 1
            n |= (b & 0x7F) << shift
            if b < 0x80:
                break
            shift += 7
        columns = []
        for _ in range(n):
            name, i = _read_string(payload, i)
            columns.append(name)
        rows, end = decode_tagged_rows(payload, i)
    except (IndexError, struct.error, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed rows payload: {exc}") from exc
    if end != len(payload):
        raise ProtocolError(
            f"rows payload has {len(payload) - end} trailing byte(s)"
        )
    return columns, rows
