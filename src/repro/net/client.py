"""The blocking client library for the network front end.

:class:`TintinClient` owns one TCP connection and one remote session.
It speaks the frame protocol of :mod:`repro.net.protocol` and maps the
server's error codes back onto the exception hierarchy in
:mod:`repro.errors`, so remote code handles :class:`OverloadError`,
:class:`DeadlineExceeded` and :class:`SessionExpired` exactly as
in-process code would.

One round trip per transaction: ``insert``/``delete`` only encode
their frame into an out-buffer and return.  The next call that needs
an answer (``commit``, ``query``, ``execute``, ``discard``, ``health``,
``close``…) sends the buffer and its own frame in one ``sendall`` and
then reads every deferred answer, in order, before its own.  At most
:data:`_WINDOW_FRAMES` frames / :data:`_WINDOW_BYTES` bytes are ever
deferred — a longer run is flushed and its answers read early — which
stays inside what the server buffers per connection, so neither side
can block the other by not reading.

Retry discipline — the part that makes the client *safe*, not just
convenient:

* **idempotent requests** (``query``, ``health``, ``metrics``) retry
  automatically on connection loss and timeouts with exponential
  backoff and full jitter, reconnecting and re-handshaking as needed
  — but only while the session has *no staged events*: staged state
  dies with the connection, so retrying after a reconnect would
  silently answer against (and later commit) a different session;
* **commits are never retried on an ambiguous failure**: a connection
  that dies between sending COMMIT and reading the verdict leaves the
  outcome unknown (:class:`ConnectionLost` says so), and blindly
  retrying could double-apply.  The only safe automatic commit retry
  is after an :class:`OverloadError` — the server sheds *before*
  admission, so a shed commit provably touched nothing —
  which :meth:`commit` honours (bounded attempts, server-suggested
  ``retry_after`` plus jitter) and ``commit(retry=False)`` disables.
  The retry re-sends the COMMIT frame alone: staging happens outside
  admission, so the rows that travelled with the shed commit are
  already staged, once;
* **a deferred staging error surfaces from the call that reads it**,
  as the exception the staging call would have raised (the first one,
  if several frames failed).  That call's own answer is read and
  dropped; a ``commit`` was refused by the server (it travelled with a
  ``guard`` — see :data:`repro.net.protocol.T_COMMIT`), a ``query``
  was answered and a ``discard`` was executed, but none of them
  returns.  The rows that did stage are still staged: ``discard()``
  them or ``commit()`` again — that second commit carries no guard and
  commits them, exactly as an in-process session would after a failed
  ``insert``;
* **SLOWDOWN frames** (unsolicited, request id 0) set a pacing delay
  the client sleeps before each subsequent flush, until the server
  broadcasts the all-clear.  This is cooperative backpressure: it
  keeps well-behaved fleets out of the shedding regime entirely.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Iterable, Optional

from ..errors import (
    ConnectionLost,
    DeadlineExceeded,
    ExecutionError,
    NetworkError,
    OverloadError,
    ProtocolError,
    ReproError,
    SessionExpired,
)
from . import protocol as p

#: the most frames / buffered bytes whose answers may be unread at once
#: (a single larger frame still goes, alone).  Both sit well inside the
#: server's per-connection request queue, so the server can always take
#: a whole window off the socket, and a window's answers fit the
#: socket buffers, so it can always answer it: the client never blocks
#: in ``sendall`` against a server blocked writing to it.
_WINDOW_FRAMES = 256
_WINDOW_BYTES = 1 << 20


class RemoteRows:
    """A query result set received over the wire."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: list[str], rows: list[tuple]):
        self.columns = columns
        self.rows = rows

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def __bool__(self):
        return bool(self.rows)

    def __repr__(self):
        return f"RemoteRows({self.columns}, {len(self.rows)} rows)"


class TintinClient:
    """One connection, one remote session."""

    def __init__(
        self,
        host: str,
        port: int,
        priority: int = 0,
        timeout: float = 10.0,
        connect: bool = True,
        retries: int = 4,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        rng: Optional[random.Random] = None,
        client_name: str = "tintin-client",
    ):
        self.host = host
        self.port = port
        self.priority = priority
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.client_name = client_name
        self._rng = rng if rng is not None else random.Random()
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._next_id = 0
        #: encoded frames not sent yet
        self._out = bytearray()
        #: request ids of staging frames whose answers are unread
        self._deferred: list[int] = []
        #: out-of-order responses parked by request id (pipelining)
        self._parked: dict[int, tuple[int, bytes]] = {}
        #: current server-suggested pacing delay (0 = no backpressure)
        self.slowdown_delay = 0.0
        self.slowdown_count = 0
        #: ``sendall`` calls made — with deferred staging, one per
        #: transaction
        self.flushes = 0
        #: honour SLOWDOWN pacing before each flush (set False to model
        #: a non-cooperative client — the server's shedding still
        #: protects it, this just opts out of the polite path)
        self.pacing = True
        #: events staged since the last commit/discard — gates whether
        #: a query may transparently retry on a fresh connection
        self._staged = 0
        self.session_id: Optional[str] = None
        #: trace id echoed by the most recent traced commit verdict
        self.last_trace_id: Optional[str] = None
        if connect:
            self.connect()

    # -- connection management ---------------------------------------------

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def connect(self) -> dict:
        """Dial and handshake; returns the server's HELLO reply."""
        self.close_socket()
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except OSError as exc:
            raise ConnectionLost(f"connect to {self.host}:{self.port} "
                                 f"failed: {exc}") from exc
        sock.settimeout(self.timeout)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._next_id = 0
        self._staged = 0
        reply = self._request(
            p.T_HELLO,
            p.encode_json(
                {
                    "magic": p.PROTOCOL_MAGIC,
                    "version": p.PROTOCOL_VERSION,
                    "client": self.client_name,
                    "priority": self.priority,
                }
            ),
        )
        self.session_id = reply.get("session")
        return reply

    def close_socket(self) -> None:
        """Drop the TCP connection without the GOODBYE exchange; what
        was buffered or unanswered on it is gone with it."""
        self._out.clear()
        self._deferred.clear()
        self._parked.clear()
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self.session_id = None

    def close(self) -> None:
        """Polite shutdown: GOODBYE (server expires the session), then
        close the socket.  Safe to call on a dead connection."""
        if self._sock is None:
            return
        try:
            self._request(p.T_GOODBYE)
        except (ReproError, OSError):
            pass
        finally:
            self.close_socket()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- framing -----------------------------------------------------------

    def _frame(self, ftype: int, payload: bytes = b"") -> int:
        """Append one frame to the out-buffer; returns its request id."""
        if self._sock is None:
            raise ConnectionLost("client is not connected")
        self._next_id += 1
        self._out += p.encode_frame(ftype, self._next_id, payload)
        return self._next_id

    def _flush(self) -> None:
        """Send the out-buffer in one ``sendall``."""
        if self.pacing and self.slowdown_delay > 0:
            # cooperative backpressure: stretch the send interval by
            # the server's suggested delay (plus jitter so a fleet
            # doesn't re-synchronise)
            time.sleep(self.slowdown_delay * (0.5 + self._rng.random()))
        self.flushes += 1
        try:
            self._sock.sendall(self._out)
        except OSError as exc:
            self.close_socket()
            raise ConnectionLost(f"send failed: {exc}") from exc
        self._out.clear()

    def _send(self, ftype: int, payload: bytes = b"") -> int:
        """Send everything buffered plus this frame, without reading."""
        request_id = self._frame(ftype, payload)
        self._flush()
        return request_id

    def _gather(self) -> Optional[bytes]:
        """Read the answer to every deferred staging frame, in order;
        returns the first ERROR payload among them (None: all staged)."""
        if not self._deferred:
            return None
        failure = None
        deferred, self._deferred = self._deferred, []
        for request_id in deferred:
            rtype, payload = self._wait(request_id)
            if rtype == p.T_ERROR and failure is None:
                failure = payload
        return failure

    def _stage(self, ftype: int, table: str, rows: Iterable[tuple]) -> int:
        """Defer one INSERT/DELETE frame; returns the row count, which
        is what the server answers when the frame stages."""
        rows = [tuple(row) for row in rows]
        payload = p.encode_events_payload(table, rows)
        if self._deferred and (
            len(self._deferred) >= _WINDOW_FRAMES
            or len(self._out) + p.HEADER_LEN + len(payload) > _WINDOW_BYTES
        ):
            self._flush()
            failure = self._gather()
            if failure is not None:
                self._raise_error(failure)
        self._deferred.append(self._frame(ftype, payload))
        self._staged += len(rows)
        return len(rows)

    def _read_frame(self) -> tuple[int, int, bytes]:
        try:
            header = self._rfile.read(p.HEADER_LEN)
            if header is None or len(header) < p.HEADER_LEN:
                raise ConnectionLost("server closed the connection")
            length, ftype, request_id = p.decode_header(header)
            payload = self._rfile.read(length) if length else b""
            if payload is None or len(payload) < length:
                raise ConnectionLost("connection died mid-frame")
        except socket.timeout as exc:
            self.close_socket()
            raise ConnectionLost(
                f"no response within {self.timeout}s"
            ) from exc
        except OSError as exc:
            self.close_socket()
            raise ConnectionLost(f"read failed: {exc}") from exc
        return ftype, request_id, payload

    def _wait(self, request_id: int) -> tuple[int, bytes]:
        """Read frames until ``request_id``'s response arrives.

        Responses to *other* pipelined requests are parked; SLOWDOWN
        frames update the pacing state as they pass by.
        """
        if request_id in self._parked:
            return self._parked.pop(request_id)
        while True:
            ftype, rid, payload = self._read_frame()
            if ftype == p.T_SLOWDOWN:
                delay = float(p.decode_json(payload).get("delay", 0.0))
                self.slowdown_delay = delay
                if delay > 0:
                    self.slowdown_count += 1
                continue
            if rid == request_id:
                return ftype, payload
            self._parked[rid] = (ftype, payload)

    def _raise_error(self, payload: bytes) -> None:
        spec = p.decode_json(payload)
        code = spec.get("code")
        message = spec.get("message", "remote error")
        if code == p.E_OVERLOAD or code == p.E_SHUTTING_DOWN:
            raise OverloadError(
                message, retry_after=float(spec.get("retry_after", 0.1))
            )
        if code == p.E_DEADLINE:
            raise DeadlineExceeded(message)
        if code == p.E_SESSION:
            raise SessionExpired(message)
        if code == p.E_PROTOCOL:
            raise ProtocolError(message)
        if code == p.E_EXECUTION:
            raise ExecutionError(message)
        raise NetworkError(f"[{code}] {message}")

    def _call(self, ftype: int, payload: bytes = b"") -> tuple[int, bytes]:
        """One round trip: flush the deferred frames and this one, read
        the deferred answers, then this frame's.  A deferred staging
        error is raised *after* the frame's own answer was read, so the
        stream stays aligned; any other ERROR answer is raised too."""
        request_id = self._send(ftype, payload)
        failure = self._gather()
        rtype, rpayload = self._wait(request_id)
        if failure is not None:
            self._raise_error(failure)
        if rtype == p.T_ERROR:
            self._raise_error(rpayload)
        return rtype, rpayload

    def _request(self, ftype: int, payload: bytes = b"") -> dict:
        """:meth:`_call` for requests answered with a JSON ``OK``."""
        rtype, rpayload = self._call(ftype, payload)
        if rtype != p.T_OK:
            raise ProtocolError(f"unexpected response type 0x{rtype:02x}")
        return p.decode_json(rpayload) if rpayload else {}

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with full jitter."""
        cap = min(self.backoff_cap, self.backoff_base * (2**attempt))
        return cap * self._rng.random()

    def _idempotent(self, fn):
        """Run ``fn`` with reconnect-and-retry on connection loss —
        while nothing is staged: a reconnected session is a new staging
        area, so a retry with staged state would silently lose it."""
        if self._staged or self._deferred:
            return fn()
        attempt = 0
        while True:
            try:
                if self._sock is None:
                    self.connect()
                return fn()
            except (ConnectionLost, OverloadError) as exc:
                if attempt >= self.retries:
                    raise
                delay = self._backoff(attempt)
                if isinstance(exc, OverloadError):
                    delay += exc.retry_after
                time.sleep(delay)
                attempt += 1

    # -- session operations ------------------------------------------------

    def execute(self, sql: str):
        """Stage DML / run a SELECT remotely.  DML returns the staged
        row count; SELECT returns a :class:`RemoteRows`."""
        rtype, payload = self._call(p.T_EXECUTE, sql.encode("utf-8"))
        if rtype == p.T_ROWS:
            return RemoteRows(*p.decode_rows_payload(payload))
        staged = p.decode_json(payload).get("staged", 0)
        self._staged += int(staged)
        return staged

    def query(self, sql: str) -> RemoteRows:
        """Snapshot SELECT (read-your-writes over staged events).

        Auto-retries on connection loss *only* while nothing is
        staged (see :meth:`_idempotent`).
        """

        def run():
            rtype, payload = self._call(p.T_QUERY, sql.encode("utf-8"))
            if rtype != p.T_ROWS:
                raise ProtocolError(
                    f"unexpected response type 0x{rtype:02x}"
                )
            return RemoteRows(*p.decode_rows_payload(payload))

        return self._idempotent(run)

    def insert(self, table: str, rows: Iterable[tuple]) -> int:
        """Stage row insertions.  Nothing is sent yet: the frame goes
        with the next call that needs an answer, and a staging error
        (unknown table, wrong arity…) surfaces from that call."""
        return self._stage(p.T_INSERT, table, rows)

    def delete(self, table: str, rows: Iterable[tuple]) -> int:
        """Stage row deletions; deferred like :meth:`insert`."""
        return self._stage(p.T_DELETE, table, rows)

    def discard(self) -> int:
        try:
            reply = self._request(p.T_DISCARD)
        finally:
            # whatever surfaced — a deferred staging error, an expired
            # session, a dead connection — nothing is staged any more
            self._staged = 0
        return int(reply.get("discarded", 0))

    def commit(
        self,
        timeout: Optional[float] = None,
        retry: bool = True,
        attempts: Optional[int] = None,
        trace: bool | str = False,
    ) -> dict:
        """Commit the staged update; returns the verdict dict.

        ``timeout`` becomes the server-side deadline (admission AND
        pre-validation enforcement).  On :class:`OverloadError` —
        the *only* failure a commit may safely auto-retry, because a
        shed request was never admitted — retries up to ``attempts``
        times, sleeping the server's ``retry_after`` plus jittered
        backoff.  :class:`ConnectionLost` and
        :class:`DeadlineExceeded` propagate: the outcome of a lost
        ack is ambiguous by construction, and an expired deadline
        usually means the caller's budget is gone.

        The deferred staging frames travel with the COMMIT, which then
        carries their count as its ``guard``: had one of them failed,
        the server refuses the commit and the staging error is raised
        here; committing again commits the rows that did stage.

        ``trace=True`` asks the server to trace this commit end to end
        (a string supplies the trace id instead of letting the server
        pick one); the verdict then carries ``trace_id``, also kept in
        :attr:`last_trace_id`, which joins the client's records with
        the spans captured by the server's tracer.
        """
        spec: dict = {"timeout": timeout}
        if trace:
            spec["trace"] = trace
        budget = attempts if attempts is not None else self.retries
        attempt = 0
        while True:
            # an overload retry finds nothing deferred: it re-sends the
            # COMMIT alone, unguarded, over rows staged exactly once
            unread = len(self._deferred)
            payload = p.encode_json(
                {**spec, "guard": unread} if unread else spec
            )
            try:
                verdict = self._request(p.T_COMMIT, payload)
            except OverloadError as exc:
                if not retry or attempt >= budget:
                    raise
                time.sleep(exc.retry_after + self._backoff(attempt))
                attempt += 1
                continue
            self._staged = 0
            self.last_trace_id = verdict.get("trace_id")
            return verdict

    # -- out-of-band surfaces ----------------------------------------------

    def health(self) -> dict:
        return self._idempotent(lambda: self._request(p.T_HEALTH))

    def metrics(self) -> dict:
        return self._idempotent(lambda: self._request(p.T_METRICS))
