"""The asyncio network front end.

One :class:`TintinServer` wraps one :class:`~repro.core.Tintin` engine
and serves the wire protocol of :mod:`repro.net.protocol` on a TCP
port.  The event loop runs in a dedicated thread (the engine itself is
thread-based and blocking), so the server embeds in synchronous
programs, tests and benchmarks without an asyncio host.

Division of labour per connection:

* the **read loop** (event loop thread) parses frames and answers
  ``HEALTH``/``METRICS`` immediately; everything session-bound goes
  into the connection's ordered queue — pipelining hides round trips
  but never reorders one session's operations.  The queue is bounded
  (frames and payload bytes): when it is full the read loop stops
  reading and TCP flow control holds the peer back;
* the **connection worker** (an asyncio task) drains that queue:
  staging and queries run on a small thread pool (they only take the
  scheduler's read lock), commits go through the
  :class:`~repro.net.admission.AdmissionQueue` — the bounded,
  priority-shedding waiting room in front of the commit scheduler.
  The maximal run of consecutive ``INSERT``/``DELETE`` frames already
  received is decoded and staged in **one** pool call and answered
  with one write — a transaction flushed as staging frames + COMMIT
  costs one pool hop and one admission job, whatever its frame count.
  Staging stays *outside* the admission job, so a shed or expired
  commit keeps its staged rows;
* the **commit guard**: the connection remembers staging failures
  since its last COMMIT/DISCARD, and a COMMIT whose ``guard`` says its
  sender had not read the answers of the staging frames before it is
  refused with the failure instead of committing the rest (see
  :data:`repro.net.protocol.T_COMMIT`);
* **backpressure**: admission watermark transitions broadcast
  unsolicited ``SLOWDOWN`` frames (request id 0) to every connection;
  well-behaved clients stretch their send intervals until the
  all-clear (a ``SLOWDOWN`` with delay 0);
* **acknowledgement discipline**: a commit verdict is written only
  after the scheduler's group fsync released it, so a client that
  reads ``committed=True`` holds a durable commit; a connection that
  dies earlier saw nothing — the classic ambiguous window the client
  library refuses to auto-retry.

Graceful shutdown (:meth:`TintinServer.shutdown`) stops accepting,
sheds late arrivals with a retriable "shutting down" verdict, drains
admitted commits through the scheduler and its log-writer thread,
checkpoints, closes the WAL, and only then severs connections — zero
acknowledged commits are lost, and everything unacknowledged was
reported retriable.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from collections import deque
from typing import Optional

from ..errors import (
    ConstraintViolation,
    DeadlineExceeded,
    ExecutionError,
    NetworkError,
    OverloadError,
    ProtocolError,
    ReproError,
    SessionExpired,
)
from ..obs.metrics import MetricsRegistry, StatsBlock
from ..obs.trace import CommitObs
from ..server.scheduler import commit_verdict
from . import protocol as p
from .admission import AdmissionQueue
from .faults import DropConnection, FaultInjector

#: Front-end housekeeping failures (socket teardown, slowdown
#: broadcasts, session expiry during disconnect) land here instead of
#: being silently dropped: none of them may break the caller — abort
#: and teardown must always run to completion — but every one of them
#: is evidence when a connection misbehaves.  Attach a handler (or
#: configure the root logger) to see them.
log = logging.getLogger("repro.net")

#: the frames a connection worker coalesces into one staging run
_STAGE_TYPES = frozenset((p.T_INSERT, p.T_DELETE))

#: per-connection bound on requests read but not yet processed; a
#: single frame is always admitted.  Several times the client's
#: in-flight window (:mod:`repro.net.client`), so a well-behaved peer
#: never meets it.
_QUEUE_FRAMES = 1024
_QUEUE_BYTES = 8 << 20


class ServerStats(StatsBlock):
    """Front-end counters (connections, requests, errors)."""

    COUNTERS = (
        "connections_total",
        "requests_total",
        "errors_total",
        "dropped_connections",
        "slowdown_frames",
        "http_requests",
        "stage_frames",
        "stage_runs",
        "guarded_commits_refused",
    )
    PREFIX = "tintin_server"
    HELP = {
        "connections_total": "TCP connections accepted",
        "requests_total": "Protocol frames processed",
        "errors_total": "Requests answered with an ERROR frame",
        "dropped_connections": "Connections aborted by fault injection",
        "slowdown_frames": "Backpressure SLOWDOWN frames broadcast",
        "http_requests": "Plain HTTP requests served",
        "stage_frames": "INSERT/DELETE frames staged",
        "stage_runs": "Staging runs (one pool call per run of frames)",
        "guarded_commits_refused": (
            "Guarded COMMITs refused behind a failed staging frame"
        ),
    }


class _WalStatsCollector:
    """Renders the WAL's and the durability manager's stats when (and
    only when) durability is attached — the WAL may be opened after
    the server was constructed."""

    __slots__ = ("_tintin",)

    def __init__(self, tintin):
        self._tintin = tintin

    def collect(self):
        durability = self._tintin.durability
        if durability is None:
            return ()
        return (*durability.wal.stats.collect(), *durability.stats.collect())


def commit_result_payload(result) -> dict:
    """A CommitResult as its JSON wire shape."""
    return {
        "committed": result.committed,
        "applied_rows": result.applied_rows,
        "checked_views": result.checked_views,
        "skipped_views": result.skipped_views,
        "group_size": result.group_size,
        "deadline_expired": result.deadline_expired,
        "constraint_error": result.constraint_error,
        "violations": [str(v) for v in result.violations],
    }


class _RequestQueue:
    """One connection's ordered requests between its read loop and its
    worker: bounded, single producer, single consumer, event loop only."""

    __slots__ = (
        "_items",
        "_changed",
        "closed",
        "bytes",
        "peak_frames",
        "peak_bytes",
    )

    def __init__(self):
        self._items: deque = deque()
        self._changed = asyncio.Event()
        self.closed = False
        #: payload bytes queued now / the most frames and bytes ever
        self.bytes = 0
        self.peak_frames = 0
        self.peak_bytes = 0

    async def put(self, item: tuple) -> None:
        """Queue ``(ftype, request id, payload)``; waits while the
        queue is full and not empty.  Dropped once the queue closed."""
        size = len(item[2])
        while (
            self._items
            and not self.closed
            and (
                len(self._items) >= _QUEUE_FRAMES
                or self.bytes + size > _QUEUE_BYTES
            )
        ):
            self._changed.clear()
            await self._changed.wait()
        if self.closed:
            return
        self._items.append(item)
        self.bytes += size
        self.peak_frames = max(self.peak_frames, len(self._items))
        self.peak_bytes = max(self.peak_bytes, self.bytes)
        self._changed.set()

    async def get_run(self) -> Optional[list]:
        """The next request, as a list — extended by every request
        directly behind it while both are staging frames.  None once
        the queue is closed and empty."""
        while not self._items:
            if self.closed:
                return None
            self._changed.clear()
            await self._changed.wait()
        items = self._items
        run = [items.popleft()]
        if run[0][0] in _STAGE_TYPES:
            while items and items[0][0] in _STAGE_TYPES:
                run.append(items.popleft())
        self.bytes -= sum(len(item[2]) for item in run)
        self._changed.set()
        return run

    def close(self) -> None:
        """No more input (the worker finishes what is queued), or no
        more worker (the read loop must not wait for room)."""
        self.closed = True
        self._changed.set()


class _Connection:
    """Per-connection state owned by the event loop thread."""

    __slots__ = (
        "reader",
        "writer",
        "session",
        "queue",
        "worker",
        "write_lock",
        "closed",
        "stage_seq",
        "stage_failures",
    )

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.session = None
        self.queue = _RequestQueue()
        self.worker: Optional[asyncio.Task] = None
        self.write_lock = asyncio.Lock()
        self.closed = False
        #: staging frames answered so far, and the ``(stage_seq, code,
        #: message)`` of the first and the latest one answered with an
        #: ERROR since the last COMMIT/DISCARD — what a guarded COMMIT
        #: is checked against
        self.stage_seq = 0
        self.stage_failures: list[tuple[int, str, str]] = []


class TintinServer:
    """Serves one engine over TCP with admission control."""

    def __init__(
        self,
        tintin,
        host: str = "127.0.0.1",
        port: int = 0,
        max_depth: int = 64,
        high_watermark: Optional[int] = None,
        low_watermark: Optional[int] = None,
        commit_workers: int = 2,
        io_workers: int = 4,
        default_commit_timeout: Optional[float] = None,
        session_ttl: Optional[float] = None,
        sweep_interval: Optional[float] = 1.0,
        retry_after_base: float = 0.05,
        faults: Optional[FaultInjector] = None,
        tracer=None,
        slow_commit_seconds: Optional[float] = None,
    ):
        self.tintin = tintin
        if tracer is not None:
            tintin.set_tracer(tracer)
        if slow_commit_seconds is not None:
            tintin.slow_commit_seconds = slow_commit_seconds
        self.host = host
        self.port = port
        self.default_commit_timeout = default_commit_timeout
        self.session_ttl = session_ttl
        self.faults = faults
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set[_Connection] = set()
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._draining = False
        self._start_error: Optional[BaseException] = None
        self._started_at = time.monotonic()
        from concurrent.futures import ThreadPoolExecutor

        self._executor = ThreadPoolExecutor(
            max_workers=io_workers, thread_name_prefix="tintin-net-io"
        )
        self.admission = AdmissionQueue(
            max_depth=max_depth,
            high_watermark=high_watermark,
            low_watermark=low_watermark,
            workers=commit_workers,
            retry_after_base=retry_after_base,
            on_backpressure=self._on_backpressure,
        )
        self.stats = ServerStats()
        #: every engine and front-end counter block plus the latency
        #: histograms, rendered as one Prometheus page by ``/metrics``
        self.registry = MetricsRegistry()
        self.registry.register(self.stats)
        self.registry.register(self.admission.stats)
        self.registry.register(tintin.sessions.scheduler.stats)
        self.registry.register(_WalStatsCollector(tintin))
        # engines may expose extra collector blocks — the shard router
        # contributes per-shard scheduler counters labelled by shard id
        for collector in getattr(tintin, "metrics_collectors", ()):
            self.registry.register(collector)
        self.request_seconds = self.registry.histogram(
            "tintin_request_seconds",
            "Frame handling latency by request type",
            label_names=("type",),
        )
        self.commit_seconds = self.registry.histogram(
            "tintin_commit_seconds",
            "End-to-end remote commit latency by verdict",
            label_names=("verdict",),
        )
        self.registry.gauge(
            "tintin_admission_depth",
            "Commits waiting or running in the admission queue",
            fn=lambda: self.admission.depth,
        )
        self.registry.gauge(
            "tintin_connections_open",
            "Currently open TCP connections",
            fn=lambda: len(self._connections),
        )
        self.registry.gauge(
            "tintin_sessions_active",
            "Live sessions on the engine",
            fn=lambda: tintin.sessions.active_count,
        )
        # ensure the server layer exists before the loop thread runs
        # (serve() may already have configured it)
        if not tintin.serving:
            tintin.sessions  # activates the default SessionManager
        if faults is not None:
            faults.install(tintin)
        if sweep_interval is not None:
            tintin.sessions.start_sweeper(sweep_interval)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "TintinServer":
        """Bind and serve; returns once the port is listening."""
        if self._thread is not None:
            raise NetworkError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="tintin-net-loop", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=10)
        if self._start_error is not None:
            raise NetworkError(
                f"server failed to start: {self._start_error}"
            ) from self._start_error
        if not self._started.is_set():
            raise NetworkError("server failed to start within 10s")
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (port 0 resolves at bind time)."""
        if self._server is None:
            raise NetworkError("server is not running")
        sock = self._server.sockets[0]
        return sock.getsockname()[:2]

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self._server = loop.run_until_complete(
                asyncio.start_server(self._handle, self.host, self.port)
            )
        except BaseException as exc:  # bind failure
            self._start_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            # cancel stragglers so the loop closes clean
            for task in asyncio.all_tasks(loop):
                task.cancel()
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()
            self._stopped.set()

    def _count(self, name: str, delta: int = 1) -> None:
        self.stats.bump(**{name: delta})

    def _fault(self, point: str, **ctx) -> None:
        if self.faults is not None:
            self.faults.fire(point, **ctx)

    # -- shutdown ----------------------------------------------------------

    def shutdown(
        self, drain_timeout: float = 30.0, close_engine: bool = True
    ) -> bool:
        """Graceful stop: quit accepting, drain, checkpoint, close.

        The sequence is the overload story run backwards: (1) the
        listener closes, (2) the admission queue sheds every new
        commit with a retriable "shutting down" verdict while admitted
        ones run to their acknowledged end, (3) the engine closes —
        which quiesces the scheduler, drains the log-writer's fsync
        backlog, writes a final checkpoint and closes the WAL — and
        (4) connections are severed.  Returns True when the drain
        completed inside ``drain_timeout`` (False means the engine was
        still closed, but some admitted work was abandoned — the
        fail-fast path a stalled drain needs).
        """
        loop = self._loop
        if loop is None or self._stopped.is_set():
            return True
        self._draining = True
        # 1. stop accepting
        asyncio.run_coroutine_threadsafe(
            self._close_listener(), loop
        ).result(timeout=10)
        drained = True
        try:
            self._fault("server.drain")
            # 2. drain admitted commits (new ones are shed meanwhile)
            drained = self.admission.drain(timeout=drain_timeout)
        finally:
            self.admission.stop()
            # 3. close the engine: scheduler quiesce -> log-writer
            # drain -> final checkpoint -> WAL close -> sweeper stop
            if close_engine:
                self.tintin.close()
            # 4. sever connections and stop the loop
            asyncio.run_coroutine_threadsafe(
                self._close_connections(), loop
            ).result(timeout=10)
            loop.call_soon_threadsafe(loop.stop)
            self._stopped.wait(timeout=10)
            self._executor.shutdown(wait=False)
        return drained

    def abort(self) -> None:
        """Kill the front end without touching the engine: sockets die
        mid-conversation, nothing is drained, checkpointed or closed.
        This is the crash the fault matrix uses — durability then
        rests entirely on the WAL."""
        loop = self._loop
        if loop is None or self._stopped.is_set():
            return
        self._draining = True
        self.admission.stop()
        try:
            asyncio.run_coroutine_threadsafe(
                self._close_listener(), loop
            ).result(timeout=5)
            asyncio.run_coroutine_threadsafe(
                self._close_connections(abort=True), loop
            ).result(timeout=5)
        except Exception:
            # abort must still stop the loop and release the caller
            log.warning(
                "abort: closing listener/connections failed", exc_info=True
            )
        loop.call_soon_threadsafe(loop.stop)
        self._stopped.wait(timeout=10)
        self._executor.shutdown(wait=False)

    async def _close_listener(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _close_connections(self, abort: bool = False) -> None:
        for conn in list(self._connections):
            conn.closed = True
            if conn.worker is not None:
                conn.worker.cancel()
            try:
                if abort:
                    transport = conn.writer.transport
                    if transport is not None:
                        transport.abort()
                else:
                    conn.writer.close()
            except Exception:
                # the remaining connections must still be severed
                log.debug(
                    "closing connection transport failed", exc_info=True
                )
        self._connections.clear()

    # -- backpressure ------------------------------------------------------

    def _on_backpressure(self, active: bool, delay: float) -> None:
        """Admission watermark transition: broadcast SLOWDOWN frames.

        Called from admission worker/submitter threads; the actual
        writes happen on the event loop.
        """
        loop = self._loop
        if loop is not None and not self._stopped.is_set():
            try:
                loop.call_soon_threadsafe(
                    lambda: asyncio.ensure_future(
                        self._broadcast_slowdown(delay if active else 0.0)
                    )
                )
            except RuntimeError:  # loop already closed
                pass

    async def _broadcast_slowdown(self, delay: float) -> None:
        payload = p.encode_json({"delay": delay})
        frame = p.encode_frame(p.T_SLOWDOWN, 0, payload)
        for conn in list(self._connections):
            if conn.closed:
                continue
            try:
                async with conn.write_lock:
                    conn.writer.write(frame)
                    await conn.writer.drain()
                self._count("slowdown_frames")
            except Exception:
                # the read loop will reap the dead connection; the
                # broadcast must still reach the remaining ones
                log.debug(
                    "SLOWDOWN broadcast to one connection failed",
                    exc_info=True,
                )

    # -- surfaces ----------------------------------------------------------

    def health(self) -> dict:
        admission = self.admission.metrics()
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": time.monotonic() - self._started_at,
            "sessions": self.tintin.sessions.active_count,
            "queue_depth": admission["depth"],
            "backpressure": admission["backpressure"],
        }

    def render_metrics(self) -> str:
        """The Prometheus text exposition page (``GET /metrics``)."""
        return self.registry.render()

    def metrics(self) -> dict:
        tintin = self.tintin
        scheduler = tintin.sessions.scheduler
        server = self.stats.snapshot()
        server["connections_open"] = len(self._connections)
        payload = {
            "server": server,
            "admission": self.admission.metrics(),
            "scheduler": scheduler.stats.snapshot(),
            "sessions": {
                "active": tintin.sessions.active_count,
                "swept": tintin.sessions.swept_sessions,
                "sweeper_running": tintin.sessions.sweeper_running,
            },
        }
        if tintin.durability is not None:
            payload["durability"] = tintin.durability.metrics()
            payload["wal"] = tintin.durability.wal.stats.snapshot()
        return payload

    # -- connection handling ----------------------------------------------

    async def _handle(self, reader, writer) -> None:
        conn = _Connection(reader, writer)
        self._connections.add(conn)
        self._count("connections_total")
        try:
            first = await reader.readexactly(4)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            self._connections.discard(conn)
            writer.close()
            return
        try:
            if first == b"GET ":
                await self._serve_http(conn)
                return
            conn.worker = asyncio.ensure_future(self._conn_worker(conn))
            await self._read_loop(conn, first)
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            ProtocolError,
            OSError,
            DropConnection,
        ):
            pass
        finally:
            await self._teardown(conn)

    async def _teardown(self, conn: _Connection) -> None:
        conn.closed = True
        self._connections.discard(conn)
        if conn.worker is not None:
            conn.queue.close()  # let in-flight work finish
            try:
                await asyncio.wait_for(conn.worker, timeout=30)
            except asyncio.CancelledError:
                conn.worker.cancel()
            except asyncio.TimeoutError:
                log.warning(
                    "connection worker did not drain within 30s; cancelling"
                )
                conn.worker.cancel()
            except Exception:
                log.warning(
                    "connection worker died during teardown", exc_info=True
                )
                conn.worker.cancel()
        session = conn.session
        conn.session = None
        if session is not None:
            # a vanished client's staged events are discarded — unless
            # a queued commit owns them (the pin rules from PR 3)
            try:
                await self._run_blocking(session.expire)
            except Exception:
                log.warning(
                    "expiring session %s during teardown failed",
                    getattr(session, "session_id", "?"),
                    exc_info=True,
                )
        try:
            conn.writer.close()
        except Exception:
            log.debug("closing writer during teardown failed", exc_info=True)

    async def _serve_http(self, conn: _Connection) -> None:
        """Minimal HTTP façade: ``GET /health`` (JSON), ``GET /metrics``
        (Prometheus text) and ``GET /metrics.json`` (the JSON shape the
        binary METRICS frame also answers)."""
        self._count("http_requests")
        line = await conn.reader.readline()  # rest of the request line
        target = (b"GET " + line).decode("latin-1").split()
        path = target[1] if len(target) > 1 else "/"
        # drain headers politely (ignore contents)
        while True:
            header = await conn.reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
        ctype = "application/json"
        if path.startswith("/health"):
            body, status = json.dumps(self.health()).encode(), "200 OK"
        elif path.startswith("/metrics.json"):
            body, status = json.dumps(self.metrics()).encode(), "200 OK"
        elif path.startswith("/metrics"):
            body, status = self.render_metrics().encode(), "200 OK"
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body, status = b'{"error":"not found"}', "404 Not Found"
        conn.writer.write(
            (
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
            + body
        )
        await conn.writer.drain()
        self._connections.discard(conn)
        conn.writer.close()

    async def _read_loop(self, conn: _Connection, first: bytes) -> None:
        buffered = first
        while not conn.closed:
            if self.faults is not None:
                # a scripted stalled read blocks only this connection:
                # the stall runs on the thread pool, not the loop
                await self._run_blocking(self._fault, "server.read")
            need = p.HEADER_LEN - len(buffered)
            header = buffered + (
                await conn.reader.readexactly(need) if need else b""
            )
            buffered = b""
            length, ftype, request_id = p.decode_header(header)
            payload = (
                await conn.reader.readexactly(length) if length else b""
            )
            self._count("requests_total")
            if ftype not in p.REQUEST_TYPES:
                raise ProtocolError(f"unknown frame type 0x{ftype:02x}")
            if ftype in (p.T_HEALTH, p.T_METRICS):
                started = time.perf_counter()
                body = (
                    self.health() if ftype == p.T_HEALTH else self.metrics()
                )
                await self._send(
                    conn, p.T_OK, request_id, p.encode_json(body)
                )
                self.request_seconds.observe(
                    time.perf_counter() - started, type=p.FRAME_NAMES[ftype]
                )
            elif ftype == p.T_GOODBYE:
                await conn.queue.put((ftype, request_id, payload))
                return  # read no further; worker finishes the queue
            else:
                await conn.queue.put((ftype, request_id, payload))

    async def _conn_worker(self, conn: _Connection) -> None:
        """Drains one connection's ordered request queue.  However it
        ends, the connection ends with it: a worker that is gone must
        not leave a read loop queueing frames nobody will answer."""
        try:
            await self._serve_requests(conn)
        except DropConnection:
            self._count("dropped_connections")
            transport = conn.writer.transport
            if transport is not None:
                transport.abort()
        except (ConnectionError, OSError):
            pass
        finally:
            conn.closed = True
            conn.queue.close()
            try:
                conn.writer.close()
            except Exception:
                log.debug(
                    "closing writer behind the worker failed", exc_info=True
                )

    async def _serve_requests(self, conn: _Connection) -> None:
        """Process requests until GOODBYE, end of input, or a frame
        that cannot be parsed (answered ``E_PROTOCOL``; a peer that
        sends garbage is not resynchronisable)."""
        while True:
            run = await conn.queue.get_run()
            if run is None:
                return
            ftype, request_id, payload = run[0]
            started = time.perf_counter()
            try:
                if ftype in _STAGE_TYPES:
                    done = await self._process_stage_run(conn, run)
                else:
                    done = await self._process(
                        conn, ftype, request_id, payload
                    )
            except ProtocolError as exc:
                await self._send_error(
                    conn, request_id, p.E_PROTOCOL, str(exc)
                )
                done = True
            finally:
                elapsed = time.perf_counter() - started
                for frame in run:
                    self.request_seconds.observe(
                        elapsed, type=p.FRAME_NAMES.get(frame[0], "unknown")
                    )
            if done:
                return

    # -- request processing ------------------------------------------------

    async def _send(
        self, conn: _Connection, ftype: int, request_id: int, payload: bytes
    ) -> None:
        async with conn.write_lock:
            conn.writer.write(p.encode_frame(ftype, request_id, payload))
            await conn.writer.drain()

    async def _send_error(
        self,
        conn: _Connection,
        request_id: int,
        code: str,
        message: str,
        retriable: bool = False,
        retry_after: Optional[float] = None,
    ) -> None:
        self._count("errors_total")
        await self._send(
            conn,
            p.T_ERROR,
            request_id,
            p.error_payload(code, message, retriable, retry_after),
        )

    async def _run_blocking(self, fn, *args):
        loop = asyncio.get_event_loop()
        return await loop.run_in_executor(self._executor, fn, *args)

    def _stage_run(self, session, run: list) -> tuple[list, bool]:
        """Pool thread: decode and stage a run's frames in order.

        Returns one outcome per frame handled — the staged row count,
        or ``(code, message)`` — and whether the run stopped at a frame
        that does not decode (the frames behind it are not handled).
        """
        outcomes: list = []
        for ftype, _, payload in run:
            try:
                table, rows = p.decode_events_payload(payload)
                stage = session.insert if ftype == p.T_INSERT else session.delete
                outcomes.append(stage(table, rows))
            except ProtocolError as exc:
                outcomes.append((p.E_PROTOCOL, str(exc)))
                return outcomes, True
            except SessionExpired as exc:
                outcomes.append((p.E_SESSION, str(exc)))
            except NetworkError:
                raise
            except ReproError as exc:
                outcomes.append((p.E_EXECUTION, str(exc)))
        return outcomes, False

    async def _process_stage_run(self, conn: _Connection, run: list) -> bool:
        """Stage a run of INSERT/DELETE frames with one pool hop and
        answer every frame with one write; True ends the connection."""
        if conn.session is None:
            refusal = (p.E_PROTOCOL, "handshake required before this request")
            outcomes, garbage = [refusal] * len(run), False
        else:
            outcomes, garbage = await self._run_blocking(
                self._stage_run, conn.session, run
            )
        replies = []
        failed = 0
        for (_, request_id, _), outcome in zip(run, outcomes):
            conn.stage_seq += 1
            if isinstance(outcome, tuple):
                failed += 1
                # the first failure stays, the latest replaces the rest
                conn.stage_failures[1:] = [(conn.stage_seq, *outcome)]
                replies.append(
                    p.encode_frame(
                        p.T_ERROR, request_id, p.error_payload(*outcome)
                    )
                )
            else:
                replies.append(
                    p.encode_frame(
                        p.T_OK, request_id, p.encode_json({"staged": outcome})
                    )
                )
        self.stats.bump(
            stage_runs=1, stage_frames=len(outcomes), errors_total=failed
        )
        async with conn.write_lock:
            conn.writer.write(b"".join(replies))
            await conn.writer.drain()
        return garbage

    async def _process(
        self, conn: _Connection, ftype: int, request_id: int, payload: bytes
    ) -> bool:
        """Handle one session-bound request that is not staging; True
        ends the connection."""
        if ftype == p.T_HELLO:
            await self._process_hello(conn, request_id, payload)
            return False
        if conn.session is None:
            await self._send_error(
                conn,
                request_id,
                p.E_PROTOCOL,
                "handshake required before this request",
            )
            return False
        if ftype == p.T_GOODBYE:
            await self._run_blocking(conn.session.expire)
            conn.session = None
            await self._send(conn, p.T_OK, request_id, p.encode_json({}))
            return True
        if ftype == p.T_COMMIT:
            await self._process_commit(conn, request_id, payload)
            return False
        try:
            if ftype == p.T_QUERY:
                result = await self._run_blocking(
                    conn.session.query, payload.decode("utf-8")
                )
                await self._send(
                    conn,
                    p.T_ROWS,
                    request_id,
                    p.encode_rows_payload(result.columns, result.rows),
                )
            elif ftype == p.T_EXECUTE:
                result = await self._run_blocking(
                    conn.session.execute, payload.decode("utf-8")
                )
                if hasattr(result, "columns"):  # a SELECT went through
                    await self._send(
                        conn,
                        p.T_ROWS,
                        request_id,
                        p.encode_rows_payload(result.columns, result.rows),
                    )
                else:
                    await self._send(
                        conn,
                        p.T_OK,
                        request_id,
                        p.encode_json({"staged": result}),
                    )
            elif ftype == p.T_DISCARD:
                conn.stage_failures.clear()
                dropped = await self._run_blocking(conn.session.discard)
                await self._send(
                    conn,
                    p.T_OK,
                    request_id,
                    p.encode_json({"discarded": dropped}),
                )
            else:  # pragma: no cover - REQUEST_TYPES guards this
                raise ProtocolError(f"unhandled frame type 0x{ftype:02x}")
        except SessionExpired as exc:
            await self._send_error(
                conn, request_id, p.E_SESSION, str(exc), retriable=False
            )
        except (ConstraintViolation, ExecutionError, ReproError) as exc:
            if isinstance(exc, (NetworkError, SessionExpired)):
                raise
            await self._send_error(
                conn, request_id, p.E_EXECUTION, str(exc)
            )
        return False

    async def _process_hello(
        self, conn: _Connection, request_id: int, payload: bytes
    ) -> None:
        hello = p.decode_json(payload)
        if hello.get("magic") != p.PROTOCOL_MAGIC:
            raise ProtocolError("bad protocol magic in HELLO")
        if hello.get("version") != p.PROTOCOL_VERSION:
            await self._send_error(
                conn,
                request_id,
                p.E_PROTOCOL,
                f"unsupported protocol version {hello.get('version')!r} "
                f"(server speaks {p.PROTOCOL_VERSION})",
            )
            return
        if self._draining:
            await self._send_error(
                conn,
                request_id,
                p.E_SHUTTING_DOWN,
                "server is draining; no new sessions",
                retriable=True,
                retry_after=1.0,
            )
            return
        if conn.session is not None:
            await self._send_error(
                conn, request_id, p.E_PROTOCOL, "session already established"
            )
            return
        priority = int(hello.get("priority", 0))
        conn.session = await self._run_blocking(
            lambda: self.tintin.sessions.create(
                ttl=self.session_ttl, priority=priority
            )
        )
        reply = {
            "session": conn.session.session_id,
            "version": p.PROTOCOL_VERSION,
            "database": self.tintin.db.name,
            "priority": priority,
        }
        await self._send(conn, p.T_OK, request_id, p.encode_json(reply))
        if self.admission.backpressure:
            # late joiners learn the current state immediately
            await self._send(
                conn,
                p.T_SLOWDOWN,
                0,
                p.encode_json({"delay": self.admission.suggested_delay()}),
            )

    def _commit_obs(self, spec: dict) -> Optional[CommitObs]:
        """The observation context for one remote commit.

        A truthy ``trace`` key forces a context even when no tracer is
        installed, so the verdict can echo a trace id (a string value
        propagates the client's id end to end); otherwise the engine's
        usual rule applies — no tracer and no slow-log, no context.
        """
        trace = spec.get("trace")
        tintin = self.tintin
        if trace:
            return CommitObs(
                tintin.tracer,
                trace if isinstance(trace, str) else None,
                slow_threshold=tintin.slow_commit_seconds,
            )
        return tintin._make_obs()

    def _finish_commit(self, obs, verdict: str, started: float) -> None:
        """Observe one decided commit: histogram sample + trace close."""
        self.commit_seconds.observe(
            time.perf_counter() - started, verdict=verdict
        )
        if obs is not None:
            obs.finish(verdict)

    async def _process_commit(
        self, conn: _Connection, request_id: int, payload: bytes
    ) -> None:
        spec = p.decode_json(payload) if payload else {}
        # the commit guard: this COMMIT ends the staging-failure memory
        # either way; one that travelled behind ``guard`` unread staging
        # answers is refused if any of those frames failed
        guard = spec.get("guard", 0)
        if not isinstance(guard, int) or guard < 0:
            raise ProtocolError("COMMIT guard must be a frame count")
        failures, conn.stage_failures = conn.stage_failures, []
        read_up_to = conn.stage_seq - guard
        unread = [failure for failure in failures if failure[0] > read_up_to]
        if unread:
            self._count("guarded_commits_refused")
            _, code, message = unread[0]
            await self._send_error(conn, request_id, code, message)
            return
        timeout = spec.get("timeout", self.default_commit_timeout)
        deadline = (
            time.monotonic() + float(timeout) if timeout is not None else None
        )
        session = conn.session
        obs = self._commit_obs(spec)
        loop = asyncio.get_event_loop()
        future: asyncio.Future = loop.create_future()

        def on_done(result, error):
            def resolve():
                if future.cancelled():
                    return
                if error is not None:
                    future.set_exception(error)
                else:
                    future.set_result(result)

            try:
                loop.call_soon_threadsafe(resolve)
            except RuntimeError:  # loop died mid-shutdown
                pass

        submitted = time.monotonic()

        def run_commit():
            if obs is not None:
                # time spent queued for admission, before the scheduler
                obs.record("admission.wait", submitted, time.monotonic())
            return session.commit(deadline=deadline, obs=obs)

        self._fault("admission.enqueue", session=session)
        started = time.perf_counter()
        self.admission.submit(
            run_commit,
            on_done,
            priority=session.priority,
            deadline=deadline,
        )
        try:
            result = await future
        except OverloadError as exc:
            self._finish_commit(obs, "overload", started)
            await self._send_error(
                conn,
                request_id,
                p.E_OVERLOAD,
                str(exc),
                retriable=True,
                retry_after=exc.retry_after,
            )
            return
        except DeadlineExceeded as exc:
            self._finish_commit(obs, "deadline", started)
            await self._send_error(
                conn, request_id, p.E_DEADLINE, str(exc), retriable=True
            )
            return
        except SessionExpired as exc:
            self._finish_commit(obs, "session_expired", started)
            await self._send_error(conn, request_id, p.E_SESSION, str(exc))
            return
        except ReproError as exc:
            self._finish_commit(obs, "error", started)
            await self._send_error(conn, request_id, p.E_EXECUTION, str(exc))
            return
        self._finish_commit(obs, commit_verdict(result), started)
        # the commit is decided (and, when durable, its fsync has
        # returned).  The ack-lost fault window lives exactly here.
        self._fault("server.before_ack", session=session, result=result)
        if result.deadline_expired:
            await self._send_error(
                conn,
                request_id,
                p.E_DEADLINE,
                result.constraint_error or "deadline exceeded",
                retriable=True,
            )
            return
        verdict = commit_result_payload(result)
        if obs is not None:
            verdict["trace_id"] = obs.trace_id
        await self._send(
            conn,
            p.T_OK,
            request_id,
            p.encode_json(verdict),
        )
