"""The shard router: footprint classification, read routing and
two-phase commit.

:class:`ShardedTintin` fronts N worker processes (one engine each, see
:mod:`repro.shard.worker`) behind the same surface the network server
binds to — ``sessions``, ``db.name``, ``set_tracer``, ``close`` — so
``TintinServer(ShardedTintin(...))`` serves a sharded engine with no
front-end changes.

Commit routing:

* a batch whose shard-key footprint lands on **one** shard is
  forwarded as an ordinary commit — no coordination, no extra fsync;
* a **cross-shard** batch runs presumed-abort two-phase commit.  With
  the participants' routing locks held (taken in ascending shard
  order), the coordinator sends every prepare at once and then
  gathers the votes (each prepare validates, tentatively applies, and
  fsyncs a WAL prepare record — the durable yes vote), then fsyncs a
  commit record to its own decision log *before* sending any decide,
  and finally sends every decide at once and gathers the replies.
  Only abort outcomes are never logged: an in-doubt participant whose
  gid is absent from the decision log aborts, which is exactly right
  both for a coordinator that crashed before deciding and for one
  that deliberately aborted.

Read routing: a read whose shape pins its rows to one shard — a
non-aggregate SELECT with ``key = constant`` on its one keyed table,
or over tables pinned to shard 0 only — is one call to that shard under
its routing lock alone (see :meth:`ShardConfig.read_shard`); a commit
or 2PC on another shard does not delay it.  Every other read scatters.

Every multi-shard conversation — both 2PC rounds, scatter reads, DDL
broadcasts, checkpoints — is one :func:`_scatter`: send to every
shard, then gather every reply, so N shards cost one round trip, not
N.

Crash handling: a participant that dies after voting yes re-adopts
the transaction from its prepare record at restart and reports it
in-doubt in its hello; :meth:`ShardedTintin.restart_shard` resolves
those gids against the decision log.  The same holds for a
participant that dies after *deciding*: its decide record is
appended unsynced (see :mod:`repro.shard.worker`), so it may be lost
and the gid reported again — the decision log settles it the same
way.  A participant that dies before voting simply never voted —
presumed abort needs no cleanup.  :meth:`ShardedTintin.checkpoint`
compacts the decision log once no shard WAL can report a gid again.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import multiprocessing
import os
import threading
import time
import uuid
from typing import Optional

from ..core.safe_commit import CommitResult
from ..durability.wal import WriteAheadLog, decode_decide, read_wal
from ..errors import ExecutionError, ReproError, SessionExpired, ShardError
from ..minidb.database import Database, ResultSet
from ..obs.metrics import MetricsRegistry, StatsBlock
from ..obs.trace import CommitObs, NullTracer
from ..server.scheduler import SchedulerStats
from .config import ShardConfig
from .worker import shard_worker_main

#: Router-side failures that do not fail the commit (a decide lost to
#: a dead participant after the decision became durable) land here —
#: they are recovery work, not errors the submitting client can act on.
log = logging.getLogger("repro.shard")


class RouterStats(StatsBlock):
    """Counters for the shard router (thread-safe snapshot)."""

    COUNTERS = (
        "commits",
        "single_shard",
        "cross_shard",
        "prepares",
        "aborts",
        "in_doubt_resolved",
        "queries",
        "point_reads",
        "restarts",
    )
    PREFIX = "tintin_router"
    HELP = {
        "commits": "Committed batches routed (either path)",
        "single_shard": "Commits whose footprint stayed on one shard",
        "cross_shard": "Cross-shard batches attempted via 2PC",
        "prepares": "Participant prepare calls issued",
        "aborts": "Cross-shard batches aborted (vote no or failure)",
        "in_doubt_resolved": "Recovered in-doubt transactions resolved",
        "queries": "Scatter-gather reads issued (sent to every shard)",
        "point_reads": "Reads routed to one shard",
        "restarts": "Shard worker respawns",
    }


#: what a pipe to a dead worker raises, on either end
_DEAD_PIPE = (EOFError, BrokenPipeError, OSError)


class ShardHandle:
    """One worker process plus the pipe and lock that guard it.

    The lock is re-entrant and does double duty: it serializes pipe
    I/O (one conversation per shard at a time) *and* is the routing
    lock a cross-shard commit holds across its whole prepare/decide
    conversation, so no single-shard commit can interleave with a
    shard's prepared-but-undecided window.  :meth:`send` and
    :meth:`recv` are the two halves of :meth:`call`, for the router's
    scatter/gather (see :func:`_scatter`); both expect the lock held.
    :meth:`start` and :meth:`await_hello` are the two halves of
    :meth:`spawn` in the same way: the router starts every worker
    before it waits for any, so the workers' boots — and, at a
    reopen, their recoveries — overlap instead of queueing.
    """

    def __init__(self, shard_id: int, directory: str):
        self.shard_id = shard_id
        self.directory = directory
        self.lock = threading.RLock()
        self.process = None
        self.conn = None
        self.alive = False
        #: gids the worker reported in-doubt at its last hello
        self.in_doubt: list[str] = []

    def start(self, ctx, durability: str, gather_seconds: float) -> None:
        """Start (or restart) the worker process without waiting for
        it: the handle stays down until :meth:`await_hello`."""
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=shard_worker_main,
            args=(
                child_conn,
                self.directory,
                self.shard_id,
                durability,
                gather_seconds,
            ),
            name=f"tintin-shard-{self.shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.process = process
        self.conn = parent_conn

    def await_hello(self, timeout: float = 60.0) -> dict:
        """Wait for the started worker's hello and mark the handle up;
        returns the hello payload.  A worker that does not report in
        within ``timeout``, exits first or answers with anything else
        is terminated and reaped, and :class:`ShardError` raised."""
        problem = None
        try:
            if not self.conn.poll(timeout):
                problem = f"did not report in within {timeout:.0f}s"
            else:
                kind, hello = self.conn.recv()
                if kind != "hello":
                    problem = f"sent {kind!r} instead of hello"
        except _DEAD_PIPE as exc:
            problem = f"exited before its hello: {exc!r}"
        if problem is not None:
            self.kill()
            raise ShardError(f"shard {self.shard_id} {problem}")
        self.alive = True
        self.in_doubt = list(hello.get("in_doubt", ()))
        return hello

    def spawn(
        self,
        ctx,
        durability: str,
        gather_seconds: float,
        timeout: float = 60.0,
    ) -> dict:
        """Start (or restart) the worker and wait for it: :meth:`start`
        + :meth:`await_hello`; returns its hello payload."""
        self.start(ctx, durability, gather_seconds)
        return self.await_hello(timeout)

    def _died(self, what: str, exc: BaseException) -> ShardError:
        """A dead pipe, on either side: mark the handle down (the
        router must :meth:`ShardedTintin.restart_shard` it) and return
        the error to raise."""
        self.alive = False
        return ShardError(
            f"shard {self.shard_id} died during {what!r}: {exc!r}"
        )

    def send(self, *message) -> None:
        """Post one request without waiting.  The caller holds
        :attr:`lock` and owes exactly one :meth:`recv` for it."""
        if not self.alive:
            raise ShardError(f"shard {self.shard_id} is down")
        try:
            self.conn.send(message)
        except _DEAD_PIPE as exc:
            raise self._died(message[0], exc) from exc

    def recv(self, what: str):
        """Take the reply to the oldest request :meth:`send` posted;
        raises :class:`ShardError` on a reported failure (the pipe
        stays aligned) or a dead pipe."""
        if not self.alive:
            raise ShardError(f"shard {self.shard_id} is down")
        try:
            reply = self.conn.recv()
        except _DEAD_PIPE as exc:
            raise self._died(what, exc) from exc
        if reply[0] == "error":
            _, type_name, text = reply
            raise ShardError(
                f"shard {self.shard_id} {what} failed: {type_name}: {text}"
            )
        return reply[1]

    def call(self, *message):
        """One request/reply round trip: :meth:`send` + :meth:`recv`."""
        with self.lock:
            self.send(*message)
            return self.recv(message[0])

    def reap(self) -> None:
        """Release the dead worker's pipe and process slot."""
        with self.lock:
            self.alive = False
            if self.conn is not None:
                try:
                    self.conn.close()
                except OSError:
                    pass
                self.conn = None
            if self.process is not None:
                self.process.join(timeout=10)
                if self.process.is_alive():
                    self.process.terminate()
                    self.process.join(timeout=5)
                self.process = None

    def kill(self) -> None:
        """Terminate the worker at once and reap it — a start that
        failed, whether or not this worker had reported in."""
        with self.lock:
            if self.process is not None and self.process.is_alive():
                self.process.terminate()
            self.reap()

    def shutdown(self) -> None:
        """Clean stop: ask the worker to close its engine, then reap."""
        with self.lock:
            if self.alive:
                try:
                    self.call("close")
                except ShardError:
                    log.warning(
                        "shard %d failed its close command; reaping",
                        self.shard_id,
                        exc_info=True,
                    )
            self.reap()


@contextlib.contextmanager
def _locked(handles: list[ShardHandle]):
    """Hold every handle's lock, taken in the order given — always
    ascending shard order, so no two multi-shard conversations can
    deadlock — and released in reverse."""
    with contextlib.ExitStack() as stack:
        for handle in handles:
            stack.enter_context(handle.lock)
        yield


_PENDING = object()


def _scatter(
    requests: list[tuple[ShardHandle, tuple]],
    stop_at_failed_send: bool = False,
    obs: Optional[CommitObs] = None,
    **span_attrs,
) -> list:
    """Send every request, then gather every reply in request order —
    the one way the router talks to several shards at once.  The
    caller holds every handle's lock.

    Returns one outcome per request sent: the reply payload, or the
    :class:`ShardError` it met (a failed send, a dead pipe while
    gathering, a failure the worker reported).  A failed send marks
    its handle down; with ``stop_at_failed_send`` it also ends the
    scatter, so the list is shorter than ``requests``.  A failure
    while gathering never stops the gather: every request sent is
    answered, so every live pipe stays aligned.  With ``obs``, each
    reply records a span named after its command, from the first send
    to that reply."""
    started = time.monotonic()
    outcomes: list = []
    for handle, message in requests:
        try:
            handle.send(*message)
        except ShardError as exc:
            outcomes.append(exc)
            if stop_at_failed_send:
                break
        else:
            outcomes.append(_PENDING)
    for index, (handle, message) in enumerate(requests[: len(outcomes)]):
        if outcomes[index] is not _PENDING:
            continue
        try:
            outcomes[index] = handle.recv(message[0])
        except ShardError as exc:
            outcomes[index] = exc
            continue
        if obs is not None:
            obs.record(
                message[0],
                started,
                time.monotonic(),
                shard=str(handle.shard_id),
                **span_attrs,
            )
    return outcomes


class ShardedTintin:
    """N shard engines behind one Tintin-shaped facade.

    ``directory`` holds one subdirectory per shard plus ``coord/``
    with the coordinator's decision log.  ``shard_keys`` maps table
    names to their partitioning column (see :class:`ShardConfig`);
    undeclared tables pin to shard 0.  DDL (``execute``, ``install``,
    ``add_assertion``) broadcasts to every shard and is mirrored into
    a local catalog-only :class:`Database` used for row validation and
    footprint classification — the mirror never holds data.
    """

    def __init__(
        self,
        directory: str,
        shards: int = 2,
        shard_keys: Optional[dict[str, str]] = None,
        durability: str = "batch",
        gather_seconds: float = 0.0,
        name: str = "sharded",
    ):
        self.directory = directory
        self.config = ShardConfig(shards, shard_keys)
        #: catalog mirror — schema only, consulted for shard-key
        #: positions and staged-row validation
        self.db = Database(name)
        #: Tintin-surface compatibility: the router has no WAL of its
        #: own commits (each shard does), so fault injection has no
        #: durability points to hook here
        self.durability = None
        self.tracer = NullTracer()
        self.slow_commit_seconds: Optional[float] = None
        self.serving = True
        self.stats = RouterStats()
        #: the router's counters, then each live shard's scheduler
        #: counters read over its pipe (see :class:`_ShardStatsCollector`)
        self.registry = MetricsRegistry()
        self.registry.register(self.stats)
        self._durability_mode = durability
        self._gather_seconds = gather_seconds
        self._sessions: Optional[ShardSessionManager] = None
        self._closed = False
        coord_dir = os.path.join(directory, "coord")
        os.makedirs(coord_dir, exist_ok=True)
        #: the coordinator's decision log: commit verdicts only
        #: (presumed abort — an absent gid IS the abort decision).  One
        #: scan rebuilds the decided set and reopens the log for append.
        decisions = os.path.join(coord_dir, "decisions.wal")
        self._decided: set[str] = set()
        resume = None
        if os.path.exists(decisions):
            scan = read_wal(decisions)
            resume = scan.resume()
            for record in scan.records:
                if record.type == "decide":
                    gid, commit, _ = decode_decide(
                        scan.data, record.start, record.end
                    )
                    if commit:
                        self._decided.add(gid)
        self._decision_log = WriteAheadLog(decisions, resume=resume)
        #: cross-shard commits over disjoint participant sets run
        #: concurrently; their decision appends must not interleave
        self._decision_lock = threading.Lock()
        #: the host process runs threads (net server, admission pool),
        #: so fork is unsafe — spawn is mandatory, not a preference
        self._ctx = multiprocessing.get_context("spawn")
        self.handles: list[ShardHandle] = [
            ShardHandle(shard_id, os.path.join(directory, f"shard{shard_id}"))
            for shard_id in range(shards)
        ]
        # every worker starts before any hello is awaited: their boots,
        # and at a reopen their recoveries, run side by side
        try:
            for handle in self.handles:
                os.makedirs(handle.directory, exist_ok=True)
                handle.start(self._ctx, durability, gather_seconds)
            for handle in self.handles:
                handle.await_hello()
            self._resolve_in_doubt(self.handles)
        except BaseException:
            # a retried open over this directory must not meet a
            # worker of this one still holding its shard's WAL
            for handle in self.handles:
                handle.kill()
            self._decision_log.close()
            raise
        self.registry.register(_ShardStatsCollector(self))

    # -- lifecycle ---------------------------------------------------------

    def _resolve_in_doubt(self, handles: list[ShardHandle]) -> None:
        """Drive every reported in-doubt gid to its final verdict: a
        commit record in the decision log means the coordinator
        decided commit before the crash; absence means abort
        (presumed) — either it decided abort or never decided."""
        for handle in handles:
            for gid in handle.in_doubt:
                verdict = gid in self._decided
                handle.call("decide", gid, verdict)
                self.stats.bump(in_doubt_resolved=1)
                log.info(
                    "resolved in-doubt transaction %s on shard %d: %s",
                    gid,
                    handle.shard_id,
                    "commit" if verdict else "abort",
                )
            handle.in_doubt = []

    def restart_shard(self, shard_id: int) -> dict:
        """Respawn one worker (after a crash) and resolve whatever it
        reports in-doubt.  Safe for a live worker too — it is closed
        cleanly first."""
        handle = self.handles[shard_id]
        with handle.lock:
            if handle.alive:
                handle.shutdown()
            else:
                handle.reap()
            hello = handle.spawn(
                self._ctx, self._durability_mode, self._gather_seconds
            )
            self._resolve_in_doubt([handle])
        self.stats.bump(restarts=1)
        return hello

    def checkpoint(self) -> None:
        """Checkpoint every shard, then compact the decision log.

        Every routing lock is held throughout, so no 2PC is in flight.
        Once every shard has checkpointed, no shard WAL holds a prepare
        record: no gid can be reported in doubt any more, and every
        decide record a participant appended unsynced is covered by a
        durable snapshot.  That is the invariant that makes the
        unsynced decide safe for good — and it leaves the decision
        log's verdicts with no reader, so the log is truncated
        (sequence numbers continue) and the decided set cleared.  A
        shard that refuses (it holds an undecided prepare) or is down
        raises, and the decision log is left untouched."""
        with _locked(self.handles):
            self._broadcast("checkpoint")
            self._decision_log.truncate()
            self._decided.clear()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.serving = False
        for handle in self.handles:
            handle.shutdown()
        self._decision_log.close()

    # -- DDL / schema broadcast --------------------------------------------

    def _broadcast(self, *message) -> list:
        """Scatter one request to every shard, holding every routing
        lock; the payloads in shard order.  The first failure is raised
        once every reply is in."""
        with _locked(self.handles):
            outcomes = _scatter([(handle, message) for handle in self.handles])
        for outcome in outcomes:
            if isinstance(outcome, ShardError):
                raise outcome
        return outcomes

    def execute(self, sql: str):
        """Run DDL on every shard (SELECT is read, DML is refused).

        The catalog mirror executes first: malformed statements fail
        locally before any shard sees them.  A DROP is the exception:
        a shard refuses to drop a table an assertion reads, which the
        mirror cannot judge, so the mirror drops only after every shard
        did."""
        head = sql.split(None, 1)[0].upper() if sql.split() else ""
        if head == "SELECT":
            return self.query(sql)
        if head in ("INSERT", "DELETE", "UPDATE"):
            raise ExecutionError(
                "DML on a sharded engine must go through a session "
                "(insert()/delete() then commit()) so it can be "
                "shard-routed and assertion-checked"
            )
        if head == "DROP":
            self._broadcast("execute", sql)
            return self.db.execute(sql)
        mirrored = self.db.execute(sql)
        self._broadcast("execute", sql)
        return mirrored

    def declare(self, sql: str):
        """Run DDL on the catalog mirror only.

        For reopening existing shard state: the workers rebuilt their
        catalogs from their own WALs/checkpoints, but the router's
        mirror starts empty every time — re-declare the schema here so
        shard-key positions and row validation resolve again."""
        return self.db.execute(sql)

    def install(self, tables: Optional[list[str]] = None) -> list[str]:
        """Install event capture on every shard."""
        return self._broadcast("install")[-1]

    def add_assertion(self, sql: str) -> str:
        """Compile the assertion on every shard; returns its name.

        Each shard checks only its own slice, so the assertion is
        first compiled on the catalog mirror and refused — before any
        shard sees it — unless the shard keys co-locate every row a
        violation joins (see :meth:`ShardConfig.require_local`).  A
        shard whose rows already violate it refuses it, as
        ``Tintin.add_assertion`` does; the shards that installed it
        then drop it again, so no shard holds an assertion another
        refused, and the refusal is raised."""
        self.config.require_local(self.db, sql)
        with _locked(self.handles):
            outcomes = _scatter(
                [(handle, ("assertion", sql)) for handle in self.handles]
            )
            refused = [o for o in outcomes if isinstance(o, ShardError)]
            if refused:
                _scatter(
                    [
                        (handle, ("drop_assertion", name))
                        for handle, name in zip(self.handles, outcomes)
                        if not isinstance(name, ShardError)
                    ]
                )
                raise refused[0]
        return outcomes[-1]

    # -- reads -------------------------------------------------------------

    def query(self, sql: str) -> ResultSet:
        """A read: the union of every shard's rows for ``sql``.

        A read whose shape pins its rows to one shard — a non-aggregate
        SELECT with ``key = constant`` on its one keyed table, or over
        pinned tables only (see :meth:`ShardConfig.read_shard`) — is
        one call to that shard under its routing lock alone: no other
        shard holds a row of it, and a 2PC holds its participants'
        locks from prepare to decide, so the read never sees half of
        one.  Every other read, and every text the catalog mirror cannot
        parse or resolve, scatters: every shard runs it at once (one
        round trip, not one per shard) under every routing lock, so the
        union is a consistent cut.  Aggregates return one row per
        shard.  No global ordering is imposed; callers needing total
        order sort the result.
        """
        shard = self._read_shard(sql)
        if shard is not None:
            self.stats.bump(point_reads=1)
            columns, rows = self.handles[shard].call("query", sql)
            return ResultSet(columns, [tuple(row) for row in rows])
        self.stats.bump(queries=1)
        replies = self._broadcast("query", sql)
        rows = [tuple(row) for _, shard_rows in replies for row in shard_rows]
        return ResultSet(replies[0][0], rows)

    def _read_shard(self, sql: str) -> Optional[int]:
        """The one shard ``sql`` reads rows from, or None to scatter.
        The shape comes from the mirror's statement cache; a text the
        mirror cannot parse or resolve scatters, and the shards raise
        its error as before."""
        try:
            entry, params, _ = self.db.statement(sql)
            return self.config.read_shard(self.db, entry.stmt, params)
        except ReproError:
            return None

    # -- commits -----------------------------------------------------------

    def commit_events(
        self,
        inserts: dict[str, list[tuple]],
        deletes: dict[str, list[tuple]],
        deadline: Optional[float] = None,
        obs: Optional[CommitObs] = None,
    ) -> CommitResult:
        """Route one event batch by its shard-key footprint."""
        split = self.config.split(self.db, inserts or {}, deletes or {})
        if not split:
            self.stats.bump(commits=1)
            return CommitResult(committed=True)
        remaining = (
            None if deadline is None else deadline - time.monotonic()
        )
        if len(split) == 1:
            ((shard_id, (ins, dels)),) = split.items()
            handle = self.handles[shard_id]
            started = time.monotonic()
            payload = handle.call("commit", ins, dels, remaining)
            if obs is not None:
                obs.record(
                    "shard.commit",
                    started,
                    time.monotonic(),
                    shard=str(shard_id),
                )
            result = CommitResult.from_payload(payload)
            if result.committed:
                self.stats.bump(commits=1, single_shard=1)
            return result
        return self._two_phase_commit(split, remaining, obs)

    def _two_phase_commit(
        self,
        split: dict[int, tuple[dict, dict]],
        remaining: Optional[float],
        obs: Optional[CommitObs],
    ) -> CommitResult:
        """Presumed-abort two-phase commit over the shards ``split``
        names.

        The participant locks are taken in ascending shard order and
        held for the whole conversation — two concurrent cross-shard
        commits can never deadlock, and no single-shard commit slips
        between a shard's prepare and its decide.  Under them the
        conversation is two scatter/gather rounds: every prepare is
        sent before any vote is read; then, after the decision fsync,
        every decide is sent before any reply is read.  The caller is
        answered once every decide has been."""
        gid = uuid.uuid4().hex
        participants = [self.handles[shard_id] for shard_id in sorted(split)]
        with _locked(participants):
            prepares = [
                (handle, ("prepare", gid, *split[handle.shard_id], remaining))
                for handle in participants
            ]
            outcomes = _scatter(
                prepares, stop_at_failed_send=True, obs=obs, gid=gid
            )
            yes: dict[ShardHandle, CommitResult] = {}
            failure: Optional[CommitResult] = None
            for handle, outcome in zip(participants, outcomes):
                if isinstance(outcome, ShardError):
                    vote = CommitResult(
                        committed=False,
                        constraint_error=(
                            f"shard {handle.shard_id} failed during "
                            f"prepare: {outcome}"
                        ),
                    )
                else:
                    self.stats.bump(prepares=1)
                    vote = CommitResult.from_payload(outcome)
                if vote.committed:
                    yes[handle] = vote
                elif failure is None:
                    failure = vote
            if failure is not None:
                # presumed abort: nothing is logged; yes voters are
                # told directly, and any that cannot be reached will
                # find no commit record at recovery and abort anyway
                self._decide(list(yes), gid, False, obs)
                self.stats.bump(cross_shard=1, aborts=1)
                return failure
            # every participant holds a durable yes vote: make the
            # commit decision durable *before* any participant acts on
            # it — from this fsync on, the transaction commits even if
            # everything crashes right now
            with self._decision_lock:
                self._decision_log.append_decide(gid, True)
                self._decision_log.sync()
                self._decided.add(gid)
            self._decide(participants, gid, True, obs)
        self.stats.bump(commits=1, cross_shard=1)
        votes = yes.values()
        return CommitResult(
            committed=True,
            applied_rows=sum(vote.applied_rows for vote in votes),
            checked_views=sum(vote.checked_views for vote in votes),
            skipped_views=sum(vote.skipped_views for vote in votes),
            group_size=len(participants),
        )

    def _decide(
        self,
        handles: list[ShardHandle],
        gid: str,
        verdict: bool,
        obs: Optional[CommitObs],
    ) -> None:
        """Scatter one verdict and gather every reply.  A participant
        that cannot be reached is recovery work, not a failed commit:
        it re-reports the gid in doubt at restart, and the decision log
        — a commit record, or its absence — settles it."""
        word = "commit" if verdict else "abort"
        outcomes = _scatter(
            [(handle, ("decide", gid, verdict)) for handle in handles],
            obs=obs,
            gid=gid,
            verdict=word,
        )
        for handle, outcome in zip(handles, outcomes):
            if isinstance(outcome, ShardError):
                log.warning(
                    "shard %d unreachable for %s of %s; %s",
                    handle.shard_id,
                    word,
                    gid,
                    "the decision log will resolve it at restart"
                    if verdict
                    else "it will presume abort at recovery",
                    exc_info=outcome,
                )

    # -- Tintin-surface compatibility --------------------------------------

    @property
    def sessions(self) -> "ShardSessionManager":
        if self._sessions is None:
            self._sessions = ShardSessionManager(self)
        return self._sessions

    def create_session(
        self, ttl: Optional[float] = None, priority: int = 0
    ) -> "ShardSession":
        return self.sessions.create(ttl=ttl, priority=priority)

    def set_tracer(self, tracer) -> None:
        self.tracer = tracer if tracer is not None else NullTracer()

    def _make_obs(
        self, trace_id: Optional[str] = None
    ) -> Optional[CommitObs]:
        tracer = self.tracer
        if not tracer.enabled and self.slow_commit_seconds is None:
            return None
        return CommitObs(
            tracer,
            trace_id=trace_id,
            slow_threshold=self.slow_commit_seconds,
        )


class _RouterSchedulerFacade:
    """The slice of CommitScheduler the front end touches on a router:
    a settable fault hook (fault injection on the sharded path targets
    the router, not a scheduler it does not have)."""

    def __init__(self):
        self.fault_hook = None


class ShardSessionManager:
    """Duck-types SessionManager over the router.

    Sessions here are thin staging buffers — validation happens
    against the catalog mirror, the real work happens in the shard
    workers at commit — so there is no sweeper thread; TTLs are
    accepted and ignored."""

    def __init__(self, router: ShardedTintin):
        self.router = router
        self.scheduler = _RouterSchedulerFacade()
        self.swept_sessions = 0
        self.sweeper_running = False
        self._lock = threading.Lock()
        self._sessions: dict[str, ShardSession] = {}
        self._ids = itertools.count(1)

    @property
    def active_count(self) -> int:
        with self._lock:
            return len(self._sessions)

    def create(
        self, ttl: Optional[float] = None, priority: int = 0
    ) -> "ShardSession":
        with self._lock:
            session_id = f"shard-s{next(self._ids)}"
            session = ShardSession(self.router, self, session_id, priority)
            self._sessions[session_id] = session
        return session

    def _remove(self, session: "ShardSession") -> None:
        with self._lock:
            self._sessions.pop(session.session_id, None)

    def start_sweeper(self, interval: float) -> None:
        pass

    def stop_sweeper(self) -> None:
        pass


class ShardSession:
    """One client's staging buffer against the sharded engine.

    Rows are validated (typed, coerced) against the catalog mirror at
    staging time and routed at commit.  The last operation on a row
    wins: an insert takes the row out of the staged deletes, and a
    delete out of the staged inserts.  Each shard then nets its slice
    against its stored rows (:func:`repro.shard.worker.net_slice`), so
    a commit ends where an embedded session's would.  Reads go through
    :meth:`ShardedTintin.query` — a point read to its one shard, any
    other read to every shard — and see *committed* state only:
    cross-shard read-your-writes would need the overlay merge inside
    every worker and is out of scope."""

    def __init__(
        self,
        router: ShardedTintin,
        manager: ShardSessionManager,
        session_id: str,
        priority: int = 0,
    ):
        self.router = router
        self.manager = manager
        self.session_id = session_id
        self.priority = priority
        #: ``{table: {row: None}}`` per side — ordered row sets
        self._inserts: dict[str, dict[tuple, None]] = {}
        self._deletes: dict[str, dict[tuple, None]] = {}
        self._expired = False

    def _check_alive(self) -> None:
        if self._expired:
            raise SessionExpired(
                f"session {self.session_id} is expired; open a new one"
            )

    def _staged_rows(self) -> int:
        return sum(
            len(rows)
            for events in (self._inserts, self._deletes)
            for rows in events.values()
        )

    def _stage(self, events: dict, other: dict, table: str, rows) -> int:
        """Validate ``rows`` against the mirror and stage them in
        ``events``, taking each out of ``other``; returns how many this
        call staged (as ``Session.insert/delete`` do)."""
        self._check_alive()
        mirror = self.router.db.table(table)
        validated = mirror.validate_rows(rows)
        staged = events.setdefault(mirror.name, {})
        undone = other.get(mirror.name, {})
        for row in validated:
            undone.pop(row, None)
            staged[row] = None
        return len(validated)

    def insert(self, table: str, rows: list[tuple]) -> int:
        return self._stage(self._inserts, self._deletes, table, rows)

    def delete(self, table: str, rows: list[tuple]) -> int:
        return self._stage(self._deletes, self._inserts, table, rows)

    def execute(self, sql: str):
        self._check_alive()
        head = sql.split(None, 1)[0].upper() if sql.split() else ""
        if head == "SELECT":
            return self.query(sql)
        raise ExecutionError(
            "sessions on a sharded engine stage through insert()/"
            "delete(); DDL goes through the router's execute()"
        )

    def query(self, sql: str) -> ResultSet:
        self._check_alive()
        return self.router.query(sql)

    def commit(
        self,
        deadline: Optional[float] = None,
        obs: Optional[CommitObs] = None,
    ) -> CommitResult:
        """Route the staged update by its shard-key footprint.

        The attempt takes the staged update out first, so a commit
        that is rejected or raises has consumed it: the staging is
        empty afterwards either way."""
        self._check_alive()
        inserts, deletes = self._inserts, self._deletes
        self._inserts, self._deletes = {}, {}
        return self.router.commit_events(
            {table: list(rows) for table, rows in inserts.items()},
            {table: list(rows) for table, rows in deletes.items()},
            deadline=deadline,
            obs=obs,
        )

    def discard(self) -> int:
        self._check_alive()
        dropped = self._staged_rows()
        self._inserts = {}
        self._deletes = {}
        return dropped

    def expire(self) -> None:
        if not self._expired:
            self._expired = True
            self.manager._remove(self)


class _ShardStatsCollector:
    """Per-shard scheduler counters for the Prometheus page: one family
    per field (a TYPE line, then one sample per shard, labelled by shard
    id).  A scrape must never stall a commit: a shard whose routing lock
    is held (mid-2PC) or whose worker is down is simply absent from it."""

    __slots__ = ("_router",)

    def __init__(self, router: ShardedTintin):
        self._router = router

    def collect(self):
        snapshots: list[tuple[int, dict]] = []
        for handle in self._router.handles:
            if not handle.lock.acquire(blocking=False):
                continue
            try:
                if handle.alive:
                    snapshots.append((handle.shard_id, handle.call("stats")))
            except ShardError:
                pass
            finally:
                handle.lock.release()
        lines: list[str] = []
        for key in sorted(snapshots[0][1]) if snapshots else ():
            metric = "tintin_shard_" + key
            kind = "gauge" if key in SchedulerStats.HIGH_WATER else "counter"
            lines.append("# TYPE %s %s" % (metric, kind))
            lines.extend(
                '%s{shard="%d"} %s' % (metric, shard_id, snapshot[key])
                for shard_id, snapshot in snapshots
            )
        return lines
