"""Per-session staged updates: the multi-client generalization of the
paper's event tables.

The paper stages one proposed update in the global ``ins_T``/``del_T``
tables and validates it at ``safeCommit``.  Event tables are naturally
*per-client* state, so a :class:`Session` owns a private staged update:
a :class:`~repro.core.event_tables.StagedEvents` — the class the default
session's capture triggers stage through — over shape-identical ins/del
tables that live outside the shared catalog.  Another session can never
observe them: base tables hold only committed data, and the global
event tables hold only the default session's update.

Reads are snapshot-consistent.  Every query — with or without staged
events — takes the scheduler's shared read lock, so it sees base state
entirely before or entirely after any other session's commit — never
halfway through one.  When the session has staged events of its own,
the read additionally sees them ("read your own writes") through the
**overlay-merge** execution path: the staged events ride along as a
:class:`~repro.minidb.storage.TableOverlay` map inside the execution
context, and scan/probe operators merge them on the fly (staged
deletes masked with multiset semantics, staged inserts appended).
Base tables are never touched, ``Table.data_version`` and row counts
stay stable (so pure reads cannot invalidate cached plans), and any
number of readers — with or without staged events — run concurrently.
The tests hold these reads to a splice-then-undo oracle of their own.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Optional

from ..errors import ExecutionError, SessionExpired
from ..minidb.schema import normalize
from ..minidb.transactions import TransactionManager
from ..sqlparser import nodes as n

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.safe_commit import CommitResult
    from ..core.tintin import Tintin
    from .scheduler import CommitScheduler


class Session:
    """One client's view of the database: private staging + snapshot reads.

    Created via :meth:`repro.core.Tintin.create_session` (or the
    :class:`SessionManager` directly).  All staging respects the same
    net-event invariants the capture triggers maintain, evaluated
    against the session's own overlay — never another session's.
    """

    def __init__(
        self,
        session_id: str,
        tintin: "Tintin",
        scheduler: "CommitScheduler",
        manager: Optional["SessionManager"] = None,
        ttl: Optional[float] = None,
        priority: int = 0,
    ):
        self.session_id = session_id
        self.tintin = tintin
        self.db = tintin.db
        self.scheduler = scheduler
        self._manager = manager
        self.ttl = ttl
        #: admission priority (higher = more trusted, shed last); used
        #: by the network front end's load shedder — per-source trust,
        #: cf. the trust-mappings idea in PAPERS.md
        self.priority = priority
        self.created_at = time.monotonic()
        self.last_used = self.created_at
        #: this session's staged update, in private tables
        self.staged = tintin.events.staged.private()
        #: per-session undo log: bound to the committing thread while
        #: this session's batch touches base tables
        self.transactions = TransactionManager()
        self._expired = False
        #: commit-in-flight pin count: while positive, idle/TTL expiry
        #: must not reap the session (its staged events are owned by a
        #: queued commit request); guarded by ``_pin_lock``
        self._pins = 0
        self._pin_lock = threading.Lock()
        self.commits = 0
        self.rejections = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def expired(self) -> bool:
        if self._expired:
            return True
        if (
            self.ttl is not None
            and not self.pinned
            and time.monotonic() - self.last_used > self.ttl
        ):
            self.expire()  # lapsed TTL: discard staged events too
        return self._expired

    @property
    def pinned(self) -> bool:
        """Whether a commit currently owns this session's staged events."""
        with self._pin_lock:
            return self._pins > 0

    @contextmanager
    def _commit_pin(self):
        """Pin the session for the duration of a commit: expiry sweeps
        skip pinned sessions, and a direct ``expire()`` leaves the
        staged events alone (the queued commit request owns them)."""
        with self._pin_lock:
            self._pins += 1
        try:
            yield
        finally:
            with self._pin_lock:
                self._pins -= 1

    def expire(self) -> int:
        """Kill the session, discarding any staged events.

        Returns the number of staged event rows dropped — they were
        never validated or applied, exactly as if the client had
        disconnected before calling safeCommit.  If a commit is in
        flight (the session is pinned), the staged events are *not*
        discarded: they already belong to the queued commit request,
        whose validate-and-apply decision stands; the session merely
        becomes unusable afterwards.
        """
        self._expired = True
        dropped = 0 if self.pinned else self.staged.truncate()
        if self._manager is not None:
            self._manager._forget(self.session_id)
        return dropped

    close = expire

    def _check_alive(self) -> None:
        if self.expired:
            raise SessionExpired(
                f"session {self.session_id!r} has expired; its staged "
                "events were discarded"
            )
        self.last_used = time.monotonic()

    # -- staging -----------------------------------------------------------

    def _stage_locked(self, stage, table: str, rows: Iterable[tuple]) -> int:
        """Validate ``rows`` against ``table`` and stage them through
        ``stage``; caller must hold the scheduler read lock."""
        base = self.db.table(table)
        validated = base.validate_rows(rows)
        stage(base, validated)
        return len(validated)

    def insert(self, table: str, rows: Iterable[tuple]) -> int:
        """Stage row insertions (the session-private counterpart of the
        INSTEAD OF capture trigger)."""
        self._check_alive()
        with self.scheduler.rwlock.read_locked():
            return self._stage_locked(self.staged.stage_insert, table, rows)

    def delete(self, table: str, rows: Iterable[tuple]) -> int:
        """Stage row deletions against the current base state."""
        self._check_alive()
        with self.scheduler.rwlock.read_locked():
            return self._stage_locked(self.staged.stage_delete, table, rows)

    def execute(self, sql: str):
        """Execute one SQL statement in this session.

        The text goes through the database's statement cache
        (:meth:`repro.minidb.database.Database.statement`).
        INSERT/DELETE/UPDATE are staged privately (an UPDATE stages
        delete-old + insert-new, the paper's event model).  SELECTs run
        as snapshot reads.  DDL is rejected — schema changes go through
        the database facade, not a session.
        """
        self._check_alive()
        entry, params, _ = self.db.statement(sql)
        stmt = entry.stmt
        if isinstance(stmt, n.SelectStatement):
            with self.scheduler.rwlock.read_locked():
                return entry.prepared.execute(params, self.staged.overlays())
        # resolution (WHERE/SELECT evaluation against base) and staging
        # happen under ONE read-lock acquisition: a commit window
        # sliding between them could make the resolved rows stale
        # (e.g. an UPDATE re-inserting a row another session deleted)
        if isinstance(stmt, n.Insert):
            with self.scheduler.rwlock.read_locked():
                table, rows = self.db.resolve_insert_rows(entry, params)
                return self._stage_locked(self.staged.stage_insert, table.name, rows)
        if isinstance(stmt, n.Delete):
            # WHERE is evaluated against the base table only — faithful
            # INSTEAD OF trigger behaviour (see event_tables docstring)
            with self.scheduler.rwlock.read_locked():
                table, victims = self.db.resolve_delete_rows(entry, params)
                return self._stage_locked(self.staged.stage_delete, table.name, victims)
        if isinstance(stmt, n.Update):
            with self.scheduler.rwlock.read_locked():
                table, old_rows, new_rows = self.db.resolve_update_rows(
                    entry, params
                )
                self._stage_locked(self.staged.stage_delete, table.name, old_rows)
                self._stage_locked(self.staged.stage_insert, table.name, new_rows)
            return len(old_rows)
        raise ExecutionError(
            f"sessions cannot execute {type(stmt).__name__} — only DML "
            "and SELECT run inside a session"
        )

    def discard(self) -> int:
        """Drop the staged update without validating it."""
        self._check_alive()
        return self.staged.truncate()

    # -- introspection -----------------------------------------------------

    def pending_counts(self) -> dict[str, tuple[int, int]]:
        return self.staged.counts()

    def has_pending_events(self) -> bool:
        return any(ins or dels for ins, dels in self.staged.counts().values())

    # -- snapshot reads ----------------------------------------------------

    def query(self, sql: str):
        """Run a SELECT against a consistent snapshot: committed base
        state plus (only) this session's staged events.

        Staged events are merged at read time as table overlays inside
        the execution context — base tables are never touched, so the
        read runs under the **shared** lock concurrently with every
        other reader, perturbs no ``data_version`` stamp or row count,
        and can never spuriously invalidate a cached plan.
        """
        self._check_alive()
        with self.scheduler.rwlock.read_locked():
            return self.db.query(sql, overlays=self.staged.overlays())

    def rows(self, table: str) -> list[tuple]:
        """The session's effective rows of one table: base − staged
        deletions + staged insertions (multiset semantics: one staged
        delete of a duplicated row hides exactly one copy)."""
        self._check_alive()
        base = self.db.table(table)
        with self.scheduler.rwlock.read_locked():
            overlay = (self.staged.overlays() or {}).get(normalize(table))
            if overlay is None:
                return base.rows_snapshot()
            return list(overlay.scan(base))

    # -- committing --------------------------------------------------------

    def commit(
        self,
        deadline: Optional[float] = None,
        obs: Optional[object] = None,
    ) -> "CommitResult":
        """Validate-and-apply this session's staged update through the
        serialized commit scheduler (its record may share one fsync
        with other sessions' commits of the same window).

        The session is *pinned* for the duration: an idle-expiry sweep
        (or TTL lapse) racing the queued request cannot discard the
        staged events mid-validation.  ``deadline`` (an absolute
        ``time.monotonic()`` instant) cancels the request before its
        violation-view pass once lapsed — the pin is released either
        way when this call returns.  ``obs``
        (:class:`repro.obs.trace.CommitObs`) carries an in-progress
        trace into the scheduler; the caller keeps ownership.

        The attempt takes the staged update out first, so a commit
        that is rejected or raises has consumed it: the staging is
        empty afterwards either way.  Rows staged on a table dropped
        since are not committed — they went with the table, as the
        default session's go with its event tables — and the rest of
        the update commits (see ``Tintin.safe_commit``).
        """
        self._check_alive()  # unpinned: a lapsed TTL raises here
        with self._commit_pin():
            # re-check: an expiry sweep may have reaped the session
            # between the TTL check and the pin (its events were then
            # discarded — there is nothing left to commit)
            self._check_alive()
            inserts, deletes = self.staged.take()  # events move into the request
            result = self.scheduler.commit_events(
                inserts,
                deletes,
                transactions=self.transactions,
                session=self,
                deadline=deadline,
                obs=obs,
            )
        if result.committed:
            self.commits += 1
        else:
            self.rejections += 1
        return result

    safe_commit = commit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "expired" if self.expired else "active"
        return f"Session({self.session_id!r}, {state})"


class SessionManager:
    """Creates, tracks and expires sessions for one :class:`Tintin`."""

    _ids = itertools.count(1)

    def __init__(
        self,
        tintin: "Tintin",
        default_ttl: Optional[float] = None,
        gather_seconds: float = 0.0,
    ):
        from .scheduler import CommitScheduler  # local: avoid import cycle

        self.tintin = tintin
        self.default_ttl = default_ttl
        self.scheduler = CommitScheduler(tintin, gather_seconds=gather_seconds)
        self._sessions: dict[str, Session] = {}
        self._lock = threading.Lock()
        #: the background expiry sweeper (see :meth:`start_sweeper`)
        self._sweeper: Optional[threading.Thread] = None
        self._sweeper_stop = threading.Event()
        self._sweeper_max_idle: Optional[float] = None
        self.swept_sessions = 0

    def create(
        self, ttl: Optional[float] = None, priority: int = 0
    ) -> Session:
        session_id = f"s{next(self._ids):04d}"
        session = Session(
            session_id,
            self.tintin,
            self.scheduler,
            manager=self,
            ttl=ttl if ttl is not None else self.default_ttl,
            priority=priority,
        )
        with self._lock:
            self._sessions[session_id] = session
        return session

    def get(self, session_id: str) -> Session:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None or session.expired:
            raise SessionExpired(
                f"session {session_id!r} is unknown or expired"
            )
        return session

    def _forget(self, session_id: str) -> None:
        with self._lock:
            self._sessions.pop(session_id, None)

    def expire_idle(self, max_idle_seconds: float) -> list[str]:
        """Expire every session idle longer than ``max_idle_seconds``;
        their staged events are discarded.  Returns the expired ids.

        Sessions with a commit in flight are skipped: the queued
        request owns their staged events, and reaping them
        mid-validation would discard (or worse, half-discard) an
        update the scheduler is about to decide on.  A session that
        pins itself between the scan and the ``expire()`` call is
        still safe — ``expire()`` leaves a pinned session's events
        alone.
        """
        now = time.monotonic()
        with self._lock:
            idle = [
                s
                for s in self._sessions.values()
                if now - s.last_used > max_idle_seconds and not s.pinned
            ]
        for session in idle:
            if session.pinned:  # pinned since the scan: leave it alone
                continue
            session.expire()
        return [s.session_id for s in idle if s.expired]

    # -- the background sweeper --------------------------------------------

    def sweep(self) -> list[str]:
        """One expiry pass: reap every session whose TTL has lapsed
        (and, when the sweeper was configured with ``max_idle``, every
        session idle longer than that).  Pinned sessions are skipped —
        the same rules as :meth:`expire_idle`.  Returns reaped ids."""
        reaped: list[str] = []
        with self._lock:
            candidates = list(self._sessions.values())
        for session in candidates:
            # touching .expired performs the TTL self-expiry (and
            # respects the commit pin); before the sweeper existed this
            # only ever happened when some other call wandered by
            if session.expired:
                reaped.append(session.session_id)
        if self._sweeper_max_idle is not None:
            reaped.extend(self.expire_idle(self._sweeper_max_idle))
        self.swept_sessions += len(reaped)
        return reaped

    def start_sweeper(
        self, interval: float = 1.0, max_idle: Optional[float] = None
    ) -> None:
        """Run :meth:`sweep` every ``interval`` seconds in a daemon
        thread, so TTL/idle expiry no longer depends on another call
        happening to touch the manager.  Idempotent; stopped by
        :meth:`stop_sweeper` (which ``Tintin.close`` calls)."""
        if self._sweeper is not None and self._sweeper.is_alive():
            self._sweeper_max_idle = max_idle
            return
        self._sweeper_max_idle = max_idle
        self._sweeper_stop.clear()

        def run() -> None:
            while not self._sweeper_stop.wait(timeout=interval):
                self.sweep()

        self._sweeper = threading.Thread(
            target=run, name="tintin-session-sweeper", daemon=True
        )
        self._sweeper.start()

    def stop_sweeper(self) -> None:
        """Stop the background sweeper and wait for it to exit."""
        thread = self._sweeper
        if thread is None:
            return
        self._sweeper_stop.set()
        thread.join(timeout=5)
        self._sweeper = None

    @property
    def sweeper_running(self) -> bool:
        thread = self._sweeper
        return thread is not None and thread.is_alive()

    @property
    def active_count(self) -> int:
        with self._lock:
            return len(self._sessions)
