"""The serialized group-commit scheduler.

``safeCommit`` must remain what the paper made it: one update,
validated against the stored violation views, applied or rejected
atomically.  That step is written once — the *commit unit*,
:meth:`repro.core.safe_commit.SafeCommit.__call__` — as a serial
composition of stages, with the cross-cutting concerns attached at the
stage boundaries:

    deadline gate → ``scheduler.validate`` fault point → validate (the
    violation views over the update's overlays; spans ``validate`` /
    ``check.<view>``) → deadline gate → apply (one trigger-free
    physical batch under a transaction manager; span ``apply``) →
    log (one unsynced WAL record; span
    ``wal.append``) → flush (one fsync, then the withheld results
    become visible; span ``wal.fsync``)

Every route to a commit is a caller of that unit and differs from the
others in data, not code.  Every update it is handed was taken from a
:class:`~repro.core.event_tables.StagedEvents` — the default session's,
a session's, or a shard worker's slice netted through its default one:

=======================  ==================  ==============  =======  ========
route                    members             txn manager     record   flush
=======================  ==================  ==============  =======  ========
stored procedure /       the default         database's      batch    inline
default session, no      session's update    own, closed
sessions                 (no queue, no
                         window)
default session once     the default         fresh, closed   batch    window's
sessions exist           session's update,
                         queued
a commit window          its members, one    member's,       batch    window's
                         by one              closed
``durability="commit"``  a window of one     member's,       batch    inline
                                             closed
2PC prepare              participant's       fresh, held     prepare  inline
                         netted slice        open
2PC adopt (recovery)     in-doubt slice, the fresh, held     none     none
                         apply stage alone   open
2PC decide               prepared slice:     the held one,   decide   rides the
                         resume, or undo     closed/undone            log's next
                                                                      fsync
=======================  ==================  ==============  =======  ========

With many sessions proposing updates concurrently the scheduler
serializes exactly that step and amortizes only its fsync.  Commits
are queued FIFO; whichever client thread first grabs the leader lock
drains the queue and processes the whole batch inside a single
exclusive window (one write-lock acquisition).  Inside the window the
commit unit runs once per member, in FIFO order: each member is
validated against the state its predecessors left, exactly as if the
sessions had committed one after another, so a rejection lands on the
session whose events violate and no member's apply can mask another
member's violation.  Group commit is the one shared fsync: the
committed members' WAL records ride the window until a single flush
makes them all durable.

The leader runs that flush itself, right after the write lock is
released: sessions stage their next updates under the read lock while
the fsync waits on the disk, and acknowledgements always wait for the
fsync covering their record.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..errors import DurabilityError
from ..minidb.transactions import TransactionManager
from ..core.safe_commit import CommitResult, deadline_result
from ..durability.manager import touched_counts
from .locks import ReadWriteLock
from ..obs.metrics import StatsBlock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.tintin import Tintin
    from .session import Session


def commit_verdict(result: CommitResult) -> str:
    """The one-word outcome label used in traces, metrics and the
    slow-commit log: committed / deadline / violation / error."""
    if result.committed:
        return "committed"
    if result.deadline_expired:
        return "deadline"
    if result.violations:
        return "violation"
    return "error"


@dataclass
class _PendingCommit:
    """One safeCommit request (events already snapshotted): a queued
    commit, or the member a 2PC prepare hands the commit unit."""

    session: Optional["Session"]
    inserts: dict[str, list[tuple]]
    deletes: dict[str, list[tuple]]
    transactions: TransactionManager
    #: absolute ``time.monotonic()`` deadline, or None for "no limit".
    #: Checked at the window start and by the commit unit's gates
    #: before and after the violation-view pass, so a doomed request
    #: is cancelled before the expensive work instead of after it.
    deadline: Optional[float] = None
    done: threading.Event = field(default_factory=threading.Event)
    result: Optional[CommitResult] = None
    #: observation context (:class:`repro.obs.trace.CommitObs`) when
    #: this commit is being traced or slow-logged; None on the default
    #: path — every stage point guards on exactly this
    obs: Optional[object] = None
    #: ``time.monotonic()`` at enqueue, for the queue.wait span (only
    #: stamped when ``obs`` is present)
    enqueued_at: float = 0.0


class SchedulerStats(StatsBlock):
    """Counters describing how commits were scheduled.

    Mutate through :meth:`bump` and read through :meth:`snapshot`: the
    window leaders and metrics readers (the ``/metrics`` endpoint)
    touch these concurrently, and ``+=`` on an attribute is neither
    atomic nor consistent across fields — an unguarded reader could
    see ``commits`` from one window and ``batches`` from another.

    Notable fields: ``deadline_expired`` counts requests whose deadline
    lapsed before their violation-view pass ran (cancelled inside the
    scheduler, never validated or applied); ``serial_commits`` equals
    ``commits`` — every member runs the commit unit on its own — and
    stays for readers of the serial share; ``max_group_size`` is the
    largest window, whose committed members shared one fsync;
    ``wal_fsyncs`` < ``wal_appends`` is group commit at work (several
    commits' records shared one fsync).
    """

    COUNTERS = (
        "batches",
        "commits",
        "serial_commits",
        "deadline_expired",
        "wal_appends",
        "wal_fsyncs",
        "prepares",
        "prepared_commits",
        "prepared_aborts",
    )
    ACCUMULATORS = ("check_seconds",)
    HIGH_WATER = ("max_group_size",)
    PREFIX = "tintin_scheduler"
    HELP = {
        "commits": "Commits applied by the scheduler",
        "max_group_size": "Largest commit window (members sharing one fsync)",
        "deadline_expired": "Commits cancelled in the scheduler after their deadline lapsed",
        "prepares": "Two-phase commit prepare votes logged (yes votes)",
        "prepared_commits": "Prepared transactions committed by coordinator decision",
        "prepared_aborts": "Prepared transactions aborted by coordinator decision",
    }


class CommitScheduler:
    """Serializes safeCommit across sessions; a window's committed
    members share one fsync."""

    #: the most requests one window drains from the queue
    max_batch = 64

    def __init__(self, tintin: "Tintin", gather_seconds: float = 0.0):
        self.tintin = tintin
        self.db = tintin.db
        self.events = tintin.events
        #: upper bound on how long a leader waits before draining the
        #: queue, giving concurrent submitters time to join the batch.
        #: The wait is adaptive — it polls in slices and stops as soon
        #: as arrivals settle — so a lone client pays roughly one slice,
        #: not the whole window.  0 disables gathering entirely (only
        #: arrivals during the previous window batch naturally).
        self.gather_seconds = gather_seconds
        #: readers (session queries) vs the exclusive commit window
        self.rwlock = ReadWriteLock()
        # default-session trigger captures (plain db.execute DML) take
        # the read side too, so they can never interleave with a commit
        # window that is using the global event tables as scratchpad
        self.events.set_capture_gate(self.rwlock.read_locked)
        self.stats = SchedulerStats()
        tintin.registry.register(self.stats)
        self._queue: deque[_PendingCommit] = deque()
        self._queue_lock = threading.Lock()
        self._leader_lock = threading.Lock()
        #: fault-injection hook (``repro.net.faults.FaultInjector.fire``
        #: when installed): called with a point name at well-defined
        #: spots in the commit pipeline so tests can stall or kill the
        #: scheduler deterministically.  None in production.
        self.fault_hook: Optional[callable] = None
        #: two-phase commit participant state: gid -> (inserts, deletes,
        #: open TransactionManager) of the prepared-but-undecided
        #: distributed transaction.  The tentative apply already
        #: happened (undo log held open); the coordinator's decision
        #: either commits it (close the undo log, log the decide) or
        #: aborts it (roll the undo log back).  While non-empty,
        #: ordinary commit windows are refused — a window validated
        #: against tentative state could be invalidated by the abort.
        self._prepared: dict[str, tuple[dict, dict, TransactionManager]] = {}

    def _fault(self, point: str, **ctx) -> None:
        hook = self.fault_hook
        if hook is not None:
            hook(point, **ctx)

    # -- lifecycle ---------------------------------------------------------

    @contextmanager
    def quiesced(self):
        """Hold the leader critical section: no commit window can
        execute while the caller is inside, and none is in flight — a
        window's flush runs before its leader lets go.  This is what
        ``Tintin.close`` wraps its final checkpoint and log detach in,
        so an in-flight group commit is fully flushed before the
        shutdown — or queued after it (and then commits non-durably,
        like any post-close commit).
        """
        with self._leader_lock:
            yield

    # -- submission --------------------------------------------------------

    def commit_events(
        self,
        inserts: dict[str, list[tuple]],
        deletes: dict[str, list[tuple]],
        transactions: Optional[TransactionManager] = None,
        session: Optional["Session"] = None,
        deadline: Optional[float] = None,
        obs: Optional[object] = None,
    ) -> CommitResult:
        """Queue an explicit event batch (the default-session facade
        routes the globally captured update through here).

        ``deadline`` is an absolute ``time.monotonic()`` instant: a
        request still undecided past it is cancelled before its
        violation-view pass (``CommitResult.deadline_expired`` set, no
        apply, no WAL frame) — the caller may safely retry.

        ``obs`` (:class:`repro.obs.trace.CommitObs`) rides along with
        the request through the window so each pipeline stage lands in
        its trace.  A caller passing one keeps ownership (it finishes
        the trace); with none passed, the facade's tracer settings
        decide — commits stay observation-free (``pending.obs is
        None``, the zero-overhead path) unless tracing or slow-commit
        logging is enabled, in which case the obs is created *and
        finished* here, whether the request is decided or its window
        fails.
        """
        owned = None
        if obs is None:
            obs = owned = self.tintin._make_obs()
        pending = _PendingCommit(
            session=session,
            inserts=inserts,
            deletes=deletes,
            transactions=transactions or TransactionManager(),
            deadline=deadline,
            obs=obs,
            enqueued_at=time.monotonic() if obs is not None else 0.0,
        )
        with self._queue_lock:
            self._queue.append(pending)
        # leader election: whoever gets the lock drains the queue and
        # processes everyone's requests.  The acquire is deliberately
        # non-blocking: done events are set just before the leader
        # releases the lock, so followers blocking on acquire would
        # form a convoy — each woken follower grabs and releases the
        # lock in turn before the next round's leader can start, which
        # measurably fragments batching.  A follower instead waits on
        # its done event with a short timeout (the retry covers the
        # case of a leader that exited without draining its request).
        try:
            while not pending.done.is_set():
                if self._leader_lock.acquire(blocking=False):
                    try:
                        if not pending.done.is_set():
                            self._process_batch()
                    finally:
                        self._leader_lock.release()
                # a no-op for an immediately-decided request; while
                # another leader's window holds it, the wait stops this
                # thread from spinning on re-election
                pending.done.wait(timeout=0.0005)
        finally:
            if owned is not None:
                owned.finish(
                    "error"
                    if pending.result is None
                    else commit_verdict(pending.result)
                )
        assert pending.result is not None
        return pending.result

    # -- the commit unit's callers -----------------------------------------

    @contextmanager
    def _exclusive_window(self):
        """The exclusion every validating caller of the commit unit
        owns: the write lock, with the global event tables empty.

        No trigger toggling is needed: the unit's apply writes base
        tables directly (trigger-free physical ops), and capture
        triggers stay armed so a default-session INSERT can never slip
        past staging — its capture blocks on the read lock until the
        window ends.  The default session's staged update lives in the
        global event tables; it is taken out for the window so each
        validation — which overlays its events on those tables — sees
        exactly its own update, and loaded back at window end.
        """
        with self.rwlock.write_locked():
            stashed = self.events.staged.take()
            try:
                yield
            finally:
                self.events.staged.load(*stashed)

    def _unit(
        self, member: _PendingCommit, gid: Optional[str] = None
    ) -> tuple[CommitResult, bool]:
        """Run the commit unit over one member's events, gated by its
        deadline and observed by its trace, and count the record it
        appends.  With ``gid`` it is a 2PC prepare: the undo log stays
        open and the record is a prepare record.  Returns the unit's
        ``(result, logged)``; a logged result must be withheld until
        the flush."""
        result, logged = self.tintin.safe_commit_proc(
            self.db,
            member.inserts,
            member.deletes,
            member.transactions,
            hold_open=gid is not None,
            deadline=member.deadline,
            obs=member.obs,
            log=self.tintin.durability,
            gid=gid,
            fault=self.fault_hook,
        )
        if logged:
            self.stats.bump(wal_appends=1)
        return result, logged

    # -- two-phase commit (participant side) -------------------------------

    @property
    def has_prepared(self) -> bool:
        """Whether a prepared-but-undecided transaction is pending.
        Checkpointing must be refused while this holds: a checkpoint
        truncates the WAL, and the prepare record *is* the vote — the
        only evidence recovery has that this engine said yes."""
        return bool(self._prepared)

    def prepare_events(
        self,
        gid: str,
        inserts: dict[str, list[tuple]],
        deletes: dict[str, list[tuple]],
        deadline: Optional[float] = None,
        obs: Optional[object] = None,
    ) -> CommitResult:
        """Phase one of two-phase commit: the commit unit stopped after
        its log stage — validated, tentatively applied with the undo
        log held open, the prepare record appended — and that record
        fsynced, which *is* the yes vote.

        A ``committed=True`` result means this engine votes yes and is
        now bound by the coordinator's decision: every ordinary commit
        window is refused until :meth:`decide_prepared` resolves the
        transaction.  Any other result is a no vote — nothing stays
        applied, no durable record exists, and the coordinator must
        abort the global transaction.  The tentative apply verifies the
        physical constraints (unique keys, deferred FKs) NOW, so a yes
        vote guarantees the later commit cannot fail.

        The router serializes cross-shard transactions per participant
        (it holds every participant's shard lock for the whole 2PC),
        so at most one prepare is ever outstanding here; a second one
        arriving anyway is voted down, not queued.
        """
        prepare_start = time.monotonic() if obs is not None else 0.0
        with self._leader_lock:
            if gid in self._prepared:
                raise ValueError(f"transaction {gid!r} is already prepared")
            if self._prepared:
                return CommitResult(
                    committed=False,
                    constraint_error=(
                        "participant busy: another transaction is prepared "
                        "and undecided"
                    ),
                )
            self._fault("scheduler.prepare", gid=gid)
            txn = TransactionManager()
            member = _PendingCommit(
                None, inserts, deletes, txn, deadline=deadline, obs=obs
            )
            try:
                with self._exclusive_window():
                    result, logged = self._unit(member, gid=gid)
                if logged:
                    self._flush([(member, result)])
            except BaseException as exc:
                # the vote never became durable — and an unloggable
                # vote is a no vote: without the durable prepare record
                # a crash would silently forget the yes, so undo the
                # tentative apply
                if txn.in_transaction:
                    with self.rwlock.write_locked():
                        txn.rollback()
                if isinstance(exc, (OSError, DurabilityError)):
                    return CommitResult(
                        committed=False,
                        constraint_error=f"prepare logging failed: {exc}",
                    )
                raise
            if result.committed:
                self._prepared[gid] = (inserts, deletes, txn)
                self.stats.bump(prepares=1)
            elif result.deadline_expired:
                self.stats.bump(deadline_expired=1)
            if obs is not None:
                obs.record(
                    "prepare", prepare_start, time.monotonic(), gid=gid
                )
            return result

    def adopt_prepared(
        self,
        gid: str,
        inserts: dict[str, list[tuple]],
        deletes: dict[str, list[tuple]],
    ) -> None:
        """Re-enter a recovered in-doubt transaction as prepared.

        Recovery replays the WAL's prepare record but not its events
        (``RecoveryReport.in_doubt``); the router then resolves the
        transaction against the coordinator's decision log.  Adopting
        runs the commit unit's apply stage alone, undo log held open
        exactly as :meth:`prepare_events` left it originally — and
        writes NO new WAL record (the original prepare record is still
        in the log) — so the subsequent :meth:`decide_prepared` behaves
        identically either way.
        """
        with self._leader_lock:
            if gid in self._prepared:
                raise ValueError(f"transaction {gid!r} is already prepared")
            txn = TransactionManager()
            with self.rwlock.write_locked():
                self.tintin.safe_commit_proc.apply(
                    self.db, inserts, deletes, txn, hold_open=True
                )
            self._prepared[gid] = (inserts, deletes, txn)

    def decide_prepared(
        self,
        gid: str,
        verdict: bool,
        obs: Optional[object] = None,
    ) -> Optional[CommitResult]:
        """Phase two: enforce the coordinator's decision on a prepared
        transaction — resume the stopped unit, or roll it back.
        Returns None for an unknown gid — a duplicate decide (the
        router re-decides after crashing mid-resolution) is an
        idempotent no-op, never an error.

        The decide record is appended **unsynced**.  That is sound for
        two reasons: the coordinator's fsynced decision log already
        resolves a lost decide (the gid comes back in doubt and is
        driven to the same verdict; a lost abort is an absent gid,
        which is abort), and every later record of this log is
        appended after the decide, so whichever fsync acknowledges
        later state makes the decide durable first."""
        decide_start = time.monotonic() if obs is not None else 0.0
        with self._leader_lock:
            entry = self._prepared.pop(gid, None)
            if entry is None:
                return None
            inserts, deletes, txn = entry
            self._fault("scheduler.decide", gid=gid, verdict=verdict)
            counts = None
            with self.rwlock.write_locked():
                if verdict:
                    # the tentative apply becomes permanent: close the
                    # undo log, log the decision with post-apply counts
                    # for replay checking
                    txn.commit()
                    counts = touched_counts(self.db, inserts, deletes)
                else:
                    txn.rollback()
            manager = self.tintin.durability
            if manager is not None:
                # unsynced, and no fsync counted: see the docstring
                manager.log_decide(gid, verdict, counts=counts)
                self.stats.bump(wal_appends=1)
            if verdict:
                self.stats.bump(commits=1, prepared_commits=1)
                result = CommitResult(committed=True)
            else:
                self.stats.bump(prepared_aborts=1)
                result = CommitResult(
                    committed=False,
                    constraint_error="aborted by coordinator decision",
                )
            if obs is not None:
                obs.record(
                    "decide",
                    decide_start,
                    time.monotonic(),
                    gid=gid,
                    verdict="commit" if verdict else "abort",
                )
            return result

    # -- the commit window -------------------------------------------------

    def _flush(self, deferred: list) -> None:
        """The durability point: one fsync makes every record the
        window appended durable; then, and only then, the withheld
        committed results become visible.  ``deferred`` holds the
        window's ``(member, result)`` pairs.

        Failure-safe: whatever happens, every member gets a result and
        its done event — a dying flush must not strand the committing
        sessions in their wait loops — and the failure is re-raised.
        A failed fsync rolls back the WAL's unsynced frames and
        poisons the log, which then refuses every later durable
        commit, so a rejected commit can never become durable later.
        The window's rows, however, were already applied under the
        write lock and stay visible in memory — the engine serves
        state ahead of its log until it is reopened, the same
        divergence a PostgreSQL instance has between a failed WAL
        flush and its PANIC restart.
        """
        start = time.monotonic()
        try:
            self.tintin.durability.sync()
            self.stats.bump(wal_fsyncs=1)
            end = time.monotonic()
            for pending, result in deferred:
                # spans land before done fires: once done is set the
                # waiting client thread may finish (and ship) the trace
                if pending.obs is not None:
                    pending.obs.record("wal.fsync", start, end)
                pending.result = result
                pending.done.set()
        except BaseException as exc:
            for pending, _ in deferred:
                if pending.result is None:
                    pending.result = CommitResult(
                        committed=False,
                        constraint_error=f"log flush failed: {exc}",
                    )
                    pending.done.set()
            raise

    def _gather(self) -> None:
        """Wait (briefly) for concurrent submitters to join the batch.

        Sleeping releases the GIL, which is what actually lets the
        other client threads finish staging and enqueue; polling in
        slices ends the wait one slice after arrivals settle.
        """
        deadline = time.perf_counter() + self.gather_seconds
        interval = self.gather_seconds / 4
        with self._queue_lock:
            previous = len(self._queue)
        while time.perf_counter() < deadline:
            time.sleep(interval)
            with self._queue_lock:
                current = len(self._queue)
            if current >= self.max_batch or (previous and current == previous):
                break
            previous = current

    def _process_batch(self) -> None:
        """Drain, decide and (when durable) flush one commit window."""
        # a prepared-but-undecided distributed transaction owns the
        # engine: its tentative writes are applied with the undo log
        # open, so a window validated now could be invalidated by the
        # coordinator's abort.  Refuse the window; the submitters'
        # retry loops re-elect a leader once the decision lands (2PC
        # decision windows are short — one coordinator round trip).
        if self._prepared:
            return
        # per-commit durability (durability="commit") means NO group
        # commit: the WAL order is the commit order and every commit
        # owns the exclusive window for its whole validate-apply-log-
        # fsync critical section, exactly the classic pre-group-commit
        # engine (InnoDB's prepare_commit_mutex era).  One request per
        # window, no gathering — batching is the very thing the mode
        # disables.
        manager = self.tintin.durability
        per_commit = manager is not None and manager.mode == "commit"
        if self.gather_seconds and not per_commit:
            self._gather()
        with self._queue_lock:
            batch = []
            limit = 1 if per_commit else self.max_batch
            while self._queue and len(batch) < limit:
                batch.append(self._queue.popleft())
        if not batch:
            return
        # deadline triage at the window door: a request already past
        # its deadline is cancelled before any validation work starts
        # (its done event fires now — it never enters the window)
        self._fault("scheduler.window", batch=len(batch))
        alive: list[_PendingCommit] = []
        now = time.monotonic()
        for pending in batch:
            if pending.deadline is not None and now > pending.deadline:
                pending.result = deadline_result()
                pending.done.set()
                self.stats.bump(deadline_expired=1)
                continue
            alive.append(pending)
            if pending.obs is not None:
                pending.obs.record("queue.wait", pending.enqueued_at, now)
        batch = alive
        if not batch:
            return
        self.stats.bump(
            batches=1, commits=len(batch), serial_commits=len(batch)
        )
        self.stats.record_max(max_group_size=len(batch))
        start = time.perf_counter()
        #: committed members whose WAL records are appended but not yet
        #: durable; their results are withheld until the window flush
        deferred: list[tuple[_PendingCommit, CommitResult]] = []
        try:
            with self._exclusive_window():
                # the paper's safeCommit, once per member in FIFO
                # order: each validation sees its predecessors' applies
                for pending in batch:
                    result, logged = self._unit(pending)
                    if logged:
                        deferred.append((pending, result))
                    else:
                        pending.result = result
                        if result.deadline_expired:
                            self.stats.bump(deadline_expired=1)
        except BaseException as exc:
            # an unexpected engine error must not strand the batch —
            # but members that already committed (applied and
            # WAL-appended, results riding in ``deferred``) must not
            # be swallowed by a later member's failure: flush their
            # records and acknowledge them first — every deferred
            # member must be durably decided before the leader
            # propagates the window failure.  The flush is
            # failure-safe — if it dies itself it assigns rejections
            # (and its error must not mask the window's), so either
            # way every deferred member is decided here.  Only the
            # truly undecided members then get the window-failure
            # rejection, and the leader's own caller sees the original
            # exception.
            if deferred:
                try:
                    self._flush(deferred)
                except (OSError, DurabilityError):
                    pass
            for pending in batch:
                if pending.result is None:
                    pending.result = CommitResult(
                        committed=False,
                        constraint_error=f"commit window failed: {exc}",
                    )
            raise
        finally:
            self.stats.bump(check_seconds=time.perf_counter() - start)
            # members with an immediate verdict (rejections, and every
            # member when nothing was logged) are released here; the
            # committed-and-logged ones are withheld until the flush
            for pending in batch:
                if pending.result is not None:
                    pending.done.set()
        if deferred:
            # the durability point — the WRITE lock is already
            # released (early lock release, as in Aether-style group
            # commit), so sessions stage their next updates under the
            # read lock while the fsync waits on the disk.  The leader
            # lock is still held, so ``commit`` mode stays one fsync
            # per commit, strictly in commit order.  Acknowledgements
            # wait for the flush: no client is ever told "committed"
            # before its record is on disk.
            self._flush(deferred)
