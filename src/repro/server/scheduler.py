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
    ``note_applied`` → log (one unsynced WAL record; span
    ``wal.append``) → flush (one fsync, then the withheld results
    become visible; span ``wal.fsync``)

Every route to a commit is a caller of that unit and differs from the
others in data, not code:

=======================  ==================  ==============  =======  ========
route                    members             txn manager     record   flush
=======================  ==================  ==============  =======  ========
stored procedure /       the captured        database's      batch    inline
default session, no      update (no queue,   own, closed
sessions                 window, footprint)
default session once     the captured        fresh, closed   batch    window's
sessions exist           update, queued
``policy="serial"``      each queued member  member's,       batch    window's
                                             closed
``policy="group"``       compatible members, scheduler's     batch    window's
                         events unioned      group, closed
``durability="commit"``  a window of one     member's,       batch    inline
                                             closed
2PC prepare              participant's       fresh, held     prepare  inline
                         slice               open
2PC adopt (recovery)     in-doubt slice, the fresh, held     none     none
                         apply stage alone   open
2PC decide               prepared slice:     the held one,   decide   rides the
                         resume, or undo     closed/undone            log's next
                                                                      fsync
=======================  ==================  ==============  =======  ========

With many sessions proposing updates concurrently the scheduler
serializes exactly that step — and amortizes it.  Commits are queued
FIFO; whichever client thread first grabs the leader lock drains the
queue and processes the whole batch inside a single exclusive window
(one write-lock acquisition).  Inside the window the batch is split into *groups* of pairwise compatible members; a
group's union passes **one** validation and one apply — k commits for
the price of one — and any non-clean outcome (violation, constraint
error, a deadline lapsing mid-validation) replays the group member by
member in FIFO order, which also attributes each violation to the
session that staged the offending events.

The window flush is adaptive in ``batch`` mode: with no backlog the
leader fsyncs inline; with requests already queued behind the window
it hands the flush to the :class:`LogWriter` thread, which coalesces
consecutive windows into shared fsyncs.  Acknowledgements always wait
for the fsync covering their record.

Compatibility is a conservative static check on the members' *key
footprints*:

* staged-row stakes — the key values a member inserts or deletes, per
  table and per referencable key space (PK and any UNIQUE key an FK
  targets) — must be pairwise disjoint (no write-write conflicts);
* one member's stakes must not intersect another's *FK references*
  (the keys its staged rows point at), in either direction — no
  member's apply can create or erase another member's violation
  witnesses through an FK join onto a staged row;
* staged values meeting in a denial *keyspace* — a shared variable of
  an installed assertion's denial, whose occurrence list the compiler
  derives statically (:func:`repro.core.denial_compiler
  .derive_coupling`) — must not pair a witness-creating member with a
  witness-*removing* one: deleting at a positive occurrence or
  inserting at a negated one can mask another member's violation in
  the union, so such members serialize (two sessions editing the
  lineitems of one order under an at-least-one assertion interact;
  orders sharing a customer parent no keyspace ties to their events do
  not).  Because the keyspaces come from the unified denial variables
  rather than declared FKs, assertions joining two event-receiving
  tables on non-FK attributes are covered too — ``policy="serial"`` is
  no longer required for them (tables a denial relates without any
  comparable key, e.g. through an inequality builtin alone, serialize
  pairwise via the spec's wildcard pairs);
* for aggregate assertions, the members' affected group keys must be
  disjoint (two sessions growing the same order's lineitem count must
  serialize).

The differential tests (sequential vs concurrent runs must
accept/reject identical updates) exercise the shipped workloads, with
``policy="serial"`` as the reference.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from ..errors import DurabilityError
from ..minidb.schema import normalize
from ..minidb.transactions import TransactionManager
from ..core.safe_commit import CommitResult, deadline_result
from ..durability.manager import touched_counts
from .locks import ReadWriteLock
from ..obs.metrics import StatsBlock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.tintin import Tintin
    from .session import Session


@dataclass
class _Footprint:
    """The key surface one staged update touches (see module docstring)."""

    #: table -> row identities (PK values, whole rows for keyless
    #: tables) staged ins+del: the write-write conflict surface
    stakes: dict[str, set] = field(default_factory=dict)
    #: (table, referenced-columns) -> staged rows projected onto that
    #: key space — one bucket per key an FK can reference (PK or a
    #: declared UNIQUE key), so stakes and refs always compare values
    #: of the same columns
    key_stakes: dict[tuple, set] = field(default_factory=dict)
    #: (parent table, referenced-columns) -> key values this update's
    #: staged rows point at through their FKs
    refs: dict[tuple, set] = field(default_factory=dict)
    #: aggregate-spec name -> affected group-key values
    agg_groups: dict[str, set] = field(default_factory=dict)
    #: normalized names of tables this update stages events in
    event_tables: set = field(default_factory=set)
    #: keyspace signature (its occurrence tuple — shared by
    #: structurally identical denials) -> the values this update's
    #: staged rows bind in that keyspace, split by occurrence role and
    #: operation (see ``CouplingSpec`` and ``_KeyspaceBindings``)
    coupling: dict[tuple, "_KeyspaceBindings"] = field(default_factory=dict)

    def compatible(self, other: "_Footprint", coupling) -> bool:
        """Whether grouping with ``other`` preserves FIFO semantics.

        ``coupling`` is the tuple of statically derived
        :class:`~repro.core.denial_compiler.CouplingSpec` — two members
        serialize when one stages a witness-*removing* binding (a
        delete at a positive occurrence or an insert at a negated one)
        into a denial keyspace where the other stages a witness-
        *creating* one (an insert at a positive occurrence or a delete
        at a negated one): the removal could repair the other member's
        violation, making a union pass where FIFO would have rejected.
        Removal-vs-creation aimed at the *same* positive atom is exempt
        — there it only repairs if the exact staged rows coincide,
        which the stakes check already serializes.  They also
        serialize when staging events on opposite sides of a wildcard
        pair.  Creating-vs-creating overlaps stay groupable: they can
        only turn a clean union violating, which the union pass detects
        and replays serially anyway.
        """
        for table, keys in self.stakes.items():
            if keys & other.stakes.get(table, _EMPTY):
                return False
        for space, keys in self.key_stakes.items():
            if keys & other.refs.get(space, _EMPTY):
                return False
        for space, keys in self.refs.items():
            if keys & other.key_stakes.get(space, _EMPTY):
                return False
        for key, mine in self.coupling.items():
            theirs = other.coupling.get(key)
            if theirs is not None and mine.conflicts(theirs):
                return False
        for spec in coupling:
            for a, b in spec.wildcard_pairs:
                if (
                    a in self.event_tables and b in other.event_tables
                ) or (b in self.event_tables and a in other.event_tables):
                    return False
        for spec, keys in self.agg_groups.items():
            if keys & other.agg_groups.get(spec, _EMPTY):
                return False
        return True


_EMPTY: frozenset = frozenset()


class _KeyspaceBindings:
    """One update's staged values in one denial keyspace, split four
    ways: positive-atom inserts/deletes by atom index (``pi``/``pd``)
    and negated-occurrence inserts/deletes combined (``ni``/``nd``).

    Witness-removing bindings are ``pd`` and ``ni``; witness-creating
    ones are ``pi`` and ``nd``.  :meth:`conflicts` pairs each removal
    with the creations it could repair — every combination except a
    delete and an insert aimed at the *same* positive atom, which bind
    distinct witness tuples unless the staged rows are identical (and
    identical rows already collide on stakes).
    """

    __slots__ = ("pi", "pd", "ni", "nd", "removes", "creates")

    def __init__(self):
        self.pi: dict[int, set] = {}
        self.pd: dict[int, set] = {}
        self.ni: set = set()
        self.nd: set = set()
        #: flat unions (sealed by :meth:`seal` after projection): any
        #: precise repair pairing implies these coarse sets intersect,
        #: so disjointness is a cheap early exit for the common case
        #: of key-disjoint members
        self.removes: set = set()
        self.creates: set = set()

    def seal(self) -> None:
        self.removes = self.ni.union(*self.pd.values())
        self.creates = self.nd.union(*self.pi.values())

    def conflicts(self, other: "_KeyspaceBindings") -> bool:
        if (
            not (self.removes & other.creates)
            and not (other.removes & self.creates)
        ):
            return False
        return self._repairs(other) or other._repairs(self)

    def _repairs(self, other: "_KeyspaceBindings") -> bool:
        """Whether one of our removals could repair one of ``other``'s
        creations in the union state."""
        if self.ni and (
            self.ni & other.nd
            or any(self.ni & values for values in other.pi.values())
        ):
            return True
        if other.nd and any(
            values & other.nd for values in self.pd.values()
        ):
            return True
        for atom, deleted in self.pd.items():
            for other_atom, inserted in other.pi.items():
                if atom != other_atom and deleted & inserted:
                    return True
        return False


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


def _columns_key(columns: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(normalize(c) for c in columns)


@dataclass
class _PendingCommit:
    """One safeCommit request (events already snapshotted): a queued
    commit, or the member a 2PC prepare hands the commit unit."""

    session: Optional["Session"]
    inserts: dict[str, list[tuple]]
    deletes: dict[str, list[tuple]]
    transactions: TransactionManager
    #: the keys this commit touches, for the window partition; built by
    #: the leader, and only for a window of two or more requests
    footprint: Optional[_Footprint] = None
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
    leader thread, the log-writer thread and metrics readers (the
    ``/metrics`` endpoint) all touch these concurrently, and ``+=`` on
    an attribute is neither atomic nor consistent across fields — an
    unguarded reader could see ``commits`` from one window and
    ``batches`` from another.

    Notable fields: ``deadline_expired`` counts requests whose deadline
    lapsed before their violation-view pass ran (cancelled inside the
    scheduler, never validated or applied); ``wal_fsyncs`` <
    ``wal_appends`` is group commit at work (several commits' records
    shared one fsync); ``writer_windows`` > ``writer_flushes`` is the
    log-writer thread's burst coalescing (several windows per fsync).
    """

    COUNTERS = (
        "batches",
        "commits",
        "group_fast_path",
        "serial_commits",
        "fallbacks",
        "deadline_expired",
        "wal_appends",
        "wal_fsyncs",
        "writer_flushes",
        "writer_windows",
        "prepares",
        "prepared_commits",
        "prepared_aborts",
    )
    ACCUMULATORS = ("check_seconds",)
    HIGH_WATER = ("max_group_size",)
    PREFIX = "tintin_scheduler"
    HELP = {
        "commits": "Commits applied by the scheduler",
        "group_fast_path": "Commits validated and applied as part of a compatible group",
        "fallbacks": "Groups that failed joint validation and re-ran serially",
        "deadline_expired": "Commits cancelled in the scheduler after their deadline lapsed",
        "prepares": "Two-phase commit prepare votes logged (yes votes)",
        "prepared_commits": "Prepared transactions committed by coordinator decision",
        "prepared_aborts": "Prepared transactions aborted by coordinator decision",
    }

    def saw_group(self, size: int) -> None:
        self.record_max(max_group_size=size)


class LogWriter:
    """Group commit's durability point: the one flush routine, run
    inline on the idle path and by a dedicated log-writer thread for
    bursts.

    In ``batch`` mode the leader appends its window's WAL records
    inside the window and flushes adaptively: with no backlog it
    fsyncs inline (zero handoff — the steady closed-loop protocol,
    where the fsync doubles as the next window's natural gather
    period); with requests already queued behind the window — bursty
    load, commits arriving faster than windows drain — it *submits*
    the window here and immediately processes the next one.  The
    dedicated log-writer thread then drains every submitted window
    and issues **one** fsync for the whole burst: flushes batch
    *across* commit windows (on top of the one-record-per-group
    batching inside each window) while the leader's validation of the
    next window overlaps the disk wait — the fsync releases the GIL,
    so the overlap is real even on one core.

    The fsyncgate discipline is preserved end to end: acknowledgements
    still wait on the flush (a member's result is withheld until the
    fsync covering its record returns), and a failed fsync — which
    rolls back the WAL's unsynced frames and poisons the log — rejects
    every member of every window the burst covered.  Windows submitted
    after the poisoning are rejected the same way when their sync
    raises.
    """

    def __init__(self, stats: SchedulerStats):
        self.stats = stats
        self._cond = threading.Condition()
        self._pending: deque = deque()  # (manager, deferred) per window
        self._flushing = False
        self._stopped = False
        self._thread: Optional[threading.Thread] = None

    def flush(self, manager, windows: list, **counted) -> None:
        """One fsync makes every record the ``windows`` appended
        durable; then, and only then, their withheld committed results
        become visible.  Each window is a list of ``(member, result)``
        pairs; ``counted`` adds to the bump a successful flush earns.

        Failure-safe: whatever happens, every member gets a result and
        its done event — a dying flush must not strand the committing
        sessions in their wait loops — and the failure is re-raised.
        The poisoned log then refuses every later durable commit, so a
        rejected commit can never become durable later.  The windows'
        rows, however, were already applied under the write lock and
        stay visible in memory — the engine serves state ahead of its
        log until it is reopened, the same divergence a PostgreSQL
        instance has between a failed WAL flush and its PANIC restart.
        """
        members = [pair for deferred in windows for pair in deferred]
        start = time.monotonic()
        try:
            manager.sync()
            self.stats.bump(wal_fsyncs=1, **counted)
            end = time.monotonic()
            for pending, result in members:
                # spans land before done fires: once done is set the
                # waiting client thread may finish (and ship) the trace.
                # getattr: tests drive the writer with duck-typed
                # member stubs that carry only done/result
                obs = getattr(pending, "obs", None)
                if obs is not None:
                    obs.record("wal.fsync", start, end, windows=len(windows))
                pending.result = result
                pending.done.set()
        except BaseException as exc:
            for pending, _ in members:
                if pending.result is None:
                    pending.result = CommitResult(
                        committed=False,
                        constraint_error=f"log flush failed: {exc}",
                    )
                    pending.done.set()
            raise

    def submit(self, manager, deferred) -> None:
        """Queue one window's deferred members for the thread's next
        burst fsync."""
        with self._cond:
            if not self._stopped:
                if self._thread is None or not self._thread.is_alive():
                    self._thread = threading.Thread(
                        target=self._run, name="tintin-log-writer", daemon=True
                    )
                    self._thread.start()
                self._pending.append((manager, deferred))
                self._cond.notify()
                return
        # late window after shutdown: flush inline — outside the
        # condition lock (the fsync must not block drain/submit)
        self.flush(manager, [deferred])

    def drain(self) -> None:
        """Block until every submitted window has been flushed (or
        rejected).  With the leader lock held, this quiesces the whole
        durability pipeline: no window can start, none is in flight."""
        with self._cond:
            while self._pending or self._flushing:
                self._cond.wait(timeout=0.05)

    def stop(self) -> None:
        """Drain, then retire the thread (later windows flush inline)."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5)

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._stopped:
                    self._cond.wait()
                if not self._pending:
                    return  # stopped and drained
                burst = list(self._pending)
                self._pending.clear()
                self._flushing = True
            try:
                self.flush(
                    burst[-1][0],
                    [deferred for _, deferred in burst],
                    writer_flushes=1,
                    writer_windows=len(burst),
                )
            except (OSError, DurabilityError):
                # the WAL rolled back its unsynced frames and poisoned
                # itself (or already was poisoned), and flush rejected
                # every member of the burst; keep serving.  A flush
                # that died on anything else propagates (and kills
                # this thread — submit() restarts it), its members
                # rejected just the same.
                pass
            finally:
                with self._cond:
                    self._flushing = False
                    self._cond.notify_all()


class CommitScheduler:
    """Serializes (and group-batches) safeCommit across sessions."""

    def __init__(
        self,
        tintin: "Tintin",
        policy: str = "group",
        max_batch: int = 64,
        gather_seconds: float = 0.0,
    ):
        if policy not in ("group", "serial"):
            raise ValueError(f"unknown scheduler policy {policy!r}")
        self.tintin = tintin
        self.db = tintin.db
        self.events = tintin.events
        self.policy = policy
        self.max_batch = max_batch
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
        self._queue: deque[_PendingCommit] = deque()
        self._queue_lock = threading.Lock()
        self._leader_lock = threading.Lock()
        #: undo-log manager for combined (multi-session) applies
        self._group_transactions = TransactionManager()
        #: (assertion-set version, derived CouplingSpec tuple)
        self._coupling_cache: Optional[tuple] = None
        #: (assertion-set version, per-table keyspace projection index)
        self._coupling_proj_cache: Optional[tuple] = None
        #: the flush routine and its log-writer thread (batch-mode
        #: windows with a backlog hand it their deferred members; it
        #: batches fsyncs across windows)
        self._log_writer = LogWriter(self.stats)
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
        """Hold the leader critical section with the durability pipe
        drained: no commit window can execute while the caller is
        inside, and every already-submitted window's WAL flush has
        completed (the log-writer queue is empty).  This is what
        ``Tintin.close`` wraps its final checkpoint and log detach in,
        so an in-flight group commit is fully flushed before the
        shutdown — or queued after it (and then commits non-durably,
        like any post-close commit).
        """
        with self._leader_lock:
            self._log_writer.drain()
            yield

    def stop_log_writer(self) -> None:
        """Drain and retire the log-writer thread (shutdown path)."""
        self._log_writer.stop()

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
                # a no-op for an immediately-decided request; when the
                # request's record is riding the log-writer thread's
                # fsync the wait stops this thread from spinning on
                # re-election until the flush acknowledges it
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
        window ends.  The default session (global capture) may have
        staged events outside any Session; they are stashed and the
        global tables emptied so each validation — which overlays its
        events on those tables — sees exactly its own update, then
        restored at window end.
        """
        with self.rwlock.write_locked():
            stashed = self.events.take_events()
            try:
                yield
            finally:
                self.events.load_events(*stashed)

    def _unit(
        self,
        members: list[_PendingCommit],
        inserts: dict[str, list[tuple]],
        deletes: dict[str, list[tuple]],
        transactions: TransactionManager,
        gid: Optional[str] = None,
    ) -> tuple[CommitResult, bool]:
        """Run the commit unit over ``members``' events (theirs alone,
        or a group's union): the earliest member deadline gates it,
        every observed member gets its spans, and the record it
        appends is counted.  With ``gid`` it is a 2PC prepare: the
        undo log stays open and the record is a prepare record.
        Returns the unit's ``(result, logged)``; a logged result must
        be withheld until the flush."""
        deadlines = [p.deadline for p in members if p.deadline is not None]
        result, logged = self.tintin.safe_commit_proc(
            self.db,
            inserts,
            deletes,
            transactions,
            hold_open=gid is not None,
            deadline=min(deadlines) if deadlines else None,
            observers=[p.obs for p in members if p.obs is not None],
            group=len(members),
            log=self.tintin._log_manager(),
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
                    result, logged = self._unit(
                        [member], inserts, deletes, txn, gid=gid
                    )
                if logged:
                    self._log_writer.flush(
                        self.tintin._log_manager(), [[(member, result)]]
                    )
            except BaseException as exc:
                # the vote never became durable — and an unloggable
                # vote is a no vote: without the durable prepare record
                # a crash would silently forget the yes, so undo the
                # tentative apply
                if txn.in_transaction:
                    with self.rwlock.write_locked():
                        txn.rollback()
                    self.tintin.safe_commit_proc.reset_delta_state()
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
                    # undo log, fold the delta into the derived state,
                    # log the decision with post-apply counts for
                    # replay checking
                    txn.commit()
                    self.tintin.safe_commit_proc.note_applied(
                        self.db, inserts, deletes
                    )
                    counts = touched_counts(self.db, inserts, deletes)
                else:
                    txn.rollback()
                    # memo state may have been seeded expecting the
                    # apply to stick; dropping it is always sound
                    self.tintin.safe_commit_proc.reset_delta_state()
            manager = self.tintin._log_manager()
            if manager is not None:
                # unsynced, and no fsync counted: see the docstring
                manager.log_decide(gid, verdict, counts=counts, sync=False)
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

    # -- footprints --------------------------------------------------------

    def _footprint(
        self,
        inserts: dict[str, list[tuple]],
        deletes: dict[str, list[tuple]],
    ) -> _Footprint:
        fp = _Footprint()
        checker = self.db.checker
        agg_specs = [
            checker_.spec
            for checker_ in self.tintin.safe_commit_proc.aggregate_checkers
        ]
        staged: dict[str, dict[str, list[tuple]]] = {"ins": {}, "del": {}}
        for source, mode in ((inserts, "ins"), (deletes, "del")):
            for name, rows in source.items():
                if rows:
                    staged[mode].setdefault(normalize(name), []).extend(rows)
        for source in (inserts, deletes):
            for name, rows in source.items():
                if not rows:
                    continue
                table = self.db.table(name)
                key = normalize(name)
                fp.event_tables.add(key)
                schema = table.schema
                if schema.primary_key:
                    positions = schema.key_positions(schema.primary_key)
                    stakes = {tuple(row[p] for p in positions) for row in rows}
                else:
                    stakes = set(rows)
                fp.stakes.setdefault(key, set()).update(stakes)
                # project staged rows onto every key space an FK can
                # reference on this table (the PK or a UNIQUE key)
                for inc in checker.incoming_fks(table):
                    space = (key, _columns_key(inc.fk.ref_columns))
                    bucket = fp.key_stakes.setdefault(space, set())
                    for row in rows:
                        value = tuple(row[p] for p in inc.parent_positions)
                        if not any(v is None for v in value):
                            bucket.add(value)
                for spec in checker.outgoing_fks(table):
                    space = (
                        normalize(spec.fk.ref_table),
                        _columns_key(spec.fk.ref_columns),
                    )
                    bucket = fp.refs.setdefault(space, set())
                    for row in rows:
                        value = tuple(row[p] for p in spec.positions)
                        if not any(v is None for v in value):
                            bucket.add(value)
                for spec in agg_specs:
                    if key == normalize(spec.inner_table):
                        columns = spec.inner_key_columns
                    elif key == normalize(spec.outer_table):
                        columns = spec.outer_key_columns
                    else:
                        continue
                    positions = schema.key_positions(columns)
                    fp.agg_groups.setdefault(spec.name, set()).update(
                        tuple(row[p] for p in positions) for row in rows
                    )
        # project the staged rows onto every installed denial keyspace
        # via the inverted per-table index (statically derived; see
        # CouplingSpec).  NULLs never join, so NULL bindings are
        # dropped; a column projection shared by several keyspaces is
        # computed once per staged table.
        proj = self._coupling_projection()
        for mode in ("ins", "del"):
            for table, rows in staged[mode].items():
                entries = proj.get(table)
                if not entries:
                    continue
                by_position: dict[int, set] = {}
                for sig, atom, position, role in entries:
                    values = by_position.get(position)
                    if values is None:
                        values = {
                            row[position]
                            for row in rows
                            if row[position] is not None
                        }
                        by_position[position] = values
                    if not values:
                        continue
                    bindings = fp.coupling.get(sig)
                    if bindings is None:
                        bindings = fp.coupling.setdefault(
                            sig, _KeyspaceBindings()
                        )
                    if role == "pos":
                        bucket = (
                            bindings.pi if mode == "ins" else bindings.pd
                        )
                        bucket.setdefault(atom, set()).update(values)
                    elif mode == "ins":
                        bindings.ni |= values
                    else:
                        bindings.nd |= values
        for bindings in fp.coupling.values():
            bindings.seal()
        return fp

    def _coupling_specs(self) -> tuple:
        """The statically derived coupling specs of every installed
        denial (see :func:`repro.core.denial_compiler.derive_coupling`),
        cached against the facade's assertion-set version — re-adding
        an assertion under the same name with a different body bumps
        the version, so the cache can never serve a stale body."""
        from ..core.denial_compiler import derive_coupling

        version = self.tintin.assertion_version
        cached = self._coupling_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        specs = derive_coupling(
            [
                denial
                for assertion in self.tintin.assertions.values()
                for denial in assertion.denials
            ]
        )
        self._coupling_cache = (version, specs)
        return specs

    def _coupling_projection(self) -> dict:
        """Inverted projection index over the coupling specs: normalized
        table name -> list of ``(signature, atom, position, role)``.

        The signature is the keyspace's occurrence tuple itself —
        structurally identical keyspaces (e.g. a family of bound-style
        denials that all join ``orders`` to ``lineitem`` on the order
        key) project to identical bindings, so they collapse into one
        footprint entry and are checked once per member pair instead
        of once per denial."""
        version = self.tintin.assertion_version
        cached = self._coupling_proj_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        proj: dict[str, list] = {}
        seen: set = set()
        for spec in self._coupling_specs():
            for keyspace in spec.keyspaces:
                if keyspace in seen:
                    continue
                seen.add(keyspace)
                for atom, table, position, role in keyspace:
                    proj.setdefault(table, []).append(
                        (keyspace, atom, position, role)
                    )
        self._coupling_proj_cache = (version, proj)
        return proj

    # -- the commit window -------------------------------------------------

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
        manager = self.tintin._log_manager()
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
        self.stats.bump(batches=1, commits=len(batch))
        if len(batch) > 1 and self.policy != "serial":
            # only the partition reads footprints; build them before
            # the write lock, and never for a window of one
            for pending in batch:
                if pending.footprint is None:
                    pending.footprint = self._footprint(
                        pending.inserts, pending.deletes
                    )
        start = time.perf_counter()
        #: committed members whose WAL records are appended but not yet
        #: durable; their results are withheld until the window flush
        deferred: list[tuple[_PendingCommit, CommitResult]] = []
        try:
            with self._exclusive_window():
                for group in self._partition(batch):
                    self.stats.saw_group(len(group))
                    self._commit_group(group, deferred)
        except BaseException as exc:
            # an unexpected engine error must not strand the batch —
            # but members whose *own* groups already committed (applied
            # and WAL-appended, results riding in ``deferred``) must
            # not be swallowed by a later group's failure: flush their
            # records and acknowledge them first.  The flush is inline
            # even in ``batch`` mode — the leader is about to propagate
            # the window failure, and every deferred member must be
            # durably decided before it does.  The flush is
            # failure-safe — if it dies itself it assigns rejections
            # (and its error must not mask the window's), so either
            # way every deferred member is decided here.  Only the
            # truly undecided members then get the window-failure
            # rejection, and the leader's own caller sees the original
            # exception.
            if deferred:
                try:
                    self._log_writer.flush(manager, [deferred])
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
            # read lock while the fsync waits on the disk.  ``batch``
            # mode flushes adaptively (see :class:`LogWriter`): inline
            # with no backlog, through the log-writer thread with one.
            # ``commit`` mode always flushes inline (one fsync per
            # commit, strictly inside the leader critical section —
            # the pre-group-commit protocol).  Either way acknowledgements
            # wait for the flush, so no client is ever told
            # "committed" before its record is on disk.
            backlog = False
            if not per_commit:
                with self._queue_lock:
                    backlog = bool(self._queue)
            if backlog:
                self._log_writer.submit(manager, deferred)
            else:
                self._log_writer.flush(manager, [deferred])

    def _partition(
        self, batch: list[_PendingCommit]
    ) -> list[list[_PendingCommit]]:
        """Split the FIFO batch into runs of pairwise-compatible members
        (order-preserving, so serial replays keep submission order);
        ``policy="serial"`` makes every member its own run.  A
        ``durability="commit"`` window holds one request, so it needs
        no rule of its own."""
        if self.policy == "serial":
            return [[pending] for pending in batch]
        coupling = self._coupling_specs()
        groups: list[list[_PendingCommit]] = []
        current: list[_PendingCommit] = []
        for pending in batch:
            if current and not all(
                pending.footprint.compatible(other.footprint, coupling)
                for other in current
            ):
                groups.append(current)
                current = []
            current.append(pending)
        if current:
            groups.append(current)
        return groups

    def _commit_group(
        self,
        group: list[_PendingCommit],
        deferred: list[tuple[_PendingCommit, CommitResult]],
    ) -> None:
        """Decide one run of compatible members: the commit unit once
        over their union, or — for a run of one, and as the replay of
        any union that did not come back clean — once per member, the
        exact single-session protocol in FIFO order.

        A committed member whose record was appended rides in
        ``deferred`` until the window flush, so it is never
        acknowledged before its record is on disk; rejections carry no
        record and are assigned immediately.
        """
        if len(group) > 1:
            union_ins: dict[str, list[tuple]] = {}
            union_del: dict[str, list[tuple]] = {}
            # per-member applied-row accounting against the pre-apply
            # state, so a grouped commit reports the same number the
            # serial protocol would: staged deletes of rows an earlier
            # batch already removed apply as no-ops
            applied_by_member = []
            for pending in group:
                applied = 0
                for table, rows in pending.inserts.items():
                    union_ins.setdefault(table, []).extend(rows)
                    applied += len(rows)
                for table, rows in pending.deletes.items():
                    union_del.setdefault(table, []).extend(rows)
                    find_rowid = self.db.table(table).find_rowid
                    applied += sum(
                        1 for row in rows if find_rowid(row) is not None
                    )
                applied_by_member.append(applied)
            # the group-commit payoff: ONE validation, one apply and
            # ONE combined WAL record for the whole group, made durable
            # by the window's single shared fsync
            union, logged = self._unit(
                group, union_ins, union_del, self._group_transactions
            )
            if union.committed:
                self.stats.bump(group_fast_path=len(group))
                for pending, applied in zip(group, applied_by_member):
                    result = replace(
                        union, applied_rows=applied, group_size=len(group)
                    )
                    if logged:
                        deferred.append((pending, result))
                    else:
                        pending.result = result
                return
            # someone's events violate an assertion or a constraint:
            # replay strictly serially so the rejection lands on the
            # session that staged them.  Likewise when a member's
            # deadline lapsed before or during union validation:
            # dropping the expired member's events from a validated
            # union is not violation-preserving, and the replay
            # enforces each member's deadline precisely.
            self.stats.bump(fallbacks=1)
        for pending in group:
            self.stats.bump(serial_commits=1)
            result, logged = self._unit(
                [pending], pending.inserts, pending.deletes, pending.transactions
            )
            if logged:
                deferred.append((pending, result))
            else:
                pending.result = result
                if result.deadline_expired:
                    self.stats.bump(deadline_expired=1)
