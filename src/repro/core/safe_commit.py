"""The generated ``safeCommit`` procedure (paper §2 and §4).

``safeCommit`` is called at the end of each transaction.  It:

1. queries the stored violation views over the proposed update —
   skipping any view whose driving event tables are empty (the paper's
   "trivially empty" shortcut, decided once per pass for all views by
   a dispatch index), and running once the core that a family of EDCs
   differing only in constants shares;
2. if every view is empty, applies the batch (inserts from ``ins_T``,
   deletes from ``del_T``) under PK/FK enforcement — a trigger-free
   physical write, so capture stays armed;
3. leaves the event tables empty either way, so a new update can be
   proposed;
4. returns the violations (assertion name, EDC, offending tuples) when
   the update is rejected.

:meth:`SafeCommit.__call__` is that procedure, written once: the commit
unit every route — stored procedure, default session, scheduler window,
2PC prepare — runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..durability.manager import touched_counts
from ..errors import ConstraintViolation, ExecutionError
from ..minidb.database import Database, PreparedStatement
from ..minidb.expressions import sql_compare
from ..minidb.schema import normalize
from ..minidb.storage import TableOverlay
from ..minidb.transactions import TransactionManager
from ..obs.trace import new_span_id
from ..sqlparser import nodes as n
from .edc import EDC
from .event_tables import del_table_name, ins_table_name


@dataclass(frozen=True)
class SharedCore:
    """What an EDC's violation query can share with other EDCs.

    The core is the EDC's body without its top-level ``Variable op
    Constant`` builtins; EDCs whose cores render to the same SQL form a
    *family* whose core runs once per pass.  ``Tintin.add_assertion``
    attaches one only when that is exact and costs no access path: the
    EDC has no delta plan and no EventGuard, every constant is
    type-compatible with its column, and the core's plan reads through
    the same scans, joins and probes as the EDC's own.
    """

    #: the core's rendered SQL — the family key
    key: str
    #: the core's query
    query: n.Query
    #: ``(output position, op, constant)`` per removed builtin: a core
    #: row witnesses this EDC iff every comparison is True
    residual: tuple[tuple[int, str, object], ...]
    #: the core compiled once for the family (every member holds the
    #: same handle); None while no other EDC shares the key
    prepared: Optional[PreparedStatement] = None


@dataclass
class CompiledEDC:
    """One installed violation view plus the metadata safeCommit needs."""

    edc: EDC
    view_name: str
    #: event tables referenced positively: if any is empty the view is
    #: trivially empty and is skipped without executing
    event_tables: tuple[str, ...]
    #: tables of the EDC's EventGuard: if all are empty the view is skipped
    guard_tables: tuple[str, ...]
    #: the view's query compiled once at ``add_assertion`` time; when
    #: set, ``check_only`` executes this handle instead of re-parsing
    #: and re-planning ``SELECT * FROM <view>`` on every commit.  None
    #: for a seeded EDC, whose delta plan replaces it
    prepared: Optional[PreparedStatement] = None
    #: the delta rule derived for this EDC (:mod:`repro.core.delta`);
    #: None means the full plan is the only evaluator
    delta: Optional[object] = None
    #: prepared handle of the seeded delta query (guard-mode EDCs
    #: only): with the plan cache on it is the EDC's one evaluator,
    #: sound because ``add_assertion`` checked the premise it rests on
    delta_prepared: Optional[PreparedStatement] = None
    #: the shared core this EDC may run through, or None to always run
    #: its own plan
    core: Optional[SharedCore] = None


@dataclass
class Violation:
    """One violated assertion with the witnessing tuples."""

    assertion: str
    edc_name: str
    columns: list[str]
    rows: list[tuple]

    def __str__(self) -> str:
        return (
            f"assertion {self.assertion!r} violated ({self.edc_name}): "
            f"{len(self.rows)} witness tuple(s)"
        )


@dataclass
class CommitResult:
    """Outcome of one safeCommit invocation."""

    committed: bool
    violations: list[Violation] = field(default_factory=list)
    constraint_error: Optional[str] = None
    applied_rows: int = 0
    checked_views: int = 0
    skipped_views: int = 0
    #: how many shards took part in this commit: a cross-shard 2PC
    #: reports its participant count, every local commit 1
    group_size: int = 1
    #: True when the request was cancelled by its own deadline before
    #: being applied or logged — nothing changed, retrying is safe
    deadline_expired: bool = False

    @property
    def rejected(self) -> bool:
        return not self.committed

    def payload(self) -> dict:
        """The result as its wire shape — a plain dict, the same over
        the network front end and the shard pipe.  Violations travel
        as display strings: the Violation objects stay in the process
        that checked them."""
        return {
            "committed": self.committed,
            "applied_rows": self.applied_rows,
            "checked_views": self.checked_views,
            "skipped_views": self.skipped_views,
            "group_size": self.group_size,
            "deadline_expired": self.deadline_expired,
            "constraint_error": self.constraint_error,
            "violations": [str(v) for v in self.violations],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CommitResult":
        """Rebuild a result from :meth:`payload`'s dict (its violations
        stay display strings)."""
        return cls(
            committed=payload["committed"],
            violations=list(payload.get("violations", ())),
            constraint_error=payload.get("constraint_error"),
            applied_rows=payload.get("applied_rows", 0),
            checked_views=payload.get("checked_views", 0),
            skipped_views=payload.get("skipped_views", 0),
            deadline_expired=payload.get("deadline_expired", False),
            group_size=payload.get("group_size", 1),
        )

    def __str__(self) -> str:
        if self.committed:
            return (
                f"committed {self.applied_rows} row change(s); checked "
                f"{self.checked_views} view(s), skipped {self.skipped_views}"
            )
        if self.constraint_error:
            return f"rejected: {self.constraint_error}"
        parts = "; ".join(str(v) for v in self.violations)
        return f"rejected: {parts}"


def deadline_result() -> CommitResult:
    """The verdict for a request cancelled by its own deadline: not
    committed, not applied, no WAL frame — safely retriable."""
    return CommitResult(
        committed=False,
        constraint_error="deadline exceeded before validation completed",
        deadline_expired=True,
    )


def event_overlays(
    inserts: dict[str, list[tuple]],
    deletes: dict[str, list[tuple]],
) -> dict[str, TableOverlay]:
    """Present a staged update as overlays on the (empty) global event
    tables: the violation views (which reference ``ins_T``/``del_T``)
    then see exactly this update without a single row being physically
    loaded — validation is a pure read."""
    overlays: dict[str, TableOverlay] = {}
    for table, rows in inserts.items():
        if rows:
            overlays[normalize(ins_table_name(table))] = TableOverlay(rows)
    for table, rows in deletes.items():
        if rows:
            overlays[normalize(del_table_name(table))] = TableOverlay(rows)
    return overlays


def log_update(
    db: Database,
    log,
    inserts: dict[str, list[tuple]],
    deletes: dict[str, list[tuple]],
    gid: Optional[str] = None,
) -> bool:
    """Append the one WAL record of an applied update, unsynced (the
    caller's flush issues the fsync): a 2PC prepare record when ``gid``
    is given, else a batch record carrying the post-apply row counts
    recovery re-verifies.  ``log`` is the durability manager, or None
    when commits are not being logged; an empty batch needs no record.
    Returns whether one was appended."""
    if log is None:
        return False
    if gid is not None:
        log.log_prepare(gid, inserts, deletes)
    elif any(inserts.values()) or any(deletes.values()):
        log.append_batch(
            inserts, deletes, counts=touched_counts(db, inserts, deletes)
        )
    else:
        return False
    return True


class SafeCommit:
    """Callable implementing the stored ``safeCommit`` procedure."""

    def __init__(self):
        self.compiled: list[CompiledEDC] = []
        #: aggregate-assertion checkers (the paper's future-work
        #: extension, :mod:`repro.core.aggregates`), in installation
        #: order; the dispatch groups them into families
        self.aggregate_checkers: list = []
        #: per-assertion check accounting
        #: (:class:`repro.obs.profiler.AssertionProfiler`), installed
        #: via ``Tintin.enable_profiling()``.  None keeps the check
        #: loop timing-free.
        self.profiler = None
        #: the check units indexed by the event tables that wake them;
        #: rebuilt lazily after any register / unregister
        self._dispatch: Optional[_Dispatch] = None

    def register(self, compiled: CompiledEDC) -> None:
        self.compiled.append(compiled)
        self._dispatch = None

    def register_aggregate(self, checker) -> None:
        self.aggregate_checkers.append(checker)
        self._dispatch = None

    def unregister_assertion(self, assertion: str) -> None:
        self.compiled = [
            c for c in self.compiled if c.edc.assertion != assertion
        ]
        self.aggregate_checkers = [
            c for c in self.aggregate_checkers if c.spec.name != assertion
        ]
        self._dispatch = None

    # -- the procedure body -------------------------------------------------

    def __call__(
        self,
        db: Database,
        inserts: dict[str, list[tuple]],
        deletes: dict[str, list[tuple]],
        transactions: TransactionManager,
        *,
        hold_open: bool = False,
        deadline: Optional[float] = None,
        obs=None,
        log=None,
        gid: Optional[str] = None,
        fault=None,
    ) -> tuple[CommitResult, bool]:
        """The commit unit: validate, apply and log one update.

        Every route to a commit runs exactly this, under whatever
        exclusion it owns and with the event tables empty (the update
        rides in as overlays); :mod:`repro.server.scheduler` lists the
        stages and tabulates what each route passes.  ``deadline`` (an
        absolute ``time.monotonic()`` instant) is honoured before the
        violation-view pass — doomed work is cancelled, not performed —
        and again after it: a lapse mid-validation cancels before the
        apply and its WAL record exist, so an expired request stays
        invisible and is safe to retry.  ``obs`` (the commit's
        :class:`~repro.obs.trace.CommitObs`, or None) gets the
        ``validate``/``check.<view>``/``apply``/``wal.append`` spans;
        ``fault`` is the scheduler's fault hook.  ``hold_open`` leaves
        the undo log open (a 2PC prepare, whose decision comes later);
        ``log``/``gid`` go to :func:`log_update`.

        Returns the verdict and whether a record was appended: the
        caller owns the fsync, and must not acknowledge a logged
        commit before it returns.
        """
        if deadline is not None and time.monotonic() > deadline:
            return deadline_result(), False
        if fault is not None:
            fault("scheduler.validate")
        trace = None if obs is None else (obs, new_span_id())
        start = time.monotonic() if obs is not None else 0.0
        violations, checked, skipped = self.check_only(
            db, overlays=event_overlays(inserts, deletes), trace=trace
        )
        if obs is not None:
            obs.record(
                "validate",
                start,
                time.monotonic(),
                span_id=trace[1],
                checked=checked,
                skipped=skipped,
            )
        if deadline is not None and time.monotonic() > deadline:
            return deadline_result(), False
        result = CommitResult(
            committed=False,
            violations=violations,
            checked_views=checked,
            skipped_views=skipped,
        )
        if violations:
            return result, False
        start = time.monotonic() if obs is not None else 0.0
        try:
            result.applied_rows = self.apply(
                db, inserts, deletes, transactions, hold_open
            )
        except ConstraintViolation as exc:
            result.constraint_error = str(exc)
            return result, False
        result.committed = True
        if obs is not None:
            obs.record("apply", start, time.monotonic())
            start = time.monotonic()
        logged = log_update(db, log, inserts, deletes, gid)
        if logged and obs is not None:
            obs.record("wal.append", start, time.monotonic())
        return result, logged

    def apply(
        self,
        db: Database,
        inserts: dict[str, list[tuple]],
        deletes: dict[str, list[tuple]],
        transactions: TransactionManager,
        hold_open: bool = False,
    ) -> int:
        """The apply stage: one atomic physical batch (trigger-free;
        unique keys and deferred FKs verified now) under
        ``transactions``.  With ``hold_open`` the undo log stays open
        after a successful apply — the caller later commits it or
        rolls it back — and a failed one is rolled back here."""
        if hold_open:
            transactions.begin()
        try:
            with db.transaction_scope(transactions):
                return db.apply_batch(inserts, deletes)
        except BaseException:
            if hold_open:
                transactions.rollback()
            raise

    def check_only(
        self,
        db: Database,
        overlays: Optional[dict[str, TableOverlay]] = None,
        trace: Optional[tuple] = None,
    ) -> tuple[list[Violation], int, int]:
        """Run the violation views without applying or truncating.

        ``overlays`` (normalized table name ->
        :class:`~repro.minidb.storage.TableOverlay`) merges a staged
        update into the referenced tables at read time — the commit
        scheduler validates a session's events by
        overlaying the *event tables* instead of physically loading
        them, so validation never mutates shared state.

        Each event table any check can be driven by is probed for
        emptiness once; the set of non-empty ones selects the check
        units to run (see :class:`_Dispatch`), and every other view is
        skipped without being looked at.

        ``trace`` is the ``(obs, parent_span_id)`` pair of the commit
        this check serves: each executed unit emits one
        ``check.<view>`` span (``check.<lead view>.shared`` for a
        family) into it, nested under the given validate span.

        Returns ``(violations, executed_view_count, skipped_view_count)``.
        """
        dispatch = self._dispatch
        if dispatch is None:
            dispatch = self._dispatch = _Dispatch(
                self.compiled, self.aggregate_checkers
            )
        units, skipped = dispatch.wake(dispatch.nonempty(db, overlays))
        profiler = self.profiler
        if profiler is not None:
            for name in skipped:
                profiler.record_skip(name)
        timed = profiler is not None or trace is not None
        found: list[tuple[int, Violation]] = []
        checked = 0
        for unit in units:
            collector = profiler.collector() if profiler is not None else None
            check_start = time.monotonic() if timed else 0.0
            t0 = time.perf_counter() if timed else 0.0
            if unit.__class__ is CompiledEDC:
                label = None
                outcomes = [self._run_view(unit, db, overlays, collector)]
            elif unit.__class__ is _Family:
                label = unit.label
                outcomes = self._run_family(unit, db, overlays, collector)
            else:
                label = unit.label
                outcomes = unit.run(db, overlays)
            checked += len(outcomes)
            if timed:
                elapsed = time.perf_counter() - t0
                if profiler is not None:
                    # a shared core's cost is split evenly over its
                    # members; its scanned rows are charged to the lead
                    share = elapsed / len(outcomes)
                    rows = collector.rows_scanned() if collector else 0
                    for _, name, hits, _ in outcomes:
                        profiler.record_check(
                            name, share, violations=hits, rows_scanned=rows
                        )
                        rows = 0
                if trace is not None:
                    attrs = {} if label is None else {"members": len(outcomes)}
                    self._trace_check(
                        trace,
                        label or outcomes[0][1],
                        check_start,
                        elapsed,
                        sum(outcome[2] for outcome in outcomes),
                        **attrs,
                    )
            for owner, _, _, violation in outcomes:
                if violation is not None:
                    found.append((dispatch.rank[id(owner)], violation))
        # installation order, whichever unit found each violation
        found.sort(key=lambda ranked: ranked[0])
        return [violation for _, violation in found], checked, len(skipped)

    def _run_view(
        self,
        compiled: CompiledEDC,
        db: Database,
        overlays: Optional[dict[str, TableOverlay]],
        collector,
    ) -> tuple:
        """Execute one violation view: its seeded delta plan or its
        prepared full plan, or (plan cache off) a fresh parse and plan.
        Returns ``(compiled, profile label, witness count, violation)``."""
        handle = compiled.delta_prepared or compiled.prepared
        label = compiled.view_name
        if handle is not None and handle.db is db and db.plan_cache_enabled:
            result = handle.execute(overlays=overlays, collector=collector)
            if handle is compiled.delta_prepared:
                label += ".delta"
        else:
            # fresh-plan path: parse and plan the view query anew
            result = db.query(f"SELECT * FROM {label}", overlays=overlays)
        return (
            compiled,
            label,
            len(result.rows),
            _violation(compiled, result.columns, result.rows),
        )

    def _run_family(
        self,
        family: "_Family",
        db: Database,
        overlays: Optional[dict[str, TableOverlay]],
        collector,
    ) -> list[tuple]:
        """Execute a family's shared core once and hand each member the
        core rows its residual comparisons accept (SQL semantics: an
        UNKNOWN comparison keeps nothing).  With the plan cache off —
        or if the core raised where a member's own plan might not —
        every member runs its own view instead."""
        prepared = family.prepared
        result = None
        if prepared.db is db and db.plan_cache_enabled:
            try:
                result = prepared.execute(overlays=overlays, collector=collector)
            except ExecutionError:
                pass
        if result is None:
            return [
                self._run_view(member, db, overlays, collector)
                for member in family.members
            ]
        outcomes = []
        core_rows = result.rows
        for member in family.members:
            residual = member.core.residual
            rows = [
                row
                for row in core_rows
                if all(
                    sql_compare(op, row[position], constant) is True
                    for position, op, constant in residual
                )
            ]
            outcomes.append(
                (
                    member,
                    member.view_name,
                    len(rows),
                    _violation(member, result.columns, rows),
                )
            )
        return outcomes

    @staticmethod
    def _trace_check(
        trace: tuple,
        view: str,
        start: float,
        elapsed: float,
        found: int,
        **attrs,
    ) -> None:
        obs, parent = trace
        obs.record(
            "check." + view,
            start,
            start + elapsed,
            parent=parent,
            view=view,
            violations=found,
            **attrs,
        )

    @staticmethod
    def _effectively_empty(
        db: Database,
        name: str,
        overlays: Optional[dict[str, TableOverlay]],
    ) -> bool:
        """Whether ``name`` is empty in the overlay-merged view.

        Conservative on the non-empty side: a table whose rows are all
        masked by overlay deletes still reports non-empty (the view
        then executes and finds nothing — correct, just not skipped).
        """
        table = db.table(name)
        if len(table):
            return False
        overlay = overlays.get(normalize(name)) if overlays else None
        return overlay is None or not overlay.inserts


def _violation(
    compiled: CompiledEDC, columns: list[str], rows: list[tuple]
) -> Optional[Violation]:
    if not rows:
        return None
    return Violation(
        assertion=compiled.edc.assertion,
        edc_name=compiled.edc.name,
        columns=list(columns),
        rows=rows,
    )


class _Family:
    """Two or more EDCs whose shared cores render to the same SQL: the
    core runs once per pass for all of them."""

    __slots__ = ("members", "prepared", "label")

    def __init__(self, members: list[CompiledEDC]):
        self.members = members
        self.prepared = members[0].core.prepared
        self.label = members[0].view_name + ".shared"


class _Dispatch:
    """The check units of one assertion set, indexed by the event tables
    that wake them.

    A unit is a single violation view, a :class:`_Family` or an
    :class:`~repro.core.aggregates.AggregateFamily` (the aggregate
    checkers that share outer table, inner table and correlation; a
    lone one is a family of one).  A view wakes when every event table
    it reads positively is non-empty and, if it has an EventGuard, one
    of the guard's tables is; a family wakes as its members do (they
    share their positive atoms and have no guard); an aggregate family
    wakes when any of its driving tables is non-empty.  The answer for one
    set of non-empty tables is computed once and cached, so a pass
    costs one emptiness probe per distinct event table plus one dict
    lookup.  Built lazily from the registered checks and dropped on
    every register / unregister.
    """

    #: distinct non-empty-table sets remembered; past this, new shapes
    #: are computed per pass rather than stored
    CACHE_LIMIT = 1024

    def __init__(self, compiled: list[CompiledEDC], aggregates: list):
        from .aggregates import AggregateFamily  # imports this module

        groups: dict[str, list[CompiledEDC]] = {}
        for c in compiled:
            if c.core is not None and c.core.prepared is not None:
                groups.setdefault(c.core.key, []).append(c)
        #: ``(unit, required tables, any-of tables or None, view names)``
        self.index: list[tuple] = []
        for c in compiled:
            members = groups.get(c.core.key) if c.core is not None else None
            if members is not None and len(members) > 1:
                if members[0] is c:
                    self._add(_Family(members), c, [m.view_name for m in members])
                continue
            self._add(c, c, [c.view_name])
        families: dict[tuple, list] = {}
        for checker in aggregates:
            families.setdefault(checker.family_key, []).append(checker)
        for members in families.values():
            self.index.append(
                (
                    AggregateFamily(members),
                    frozenset(),
                    frozenset(normalize(t) for t in members[0].driving_tables),
                    tuple(checker.spec.name for checker in members),
                )
            )
        tables: set[str] = set()
        for _, required, any_of, _ in self.index:
            tables.update(required)
            tables.update(any_of or ())
        #: every event table some unit is driven by, probed once a pass
        self.tables = tuple(sorted(tables))
        #: installation order of views and checkers: violations are
        #: reported in it whichever unit found them
        self.rank = {
            id(owner): i for i, owner in enumerate([*compiled, *aggregates])
        }
        self._cache: dict[frozenset, tuple[tuple, tuple[str, ...]]] = {}

    def _add(self, unit, compiled: CompiledEDC, names: list[str]) -> None:
        guard = compiled.guard_tables
        self.index.append(
            (
                unit,
                frozenset(normalize(t) for t in compiled.event_tables),
                frozenset(normalize(t) for t in guard) if guard else None,
                tuple(names),
            )
        )

    def nonempty(
        self, db: Database, overlays: Optional[dict[str, TableOverlay]]
    ) -> frozenset:
        empty = SafeCommit._effectively_empty
        return frozenset(
            name for name in self.tables if not empty(db, name, overlays)
        )

    def wake(self, nonempty: frozenset) -> tuple[tuple, tuple[str, ...]]:
        """``(units to run, names of the views they skip)``."""
        entry = self._cache.get(nonempty)
        if entry is None:
            run: list = []
            skipped: list[str] = []
            for unit, required, any_of, names in self.index:
                if required <= nonempty and (
                    any_of is None or not any_of.isdisjoint(nonempty)
                ):
                    run.append(unit)
                else:
                    skipped.extend(names)
            entry = (tuple(run), tuple(skipped))
            if len(self._cache) < self.CACHE_LIMIT:
                self._cache[nonempty] = entry
        return entry
