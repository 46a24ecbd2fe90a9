"""The TINTIN facade — the tool's public API (paper Fig. 2).

Usage mirrors the demo walkthrough in §3:

>>> from repro.minidb import Database
>>> from repro.core import Tintin
>>> db = Database("TPC")
>>> # ... CREATE TABLEs, load data ...
>>> tintin = Tintin(db)
>>> tintin.install()                       # event tables + triggers
>>> tintin.add_assertion('''CREATE ASSERTION atLeastOneLineItem CHECK (
...     NOT EXISTS (SELECT * FROM orders AS o WHERE NOT EXISTS (
...         SELECT * FROM lineitem AS l
...         WHERE l.l_orderkey = o.o_orderkey)))''')
>>> # ... INSERT/DELETE as usual (captured, base tables untouched) ...
>>> result = db.call("safeCommit")         # or tintin.safe_commit()

The pipeline per assertion: SQL -> denials (``DenialCompiler``) ->
EDCs (``EDCGenerator``) -> semantic optimization
(``SemanticOptimizer``) -> SQL views (``SQLGenerator``), all stored in
the database so TINTIN could disconnect afterwards (§3, feature 2).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Optional

from ..errors import CompilationError, DurabilityError, SessionError
from ..logic import Builtin, Constant, Variable
from ..minidb.database import Database, PreparedStatement
from ..minidb.planner import access_skeleton
from ..minidb.types import probe_key
from ..obs.profiler import AssertionProfiler
from ..obs.trace import CommitObs, NullTracer, Tracer
from ..sqlparser import print_query
from .assertion import Assertion
from .baseline import NonIncrementalChecker
from .delta import DeltaCompiler
from .denial_compiler import DenialCompiler
from .edc import EDC
from .edc_generator import EDCGenerator
from .event_tables import EventTableManager
from .optimizer import OptimizationReport, SemanticOptimizer
from .safe_commit import (
    CommitResult,
    CompiledEDC,
    SafeCommit,
    SharedCore,
    log_update,
)
from .sql_generator import SQLGenerator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..durability import DurabilityManager, RecoveryReport
    from ..server import Session, SessionManager

SAFE_COMMIT_PROCEDURE = "safeCommit"

#: the comparison seen from the other side: ``c op x`` is ``x op' c``
_MIRRORED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class Tintin:
    """Incremental integrity checking of SQL assertions on a database."""

    def __init__(self, db: Database, optimize: bool = True):
        self.db = db
        self.events = EventTableManager(db)
        self.safe_commit_proc = SafeCommit()
        self.baseline = NonIncrementalChecker(self.events)
        self.optimizer = SemanticOptimizer(db.catalog, enabled=optimize)
        self.assertions: dict[str, Assertion] = {}
        #: bumped on every add/drop — consumers caching anything derived
        #: from the assertion set (the scheduler's coupling specs) key
        #: their caches on this, so a same-name re-add with a different
        #: body can never serve stale derived state
        self.assertion_version = 0
        self.reports: dict[str, OptimizationReport] = {}
        self._installed = False
        self._sessions: Optional["SessionManager"] = None
        #: write-ahead logging / checkpointing, attached by :meth:`open`
        self.durability: Optional["DurabilityManager"] = None
        #: what recovery found when :meth:`open` rebuilt from disk
        self.recovery_report: Optional["RecoveryReport"] = None
        #: span sink for commit-path tracing; the default
        #: :class:`~repro.obs.trace.NullTracer` keeps the pipeline
        #: observation-free (see :meth:`set_tracer`)
        self.tracer: Tracer = NullTracer()
        #: commits slower than this (seconds, end to end) emit one
        #: structured line on the ``repro.obs.slowlog`` logger; None
        #: disables the slow-commit log
        self.slow_commit_seconds: Optional[float] = None

    # -- observability ------------------------------------------------------

    def set_tracer(self, tracer: Optional[Tracer]) -> None:
        """Install a span sink for commit-path tracing (None resets to
        the no-op :class:`~repro.obs.trace.NullTracer`).

        Plug-in point in the spirit of TanStack db-tracing's
        ``addTracer``: any :class:`~repro.obs.trace.Tracer` subclass
        works — :class:`~repro.obs.trace.RecordingTracer` for in-memory
        inspection, :class:`~repro.obs.trace.JsonlTracer` for offline
        analysis, or your own bridge to an external system.
        """
        self.tracer = tracer if tracer is not None else NullTracer()

    def _make_obs(self, trace_id: Optional[str] = None) -> Optional[CommitObs]:
        """A per-commit observation context, or None when neither
        tracing nor slow-commit logging is enabled (the zero-overhead
        default: stage points then reduce to one ``is None`` test)."""
        tracer = self.tracer
        if not tracer.enabled and self.slow_commit_seconds is None:
            return None
        return CommitObs(
            tracer, trace_id, slow_threshold=self.slow_commit_seconds
        )

    def enable_profiling(self, capture_rows: bool = False) -> AssertionProfiler:
        """Attach (and return) a per-assertion check profiler.

        Every subsequent check records count, skip, violation and wall
        time per violation view; ``capture_rows=True`` additionally
        threads a per-execution plan collector through each check so
        rows-scanned fills in (slower — per-operator accounting).
        """
        profiler = AssertionProfiler(capture_rows=capture_rows)
        self.safe_commit_proc.profiler = profiler
        return profiler

    def disable_profiling(self) -> None:
        self.safe_commit_proc.profiler = None

    def profile(self) -> dict:
        """Cumulative per-assertion check statistics:
        ``{view_name: {checks, skips, violations, seconds,
        rows_scanned}}``.  Attaches a (timing-only) profiler on first
        use; call :meth:`enable_profiling` (optionally with
        ``capture_rows=True``) beforehand to control capture."""
        if self.safe_commit_proc.profiler is None:
            self.enable_profiling()
        return self.safe_commit_proc.profiler.snapshot()

    def profile_report(self) -> str:
        """:meth:`profile` as a fixed-width table, slowest first."""
        if self.safe_commit_proc.profiler is None:
            self.enable_profiling()
        return self.safe_commit_proc.profiler.report()

    def explain_analyze(self, target: str) -> str:
        """Execute and annotate a plan with actual rows/timings.

        ``target`` may be an installed assertion name (all its
        violation views are analyzed), a single view name, or any SQL
        query.  View executions go through the same prepared-plan cache
        entries safeCommit uses.
        """
        assertion = self.assertions.get(target)
        if assertion is not None and assertion.view_names:
            return "\n\n".join(
                f"-- {view}\n"
                + self.db.explain_analyze(f"SELECT * FROM {view}")
                for view in assertion.view_names
            )
        if " " not in target.strip():
            return self.db.explain_analyze(f"SELECT * FROM {target}")
        return self.db.explain_analyze(target)

    # -- durability ---------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str,
        durability: str = "batch",
        optimize: bool = True,
        db: Optional[Database] = None,
    ) -> "Tintin":
        """Open (or create) a durable TINTIN engine rooted at ``path``.

        If the directory already holds a checkpoint or write-ahead log,
        the engine is rebuilt from disk first (see
        :func:`repro.durability.recover`); ``recovery_report`` on the
        returned instance describes what was replayed.  Otherwise a
        fresh engine starts — pass ``db`` to bootstrap from an already
        populated in-memory database.  Bulk-loaded rows are *not*
        logged, so a bootstrap writes an immediate checkpoint: without
        it, the WAL's batches would reference tables replay cannot
        rebuild, and a commit could be acknowledged as durable while
        being unrecoverable.  (Call :meth:`checkpoint` again after
        further bulk loads through ``insert_rows(bypass_triggers=
        True)`` — those bypass the log by design.)

        ``durability`` selects how committed batches reach disk:
        ``"off"`` (checkpoint-only), ``"commit"`` (append + fsync per
        commit, strict per-transaction durability) or ``"batch"``
        (group commit: one combined record and one shared fsync per
        compatible commit group).
        """
        from ..durability import (
            DurabilityManager,
            has_durable_state,
            recover,
        )

        if has_durable_state(path):
            if db is not None:
                raise DurabilityError(
                    f"{path!r} already holds durable state; open() can "
                    "only bootstrap a fresh directory from an existing "
                    "database"
                )
            tintin, report = recover(path, optimize=optimize)
            tintin.recovery_report = report
            # single-pass open: the recovery report already carries the
            # checkpoint's wal_seq and the log's decodable prefix, so
            # the manager opens for append without a second checkpoint
            # parse or WAL scan
            manager = DurabilityManager(path, durability, recovered=report)
        else:
            tintin = cls(db if db is not None else Database(), optimize=optimize)
            manager = DurabilityManager(path, durability)
        tintin._attach_durability(manager)
        if db is not None:
            # bootstrap: make the unlogged pre-existing state durable
            # NOW, so every subsequently acknowledged commit is
            # actually recoverable
            tintin.checkpoint()
        return tintin

    def _attach_durability(self, manager: "DurabilityManager") -> None:
        if self.durability is not None:
            raise DurabilityError(
                "a durability manager is already attached to this engine"
            )
        self.durability = manager
        # the catalog resolves the v2 codec's schema ordinals
        manager.bind_db(self.db)
        # facade-level schema DDL flows into the WAL from here on
        self.db.ddl_listener = manager.log_ddl
        manager.log_open(self.db.name)

    def checkpoint(self) -> dict:
        """Write an atomic full-state snapshot and compact the WAL.

        Excludes concurrent commits (takes the scheduler's write lock
        when the server layer is active), so the snapshot is one
        consistent cut.  Returns the checkpoint document.
        """
        if self.durability is None:
            raise DurabilityError(
                "no durability manager attached — open the engine with "
                "Tintin.open(path)"
            )
        if self._sessions is not None:
            with self._sessions.scheduler.rwlock.write_locked():
                return self.durability.checkpoint(self)
        return self.durability.checkpoint(self)

    def close(self, checkpoint: bool = True) -> None:
        """Detach and close the durability layer.

        By default a final checkpoint is written first, so the next
        :meth:`open` restores instantly instead of replaying the WAL.
        ``close(checkpoint=False)`` skips it — recovery then replays
        the log, exactly as after a crash.  When the server layer is
        active, close serializes with in-flight commit windows (their
        log flush runs inside the scheduler's leader critical
        section), so a racing group commit is either fully flushed
        before the final checkpoint or queued after the detach (and
        then commits non-durably, like any post-close commit).  The
        session manager's background expiry sweeper is stopped either
        way — close() is the clean-shutdown point for every helper
        thread the engine started, durable or not.
        """
        if self._sessions is not None:
            self._sessions.stop_sweeper()
        if self.durability is None:
            return
        if self._sessions is not None:
            scheduler = self._sessions.scheduler
            with scheduler.quiesced():
                self._close_detach(checkpoint)
            # the durability layer is detached: retire the log-writer
            # thread (post-close commits are non-durable and never
            # submit to it)
            scheduler.stop_log_writer()
        else:
            self._close_detach(checkpoint)

    def _close_detach(self, checkpoint: bool) -> None:
        if checkpoint:
            self.checkpoint()
        self.db.ddl_listener = None
        manager = self.durability
        self.durability = None
        manager.close()

    # -- installation -------------------------------------------------------

    def install(self, tables: Optional[list[str]] = None) -> list[str]:
        """Create the event tables, capture triggers and the safeCommit
        procedure.  Returns the instrumented table names."""
        captured = self.events.install(tables)
        self.db.create_procedure(
            SAFE_COMMIT_PROCEDURE,
            lambda db: self.safe_commit(),
            description="TINTIN: check assertions, then commit or reject "
            "the captured update",
        )
        self._installed = True
        if self.durability is not None:
            self.durability.log_ddl("install", tables=list(captured))
        return captured

    @property
    def installed(self) -> bool:
        return self._installed

    # -- assertions -------------------------------------------------------------

    def add_assertion(self, sql: str) -> Assertion:
        """Compile and install one ``CREATE ASSERTION`` statement.

        Returns the :class:`Assertion` with its denials, EDCs and view
        names filled in for inspection.
        """
        if not self._installed:
            raise CompilationError(
                "call install() before adding assertions — the generated "
                "views reference the event tables"
            )
        assertion = Assertion.parse(sql)
        if assertion.name in self.assertions:
            raise CompilationError(
                f"assertion {assertion.name!r} already exists"
            )

        from .aggregates import AggregateAssertionCompiler, AggregateChecker

        if AggregateAssertionCompiler.is_aggregate_assertion(assertion):
            # the future-work extension (§5): aggregate assertions use a
            # dedicated group-probe checker instead of EDC views
            spec = AggregateAssertionCompiler(self.db.catalog).compile(assertion)
            assertion.aggregate = spec
            self.safe_commit_proc.register_aggregate(AggregateChecker(spec))
            self.baseline.register(assertion)
            self.assertions[assertion.name] = assertion
            self.assertion_version += 1
            if self.durability is not None:
                self.durability.log_ddl("assertion_add", sql=assertion.sql)
            return assertion

        compiler = DenialCompiler(self.db.catalog)
        assertion.denials = compiler.compile(assertion)

        generator = EDCGenerator()
        sql_gen = SQLGenerator(self.db.catalog)
        all_edcs = []
        for denial in assertion.denials:
            edcs, aux_predicates = generator.generate(denial)
            edcs, report = self.optimizer.optimize(edcs)
            self.reports[denial.name] = report
            all_edcs.extend(edcs)
            aux_index = {a.predicate.name.lower(): a for a in aux_predicates}
            for aux in aux_predicates:
                view = sql_gen.aux_view(aux, aux_index)
                if view is not None and not self.db.catalog.has_view(view.name):
                    self.db.create_view(view.name, view.query)
        assertion.edcs = all_edcs

        delta_compiler = DeltaCompiler(sql_gen)
        for edc in all_edcs:
            query = sql_gen.edc_query(edc)
            view_name = edc.name
            self.db.create_view(view_name, query)
            assertion.view_names.append(view_name)
            # compile the violation view into a prepared plan now, so
            # every subsequent safeCommit executes it without parsing or
            # planning (the handle re-plans itself lazily after DDL)
            prepared = self.db.prepare(f"SELECT * FROM {view_name}")
            # derive the delta rule alongside the full plan: guard-mode
            # EDCs get a seeded plan that probes only update-adjacent
            # parents; the full view stays installed as the oracle and
            # the fallback whenever the memo state is cold
            delta = delta_compiler.compile(edc)
            delta_prepared = (
                self.db.prepare_query(delta.query)
                if delta is not None and delta.query is not None
                else None
            )
            core = (
                self._shared_core(edc, sql_gen, prepared)
                if delta_prepared is None and edc.guard is None
                else None
            )
            self.safe_commit_proc.register(
                CompiledEDC(
                    edc=edc,
                    view_name=view_name,
                    event_tables=edc.event_tables,
                    guard_tables=edc.guard_tables,
                    prepared=prepared,
                    delta=delta,
                    delta_prepared=delta_prepared,
                    core=core,
                )
            )

        self.baseline.register(assertion)
        self.assertions[assertion.name] = assertion
        self.assertion_version += 1
        if self.durability is not None:
            self.durability.log_ddl("assertion_add", sql=assertion.sql)
        return assertion

    def _shared_core(
        self, edc: EDC, sql_gen: SQLGenerator, prepared: PreparedStatement
    ) -> Optional[SharedCore]:
        """The core ``edc`` can share with EDCs differing from it only in
        constants, or None when sharing would not be exact and free.

        The core is the body minus its top-level ``Variable op
        Constant`` builtins; each removed builtin becomes a residual
        comparison on the core's output row.  Refused when a constant
        is not type-compatible with its column (a row could then raise
        on one path and not the other).  The core is compiled only once
        a second EDC renders to it, and every EDC whose own plan reads
        through other scans, joins or probes than the core's leaves the
        family — so sharing never turns a probe into a scan.
        """
        body: list = []
        removed: list[tuple[Variable, str, object]] = []
        for literal in edc.body:
            if isinstance(literal, Builtin):
                left, right = literal.left, literal.right
                if isinstance(left, Variable) and isinstance(right, Constant):
                    removed.append((left, literal.op, right.value))
                    continue
                if isinstance(left, Constant) and isinstance(right, Variable):
                    removed.append((right, _MIRRORED[literal.op], left.value))
                    continue
            body.append(literal)
        canon: dict = {}
        query = sql_gen.edc_query(replace(edc, body=tuple(body)), canon_out=canon)
        offsets: dict[str, tuple[int, object]] = {}
        width = 0
        for ref in query.from_items:
            table = self.db.catalog.require_table(ref.name)
            offsets[ref.binding] = (width, table)
            width += len(table.schema.columns)
        residual = []
        for variable, op, constant in removed:
            column_ref = canon[variable]
            start, table = offsets[column_ref.table]
            index = table.schema.column_names.index(column_ref.column)
            if not probe_key(constant, table.schema.columns[index].sql_type):
                return None
            residual.append((start + index, op, constant))
        key = print_query(query)
        peers = [
            c
            for c in self.safe_commit_proc.compiled
            if c.core is not None and c.core.key == key
        ]
        if not peers:
            return SharedCore(key, query, tuple(residual))
        handle = next(
            (c.core.prepared for c in peers if c.core.prepared is not None),
            None,
        ) or self.db.prepare_query(query)
        skeleton = access_skeleton(handle.plan)
        for peer in peers:
            if peer.core.prepared is None:
                peer.core = (
                    replace(peer.core, prepared=handle)
                    if access_skeleton(peer.prepared.plan) == skeleton
                    else None
                )
        if access_skeleton(prepared.plan) != skeleton:
            return None
        return SharedCore(key, query, tuple(residual), handle)

    def drop_assertion(self, name: str) -> None:
        """Remove an assertion and its views."""
        assertion = self.assertions.pop(name, None)
        if assertion is None:
            raise CompilationError(f"unknown assertion {name!r}")
        for view in assertion.view_names:
            self.db.catalog.drop_view(view, if_exists=True)
        self.safe_commit_proc.unregister_assertion(name)
        # denials beyond the first carry suffixed names; unregister those too
        for denial in assertion.denials:
            self.safe_commit_proc.unregister_assertion(denial.name)
        self.baseline.unregister(name)
        self.assertion_version += 1
        if self.durability is not None:
            self.durability.log_ddl("assertion_drop", name=assertion.name)

    # -- sessions (the multi-client server facade) -------------------------

    @property
    def sessions(self) -> "SessionManager":
        """The session manager (created lazily on first use).

        Owns the commit scheduler; see :mod:`repro.server`.
        """
        if self._sessions is None:
            from ..server import SessionManager

            self._sessions = SessionManager(self)
        return self._sessions

    @property
    def serving(self) -> bool:
        """Whether the multi-session server layer has been activated."""
        return self._sessions is not None

    def serve(
        self,
        policy: str = "group",
        gather_seconds: float = 0.0,
        default_ttl: Optional[float] = None,
        sweep_interval: Optional[float] = None,
        max_idle: Optional[float] = None,
    ) -> "SessionManager":
        """Activate the server layer with explicit scheduler options.

        ``policy='serial'`` disables group batching (strict one-at-a-
        time semantics); ``gather_seconds`` lets a commit leader wait
        for stragglers to fatten batches.  ``sweep_interval`` starts
        the background expiry sweeper (reaping lapsed-TTL sessions —
        and, with ``max_idle``, idle ones — without waiting for
        another call to touch the manager; stopped by :meth:`close`).
        Must be called before the first session is created; without
        it, :attr:`sessions` uses the defaults.
        """
        if self._sessions is not None:
            raise SessionError(
                "serve() must be called before the first session exists"
            )
        from ..server import SessionManager

        self._sessions = SessionManager(
            self,
            default_ttl=default_ttl,
            policy=policy,
            gather_seconds=gather_seconds,
        )
        if sweep_interval is not None:
            self._sessions.start_sweeper(sweep_interval, max_idle=max_idle)
        return self._sessions

    def listen(self, host: str = "127.0.0.1", port: int = 0, **config):
        """Start the network front end serving this engine.

        Returns a started :class:`repro.net.TintinServer` (its
        ``address`` property carries the bound host/port — port 0 picks
        a free one).  ``config`` is forwarded to the server: admission
        queue sizing, watermarks, default deadlines, fault injector.
        The server owns graceful shutdown: ``server.shutdown()`` stops
        accepting, drains in-flight commit windows through the log
        writer, checkpoints and closes the engine.
        """
        from ..net import TintinServer

        server = TintinServer(self, host=host, port=port, **config)
        server.start()
        return server

    def create_session(self, ttl: Optional[float] = None) -> "Session":
        """Open a session with a private staging area.

        Stage through ``session.execute(sql)`` / ``session.insert`` /
        ``session.delete``, read with ``session.query`` (snapshot +
        read-your-writes), then ``session.commit()``.
        """
        if not self._installed:
            raise SessionError(
                "call install() before creating sessions — staging needs "
                "the instrumented table list"
            )
        return self.sessions.create(ttl=ttl)

    # -- checking ------------------------------------------------------------------

    def safe_commit(self, session: Optional["Session"] = None) -> CommitResult:
        """Run the safeCommit procedure.

        With no argument this is the paper's single-session call, and
        the body of the stored procedure (``db.call('safeCommit')`` is
        the same entry): the captured update is moved out of the event
        tables and handed to the commit unit
        (:class:`~repro.core.safe_commit.SafeCommit`) — directly, with
        an inline fsync, while no session exists; through the commit
        scheduler once sessions do, so the default session serializes
        correctly with concurrent sessions (its trigger captures take
        the scheduler's read lock, so they cannot interleave with a
        commit window).
        The default session remains *one* client, as in the paper: it
        must not stage and commit from multiple threads at once, and
        its plain reads (``db.query``) are not snapshot-guarded against
        concurrent commit windows — use a :class:`Session` (whose
        ``query`` takes the read lock) for reads under concurrency.
        With a session argument, commits that session's staged update
        (same as ``session.commit()``).
        """
        if session is not None:
            return session.commit()
        if self._sessions is not None:
            scheduler = self._sessions.scheduler
            with scheduler.rwlock.read_locked():
                staged = self.events.take_events()
            return scheduler.commit_events(*staged)
        inserts, deletes = self.events.take_events()
        manager = self._log_manager()
        result, logged = self.safe_commit_proc(
            self.db, inserts, deletes, self.db.transactions, log=manager
        )
        if logged:
            # an acknowledged single-session commit is always durable
            manager.sync()
        return result

    def _log_manager(self) -> Optional["DurabilityManager"]:
        """The attached durability manager, or None when commits are
        not being logged (no manager, or mode ``"off"``)."""
        manager = self.durability
        return manager if manager is not None and manager.durable else None

    def full_check_commit(self) -> CommitResult:
        """The non-incremental comparator: apply, re-run full assertion
        queries, roll back on violation (paper §4 baseline).  Logged
        and fsynced like the single-session commit it stands in for."""
        inserts, deletes = self.events.take_events()
        result = self.baseline(self.db, inserts, deletes)
        manager = self._log_manager()
        if result.committed and log_update(self.db, manager, inserts, deletes):
            manager.sync()
        return result

    def check_pending(self) -> CommitResult:
        """Check the captured update without committing or discarding it."""
        violations, checked, skipped = self.safe_commit_proc.check_only(self.db)
        return CommitResult(
            committed=not violations,
            violations=violations,
            checked_views=checked,
            skipped_views=skipped,
        )

    # -- introspection ----------------------------------------------------------------

    def describe(self) -> str:
        """A human-readable summary of installed assertions and EDCs."""
        lines = [f"TINTIN on database {self.db.name!r}"]
        lines.append(
            f"  instrumented tables: {', '.join(self.events.captured_tables) or '-'}"
        )
        for assertion in self.assertions.values():
            lines.append(f"  assertion {assertion.name}:")
            if assertion.aggregate is not None:
                spec = assertion.aggregate
                arg = "*" if spec.argument is None else "..."
                lines.append(
                    f"    aggregate: {spec.func}({arg}) over "
                    f"{spec.inner_table} per {spec.outer_table} "
                    f"{spec.op} {spec.bound}"
                )
                continue
            for denial in assertion.denials:
                lines.append(f"    denial: {denial}")
            for edc in assertion.edcs:
                lines.append(f"    EDC {edc.name}: {edc}")
        return "\n".join(lines)
