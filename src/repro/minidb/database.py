"""The :class:`Database` facade: SQL execution against the catalog.

This is the engine's public entry point.  It parses and executes SQL
text (or pre-parsed ASTs), dispatches DML through INSTEAD OF triggers,
enforces constraints, and exposes the transactional batch-apply that
TINTIN's ``safeCommit`` uses.

Compilation is amortized through two cooperating layers:

* :class:`PreparedStatement` — an explicit handle (``db.prepare(sql)``
  / ``db.prepare_query(ast)``) that owns a compiled plan and re-plans
  itself lazily when the catalog version changes or referenced table
  sizes drift far from what the planner assumed;
* one transparent statement cache (:class:`PlanCache`) behind
  :meth:`Database.execute`, :meth:`Database.query`, ``EXPLAIN`` and
  :meth:`repro.server.session.Session.execute`, keyed by statement
  *shape* — the SELECT/INSERT/DELETE/UPDATE text with its numeric and
  string literals lifted out (:mod:`repro.sqlparser.shape`).  An entry
  is the shape parsed once, parameter nodes in the literal positions,
  plus its :class:`PreparedStatement` (a SELECT's query, the victim
  query of a DELETE/UPDATE, the source of an INSERT … SELECT).  The
  constants travel with each execution, so a repeated shape costs
  normalise → dict hit → execute: no lexer, no parser, no planner,
  whatever its constants.

Both layers rely on plans being immutable and reusable (see
:mod:`repro.minidb.plan`); set ``plan_cache_enabled = False`` to parse
and plan every statement fresh.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from time import perf_counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from ..errors import (
    CatalogError,
    ConstraintViolation,
    ExecutionError,
    SQLSyntaxError,
    SchemaError,
)
from ..sqlparser import nodes as n
from ..sqlparser.parser import parse_shape, parse_statement
from ..sqlparser.shape import statement_shape
from .catalog import Catalog, Procedure, Trigger, View
from .constraints import ConstraintChecker, validate_foreign_keys
from .expressions import ARGS_KEY, Compiled, Scope, compile_expr
from .plan import ExecutionContext, PlanNode, execution_params
from .planner import Planner
from .schema import Column, TableSchema
from .storage import Table, TableOverlay
from .transactions import TransactionManager
from .types import resolve_type

#: A cached plan is re-planned when a referenced table's row count moves
#: at least this factor away from its plan-time value (a plan chosen
#: when a table held 10 rows is re-planned once it reaches 100 — the
#: IndexJoin-vs-HashJoin decision was made for a different shape) ...
_DRIFT_RATIO = 10.0
#: ... provided the absolute change also crosses this delta.  The delta
#: gate keeps small-table noise from thrashing the cache: TINTIN's
#: event tables legitimately swing between empty and update-sized on
#: every commit, and for update-sized row counts every plan shape
#: decision comes out the same anyway.  Because a table growing row by
#: row re-records its count at each re-plan, a growing table triggers
#: only O(log n) recompilations over its lifetime.
_DRIFT_MIN_DELTA = 64


def _row_count_drifted(old: int, new: int) -> bool:
    if abs(new - old) < _DRIFT_MIN_DELTA:
        return False
    return new >= old * _DRIFT_RATIO or old >= new * _DRIFT_RATIO


class ResultSet:
    """An executed query result: column names plus materialized rows."""

    def __init__(self, columns: list[str], rows: list[tuple]):
        self.columns = columns
        self.rows = rows

    @property
    def is_empty(self) -> bool:
        return not self.rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def first(self) -> Optional[tuple]:
        return self.rows[0] if self.rows else None

    def column(self, name: str) -> list:
        """All values of one output column."""
        try:
            index = [c.lower() for c in self.columns].index(name.lower())
        except ValueError:
            raise ExecutionError(f"result has no column {name!r}") from None
        return [row[index] for row in self.rows]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultSet({self.columns}, {len(self.rows)} rows)"


class _PlanState(NamedTuple):
    """One immutable compilation of a prepared statement.

    Bundling the plan with its validity metadata into a single object
    lets a re-plan install the new compilation with one attribute
    assignment, so a concurrent :meth:`PreparedStatement.execute` on
    another thread always sees a matching (plan, columns) pair.
    """

    plan: PlanNode
    columns: list[str]
    catalog_version: int
    #: ``(table, row count at plan time)`` per base table the planner
    #: touched — the drift check's input, resolved once here
    drift_pairs: tuple[tuple[Table, int], ...]
    table_refs: dict[str, Table]


class PreparedStatement:
    """A query compiled once and executable many times.

    The handle owns the current compiled plan plus the metadata needed
    to decide whether it is still trustworthy: the catalog version it
    was planned under and the row counts of every base table the
    planner touched.  :meth:`execute` revalidates in O(#tables) integer
    comparisons and re-plans lazily when the catalog changed
    (DDL — the plan may reference dropped objects) or a table size
    drifted past :data:`_DRIFT_RATIO` (the greedy IndexJoin/HashJoin
    decisions were made for a different data shape).

    Handles are shared across server sessions: re-planning is
    serialized per handle, and the compiled state swaps atomically.
    """

    def __init__(self, db: "Database", query: n.Query, sql: Optional[str] = None):
        self.db = db
        self.query = query
        self.sql = sql
        self._replan_lock = threading.Lock()
        self._state = self._compile()

    # -- compilation ------------------------------------------------------

    def _compile(self) -> _PlanState:
        # read the version BEFORE planning: if DDL lands mid-compile,
        # the state is stamped stale and revalidation re-plans — it can
        # never pin a pre-DDL plan under the post-DDL version
        catalog_version = self.db.catalog.version
        planner = Planner(self.db.catalog)
        plan = planner.plan_query(self.query)
        return _PlanState(
            plan=plan,
            columns=planner.output_columns(self.query),
            catalog_version=catalog_version,
            drift_pairs=tuple(
                (planner.table_refs[name], count)
                for name, count in planner.tables_used.items()
            ),
            table_refs=dict(planner.table_refs),
        )

    def _state_is_valid(self, state: _PlanState) -> bool:
        # tables are added and dropped only by version-bumping DDL, so
        # under an unchanged version the planned Table objects are
        # still the catalog's own: no lookup by name is needed
        if state.catalog_version != self.db.catalog.version:
            return False
        for table, planned_count in state.drift_pairs:
            if _row_count_drifted(planned_count, len(table)):
                return False
        return True

    def is_valid(self) -> bool:
        """Whether the compiled plan can still be executed as-is."""
        return self._state_is_valid(self._state)

    def _validated_state(self) -> _PlanState:
        state = self._state
        if self._state_is_valid(state):
            return state
        with self._replan_lock:
            state = self._state
            if not self._state_is_valid(state):
                self.db.plan_cache_stats.invalidations += 1
                state = self._compile()
                self._state = state
            return state

    # -- execution --------------------------------------------------------

    @property
    def plan(self) -> PlanNode:
        """The current compiled plan (revalidated on access)."""
        return self._validated_state().plan

    @property
    def columns(self) -> list[str]:
        # a view redefinition can change the list, so revalidate first
        return list(self._validated_state().columns)

    def execute(
        self,
        params: Optional[dict] = None,
        overlays: Optional[dict[str, TableOverlay]] = None,
        collector: Optional[object] = None,
    ) -> ResultSet:
        """Run the prepared plan under a fresh execution context.

        ``overlays`` (normalized table name ->
        :class:`~repro.minidb.storage.TableOverlay`) merges staged
        events into the named tables for this execution only — the
        overlay-merge read path of server sessions.  The compiled plan
        itself is shared and untouched.  ``collector`` (see
        :class:`repro.obs.profiler.PlanStatsCollector`) observes this
        one execution's per-node row counts and timings.
        """
        state = self._validated_state()
        ctx = ExecutionContext(overlays, collector=collector)
        return ResultSet(
            list(state.columns), list(state.plan.run(params, ctx))
        )

    def explain(self) -> str:
        """The current physical plan as an indented tree."""
        return self._validated_state().plan.explain()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.sql if self.sql is not None else type(self.query).__name__
        return (
            f"PreparedStatement({label!r}, "
            f"catalog v{self._state.catalog_version})"
        )


@dataclass
class PlanCacheStats:
    """Counters for the statement cache (inspect via EXPLAIN)."""

    #: SELECT shapes: found (hit) or parsed, planned and stored (miss)
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    #: INSERT/DELETE/UPDATE shapes, counted the same way
    dml_ast_hits: int = 0
    dml_ast_misses: int = 0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "dml_ast_hits": self.dml_ast_hits,
            "dml_ast_misses": self.dml_ast_misses,
        }


class CachedStatement:
    """A statement compiled once: what one statement-cache entry holds.

    ``stmt`` is the parsed statement — of a cached shape, with
    :class:`~repro.sqlparser.nodes.Parameter` nodes where the text had
    constants.  ``prepared`` is the query the statement reads through:
    a SELECT's own query (compiled with the entry), the victim query
    of a DELETE/UPDATE … WHERE or the source of an INSERT … SELECT
    (compiled on first execution).  ``values`` are the compiled rows of
    an INSERT … VALUES.  All three are immutable and shared: whatever
    differs between two executions arrives in their ``params``.
    """

    __slots__ = ("stmt", "prepared", "values")

    def __init__(
        self, stmt: n.Statement, prepared: Optional[PreparedStatement] = None
    ):
        self.stmt = stmt
        self.prepared = prepared
        self.values: Optional[list[list[Compiled]]] = None
        if isinstance(stmt, n.Insert) and stmt.query is None:
            no_columns = Scope([])
            self.values = [
                [compile_expr(value, no_columns) for value in row]
                for row in stmt.rows
            ]


class PlanCache:
    """The statement cache: a small LRU of :class:`CachedStatement`
    keyed by statement shape (:func:`repro.sqlparser.shape.statement_shape`).

    Entries revalidate themselves (their prepared plans check catalog
    version + row-count drift), so the cache never needs proactive
    invalidation — stale entries simply re-plan on their next use.
    Statements that fail to parse or plan are never cached.  All
    operations are serialized behind an internal lock: session threads
    share one cache.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._entries: "OrderedDict[str, CachedStatement]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, shape: str) -> Optional[CachedStatement]:
        with self._lock:
            entry = self._entries.get(shape)
            if entry is not None:
                self._entries.move_to_end(shape)
            return entry

    def put(self, shape: str, entry: CachedStatement) -> int:
        """Store ``entry``; returns how many old entries it evicted."""
        evicted = 0
        with self._lock:
            self._entries[shape] = entry
            self._entries.move_to_end(shape)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
        return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def prune_dead(self, catalog: Catalog) -> int:
        """Drop entries whose plans pin storage that left the catalog.

        A cached plan holds direct references to its tables' row
        storage; after DROP TABLE — including drop-and-recreate under
        the same name — the entry would otherwise retain the dropped
        storage until LRU eviction.  Detection is by object identity:
        an entry is dead as soon as any captured Table is no longer the
        catalog's current object for that name.  Entries whose tables
        are all intact (merely version-stale plans) are kept — they
        re-plan cheaply from their stored AST.
        """
        with self._lock:
            dead = [
                shape
                for shape, entry in self._entries.items()
                if entry.prepared is not None
                and any(
                    catalog.get_table(name, default=None) is not ref
                    for name, ref in entry.prepared._state.table_refs.items()
                )
            ]
            for shape in dead:
                del self._entries[shape]
            return len(dead)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, sql: str) -> bool:
        """Whether the shape of ``sql`` has an entry."""
        split = statement_shape(sql)
        with self._lock:
            return split is not None and split[0] in self._entries


class Database:
    """An in-memory relational database with SQL Server-style features.

    The subset implemented is exactly what the TINTIN reproduction
    needs: typed tables with PK/UNIQUE/NOT NULL/FK constraints, views,
    INSTEAD OF triggers, stored procedures, transactions, and a planner
    whose incremental-friendly access paths mirror what a production
    optimizer would do with the paper's generated queries.
    """

    def __init__(self, name: str = "db", plan_cache_size: int = 256):
        self.name = name
        self.catalog = Catalog()
        self.checker = ConstraintChecker(self.catalog)
        #: the default transaction manager; server sessions bind their
        #: own manager per thread via :meth:`transaction_scope`
        self._default_transactions = TransactionManager()
        self._txn_binding = threading.local()
        #: the transparent statement cache, keyed by statement shape;
        #: set ``plan_cache_enabled = False`` to parse and plan every
        #: statement fresh
        self.plan_cache = PlanCache(plan_cache_size)
        self.plan_cache_enabled = True
        self.plan_cache_stats = PlanCacheStats()
        self._cache_pruned_version = -1
        #: optional DDL observer ``(event, **payload)`` invoked after a
        #: facade-level schema change succeeds.  The durability manager
        #: installs itself here so CREATE/DROP TABLE issued through the
        #: database reach the write-ahead log; event-namespace tables
        #: (TINTIN's capture machinery) are recreated by replaying the
        #: higher-level ``install`` record instead and bypass this hook.
        self.ddl_listener = None
        #: makes a facade DDL's catalog mutation and its listener call
        #: one atomic step.  WAL format v2 batch records reference
        #: tables by catalog position, so the log's DDL order must
        #: match the catalog's mutation order — without this lock two
        #: racing DDLs could mutate in one order and log in the other,
        #: and replay would resolve ordinals against the wrong list.
        self._ddl_lock = threading.Lock()

    # -- transactions (per-session binding) ---------------------------------

    @property
    def transactions(self) -> TransactionManager:
        """The transaction manager bound to the calling thread.

        Defaults to the database-wide manager; a server session's
        commit window rebinds its own manager via
        :meth:`transaction_scope` so undo logs stay per-session.
        """
        bound = getattr(self._txn_binding, "manager", None)
        return bound if bound is not None else self._default_transactions

    @contextmanager
    def transaction_scope(self, manager: TransactionManager):
        """Bind ``manager`` as the calling thread's transaction manager
        for the duration of the ``with`` block."""
        previous = getattr(self._txn_binding, "manager", None)
        self._txn_binding.manager = manager
        try:
            yield manager
        finally:
            self._txn_binding.manager = previous

    # -- prepared statements ------------------------------------------------

    def prepare(self, sql: str) -> PreparedStatement:
        """Compile a SELECT/UNION once for repeated execution."""
        stmt = parse_statement(sql)
        if not isinstance(stmt, n.SelectStatement):
            raise ExecutionError("prepare() requires a SELECT statement")
        return PreparedStatement(self, stmt.query, sql=sql)

    def prepare_query(self, query: n.Query) -> PreparedStatement:
        """Compile a pre-parsed query AST once for repeated execution."""
        return PreparedStatement(self, query)

    # -- the statement cache ------------------------------------------------

    def statement(
        self, sql: str
    ) -> tuple[CachedStatement, Optional[dict], bool]:
        """The one lookup behind every text entry point.

        Splits ``sql`` into shape and constants, returns the shape's
        cache entry — parsing (and, for a SELECT, planning) and storing
        it on a miss — together with the ``params`` that carry this
        call's constants into its execution, and whether it was a hit.
        Text the cache does not cover (DDL, CALL, a syntax error, or
        any text while ``plan_cache_enabled`` is off) is parsed as
        written into an entry of its own that is not stored.
        """
        split = statement_shape(sql) if self.plan_cache_enabled else None
        if split is not None:
            found = self._cached_statement(*split)
            if found is not None:
                return found
        return self._compile(parse_statement(sql), sql), None, False

    def _cached_statement(self, shape: str, constants: tuple):
        """:meth:`statement` for a cacheable text; ``None`` when the
        shape does not parse (the caller then parses the text as
        written, so the error names the user's own line and column)."""
        params = {ARGS_KEY: constants} if constants else None
        if self._cache_pruned_version != self.catalog.version:
            # DDL happened since the last access: free entries whose
            # tables were dropped (they pin the dropped row storage)
            self.plan_cache.prune_dead(self.catalog)
            self._cache_pruned_version = self.catalog.version
        stats = self.plan_cache_stats
        entry = self.plan_cache.get(shape)
        if entry is not None:
            if isinstance(entry.stmt, n.SelectStatement):
                stats.hits += 1
            else:
                stats.dml_ast_hits += 1
            return entry, params, True
        try:
            stmt = parse_shape(shape)
        except SQLSyntaxError:
            return None
        entry = self._compile(stmt, shape)
        if isinstance(stmt, n.SelectStatement):
            stats.misses += 1
        else:
            stats.dml_ast_misses += 1
        stats.evictions += self.plan_cache.put(shape, entry)
        return entry, params, False

    def _compile(self, stmt: n.Statement, label: Optional[str] = None):
        prepared = None
        if isinstance(stmt, n.SelectStatement):
            prepared = PreparedStatement(self, stmt.query, sql=label)
        return CachedStatement(stmt, prepared)

    def _select(self, sql: str, required_by: str):
        """:meth:`statement` for callers that accept only a SELECT:
        ``(prepared, params, was_hit)``."""
        entry, params, was_hit = self.statement(sql)
        if not isinstance(entry.stmt, n.SelectStatement):
            raise ExecutionError(f"{required_by} requires a SELECT statement")
        return entry.prepared, params, was_hit

    # -- SQL entry points ---------------------------------------------------

    def execute(self, sql: str):
        """Parse and execute one SQL statement.

        Returns a :class:`ResultSet` for queries, an affected-row count
        for DML, a plan-tree string for ``EXPLAIN <query>``, and
        ``None`` for DDL.  SELECT, INSERT, DELETE and UPDATE text goes
        through the statement cache: a repeated shape skips the lexer,
        the parser and the planner.
        """
        explained = _split_explain(sql)
        if explained is not None:
            analyze, inner = explained
            if analyze:
                return self.explain_analyze(inner)
            return self._explain_text(inner)
        entry, params, _ = self.statement(sql)
        return self._run(entry, params)

    def execute_script(self, sql: str) -> list:
        """Execute a ``;``-separated script; returns per-statement results.

        Script statements run through the AST path and deliberately
        bypass the statement cache (the parser does not preserve
        per-statement source text to key it with); scripts are a setup
        convenience, not a hot path.
        """
        from ..sqlparser.parser import parse_script

        return [self.execute_statement(stmt) for stmt in parse_script(sql)]

    def execute_statement(self, stmt: n.Statement):
        """Execute a pre-parsed statement (no text, so no cache)."""
        return self._run(self._compile(stmt))

    def _run(self, entry: CachedStatement, params: Optional[dict] = None):
        stmt = entry.stmt
        if isinstance(stmt, n.SelectStatement):
            return entry.prepared.execute(params)
        if isinstance(stmt, n.Insert):
            table, rows = self.resolve_insert_rows(entry, params)
            return self.insert_rows(table.name, rows)
        if isinstance(stmt, n.Delete):
            table, victims = self.resolve_delete_rows(entry, params)
            return self.delete_rows(table.name, victims)
        if isinstance(stmt, n.Update):
            return self._execute_update(entry, params)
        if isinstance(stmt, n.Explain):
            # AST entry point: no SQL text to key the cache with — plan
            # fresh and report the tree (the text entry point in
            # :meth:`execute` adds cache hit/miss information).
            plan = Planner(self.catalog).plan_query(stmt.query)
            if getattr(stmt, "analyze", False):
                return _run_explain_analyze(plan)
            return plan.explain()
        if isinstance(stmt, n.CreateTable):
            self.create_table_ast(stmt)
            return None
        if isinstance(stmt, n.CreateView):
            with self._ddl_lock:
                self.create_view(stmt.name, stmt.query)
                if self.ddl_listener is not None:
                    # user-issued views are WAL-logged as printed SQL;
                    # TINTIN's assertion views bypass this (they call
                    # create_view directly and are rebuilt by assertion
                    # replay instead)
                    from ..sqlparser.printer import print_query

                    self.ddl_listener(
                        "create_view",
                        name=stmt.name,
                        sql=print_query(stmt.query),
                    )
            return None
        if isinstance(stmt, n.CreateAssertion):
            raise ExecutionError(
                "CREATE ASSERTION must go through repro.core.Tintin — the "
                "engine itself does not implement assertions (that is the "
                "paper's point)"
            )
        if isinstance(stmt, n.DropTable):
            with self._ddl_lock:
                dropped = self.catalog.drop_table(stmt.name, stmt.if_exists)
                if dropped and self.ddl_listener is not None:
                    self.ddl_listener("drop_table", name=stmt.name)
            return None
        if isinstance(stmt, n.DropView):
            with self._ddl_lock:
                dropped_view = self.catalog.drop_view(
                    stmt.name, stmt.if_exists
                )
                if dropped_view and self.ddl_listener is not None:
                    self.ddl_listener("drop_view", name=stmt.name)
            return None
        if isinstance(stmt, n.Truncate):
            return self.catalog.require_table(stmt.table).truncate()
        if isinstance(stmt, n.Call):
            args = [self._literal_value(a) for a in stmt.args]
            return self.call(stmt.name, *args)
        raise ExecutionError(f"cannot execute statement {type(stmt).__name__}")

    def query(
        self,
        sql: str,
        overlays: Optional[dict[str, TableOverlay]] = None,
    ) -> ResultSet:
        """Parse and run a SELECT/UNION, returning a ResultSet.

        Queries go through the statement cache keyed on the text's
        shape: a repeated query skips the parser and planner entirely,
        whatever its constants.  ``overlays`` merges staged events into
        the named base tables for this execution only (see
        :meth:`PreparedStatement.execute`).
        """
        prepared, params, _ = self._select(sql, required_by="query()")
        return prepared.execute(params, overlays)

    def query_ast(
        self,
        query: n.Query,
        overlays: Optional[dict[str, TableOverlay]] = None,
    ) -> ResultSet:
        planner = Planner(self.catalog)
        plan = planner.plan_query(query)
        columns = planner.output_columns(query)
        return ResultSet(
            columns, list(plan.run(ctx=ExecutionContext(overlays)))
        )

    def explain(self, sql: str) -> str:
        """The physical plan for a query, as an indented tree, headed by
        a plan-cache status line (same output as ``EXPLAIN <query>``)."""
        return self._explain_text(sql)

    def explain_analyze(
        self,
        sql: str,
        overlays: Optional[dict[str, TableOverlay]] = None,
    ) -> str:
        """Execute a query and return its plan tree annotated with
        actual per-node row counts and inclusive timings (same output
        as ``EXPLAIN ANALYZE <query>``).  Goes through the statement
        cache like a normal query."""
        prepared, params, _ = self._select(sql, required_by="EXPLAIN ANALYZE")
        state = prepared._validated_state()
        return _run_explain_analyze(state.plan, overlays, params)

    def _explain_text(self, sql: str) -> str:
        """EXPLAIN body: cache status header + the plan tree.

        The lookup is the query's own (:meth:`statement`), so the
        status is that of exactly the shape entry the query would use;
        the shape is planned (and cached) if absent, so an EXPLAIN
        followed by the query itself reuses the compiled plan.
        """
        stats = self.plan_cache_stats
        prepared, _, was_hit = self._select(sql, required_by="EXPLAIN")
        if was_hit:
            status = "hit" if prepared.is_valid() else "hit (stale, re-planning)"
        elif self.plan_cache_enabled:
            status = "miss"
        else:
            status = "disabled"
        header = (
            f"-- plan cache: {status} (catalog v{self.catalog.version}, "
            f"hits={stats.hits} misses={stats.misses} "
            f"invalidations={stats.invalidations})"
        )
        if self.plan_cache_enabled:
            header += f"\n-- shape: {prepared.sql}"
        return header + "\n" + prepared.explain()

    # -- DDL -------------------------------------------------------------------

    def create_table_ast(self, stmt: n.CreateTable, namespace: str = "main") -> Table:
        columns = [
            Column(
                c.name,
                resolve_type(c.type_name, c.type_params),
                c.not_null,
            )
            for c in stmt.columns
        ]
        primary_key = stmt.primary_key
        inline_pk = [c.name for c in stmt.columns if c.primary_key]
        if inline_pk:
            if primary_key:
                raise SchemaError(
                    f"table {stmt.name!r}: both inline and table-level PRIMARY KEY"
                )
            if len(inline_pk) > 1:
                raise SchemaError(
                    f"table {stmt.name!r}: multiple inline PRIMARY KEY columns"
                )
            primary_key = tuple(inline_pk)
        from .schema import ForeignKey

        schema = TableSchema(
            stmt.name,
            columns,
            primary_key,
            tuple(
                ForeignKey(fk.columns, fk.ref_table, fk.ref_columns)
                for fk in stmt.foreign_keys
            ),
            stmt.uniques,
        )
        validate_foreign_keys(self.catalog, schema)
        with self._ddl_lock:
            table = self.catalog.add_table(schema, namespace)
            if self.ddl_listener is not None:
                self.ddl_listener(
                    "create_table", schema=schema, namespace=namespace
                )
        return table

    def create_table(self, sql: str, namespace: str = "main") -> Table:
        stmt = parse_statement(sql)
        if not isinstance(stmt, n.CreateTable):
            raise ExecutionError("create_table() requires CREATE TABLE")
        return self.create_table_ast(stmt, namespace)

    def create_view(self, name: str, query: n.Query) -> View:
        planner = Planner(self.catalog)
        columns = tuple(planner.output_columns(query))
        # plan now to validate references eagerly
        planner.plan_query(query)
        view = View(name, query, columns)
        self.catalog.add_view(view)
        return view

    # -- transactions --------------------------------------------------------------

    def begin(self) -> None:
        self.transactions.begin()

    def commit(self) -> int:
        return self.transactions.commit()

    def rollback(self) -> int:
        return self.transactions.rollback()

    # -- DML: inserts -----------------------------------------------------------------

    def resolve_insert_rows(
        self, entry: CachedStatement, params: Optional[dict] = None
    ) -> tuple[Table, list[tuple]]:
        """Evaluate an INSERT's source rows (VALUES or SELECT) without
        applying them.  Shared by the trigger-dispatching execution path
        and by server sessions, which stage the rows privately."""
        stmt = entry.stmt
        table = self.catalog.require_table(stmt.table)
        if stmt.query is not None:
            if entry.prepared is None:
                entry.prepared = PreparedStatement(self, stmt.query)
            raw_rows: list[tuple] = entry.prepared.execute(params).rows
        else:
            constants = params or {}
            raw_rows = [
                tuple(value((), constants) for value in row)
                for row in entry.values
            ]
        rows = [self._arrange_columns(table, stmt.columns, r) for r in raw_rows]
        return table, rows

    def _arrange_columns(
        self, table: Table, columns: Sequence[str], values: tuple
    ) -> tuple:
        if not columns:
            return values
        if len(columns) != len(values):
            raise ExecutionError(
                f"INSERT into {table.name!r}: {len(columns)} columns but "
                f"{len(values)} values"
            )
        positions = table.schema.key_positions(tuple(columns))
        if len(set(positions)) != len(positions):
            raise ExecutionError(
                f"INSERT into {table.name!r}: duplicate column in column list"
            )
        full = [None] * table.schema.arity
        for position, value in zip(positions, values):
            full[position] = value
        return tuple(full)

    def insert_rows(
        self,
        table_name: str,
        rows: Iterable[tuple],
        bypass_triggers: bool = False,
    ) -> int:
        """Insert rows, dispatching to INSTEAD OF triggers when enabled."""
        table = self.catalog.require_table(table_name)
        validated = [table.validate_row(tuple(row)) for row in rows]
        if not validated:
            return 0
        if not bypass_triggers:
            triggers = self.catalog.active_triggers_for(table.name, "insert")
            if triggers:
                for trigger in triggers:
                    trigger.action(self, table.name, validated)
                return len(validated)
        count = 0
        for row in validated:
            self._physical_insert(table, row)
            count += 1
        return count

    def _physical_insert(self, table: Table, row: tuple) -> None:
        self.checker.check_not_null(table, row)
        self.checker.check_fk_insert(table, row)
        rowid = table.insert(row)
        txn = self.transactions.current
        if txn is not None and txn.active:
            txn.record_insert(table, row, rowid)

    # -- DML: deletes --------------------------------------------------------------------

    def resolve_delete_rows(
        self, entry: CachedStatement, params: Optional[dict] = None
    ) -> tuple[Table, list[tuple]]:
        """Evaluate a DELETE's victim rows (WHERE against the base
        table) without applying the deletion."""
        table = self.catalog.require_table(entry.stmt.table)
        return table, self._matching_rows(entry, params, table)

    def delete_rows(
        self,
        table_name: str,
        rows: Iterable[tuple],
        bypass_triggers: bool = False,
    ) -> int:
        """Delete the given rows, dispatching to INSTEAD OF triggers."""
        table = self.catalog.require_table(table_name)
        victims = [tuple(row) for row in rows]
        if not victims:
            return 0
        if not bypass_triggers:
            triggers = self.catalog.active_triggers_for(table.name, "delete")
            if triggers:
                for trigger in triggers:
                    trigger.action(self, table.name, victims)
                return len(victims)
        count = 0
        for row in victims:
            if self._physical_delete(table, row):
                count += 1
        return count

    def _physical_delete(self, table: Table, row: tuple) -> bool:
        rowid = table.find_rowid(row)
        if rowid is None:
            return False
        self.checker.check_fk_delete(table, row)
        table.delete_rowid(rowid)
        txn = self.transactions.current
        if txn is not None and txn.active:
            txn.record_delete(table, row, rowid)
        return True

    # -- DML: updates -----------------------------------------------------------------------

    def resolve_update_rows(
        self, entry: CachedStatement, params: Optional[dict] = None
    ) -> tuple[Table, list[tuple], list[tuple]]:
        """Evaluate an UPDATE's (old, new) row pairs without applying.

        TINTIN models an update as a set of tuple deletions plus
        insertions; callers stage or apply the two lists accordingly.
        """
        stmt = entry.stmt
        table = self.catalog.require_table(stmt.table)
        binding = stmt.alias or table.name
        scope = Scope([(binding, c) for c in table.schema.column_names])
        assignments: dict[int, object] = {}
        for column, expr in stmt.assignments:
            position = table.schema.column_index(column)
            if position in assignments:
                raise ExecutionError(
                    f"UPDATE {table.name!r} assigns column {column!r} twice"
                )
            assignments[position] = compile_expr(expr, scope)
        old_rows = self._matching_rows(entry, params, table)
        constants = params or {}
        new_rows = []
        for row in old_rows:
            values = list(row)
            for position, fn in assignments.items():
                values[position] = fn(row, constants)
            new_rows.append(table.validate_row(tuple(values)))
        return table, old_rows, new_rows

    def _execute_update(
        self, entry: CachedStatement, params: Optional[dict] = None
    ) -> int:
        """UPDATE is executed as delete-old + insert-new.

        This matches TINTIN's model where an update is a set of tuple
        insertions and deletions (the paper handles exactly those two
        event kinds).
        """
        table, old_rows, new_rows = self.resolve_update_rows(entry, params)
        if not old_rows:
            return 0
        has_triggers = bool(
            self.catalog.active_triggers_for(table.name, "insert")
            or self.catalog.active_triggers_for(table.name, "delete")
        )
        if has_triggers:
            # an update is a set of deletions plus insertions — exactly the
            # event model TINTIN captures
            self.delete_rows(table.name, old_rows)
            self.insert_rows(table.name, new_rows)
        else:
            for old_row, new_row in zip(old_rows, new_rows):
                self._physical_update(table, old_row, new_row)
        return len(old_rows)

    def _physical_update(self, table: Table, old_row: tuple, new_row: tuple) -> None:
        if old_row == new_row:
            return
        self.checker.check_not_null(table, new_row)
        self.checker.check_fk_insert(table, new_row)
        self.checker.check_fk_update(table, old_row, new_row)
        rowid = table.find_rowid(old_row)
        if rowid is None:
            raise ExecutionError(
                f"row disappeared during UPDATE of {table.name!r}"
            )
        table.delete_rowid(rowid)
        try:
            new_rowid = table.insert(new_row)
        except ConstraintViolation:
            table.insert(old_row)
            raise
        txn = self.transactions.current
        if txn is not None and txn.active:
            txn.record_delete(table, old_row, rowid)
            txn.record_insert(table, new_row, new_rowid)

    def _matching_rows(
        self, entry: CachedStatement, params: Optional[dict], table: Table
    ) -> list[tuple]:
        """The rows a DELETE/UPDATE's WHERE selects: its victim query
        ``SELECT * FROM <table> [AS <alias>] WHERE …``, planned like any
        SELECT (so it gets the planner's access paths) and kept with
        the statement's entry."""
        stmt = entry.stmt
        if stmt.where is None:
            return table.rows_snapshot()
        if entry.prepared is None:
            victims = n.Select(
                items=(n.Star(),),
                from_items=(n.TableRef(table.name, stmt.alias),),
                where=stmt.where,
            )
            entry.prepared = PreparedStatement(self, victims)
        return entry.prepared.execute(params).rows

    # -- batch apply (used by safeCommit) ---------------------------------------------------

    def apply_batch(
        self,
        inserts: dict[str, list[tuple]],
        deletes: dict[str, list[tuple]],
    ) -> int:
        """Apply a batch of physical inserts and deletes atomically.

        Foreign keys are checked in **deferred** mode: deletes run first
        (so delete+reinsert of the same key — a captured UPDATE — works),
        then inserts, and referential integrity is verified against the
        final state.  Any batch whose *net effect* is FK-consistent
        applies cleanly.  Triggers are bypassed (this is the engine-level
        primitive that ``safeCommit`` calls with triggers disabled).  On
        any constraint violation the whole batch is rolled back and the
        violation re-raised.
        """
        own_transaction = not self.transactions.in_transaction
        if own_transaction:
            self.begin()
        changed = 0
        deleted_rows: list[tuple[Table, tuple]] = []
        inserted_rows: list[tuple[Table, tuple]] = []
        try:
            delete_names = [name for name, rows in deletes.items() if rows]
            for name in reversed(self.checker.fk_topological_order(delete_names)):
                table = self.catalog.require_table(name)
                for row in deletes[name]:
                    validated = table.validate_row(tuple(row))
                    if self._physical_delete_deferred(table, validated):
                        deleted_rows.append((table, validated))
                        changed += 1
            insert_names = [name for name, rows in inserts.items() if rows]
            for name in self.checker.fk_topological_order(insert_names):
                table = self.catalog.require_table(name)
                for row in inserts[name]:
                    validated = table.validate_row(tuple(row))
                    self._physical_insert_deferred(table, validated)
                    inserted_rows.append((table, validated))
                    changed += 1
            # deferred referential-integrity verification on the final state
            for table, row in inserted_rows:
                self.checker.check_fk_insert(table, row)
            for table, row in deleted_rows:
                self.checker.check_fk_after_delete(table, row)
        except BaseException:
            # any failure — constraint or otherwise (e.g. a table
            # dropped mid-batch) — must leave no half-applied rows or
            # dangling open transaction behind
            if own_transaction:
                self.rollback()
            raise
        if own_transaction:
            self.commit()
        return changed

    def _physical_insert_deferred(self, table: Table, row: tuple) -> None:
        """Insert without FK checks (NOT NULL and unique keys still apply)."""
        self.checker.check_not_null(table, row)
        rowid = table.insert(row)
        txn = self.transactions.current
        if txn is not None and txn.active:
            txn.record_insert(table, row, rowid)

    def _physical_delete_deferred(self, table: Table, row: tuple) -> bool:
        """Delete without FK checks."""
        rowid = table.find_rowid(row)
        if rowid is None:
            return False
        table.delete_rowid(rowid)
        txn = self.transactions.current
        if txn is not None and txn.active:
            txn.record_delete(table, row, rowid)
        return True

    # -- triggers and procedures ---------------------------------------------------------------

    def create_trigger(
        self, name: str, table: str, event: str, action
    ) -> Trigger:
        trigger = Trigger(name, table, event, action)
        self.catalog.add_trigger(trigger)
        return trigger

    def enable_triggers(self, table: str) -> None:
        self.catalog.set_triggers_enabled(table, True)

    def disable_triggers(self, table: str) -> None:
        self.catalog.set_triggers_enabled(table, False)

    def create_procedure(self, name: str, body, description: str = "") -> Procedure:
        procedure = Procedure(name, body, description)
        self.catalog.replace_procedure(procedure)
        return procedure

    def call(self, name: str, *args):
        """Invoke a stored procedure."""
        return self.catalog.get_procedure(name).body(self, *args)

    # -- helpers -------------------------------------------------------------------------------

    @staticmethod
    def _literal_value(expr: n.Expr):
        """Evaluate a row-less expression (INSERT values, CALL args)."""
        fn = compile_expr(expr, Scope([]))
        return fn((), {})

    def table(self, name: str) -> Table:
        """Direct access to a table's storage (tests and tooling)."""
        return self.catalog.require_table(name)

    def data_version(self, namespace: Optional[str] = "main") -> int:
        """Aggregate data-version stamp over the catalog's tables.

        Monotonically increasing with every row mutation; two equal
        readings prove no base data changed in between.  Session reads
        — including read-your-writes with staged events — go through
        the overlay-merge path and never perturb the stamps.
        """
        return sum(t.data_version for t in self.catalog.tables(namespace))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({self.name!r}, {len(self.catalog.tables())} tables)"


def _split_explain(sql: str) -> Optional[tuple[bool, str]]:
    """If ``sql`` is ``EXPLAIN [ANALYZE] <query>``, return
    ``(analyze, <query> text)``.

    Detected textually (before parsing) so the inner text reaches the
    statement cache exactly as running the query directly would —
    EXPLAIN then reports the very entry the query would use.
    """
    stripped = sql.lstrip()
    head = stripped[:7]
    if head.upper() != "EXPLAIN":
        return None
    rest = stripped[7:]
    if rest and not rest[0].isspace() and rest[0] != "(":
        return None  # an identifier like EXPLAINX
    rest = rest.strip()
    analyze = False
    head = rest[:7]
    if head.upper() == "ANALYZE":
        tail = rest[7:]
        if not tail or tail[0].isspace() or tail[0] == "(":
            analyze = True
            rest = tail.strip()
    return analyze, rest.rstrip(";")


def _run_explain_analyze(
    plan: PlanNode,
    overlays: Optional[dict[str, TableOverlay]] = None,
    params: Optional[dict] = None,
) -> str:
    """Execute ``plan`` under a fresh stats collector and render the
    annotated tree plus a one-line execution summary."""
    from ..obs.profiler import PlanStatsCollector

    collector = PlanStatsCollector()
    ctx = ExecutionContext(overlays, collector=collector)
    start = perf_counter()
    rows = sum(1 for _ in plan.run(params, ctx))
    elapsed = perf_counter() - start
    return (
        collector.annotate(plan)
        + f"\n-- {rows} rows in {elapsed:.6f}s"
        + f" ({collector.rows_scanned()} rows scanned)"
    )
