"""Physical plan operators (iterator model).

Each operator exposes ``execute(params)`` yielding output tuples, plus a
``scope`` (:class:`repro.minidb.expressions.Scope`) describing the tuple
layout, and an ``estimate`` used by the planner's greedy join ordering.

``params`` carries correlation values from enclosing queries — operators
pass it through unchanged; only compiled expressions read it.  One
reserved string key (:data:`CTX_KEY` — disjoint from the normal
``(binding, column)`` tuple keys) carries the
:class:`ExecutionContext`, the per-execution mutable state of an
otherwise immutable compiled plan.  Because subquery memoization lives
in the context rather than in compile-time closures, a plan can be
executed any number of times (the prepared-statement cache in
:mod:`repro.minidb.database` depends on this).  Call
:meth:`PlanNode.run` (or seed ``params`` with
:func:`execution_params`) to start a top-level execution with a fresh
context.

The operator set is deliberately small:

* :class:`SeqScan` — full scan of a base table;
* :class:`IndexScan` — the rows of a base table whose key columns equal
  constants, through the key's hash index;
* :class:`IndexJoin` — stream the outer child, probe a base table's hash
  index per row (the operator that makes incremental checks touch only
  update-adjacent data);
* :class:`HashJoin` — classic build/probe equi-join for when both sides
  must be materialized anyway;
* :class:`NestedLoopCross` — cartesian product (rare: only for
  disconnected join graphs);
* :class:`Filter`, :class:`Project`, :class:`Distinct`,
  :class:`UnionAll`, :class:`UnionDistinct`.

Subqueries (``[NOT] EXISTS`` / ``[NOT] IN``) never appear as join
operators: the planner compiles them into *probe closures* evaluated
inside :class:`Filter` predicates (see :mod:`repro.minidb.planner`),
which probe table indexes directly.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from .expressions import Compiled, Scope
from .storage import Table, TableOverlay
from .types import probe_key

#: Reserved ``params`` key carrying the :class:`ExecutionContext`.  All
#: regular correlation keys are ``(binding, column)`` tuples, so a plain
#: string can never collide with them.
CTX_KEY = "__ctx__"


class ExecutionContext:
    """Per-execution mutable state for a compiled plan.

    Compiled plans are immutable; every piece of state that one
    execution must not leak into the next — the memo tables of the
    planner's generic subquery probes, and the optional table
    *overlays* — lives here.  Each probe owns a sentinel token
    allocated at compile time and retrieves its private memo dict with
    :meth:`memo`.

    ``overlays`` maps a normalized base-table name to a
    :class:`~repro.minidb.storage.TableOverlay`.  Scan and probe
    operators merge the overlay into their output on the fly, so one
    immutable plan can serve both plain reads (no overlay) and a
    session's read-your-writes view — without ever mutating base
    storage.

    ``collector`` is an optional per-execution plan-statistics sink
    (duck-typed: anything with ``wrap(node, iterator)``, see
    :class:`repro.obs.profiler.PlanStatsCollector`).  When present,
    every node's output iterator is routed through it — this powers
    EXPLAIN ANALYZE and per-assertion row accounting.  When absent
    (the default), execution pays one ``is None`` test per node.
    """

    __slots__ = ("_memos", "overlays", "collector")

    def __init__(
        self,
        overlays: Optional[dict[str, TableOverlay]] = None,
        collector: Optional[object] = None,
    ):
        self._memos: dict[object, dict] = {}
        self.overlays = overlays or None
        self.collector = collector

    def memo(self, token: object) -> dict:
        """The mutable memo dict owned by ``token`` for this execution."""
        memo = self._memos.get(token)
        if memo is None:
            memo = self._memos[token] = {}
        return memo

    def overlay_for(self, table: Table) -> Optional[TableOverlay]:
        """The overlay staged on ``table`` in this execution, if any."""
        overlays = self.overlays
        if overlays is None:
            return None
        return overlays.get(table.schema.name.lower())


def execution_params(
    params: Optional[dict] = None, ctx: Optional[ExecutionContext] = None
) -> dict:
    """A top-level ``params`` dict carrying a (fresh) execution context."""
    merged = dict(params) if params else {}
    merged[CTX_KEY] = ctx if ctx is not None else ExecutionContext()
    return merged


def context_memo(params: dict, token: object) -> dict:
    """The memo dict for ``token`` in the execution carried by ``params``.

    When no context is present (a bare ``plan.execute({})`` — tests,
    ad-hoc tooling) a throwaway dict is returned: memoization is simply
    disabled and correctness is unaffected.
    """
    ctx = params.get(CTX_KEY)
    if ctx is None:
        return {}
    return ctx.memo(token)


def table_overlay(params: dict, table: Table) -> Optional[TableOverlay]:
    """The overlay staged on ``table`` in the execution carried by
    ``params`` (None for plain reads or bare executions)."""
    ctx = params.get(CTX_KEY)
    if ctx is None:
        return None
    return ctx.overlay_for(table)


def scan_table(params: dict, table: Table) -> Iterator[tuple]:
    """Scan ``table`` through the execution's overlay, if any."""
    overlay = table_overlay(params, table)
    if overlay is None:
        return table.scan()
    return overlay.scan(table)


def probe_table(
    params: dict, table: Table, columns: tuple[str, ...], key: tuple
) -> Iterator[tuple]:
    """Index-probe ``table`` through the execution's overlay, if any."""
    overlay = table_overlay(params, table)
    if overlay is None:
        return table.lookup_secondary(columns, key)
    return overlay.lookup(table, columns, key)


class PlanNode:
    """Base class for physical operators.

    Subclasses implement :meth:`_execute`; the public :meth:`execute`
    routes the node's output through the execution's plan-statistics
    collector when one is installed (EXPLAIN ANALYZE, profiling) and
    is otherwise a direct pass-through.
    """

    scope: Scope
    estimate: float

    def _execute(self, params: dict) -> Iterator[tuple]:  # pragma: no cover
        raise NotImplementedError

    def execute(self, params: dict) -> Iterator[tuple]:
        ctx = params.get(CTX_KEY)
        if ctx is None or ctx.collector is None:
            return self._execute(params)
        return ctx.collector.wrap(self, self._execute(params))

    def run(
        self,
        params: Optional[dict] = None,
        ctx: Optional[ExecutionContext] = None,
    ) -> Iterator[tuple]:
        """Execute as a top-level statement under a fresh (or given)
        :class:`ExecutionContext`.  This is the entry point for repeated
        execution of a cached plan."""
        return self.execute(execution_params(params, ctx))

    def explain(self, indent: int = 0) -> str:
        """Human-readable plan tree (used in tests and debugging)."""
        lines = [("  " * indent) + self.describe()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return type(self).__name__

    def children(self) -> list["PlanNode"]:
        return []


class SeqScan(PlanNode):
    """Full scan of a base table under a binding name.

    When the execution carries an overlay for the table, the scan
    merges it on the fly (staged deletes masked with multiset
    semantics, staged inserts appended) — base storage is never read
    through a mutated state.
    """

    def __init__(self, table: Table, binding: str):
        self.table = table
        self.binding = binding
        self.scope = Scope(
            [(binding, column) for column in table.schema.column_names]
        )
        self.estimate = float(max(len(table), 1))

    def _execute(self, params: dict) -> Iterator[tuple]:
        return scan_table(params, self.table)

    def describe(self) -> str:
        return f"SeqScan({self.table.name} AS {self.binding}, ~{len(self.table)} rows)"


class IndexScan(PlanNode):
    """The rows of a base table whose ``columns`` equal constants.

    The constants are compiled row-free expressions (literals or
    statement parameters) evaluated per execution, so the node — like
    every plan node — holds nothing of one call's values.  The probe
    goes through :func:`probe_table`: overlay-aware exactly as
    :class:`IndexJoin` is, and in scan order, so the node yields what a
    :class:`SeqScan` filtered on the same equalities would, row for
    row.  A key the index cannot answer (NULL, or a value the column
    comparison rejects) falls back to the full scan; the planner keeps
    the whole predicate in a :class:`Filter` on top, which then drops
    every row or raises the comparison's own error.
    """

    def __init__(
        self,
        table: Table,
        binding: str,
        columns: tuple[str, ...],
        key: list[Compiled],
        via: str,
        estimate: float,
    ):
        self.table = table
        self.binding = binding
        self.columns = columns
        self.key = key
        self.via = via
        self.key_types = tuple(table.schema.column(c).sql_type for c in columns)
        self.scope = Scope(
            [(binding, column) for column in table.schema.column_names]
        )
        self.estimate = estimate

    def _execute(self, params: dict) -> Iterator[tuple]:
        key = tuple(fn((), params) for fn in self.key)
        for value, sql_type in zip(key, self.key_types):
            if not probe_key(value, sql_type):
                return scan_table(params, self.table)
        return probe_table(params, self.table, self.columns, key)

    def describe(self) -> str:
        cols = ", ".join(self.columns)
        return (
            f"IndexScan({self.table.name} AS {self.binding} "
            f"on ({cols}) via {self.via})"
        )


class DeltaSeed(PlanNode):
    """Distinct key projection of one or more event tables.

    The source node of a delta rule: scans the staged ``ins_T``/
    ``del_T`` rows (overlay-aware, exactly like :class:`SeqScan`),
    projects the columns that reach the rule's parent atoms and
    deduplicates — so the downstream join probes each delta key once
    no matter how many staged rows share it.  This is the semi-join
    pruning that makes delta checks scale with ``|delta|`` instead of
    the base-table size.

    Keys containing NULL are dropped: the parent join is an equality
    probe and NULL never equates (matching :class:`IndexJoin`).
    """

    def __init__(
        self,
        tables: list[Table],
        binding: str,
        columns: tuple[str, ...],
        positions: tuple[int, ...],
    ):
        self.tables = list(tables)
        self.binding = binding
        self.columns = columns
        self.positions = positions
        self.scope = Scope([(binding, column) for column in columns])
        self.estimate = float(max(sum(len(t) for t in self.tables), 1))
        #: row-accounting hook: the profiler attributes scanned rows to
        #: nodes exposing a ``table`` (the first source stands for all)
        self.table = self.tables[0]

    def _execute(self, params: dict) -> Iterator[tuple]:
        positions = self.positions
        seen: set[tuple] = set()
        for table in self.tables:
            for row in scan_table(params, table):
                key = tuple(row[p] for p in positions)
                if any(v is None for v in key):
                    continue
                if key not in seen:
                    seen.add(key)
                    yield key

    def describe(self) -> str:
        names = ", ".join(t.name for t in self.tables)
        cols = ", ".join(self.columns)
        return f"DeltaSeed({names} AS {self.binding} -> ({cols}))"


class Filter(PlanNode):
    """Keep rows where the compiled predicate evaluates to exactly True."""

    def __init__(self, child: PlanNode, predicate: Compiled, selectivity: float = 0.25):
        self.child = child
        self.predicate = predicate
        self.scope = child.scope
        self.estimate = max(child.estimate * selectivity, 1.0)

    def _execute(self, params: dict) -> Iterator[tuple]:
        predicate = self.predicate
        for row in self.child.execute(params):
            if predicate(row, params) is True:
                yield row

    def children(self) -> list[PlanNode]:
        return [self.child]


class Project(PlanNode):
    """Compute output expressions per row."""

    def __init__(
        self,
        child: PlanNode,
        exprs: list[Compiled],
        out_scope: Scope,
    ):
        self.child = child
        self.exprs = exprs
        self.scope = out_scope
        self.estimate = child.estimate

    def _execute(self, params: dict) -> Iterator[tuple]:
        exprs = self.exprs
        for row in self.child.execute(params):
            yield tuple(expr(row, params) for expr in exprs)

    def children(self) -> list[PlanNode]:
        return [self.child]


class Distinct(PlanNode):
    """Remove duplicate rows (hash-based)."""

    def __init__(self, child: PlanNode):
        self.child = child
        self.scope = child.scope
        self.estimate = child.estimate

    def _execute(self, params: dict) -> Iterator[tuple]:
        seen: set[tuple] = set()
        for row in self.child.execute(params):
            if row not in seen:
                seen.add(row)
                yield row

    def children(self) -> list[PlanNode]:
        return [self.child]


def _concat_scopes(left: Scope, right: Scope) -> Scope:
    entries = list(left.entries) + list(right.entries)
    return Scope(entries, outer=left.outer)


class IndexJoin(PlanNode):
    """Stream the outer child; probe a base table hash index per row.

    ``outer_positions`` select the probe key from the outer tuple;
    ``table_columns`` name the indexed columns of the inner table.  An
    optional ``residual`` predicate (compiled against the concatenated
    scope) filters probed matches — this is where non-equi or nested
    subquery conditions on the inner table land.

    NULL probe keys never match (SQL equality semantics).
    """

    def __init__(
        self,
        outer: PlanNode,
        table: Table,
        binding: str,
        table_columns: tuple[str, ...],
        outer_positions: tuple[int, ...],
        residual: Optional[Compiled] = None,
    ):
        self.outer = outer
        self.table = table
        self.binding = binding
        self.table_columns = table_columns
        self.outer_positions = outer_positions
        self.residual = residual
        inner_scope = Scope(
            [(binding, column) for column in table.schema.column_names]
        )
        self.scope = _concat_scopes(outer.scope, inner_scope)
        self.estimate = max(outer.estimate, 1.0)

    def _execute(self, params: dict) -> Iterator[tuple]:
        table = self.table
        columns = self.table_columns
        positions = self.outer_positions
        residual = self.residual
        for outer_row in self.outer.execute(params):
            key = tuple(outer_row[p] for p in positions)
            if any(v is None for v in key):
                continue
            for inner_row in probe_table(params, table, columns, key):
                combined = outer_row + inner_row
                if residual is None or residual(combined, params) is True:
                    yield combined

    def children(self) -> list[PlanNode]:
        return [self.outer]

    def describe(self) -> str:
        cols = ", ".join(self.table_columns)
        return (
            f"IndexJoin(probe {self.table.name} AS {self.binding} "
            f"on ({cols}))"
        )


class HashJoin(PlanNode):
    """Equi-join materializing the build side into a hash table.

    The build side is the *right* child; the planner puts the smaller
    estimated side there.  NULL keys never match.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_positions: tuple[int, ...],
        right_positions: tuple[int, ...],
        residual: Optional[Compiled] = None,
    ):
        self.left = left
        self.right = right
        self.left_positions = left_positions
        self.right_positions = right_positions
        self.residual = residual
        self.scope = _concat_scopes(left.scope, right.scope)
        self.estimate = max(left.estimate, right.estimate)

    def _execute(self, params: dict) -> Iterator[tuple]:
        build: dict[tuple, list[tuple]] = {}
        for row in self.right.execute(params):
            key = tuple(row[p] for p in self.right_positions)
            if any(v is None for v in key):
                continue
            build.setdefault(key, []).append(row)
        residual = self.residual
        for left_row in self.left.execute(params):
            key = tuple(left_row[p] for p in self.left_positions)
            if any(v is None for v in key):
                continue
            for right_row in build.get(key, ()):
                combined = left_row + right_row
                if residual is None or residual(combined, params) is True:
                    yield combined

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]


class NestedLoopCross(PlanNode):
    """Cartesian product; the right side is materialized once."""

    def __init__(self, left: PlanNode, right: PlanNode):
        self.left = left
        self.right = right
        self.scope = _concat_scopes(left.scope, right.scope)
        self.estimate = left.estimate * right.estimate

    def _execute(self, params: dict) -> Iterator[tuple]:
        right_rows = list(self.right.execute(params))
        for left_row in self.left.execute(params):
            for right_row in right_rows:
                yield left_row + right_row

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]


class UnionAll(PlanNode):
    """Bag union of children (schemas must be position-compatible)."""

    def __init__(self, parts: list[PlanNode]):
        self.parts = parts
        self.scope = parts[0].scope
        self.estimate = sum(p.estimate for p in parts)

    def _execute(self, params: dict) -> Iterator[tuple]:
        for part in self.parts:
            yield from part.execute(params)

    def children(self) -> list[PlanNode]:
        return list(self.parts)


class UnionDistinct(PlanNode):
    """Set union of children."""

    def __init__(self, parts: list[PlanNode]):
        self.parts = parts
        self.scope = parts[0].scope
        self.estimate = sum(p.estimate for p in parts)

    def _execute(self, params: dict) -> Iterator[tuple]:
        seen: set[tuple] = set()
        for part in self.parts:
            for row in part.execute(params):
                if row not in seen:
                    seen.add(row)
                    yield row

    def children(self) -> list[PlanNode]:
        return list(self.parts)


class AggregateState:
    """Incremental fold state for one SQL aggregate.

    NULL inputs are ignored (SQL semantics); an empty input yields 0
    for COUNT and NULL for SUM/MIN/MAX/AVG.  Values are folded one at a
    time — nothing is materialized.
    """

    __slots__ = ("func", "count", "total", "low", "high")

    def __init__(self, func: str):
        if func not in ("COUNT", "SUM", "MIN", "MAX", "AVG"):
            raise ValueError(f"unknown aggregate {func!r}")
        self.func = func
        self.count = 0
        self.total = 0
        self.low = None
        self.high = None

    def add(self, value) -> None:
        if value is None:
            return
        self.count += 1
        if self.func == "COUNT":
            return
        if self.func in ("SUM", "AVG"):
            self.total += value
        elif self.func == "MIN":
            if self.low is None or value < self.low:
                self.low = value
        elif self.high is None or value > self.high:
            self.high = value

    def result(self) -> object:
        if self.func == "COUNT":
            return self.count
        if self.count == 0:
            return None
        if self.func == "SUM":
            return self.total
        if self.func == "MIN":
            return self.low
        if self.func == "MAX":
            return self.high
        return self.total / self.count  # AVG


def aggregate_value(func: str, values) -> object:
    """Fold an iterable of values with an SQL aggregate in one pass
    (no intermediate ``present`` list is built)."""
    state = AggregateState(func)
    for value in values:
        state.add(value)
    return state.result()


class Aggregate(PlanNode):
    """Ungrouped aggregation: consumes the child, emits exactly one row.

    ``specs`` is a list of ``(func, compiled_arg_or_None)`` — a None
    argument means COUNT(*).  Each spec folds incrementally via
    :class:`AggregateState`; per-spec value lists are never
    materialized.  (Engine extension used by the aggregate-assertion
    feature; the paper's fragment has no aggregates.)
    """

    def __init__(self, child: PlanNode, specs: list, out_scope: Scope):
        self.child = child
        self.specs = specs
        self.scope = out_scope
        self.estimate = 1.0

    def _execute(self, params: dict) -> Iterator[tuple]:
        states = [AggregateState(func) for func, _ in self.specs]
        args = [arg for _, arg in self.specs]
        for row in self.child.execute(params):
            for state, arg in zip(states, args):
                if arg is None:
                    state.count += 1  # COUNT(*): count rows directly
                else:
                    state.add(arg(row, params))
        yield tuple(state.result() for state in states)

    def children(self) -> list[PlanNode]:
        return [self.child]


class Empty(PlanNode):
    """Produces no rows; used when the planner proves a branch is empty
    (e.g. a view over an event table known to be empty is *not* assumed
    empty — this is only for structurally impossible branches)."""

    def __init__(self, scope: Scope):
        self.scope = scope
        self.estimate = 0.0

    def _execute(self, params: dict) -> Iterator[tuple]:
        return iter(())
