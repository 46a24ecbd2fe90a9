"""Physical plan operators.

A plan is a tree of immutable operator descriptions.  Each operator
carries a ``scope`` (:class:`repro.minidb.expressions.Scope`) describing
its output tuple layout and an ``estimate`` used by the planner's greedy
join ordering; expressions inside a plan are *bound* ASTs
(:func:`repro.minidb.expressions.bind`).  Nothing here executes: the
code generator in :mod:`repro.minidb.codegen` turns a whole plan into
the source of one Python function, and that function is what runs.
Because a plan holds no per-execution state, one compiled plan serves
any number of executions (the prepared-statement cache in
:mod:`repro.minidb.database` depends on this).

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
* :class:`Filter`, :class:`Project`, :class:`Rename`, :class:`Distinct`,
  :class:`UnionAll`, :class:`UnionDistinct`, :class:`Aggregate`,
  :class:`DeltaSeed`.

Subqueries (``[NOT] EXISTS`` / ``[NOT] IN`` / scalar aggregates) never
appear as join operators: the planner binds them into the expression
that uses them, as an :class:`IndexProbe` (one base table probed on its
equi-correlated columns) or a :class:`SubPlan` (a plan of its own, run
once per distinct correlation value).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ExecutionError
from ..sqlparser import nodes as n
from .expressions import Scope
from .storage import Table


class PlanNode:
    """Base class for physical operators."""

    scope: Scope
    estimate: float

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
    merges it on the fly (:meth:`~repro.minidb.storage.TableOverlay.scan`:
    staged deletes masked with multiset semantics, staged inserts
    appended) — base storage is never read through a mutated state.
    """

    def __init__(self, table: Table, binding: str):
        self.table = table
        self.binding = binding
        self.scope = Scope(
            [(binding, column) for column in table.schema.column_names]
        )
        self.estimate = float(max(len(table), 1))

    def describe(self) -> str:
        return f"SeqScan({self.table.name} AS {self.binding}, ~{len(self.table)} rows)"


class IndexScan(PlanNode):
    """The rows of a base table whose ``columns`` equal constants.

    The constants are bound row-free expressions (literals or
    statement parameters) evaluated per execution, so the node — like
    every plan node — holds nothing of one call's values.  The probe is
    overlay-aware exactly as :class:`IndexJoin`'s is, and in scan order, so the node yields what a
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
        key: list[n.Expr],
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

    def describe(self) -> str:
        names = ", ".join(t.name for t in self.tables)
        cols = ", ".join(self.columns)
        return f"DeltaSeed({names} AS {self.binding} -> ({cols}))"


class Filter(PlanNode):
    """Keep rows where the bound predicate evaluates to exactly True."""

    def __init__(self, child: PlanNode, predicate: n.Expr, selectivity: float = 0.25):
        self.child = child
        self.predicate = predicate
        self.scope = child.scope
        self.estimate = max(child.estimate * selectivity, 1.0)

    def children(self) -> list[PlanNode]:
        return [self.child]


class Project(PlanNode):
    """Compute output expressions per row: each item is a bound
    expression over the child's scope, or the int position of a child
    column (``*``)."""

    def __init__(
        self,
        child: PlanNode,
        exprs: list,
        out_scope: Scope,
    ):
        self.child = child
        self.exprs = exprs
        self.scope = out_scope
        self.estimate = child.estimate

    def children(self) -> list[PlanNode]:
        return [self.child]


class Distinct(PlanNode):
    """Remove duplicate rows (hash-based)."""

    def __init__(self, child: PlanNode):
        self.child = child
        self.scope = child.scope
        self.estimate = child.estimate

    def children(self) -> list[PlanNode]:
        return [self.child]


def _concat_scopes(left: Scope, right: Scope) -> Scope:
    entries = list(left.entries) + list(right.entries)
    return Scope(entries, outer=left.outer)


class IndexJoin(PlanNode):
    """Stream the outer child; probe a base table hash index per row.

    ``outer_positions`` select the probe key from the outer tuple;
    ``table_columns`` name the indexed columns of the inner table.  An
    optional ``residual`` predicate (bound in this node's own,
    concatenated scope) filters probed matches — this is where non-equi or nested
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
    ):
        self.outer = outer
        self.table = table
        self.binding = binding
        self.table_columns = table_columns
        self.outer_positions = outer_positions
        #: set by the planner once the node's scope exists
        self.residual: Optional[n.Expr] = None
        inner_scope = Scope(
            [(binding, column) for column in table.schema.column_names]
        )
        self.scope = _concat_scopes(outer.scope, inner_scope)
        self.estimate = max(outer.estimate, 1.0)

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
    ):
        self.left = left
        self.right = right
        self.left_positions = left_positions
        self.right_positions = right_positions
        self.scope = _concat_scopes(left.scope, right.scope)
        self.estimate = max(left.estimate, right.estimate)

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]


class NestedLoopCross(PlanNode):
    """Cartesian product; the right side is materialized once."""

    def __init__(self, left: PlanNode, right: PlanNode):
        self.left = left
        self.right = right
        self.scope = _concat_scopes(left.scope, right.scope)
        self.estimate = left.estimate * right.estimate

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]


class UnionAll(PlanNode):
    """Bag union of children (schemas must be position-compatible)."""

    def __init__(self, parts: list[PlanNode]):
        self.parts = parts
        self.scope = parts[0].scope
        self.estimate = sum(p.estimate for p in parts)

    def children(self) -> list[PlanNode]:
        return list(self.parts)


class UnionDistinct(PlanNode):
    """Set union of children."""

    def __init__(self, parts: list[PlanNode]):
        self.parts = parts
        self.scope = parts[0].scope
        self.estimate = sum(p.estimate for p in parts)

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

    ``specs`` is a list of ``(func, bound_arg_or_None)`` — a None
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

    def children(self) -> list[PlanNode]:
        return [self.child]


class Rename(PlanNode):
    """Expose a subplan's output columns under a new binding name.

    Used for views and subselect-as-relation: the underlying plan keeps
    its own scope; this wrapper presents ``(binding, output_column)``.
    """

    def __init__(self, child: PlanNode, binding: str, columns: list[str]):
        if len(columns) != len(child.scope.entries):
            raise ExecutionError(
                f"rename of {binding!r}: {len(columns)} names for "
                f"{len(child.scope.entries)} columns"
            )
        self.child = child
        self.binding = binding
        self.scope = Scope([(binding, c) for c in columns], outer=child.scope.outer)
        self.estimate = child.estimate

    def children(self) -> list[PlanNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Rename({self.binding})"


# ---------------------------------------------------------------------------
# Bound subqueries (expression nodes the planner substitutes for
# ``[NOT] EXISTS``, ``IN (subquery)`` and scalar aggregate subqueries)


@dataclass(frozen=True, eq=False)
class IndexProbe(n.Expr):
    """A subquery over one base table answered by one index probe.

    ``kind`` is ``"exists"``, ``"in"`` or ``"scalar"``.  The rows of
    ``table`` whose ``columns`` equal the correlation values ``key``
    (bound in the enclosing scope) are probed — for ``"in"`` the first
    column is the subquery's output column, matched against
    ``subject`` — and filtered by ``residual``, bound in ``scope`` (the
    probed table's rows, whose outer chain is the enclosing scope).  A
    NULL correlation value matches nothing.  A scalar probe folds
    ``argument`` (None: ``COUNT(*)``) with ``func``.
    """

    kind: str
    table: Table
    scope: Scope
    columns: tuple[str, ...]
    key: tuple[n.Expr, ...]
    residual: Optional[n.Expr] = None
    subject: Optional[n.Expr] = None
    func: Optional[str] = None
    argument: Optional[n.Expr] = None


@dataclass(frozen=True, eq=False)
class SubPlan(n.Expr):
    """A subquery with a plan of its own (``kind`` as for
    :class:`IndexProbe`).  It runs at most once per distinct value of
    the enclosing columns it reads, per execution: EXISTS asks for one
    row, IN collects the first column (``subject`` is matched against
    it with SQL's three-valued semantics), scalar takes the one row's
    value."""

    kind: str
    plan: PlanNode
    subject: Optional[n.Expr] = None
