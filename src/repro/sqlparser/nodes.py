"""AST node definitions for the supported SQL fragment.

The AST is a plain dataclass tree.  Identifier case is preserved as
written; all name comparisons elsewhere in the library are
case-insensitive (SQL semantics), using the :func:`normalize` helper.

Expression nodes
    :class:`ColumnRef`, :class:`Literal`, :class:`Parameter`,
    :class:`Comparison`,
    :class:`And`, :class:`Or`, :class:`Not`, :class:`Exists`,
    :class:`InList`, :class:`InSubquery`, :class:`IsNull`,
    :class:`Arithmetic`

Query nodes
    :class:`Select`, :class:`Union`, :class:`TableRef`,
    :class:`SelectItem`, :class:`Star`

Statement nodes
    :class:`CreateTable`, :class:`CreateView`, :class:`CreateAssertion`,
    :class:`Insert`, :class:`Delete`, :class:`Update`,
    :class:`DropTable`, :class:`DropView`, :class:`Truncate`,
    :class:`Call`
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union as TUnion


def normalize(name: str) -> str:
    """Normalize an SQL identifier for case-insensitive comparison."""
    return name.lower()


# ---------------------------------------------------------------------------
# Expressions


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly-qualified column reference such as ``o.orderkey``."""

    column: str
    table: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: int, float, str, bool or None (SQL NULL)."""

    value: TUnion[int, float, str, bool, None]


@dataclass(frozen=True)
class Parameter(Expr):
    """The ``index``-th constant lifted out of a statement's text.

    Never written by a user: :func:`repro.sqlparser.shape.statement_shape`
    replaces the numeric and string literals of a statement with
    placeholders, and the shape is parsed once with these nodes in the
    literal positions.  The values travel with each execution, so one
    parsed (and planned) shape serves every spelling of its constants.
    ``negated`` is the parser's ``-<number>`` literal fold, deferred to
    execution time.
    """

    index: int
    negated: bool = False


@dataclass(frozen=True)
class Comparison(Expr):
    """A binary comparison; ``op`` is one of = <> < <= > >=."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Arithmetic(Expr):
    """A binary arithmetic expression; ``op`` is one of + - * /.

    Supported by the engine for general queries and DML, but rejected by
    the assertion compiler (the paper's fragment excludes functions).
    """

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class And(Expr):
    """N-ary conjunction."""

    items: tuple[Expr, ...]


@dataclass(frozen=True)
class Or(Expr):
    """N-ary disjunction."""

    items: tuple[Expr, ...]


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation."""

    item: Expr


@dataclass(frozen=True)
class Exists(Expr):
    """``[NOT] EXISTS (subquery)``."""

    query: "Query"
    negated: bool = False


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (v1, v2, ...)`` with literal values."""

    item: Expr
    values: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class InSubquery(Expr):
    """``expr [NOT] IN (subquery)``."""

    item: Expr
    query: "Query"
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    item: Expr
    negated: bool = False


#: Aggregate function names the engine evaluates.
AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "MIN", "MAX", "AVG")


@dataclass(frozen=True)
class AggregateCall(Expr):
    """``COUNT(*)``, ``COUNT(expr)``, ``SUM/MIN/MAX/AVG(expr)``.

    ``argument`` is None for ``COUNT(*)``.  Only valid in the select
    list of an aggregate query (engine extension beyond the paper's
    assertion fragment; used by the aggregate-assertions future-work
    feature).
    """

    func: str
    argument: Optional[Expr] = None

    def __post_init__(self):
        if self.func not in AGGREGATE_FUNCTIONS:
            raise ValueError(f"unknown aggregate function {self.func!r}")
        if self.func != "COUNT" and self.argument is None:
            raise ValueError(f"{self.func} requires an argument")


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    """``(SELECT <aggregate> FROM ...)`` used as a scalar value.

    Restricted to single-column aggregate subqueries — enough for
    cardinality/sum-bound assertions, without opening the door to
    full scalar subqueries (which the paper's fragment excludes).
    """

    query: "Query"


# ---------------------------------------------------------------------------
# Queries


@dataclass(frozen=True)
class Star:
    """``*`` or ``alias.*`` in a select list."""

    table: Optional[str] = None


@dataclass(frozen=True)
class SelectItem:
    """One output column of a SELECT: an expression plus optional alias."""

    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    """A base table or view reference in FROM, with optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this relation is known by inside the query."""
        return self.alias if self.alias else self.name


@dataclass(frozen=True)
class DeltaSeedRef:
    """A synthetic FROM relation: the distinct key projection of one or
    more event tables (``ins_T``/``del_T``).

    Produced by the delta compiler, never by the parser.  ``tables``
    lists the event tables whose staged rows seed the check (they share
    the base table's schema, so one ``positions`` projection applies to
    all of them); ``columns`` names the projected key columns as seen
    by the rest of the query under ``alias``.  The executor scans the
    event tables overlay-aware, projects ``positions`` and
    deduplicates, so downstream joins probe each delta key once — the
    semi-join pruning the delta rules rely on.
    """

    alias: str
    tables: tuple[str, ...]
    columns: tuple[str, ...]
    positions: tuple[int, ...]

    @property
    def name(self) -> str:
        return self.alias

    @property
    def binding(self) -> str:
        """The name this relation is known by inside the query."""
        return self.alias


@dataclass(frozen=True)
class Select:
    """A single SELECT block.

    ``from_items`` lists the FROM relations (comma joins and explicit
    ``JOIN ... ON`` are both normalized to this list); explicit join
    conditions are folded into ``where`` during parsing, which is valid
    because the fragment only supports inner joins.
    """

    items: tuple[TUnion[SelectItem, Star], ...]
    from_items: tuple[TableRef, ...]
    where: Optional[Expr] = None
    distinct: bool = False


@dataclass(frozen=True)
class Union:
    """UNION (set) or UNION ALL (bag) of two or more SELECT blocks."""

    selects: tuple[Select, ...]
    all: bool = False


#: A query is a single SELECT or a UNION of SELECTs.
Query = TUnion[Select, Union]


# ---------------------------------------------------------------------------
# Statements


class Statement:
    """Base class for statement nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class ColumnDef:
    """A column in CREATE TABLE."""

    name: str
    type_name: str
    type_params: tuple[int, ...] = ()
    not_null: bool = False
    primary_key: bool = False


@dataclass(frozen=True)
class ForeignKeySpec:
    """A FOREIGN KEY clause in CREATE TABLE."""

    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]


@dataclass(frozen=True)
class CreateTable(Statement):
    name: str
    columns: tuple[ColumnDef, ...]
    primary_key: tuple[str, ...] = ()
    foreign_keys: tuple[ForeignKeySpec, ...] = ()
    uniques: tuple[tuple[str, ...], ...] = ()


@dataclass(frozen=True)
class CreateView(Statement):
    name: str
    query: Query


@dataclass(frozen=True)
class CreateAssertion(Statement):
    """``CREATE ASSERTION name CHECK (condition)``."""

    name: str
    check: Expr


@dataclass(frozen=True)
class DropTable(Statement):
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class DropView(Statement):
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class Insert(Statement):
    """``INSERT INTO t [(cols)] VALUES (...), (...)`` or ``INSERT INTO t SELECT``."""

    table: str
    columns: tuple[str, ...] = ()
    rows: tuple[tuple[Expr, ...], ...] = ()
    query: Optional[Query] = None


@dataclass(frozen=True)
class Delete(Statement):
    table: str
    alias: Optional[str] = None
    where: Optional[Expr] = None


@dataclass(frozen=True)
class Update(Statement):
    table: str
    alias: Optional[str] = None
    assignments: tuple[tuple[str, Expr], ...] = ()
    where: Optional[Expr] = None


@dataclass(frozen=True)
class Truncate(Statement):
    table: str


@dataclass(frozen=True)
class Call(Statement):
    """``CALL procname(arg, ...)`` — invokes a stored procedure."""

    name: str
    args: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class SelectStatement(Statement):
    """A top-level query used as a statement."""

    query: Query


@dataclass(frozen=True)
class Explain(Statement):
    """``EXPLAIN [ANALYZE] <query>`` — show the physical plan instead of
    running it; with ANALYZE, execute it and annotate each node with
    actual row counts and timings."""

    query: Query
    analyze: bool = False


# ---------------------------------------------------------------------------
# Traversal helpers


def walk_expr(expr: Expr):
    """Yield ``expr`` and every sub-expression, depth-first.

    Subqueries inside Exists/InSubquery/ScalarSubquery are *not*
    descended into; use :func:`subqueries_of` for those.
    """
    yield expr
    if isinstance(expr, (Comparison, Arithmetic)):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, (And, Or)):
        for item in expr.items:
            yield from walk_expr(item)
    elif isinstance(expr, Not):
        yield from walk_expr(expr.item)
    elif isinstance(expr, (InList, InSubquery, IsNull)):
        yield from walk_expr(expr.item)
        if isinstance(expr, InList):
            for value in expr.values:
                yield from walk_expr(value)
    elif isinstance(expr, AggregateCall):
        if expr.argument is not None:
            yield from walk_expr(expr.argument)


def subqueries_of(expr: Expr):
    """Yield every subquery nested anywhere inside ``expr``."""
    for node in walk_expr(expr):
        if isinstance(node, (Exists, InSubquery, ScalarSubquery)):
            yield node.query
            for select in _selects_of(node.query):
                if select.where is not None:
                    yield from subqueries_of(select.where)


def _selects_of(query: Query) -> tuple[Select, ...]:
    return (query,) if isinstance(query, Select) else query.selects


def conjuncts(expr: Optional[Expr]) -> list[Expr]:
    """Flatten a WHERE expression into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, And):
        result: list[Expr] = []
        for item in expr.items:
            result.extend(conjuncts(item))
        return result
    return [expr]


def conjoin(parts: list[Expr]) -> Optional[Expr]:
    """Combine expressions with AND; returns None for an empty list."""
    parts = [p for p in parts if p is not None]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    flat: list[Expr] = []
    for part in parts:
        if isinstance(part, And):
            flat.extend(part.items)
        else:
            flat.append(part)
    return And(tuple(flat))
