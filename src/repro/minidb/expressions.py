"""Expression compilation with SQL three-valued logic.

AST expressions are compiled once per query into Python closures
evaluated per row.  A closure has the signature ``fn(row, params)``:

* ``row`` — the operator's current output tuple;
* ``params`` — a dict of outer-query column values, keyed by
  ``(binding, column)`` in normalized (lower) case, used for correlated
  subqueries.  One reserved string key, :data:`ARGS_KEY`, carries the
  constants of this execution of a statement *shape*
  (:mod:`repro.sqlparser.shape`) — :class:`~repro.sqlparser.nodes.Parameter`
  nodes read them, so nothing of one call's constants is ever compiled
  into a shared plan.

Boolean results use Kleene three-valued logic: ``True``, ``False`` or
``None`` (SQL UNKNOWN).  WHERE keeps a row only when the predicate is
exactly ``True``.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import ExecutionError, SchemaError
from ..sqlparser import nodes as n
from .types import comparable

#: Reserved ``params`` key holding the tuple of statement constants
#: (regular correlation keys are ``(binding, column)`` tuples, so a
#: plain string can never collide with them).
ARGS_KEY = "__args__"

#: Normalized (binding, column) pair.
ColumnKey = tuple[str, str]

#: A compiled expression.
Compiled = Callable[[tuple, dict], object]

#: Resolves a subquery node to a closure ``fn(params) -> bool | None``.
#: Provided by the planner (which knows how to build and run subplans).
SubqueryCompiler = Callable[[n.Expr], Callable[[dict], object]]


def _norm(name: Optional[str]) -> Optional[str]:
    return name.lower() if name is not None else None


class Scope:
    """Column-name resolution for one operator's output tuple.

    The scope is an ordered sequence of ``(binding, column)`` pairs, one
    per tuple position.  Unqualified column references must be
    unambiguous across bindings.  References that cannot be resolved
    locally fall through to the ``outer`` scope chain and compile into
    parameter lookups (correlation).
    """

    def __init__(self, entries: list[ColumnKey], outer: Optional["Scope"] = None):
        self.entries = [( _norm(b), _norm(c) ) for b, c in entries]
        self.outer = outer
        self._by_pair: dict[ColumnKey, int] = {}
        self._by_column: dict[str, list[int]] = {}
        for position, (binding, column) in enumerate(self.entries):
            self._by_pair.setdefault((binding, column), position)
            self._by_column.setdefault(column, []).append(position)

    def try_resolve(self, ref: n.ColumnRef) -> Optional[int]:
        """Position of ``ref`` in this scope's tuple, or None."""
        column = _norm(ref.column)
        if ref.table is not None:
            return self._by_pair.get((_norm(ref.table), column))
        positions = self._by_column.get(column, [])
        if len(positions) > 1:
            raise SchemaError(f"ambiguous column reference {ref.column!r}")
        return positions[0] if positions else None

    def resolve(self, ref: n.ColumnRef) -> int:
        position = self.try_resolve(ref)
        if position is None:
            raise SchemaError(f"cannot resolve column reference {ref}")
        return position

    def resolve_with_outer(self, ref: n.ColumnRef):
        """Resolve locally (-> ('local', pos)) or in outer scopes
        (-> ('outer', key)).  Raises SchemaError if not found anywhere."""
        position = self.try_resolve(ref)
        if position is not None:
            return ("local", position)
        scope = self.outer
        while scope is not None:
            position = scope.try_resolve(ref)
            if position is not None:
                binding, column = scope.entries[position]
                return ("outer", (binding, column))
            scope = scope.outer
        raise SchemaError(f"cannot resolve column reference {ref}")

    def key_at(self, position: int) -> ColumnKey:
        return self.entries[position]


# ---------------------------------------------------------------------------
# Three-valued logic primitives


def sql_and(values) -> object:
    """Kleene AND over an iterable of True/False/None."""
    saw_unknown = False
    for value in values:
        if value is False:
            return False
        if value is None:
            saw_unknown = True
    return None if saw_unknown else True


def sql_or(values) -> object:
    """Kleene OR over an iterable of True/False/None."""
    saw_unknown = False
    for value in values:
        if value is True:
            return True
        if value is None:
            saw_unknown = True
    return None if saw_unknown else False


def sql_not(value) -> object:
    """Kleene NOT."""
    if value is None:
        return None
    return not value


def sql_compare(op: str, left, right) -> object:
    """Three-valued comparison; NULL operands yield UNKNOWN."""
    if left is None or right is None:
        return None
    if not comparable(left, right):
        if op in ("=", "<>"):
            raise ExecutionError(
                f"cannot compare {type(left).__name__} with {type(right).__name__}"
            )
        raise ExecutionError(
            f"cannot order {type(left).__name__} against {type(right).__name__}"
        )
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ExecutionError(f"unknown comparison operator {op!r}")


def _arith(op: str, left, right):
    if left is None or right is None:
        return None
    if isinstance(left, bool) or isinstance(right, bool):
        raise ExecutionError("arithmetic on boolean values")
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        raise ExecutionError(
            f"arithmetic on non-numeric values {left!r}, {right!r}"
        )
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        result = left / right
        # SQL integer division truncates toward zero
        if isinstance(left, int) and isinstance(right, int):
            return int(result) if result >= 0 else -int(-result)
        return result
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


# ---------------------------------------------------------------------------
# Compiler


def compile_expr(
    expr: n.Expr,
    scope: Scope,
    subquery_compiler: Optional[SubqueryCompiler] = None,
) -> Compiled:
    """Compile an expression AST into ``fn(row, params)``.

    ``subquery_compiler`` is required when the expression contains
    ``[NOT] EXISTS`` or ``[NOT] IN (subquery)`` nodes; the planner
    supplies one that builds and executes the subplan per invocation.
    """
    if isinstance(expr, n.Literal):
        value = expr.value
        return lambda row, params: value

    if isinstance(expr, n.Parameter):
        index = expr.index
        if not expr.negated:
            return lambda row, params: params[ARGS_KEY][index]

        def negated(row, params):
            # exactly the parser's ``-<literal>`` fold: numbers negate,
            # anything else is the arithmetic ``0 - value``
            value = params[ARGS_KEY][index]
            if isinstance(value, (int, float)):
                return -value
            return _arith("-", 0, value)

        return negated

    if isinstance(expr, n.ColumnRef):
        kind, where = scope.resolve_with_outer(expr)
        if kind == "local":
            position = where
            return lambda row, params: row[position]
        key = where
        return lambda row, params: params[key]

    if isinstance(expr, n.Comparison):
        op = expr.op
        left = compile_expr(expr.left, scope, subquery_compiler)
        right = compile_expr(expr.right, scope, subquery_compiler)
        return lambda row, params: sql_compare(op, left(row, params), right(row, params))

    if isinstance(expr, n.Arithmetic):
        op = expr.op
        left = compile_expr(expr.left, scope, subquery_compiler)
        right = compile_expr(expr.right, scope, subquery_compiler)
        return lambda row, params: _arith(op, left(row, params), right(row, params))

    if isinstance(expr, n.And):
        items = [compile_expr(item, scope, subquery_compiler) for item in expr.items]
        return lambda row, params: sql_and(item(row, params) for item in items)

    if isinstance(expr, n.Or):
        items = [compile_expr(item, scope, subquery_compiler) for item in expr.items]
        return lambda row, params: sql_or(item(row, params) for item in items)

    if isinstance(expr, n.Not):
        inner = compile_expr(expr.item, scope, subquery_compiler)
        return lambda row, params: sql_not(inner(row, params))

    if isinstance(expr, n.IsNull):
        inner = compile_expr(expr.item, scope, subquery_compiler)
        if expr.negated:
            return lambda row, params: inner(row, params) is not None
        return lambda row, params: inner(row, params) is None

    if isinstance(expr, n.InList):
        item = compile_expr(expr.item, scope, subquery_compiler)
        values = [compile_expr(v, scope, subquery_compiler) for v in expr.values]
        negated = expr.negated

        def run_in(row, params):
            subject = item(row, params)
            result = sql_or(
                sql_compare("=", subject, value(row, params)) for value in values
            )
            return sql_not(result) if negated else result

        return run_in

    if isinstance(expr, (n.Exists, n.InSubquery, n.ScalarSubquery)):
        if subquery_compiler is None:
            raise ExecutionError(
                "subquery encountered but no subquery compiler provided"
            )
        run = subquery_compiler(expr)
        return lambda row, params: run(_merge_params(scope, row, params))

    if isinstance(expr, n.AggregateCall):
        raise ExecutionError(
            f"{expr.func} is only valid in the select list of an "
            "aggregate query"
        )

    raise ExecutionError(f"cannot compile expression node {type(expr).__name__}")


def _merge_params(scope: Scope, row: tuple, params: dict) -> dict:
    """Extend outer params with the current row's columns.

    Used when entering a subquery: every column of the current scope
    becomes available to the subplan as a correlation parameter.
    """
    merged = dict(params)
    for position, key in enumerate(scope.entries):
        merged[key] = row[position]
    return merged
