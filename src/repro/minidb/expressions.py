"""Expression binding and SQL three-valued logic.

The planner *binds* every expression it places in a plan
(:func:`bind`): column references become :class:`Slot` nodes naming the
scope and tuple position they read, and subqueries become the probe
nodes the planner chose for them.  The bound tree is data — the code
generator in :mod:`repro.minidb.codegen` turns it into Python source.

A bound expression sees two kinds of input:

* the current row of the scope it was bound in, and the rows of the
  enclosing scopes (correlation) — both through :class:`Slot`;
* the constants of this execution of a statement *shape*
  (:mod:`repro.sqlparser.shape`): :class:`~repro.sqlparser.nodes.Parameter`
  nodes read them, so nothing of one call's constants is ever compiled
  into a shared plan.  Standalone expressions
  (:func:`repro.minidb.codegen.compile_expression`) receive them in a
  ``params`` dict under the reserved key :data:`ARGS_KEY`.

Boolean results use Kleene three-valued logic: ``True``, ``False`` or
``None`` (SQL UNKNOWN).  WHERE keeps a row only when the predicate is
exactly ``True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import ExecutionError, SchemaError
from ..sqlparser import nodes as n
from .types import comparable

#: Reserved ``params`` key holding the tuple of statement constants
#: (correlation keys are ``(binding, column)`` tuples, so a plain string
#: can never collide with them).
ARGS_KEY = "__args__"

#: Normalized (binding, column) pair.
ColumnKey = tuple[str, str]

#: A compiled standalone expression: ``fn(row, params)``.
Compiled = Callable[[tuple, dict], object]

#: Binds a subquery node (``[NOT] EXISTS``, ``IN (subquery)``, scalar
#: subquery) in the scope the callback closes over; the planner supplies
#: one that plans the subquery.
SubqueryBinder = Callable[[n.Expr], n.Expr]


def _norm(name: Optional[str]) -> Optional[str]:
    return name.lower() if name is not None else None


class Scope:
    """Column-name resolution for one operator's output tuple.

    The scope is an ordered sequence of ``(binding, column)`` pairs, one
    per tuple position.  Unqualified column references must be
    unambiguous across bindings.  References that cannot be resolved
    locally fall through to the ``outer`` scope chain (correlation).
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

    def locate(self, ref: n.ColumnRef) -> tuple["Scope", int]:
        """The scope ``ref`` resolves in — this one, else the nearest
        enclosing one (correlation) — and its position there.  Raises
        SchemaError if it resolves nowhere."""
        scope: Optional[Scope] = self
        while scope is not None:
            position = scope.try_resolve(ref)
            if position is not None:
                return scope, position
            scope = scope.outer
        raise SchemaError(f"cannot resolve column reference {ref}")


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


def sql_arith(op: str, left, right):
    """Binary arithmetic; NULL operands yield NULL."""
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


def sql_negate(value):
    """The parser's ``-<literal>`` fold applied to a statement constant:
    numbers negate, anything else is the arithmetic ``0 - value``."""
    if isinstance(value, (int, float)):
        return -value
    return sql_arith("-", 0, value)


# ---------------------------------------------------------------------------
# Binding


@dataclass(frozen=True, eq=False)
class Slot(n.Expr):
    """A bound column reference: position ``position`` of the rows of
    ``scope`` — the scope the expression was bound in, or an enclosing
    one (a correlated reference)."""

    scope: Scope
    position: int


def bind(
    expr: n.Expr, scope: Scope, subquery: Optional[SubqueryBinder] = None
) -> n.Expr:
    """Resolve ``expr`` against ``scope`` (and its outer chain).

    Column references become :class:`Slot` nodes; subquery nodes are
    handed to ``subquery``, which must be given when the expression
    contains any.  Raises SchemaError for a reference that resolves
    nowhere and ExecutionError for a construct with no value here.
    """
    if isinstance(expr, (n.Literal, n.Parameter)):
        return expr
    if isinstance(expr, n.ColumnRef):
        return Slot(*scope.locate(expr))
    if isinstance(expr, (n.Comparison, n.Arithmetic)):
        return type(expr)(
            expr.op,
            bind(expr.left, scope, subquery),
            bind(expr.right, scope, subquery),
        )
    if isinstance(expr, (n.And, n.Or)):
        return type(expr)(tuple(bind(item, scope, subquery) for item in expr.items))
    if isinstance(expr, n.Not):
        return n.Not(bind(expr.item, scope, subquery))
    if isinstance(expr, n.IsNull):
        return n.IsNull(bind(expr.item, scope, subquery), expr.negated)
    if isinstance(expr, n.InList):
        return n.InList(
            bind(expr.item, scope, subquery),
            tuple(bind(value, scope, subquery) for value in expr.values),
            expr.negated,
        )
    if isinstance(expr, (n.Exists, n.InSubquery, n.ScalarSubquery)):
        if subquery is None:
            raise ExecutionError(
                "subquery encountered but no subquery planner provided"
            )
        return subquery(expr)
    if isinstance(expr, n.AggregateCall):
        raise ExecutionError(
            f"{expr.func} is only valid in the select list of an "
            "aggregate query"
        )
    raise ExecutionError(f"cannot compile expression node {type(expr).__name__}")
