"""A deliberately naive reference evaluator for SELECT queries.

Used by differential tests: the optimizing planner (index joins, probe
probes, memoization) must produce exactly the same bags of rows as
this brute-force implementation, which evaluates the relational
semantics as directly as possible:

* FROM: cartesian product of the listed relations;
* WHERE: three-valued evaluation per row, subqueries re-evaluated from
  scratch for every candidate row;
* projection, DISTINCT, UNION [ALL]: literal definitions.

No indexes, no join ordering, no memoization — slow and obviously
correct.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.errors import ExecutionError
from repro.minidb.database import Database
from repro.minidb.expressions import sql_and, sql_compare, sql_not, sql_or
from repro.minidb.plan import aggregate_value
from repro.sqlparser import nodes as n

#: environment: (binding_lower, column_lower) -> value
Env = dict


class ReferenceExecutor:
    """Brute-force query evaluation against a minidb catalog."""

    def __init__(self, db: Database):
        self.db = db

    # -- entry point --------------------------------------------------------

    def rows(self, query: n.Query, outer_env: Optional[Env] = None) -> list[tuple]:
        if isinstance(query, n.Union):
            parts = [self._select_rows(s, outer_env) for s in query.selects]
            merged = list(itertools.chain.from_iterable(parts))
            if query.all:
                return merged
            seen: set[tuple] = set()
            unique = []
            for row in merged:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            return unique
        return self._select_rows(query, outer_env)

    # -- internals -------------------------------------------------------------

    def _relation(self, name: str) -> tuple[list[str], list[tuple]]:
        table = self.db.catalog.get_table(name, default=None)
        if table is not None:
            return list(table.schema.column_names), table.rows_snapshot()
        view = self.db.catalog.get_view(name)
        if view is None:
            raise ExecutionError(f"unknown relation {name!r}")
        return list(view.columns), self.rows(view.query)

    def _select_rows(self, select: n.Select, outer_env: Optional[Env]) -> list[tuple]:
        bindings: list[tuple[str, list[str], list[tuple]]] = []
        for ref in select.from_items:
            columns, rows = self._relation(ref.name)
            bindings.append((ref.binding.lower(), columns, rows))

        envs: list[Env] = []
        for combination in itertools.product(*(rows for _, _, rows in bindings)):
            env: Env = dict(outer_env or {})
            for (binding, columns, _), row in zip(bindings, combination):
                for column, value in zip(columns, row):
                    env[(binding, column.lower())] = value
            if select.where is None or self._eval(select.where, env) is True:
                envs.append(env)

        if self._is_aggregate(select):
            return [self._aggregate_row(select, envs, outer_env)]

        out: list[tuple] = []
        local_bindings = [(b, cols) for b, cols, _ in bindings]
        for env in envs:
            out.append(self._project(select, env, local_bindings))
        if select.distinct:
            seen: set[tuple] = set()
            unique = []
            for row in out:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            return unique
        return out

    @staticmethod
    def _is_aggregate(select: n.Select) -> bool:
        return any(
            isinstance(item, n.SelectItem)
            and any(isinstance(x, n.AggregateCall) for x in n.walk_expr(item.expr))
            for item in select.items
        )

    def _aggregate_row(self, select, envs, outer_env) -> tuple:
        values = []
        for item in select.items:
            call = item.expr
            if call.argument is None:
                values.append(len(envs))
            else:
                collected = [self._eval(call.argument, env) for env in envs]
                values.append(aggregate_value(call.func, collected))
        return tuple(values)

    def _project(self, select, env: Env, local_bindings) -> tuple:
        values = []
        for item in select.items:
            if isinstance(item, n.Star):
                for binding, columns in local_bindings:
                    if item.table is not None and binding != item.table.lower():
                        continue
                    for column in columns:
                        values.append(env[(binding, column.lower())])
            else:
                values.append(self._eval(item.expr, env))
        return tuple(values)

    # -- expression evaluation ----------------------------------------------------

    def _eval(self, expr: n.Expr, env: Env):
        if isinstance(expr, n.Literal):
            return expr.value
        if isinstance(expr, n.ColumnRef):
            return self._lookup(expr, env)
        if isinstance(expr, n.Comparison):
            return sql_compare(
                expr.op, self._eval(expr.left, env), self._eval(expr.right, env)
            )
        if isinstance(expr, n.Arithmetic):
            left = self._eval(expr.left, env)
            right = self._eval(expr.right, env)
            if left is None or right is None:
                return None
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                result = left / right
                if isinstance(left, int) and isinstance(right, int):
                    return int(result) if result >= 0 else -int(-result)
                return result
        if isinstance(expr, n.And):
            return sql_and(self._eval(item, env) for item in expr.items)
        if isinstance(expr, n.Or):
            return sql_or(self._eval(item, env) for item in expr.items)
        if isinstance(expr, n.Not):
            return sql_not(self._eval(expr.item, env))
        if isinstance(expr, n.IsNull):
            value = self._eval(expr.item, env)
            return (value is not None) if expr.negated else (value is None)
        if isinstance(expr, n.InList):
            subject = self._eval(expr.item, env)
            result = sql_or(
                sql_compare("=", subject, self._eval(v, env)) for v in expr.values
            )
            return sql_not(result) if expr.negated else result
        if isinstance(expr, n.Exists):
            rows = self.rows(expr.query, env)
            return (not rows) if expr.negated else bool(rows)
        if isinstance(expr, n.InSubquery):
            subject = self._eval(expr.item, env)
            values = [row[0] for row in self.rows(expr.query, env)]
            if subject is None:
                result = None if values else False
            elif subject in [v for v in values if v is not None]:
                result = True
            elif any(v is None for v in values):
                result = None
            else:
                result = False
            return sql_not(result) if expr.negated else result
        if isinstance(expr, n.ScalarSubquery):
            return self.rows(expr.query, env)[0][0]
        raise ExecutionError(f"reference executor: cannot evaluate {expr!r}")

    @staticmethod
    def _lookup(ref: n.ColumnRef, env: Env):
        column = ref.column.lower()
        if ref.table is not None:
            key = (ref.table.lower(), column)
            if key in env:
                return env[key]
            raise ExecutionError(f"reference executor: unbound {ref}")
        matches = [v for (b, c), v in env.items() if c == column]
        # ambiguity is the planner's job to reject; tests use qualified
        # or unique names
        if not matches:
            raise ExecutionError(f"reference executor: unbound {ref}")
        return matches[0]
