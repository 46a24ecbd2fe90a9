"""Render AST nodes back to SQL text.

The output is standard SQL restricted to the supported fragment, so the
printed text parses back to an equivalent AST (round-trip property,
covered by hypothesis tests) and also runs on other engines — this is
what the portability experiment (E5) relies on.
"""

from __future__ import annotations

from . import nodes as n

_NEEDS_PARENS_UNDER_AND = (n.Or,)
_NEEDS_PARENS_UNDER_NOT = (n.Or, n.And, n.Comparison, n.InList, n.InSubquery, n.IsNull)
#: Boolean-valued nodes used where the grammar expects an additive operand
#: (comparison sides, IN/IS NULL subjects) must be parenthesized to re-parse.
_BOOLEAN_NODES = (n.Or, n.And, n.Not, n.Comparison, n.InList, n.InSubquery, n.IsNull, n.Exists)


def _print_operand(expr: n.Expr) -> str:
    """Print an expression in additive-operand position."""
    text = print_expr(expr)
    if isinstance(expr, _BOOLEAN_NODES):
        return f"({text})"
    return text


def print_expr(expr: n.Expr) -> str:
    """Render an expression node to SQL text."""
    if isinstance(expr, n.Parameter):
        return "-?" if expr.negated else "?"
    if isinstance(expr, n.Literal):
        return _print_literal(expr.value)
    if isinstance(expr, n.ColumnRef):
        return f"{expr.table}.{expr.column}" if expr.table else expr.column
    if isinstance(expr, n.Comparison):
        return f"{_print_operand(expr.left)} {expr.op} {_print_operand(expr.right)}"
    if isinstance(expr, n.Arithmetic):
        left = print_expr(expr.left)
        right = print_expr(expr.right)
        if isinstance(expr.right, n.Arithmetic):
            right = f"({right})"
        if isinstance(expr.left, n.Arithmetic) and expr.op in ("*", "/"):
            left = f"({left})"
        return f"{left} {expr.op} {right}"
    if isinstance(expr, n.And):
        # parenthesize OR (precedence) and nested AND (so the n-ary tree
        # shape survives a round-trip instead of being flattened)
        parts = [
            f"({print_expr(item)})"
            if isinstance(item, (n.Or, n.And))
            else print_expr(item)
            for item in expr.items
        ]
        return " AND ".join(parts)
    if isinstance(expr, n.Or):
        parts = [
            f"({print_expr(item)})" if isinstance(item, n.Or) else print_expr(item)
            for item in expr.items
        ]
        return " OR ".join(parts)
    if isinstance(expr, n.Not):
        inner = print_expr(expr.item)
        if isinstance(expr.item, _NEEDS_PARENS_UNDER_NOT):
            inner = f"({inner})"
        return f"NOT {inner}"
    if isinstance(expr, n.Exists):
        prefix = "NOT EXISTS" if expr.negated else "EXISTS"
        return f"{prefix} ({print_query(expr.query)})"
    if isinstance(expr, n.InList):
        op = "NOT IN" if expr.negated else "IN"
        values = ", ".join(print_expr(v) for v in expr.values)
        return f"{_print_operand(expr.item)} {op} ({values})"
    if isinstance(expr, n.InSubquery):
        op = "NOT IN" if expr.negated else "IN"
        return f"{_print_operand(expr.item)} {op} ({print_query(expr.query)})"
    if isinstance(expr, n.IsNull):
        op = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"{_print_operand(expr.item)} {op}"
    if isinstance(expr, n.AggregateCall):
        if expr.argument is None:
            return f"{expr.func}(*)"
        return f"{expr.func}({print_expr(expr.argument)})"
    if isinstance(expr, n.ScalarSubquery):
        return f"({print_query(expr.query)})"
    raise TypeError(f"cannot print expression node {type(expr).__name__}")


def _print_literal(value) -> str:
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float):
        text = repr(value)
        # guarantee a decimal point so the literal re-lexes as a float
        if "e" not in text and "E" not in text and "." not in text:
            text += ".0"
        return text
    return str(value)


def print_query(query: n.Query) -> str:
    """Render a SELECT or UNION node to SQL text."""
    if isinstance(query, n.Union):
        sep = " UNION ALL " if query.all else " UNION "
        return sep.join(print_select(s) for s in query.selects)
    return print_select(query)


def print_select(select: n.Select) -> str:
    """Render a single SELECT block."""
    items = ", ".join(_print_select_item(item) for item in select.items)
    froms = ", ".join(_print_table_ref(ref) for ref in select.from_items)
    head = "SELECT DISTINCT" if select.distinct else "SELECT"
    text = f"{head} {items} FROM {froms}"
    if select.where is not None:
        text += f" WHERE {print_expr(select.where)}"
    return text


def _print_select_item(item) -> str:
    if isinstance(item, n.Star):
        return f"{item.table}.*" if item.table else "*"
    text = print_expr(item.expr)
    if item.alias:
        text += f" AS {item.alias}"
    return text


def _print_table_ref(ref: n.TableRef) -> str:
    return f"{ref.name} AS {ref.alias}" if ref.alias else ref.name


def print_statement(stmt: n.Statement) -> str:
    """Render any statement node to SQL text."""
    if isinstance(stmt, n.SelectStatement):
        return print_query(stmt.query)
    if isinstance(stmt, n.CreateView):
        return f"CREATE VIEW {stmt.name} AS {print_query(stmt.query)}"
    if isinstance(stmt, n.CreateAssertion):
        return f"CREATE ASSERTION {stmt.name} CHECK ({print_expr(stmt.check)})"
    if isinstance(stmt, n.CreateTable):
        return _print_create_table(stmt)
    if isinstance(stmt, n.DropTable):
        clause = "IF EXISTS " if stmt.if_exists else ""
        return f"DROP TABLE {clause}{stmt.name}"
    if isinstance(stmt, n.DropView):
        clause = "IF EXISTS " if stmt.if_exists else ""
        return f"DROP VIEW {clause}{stmt.name}"
    if isinstance(stmt, n.Insert):
        return _print_insert(stmt)
    if isinstance(stmt, n.Delete):
        alias = f" AS {stmt.alias}" if stmt.alias else ""
        text = f"DELETE FROM {stmt.table}{alias}"
        if stmt.where is not None:
            text += f" WHERE {print_expr(stmt.where)}"
        return text
    if isinstance(stmt, n.Update):
        alias = f" AS {stmt.alias}" if stmt.alias else ""
        sets = ", ".join(
            f"{column} = {print_expr(value)}" for column, value in stmt.assignments
        )
        text = f"UPDATE {stmt.table}{alias} SET {sets}"
        if stmt.where is not None:
            text += f" WHERE {print_expr(stmt.where)}"
        return text
    if isinstance(stmt, n.Truncate):
        return f"TRUNCATE TABLE {stmt.table}"
    if isinstance(stmt, n.Call):
        args = ", ".join(print_expr(a) for a in stmt.args)
        return f"CALL {stmt.name}({args})"
    raise TypeError(f"cannot print statement node {type(stmt).__name__}")


def _print_create_table(stmt: n.CreateTable) -> str:
    parts: list[str] = []
    for col in stmt.columns:
        text = f"{col.name} {col.type_name}"
        if col.type_params:
            text += "(" + ", ".join(str(p) for p in col.type_params) + ")"
        if col.not_null:
            text += " NOT NULL"
        if col.primary_key:
            text += " PRIMARY KEY"
        parts.append(text)
    if stmt.primary_key:
        parts.append("PRIMARY KEY (" + ", ".join(stmt.primary_key) + ")")
    for unique in stmt.uniques:
        parts.append("UNIQUE (" + ", ".join(unique) + ")")
    for fk in stmt.foreign_keys:
        text = (
            "FOREIGN KEY ("
            + ", ".join(fk.columns)
            + f") REFERENCES {fk.ref_table}"
        )
        if fk.ref_columns:
            text += " (" + ", ".join(fk.ref_columns) + ")"
        parts.append(text)
    return f"CREATE TABLE {stmt.name} (" + ", ".join(parts) + ")"


def _print_insert(stmt: n.Insert) -> str:
    text = f"INSERT INTO {stmt.table}"
    if stmt.columns:
        text += " (" + ", ".join(stmt.columns) + ")"
    if stmt.query is not None:
        return f"{text} {print_query(stmt.query)}"
    rows = ", ".join(
        "(" + ", ".join(print_expr(v) for v in row) + ")" for row in stmt.rows
    )
    return f"{text} VALUES {rows}"
