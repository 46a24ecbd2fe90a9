"""SQL data types and value coercion for the minidb engine.

The engine supports the types TPC-H and the paper's examples need:
integers, floating point, fixed-length/variable strings, booleans and
ISO dates (stored as strings).  Values are plain Python objects; SQL
NULL is Python ``None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import SchemaError, TypeCheckError


@dataclass(frozen=True)
class SQLType:
    """A resolved SQL type.

    ``kind`` is one of ``INTEGER``, ``DOUBLE``, ``VARCHAR``, ``BOOLEAN``,
    ``DATE``.  ``length`` is the declared maximum length for VARCHAR/CHAR
    (None means unbounded).
    """

    kind: str
    length: Optional[int] = None

    def __str__(self) -> str:
        if self.kind == "VARCHAR" and self.length is not None:
            return f"VARCHAR({self.length})"
        return self.kind


INTEGER = SQLType("INTEGER")
DOUBLE = SQLType("DOUBLE")
VARCHAR = SQLType("VARCHAR")
BOOLEAN = SQLType("BOOLEAN")
DATE = SQLType("DATE")

#: Maps SQL type names (as written in DDL) to canonical kinds.
_TYPE_ALIASES = {
    "INT": "INTEGER",
    "INTEGER": "INTEGER",
    "BIGINT": "INTEGER",
    "SMALLINT": "INTEGER",
    "TINYINT": "INTEGER",
    "REAL": "DOUBLE",
    "FLOAT": "DOUBLE",
    "DOUBLE": "DOUBLE",
    "DECIMAL": "DOUBLE",
    "NUMERIC": "DOUBLE",
    "VARCHAR": "VARCHAR",
    "CHAR": "VARCHAR",
    "TEXT": "VARCHAR",
    "STRING": "VARCHAR",
    "BOOLEAN": "BOOLEAN",
    "BOOL": "BOOLEAN",
    "DATE": "DATE",
}


def resolve_type(name: str, params: tuple[int, ...] = ()) -> SQLType:
    """Resolve a DDL type name (e.g. ``VARCHAR(25)``) to a :class:`SQLType`.

    Raises :class:`SchemaError` for unknown type names.
    """
    kind = _TYPE_ALIASES.get(name.upper())
    if kind is None:
        raise SchemaError(f"unknown SQL type {name!r}")
    if kind == "VARCHAR" and params:
        if len(params) != 1 or params[0] <= 0:
            raise SchemaError(f"invalid VARCHAR length parameters {params!r}")
        return SQLType("VARCHAR", params[0])
    if kind == "DOUBLE" and params:
        # DECIMAL(p, s) — precision/scale accepted and ignored (floats)
        return DOUBLE
    if params and kind not in ("VARCHAR", "DOUBLE"):
        raise SchemaError(f"type {name!r} does not take parameters")
    return SQLType(kind)


def coerce(value, sql_type: SQLType, column: str = "?"):
    """Validate/convert a Python value to conform to ``sql_type``.

    NULL (None) always passes — nullability is a column property checked
    by the constraint layer, not a type property.  Raises
    :class:`TypeCheckError` on mismatch.
    """
    if value is None:
        return None
    kind = sql_type.kind
    if kind == "INTEGER":
        if isinstance(value, bool):
            raise TypeCheckError(f"column {column}: boolean given for INTEGER")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise TypeCheckError(f"column {column}: {value!r} is not an INTEGER")
    if kind == "DOUBLE":
        if isinstance(value, bool):
            raise TypeCheckError(f"column {column}: boolean given for DOUBLE")
        if isinstance(value, (int, float)):
            if isinstance(value, float) and math.isnan(value):
                # NaN breaks row equality (NaN != NaN): event-capture
                # dedup, index lookups and WAL replay verification all
                # compare whole rows, so NaN can never enter a table —
                # rejected here, before any staging or apply decision
                raise TypeCheckError(
                    f"column {column}: NaN is not a storable DOUBLE"
                )
            return float(value)
        raise TypeCheckError(f"column {column}: {value!r} is not a DOUBLE")
    if kind == "VARCHAR":
        if not isinstance(value, str):
            raise TypeCheckError(f"column {column}: {value!r} is not a string")
        if sql_type.length is not None and len(value) > sql_type.length:
            raise TypeCheckError(
                f"column {column}: string of length {len(value)} exceeds "
                f"VARCHAR({sql_type.length})"
            )
        return value
    if kind == "BOOLEAN":
        if isinstance(value, bool):
            return value
        raise TypeCheckError(f"column {column}: {value!r} is not a BOOLEAN")
    if kind == "DATE":
        if isinstance(value, str):
            _validate_date(value, column)
            return value
        raise TypeCheckError(f"column {column}: {value!r} is not a DATE string")
    raise TypeCheckError(f"column {column}: unsupported type {sql_type}")


def _validate_date(text: str, column: str) -> None:
    parts = text.split("-")
    ok = (
        len(parts) == 3
        and len(parts[0]) == 4
        and len(parts[1]) == 2
        and len(parts[2]) == 2
        and all(p.isdigit() for p in parts)
        and 1 <= int(parts[1]) <= 12
        and 1 <= int(parts[2]) <= 31
    )
    if not ok:
        raise TypeCheckError(
            f"column {column}: {text!r} is not an ISO date (YYYY-MM-DD)"
        )


def comparable(left, right) -> bool:
    """Return True if two non-NULL values may be compared with < > etc.

    Numbers compare with numbers; strings with strings; booleans with
    booleans.  Cross-kind comparisons raise at evaluation time, matching
    strict SQL engines.
    """
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return True
    if isinstance(left, str) and isinstance(right, str):
        return True
    return False


def probe_key(value, sql_type: SQLType) -> bool:
    """Return True if ``column = value`` can be answered by a hash
    probe on a column of ``sql_type``.

    That is when the comparison is defined for every stored value
    (:func:`comparable`) and can be TRUE: NULL equals nothing, and a
    value of another kind makes the comparison raise — both are left
    to the scan, which yields the same rows or the same error.
    """
    if value is None:
        return False
    kind = sql_type.kind
    if kind in ("INTEGER", "DOUBLE"):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "BOOLEAN":
        return isinstance(value, bool)
    return isinstance(value, str)  # VARCHAR, DATE
