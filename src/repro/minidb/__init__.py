"""minidb — the from-scratch relational engine substrate.

The TINTIN paper runs on Microsoft SQL Server; this package provides the
equivalent substrate: typed tables with PK/UNIQUE/NOT NULL/FK
constraints, hash indexes, views, INSTEAD OF triggers, stored
procedures, transactions, and a planner/executor that gives the
generated incremental queries the access paths they rely on
(index probes instead of scans for update-sized inputs).
"""

from .catalog import Catalog, Procedure, Trigger, View
from .database import (
    Database,
    PlanCache,
    PreparedStatement,
    ResultSet,
)
from .schema import Column, ForeignKey, TableSchema
from .storage import Table
from .types import (
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    VARCHAR,
    SQLType,
    coerce,
    resolve_type,
)

__all__ = [
    "BOOLEAN",
    "Catalog",
    "Column",
    "DATE",
    "DOUBLE",
    "Database",
    "ForeignKey",
    "INTEGER",
    "PlanCache",
    "PreparedStatement",
    "Procedure",
    "ResultSet",
    "SQLType",
    "Table",
    "TableSchema",
    "Trigger",
    "VARCHAR",
    "View",
    "coerce",
    "resolve_type",
]
