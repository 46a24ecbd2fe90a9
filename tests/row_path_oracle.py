"""The interpreted per-row write path, kept as the oracle the generated
row writer (:mod:`repro.minidb.writer`) is held to.

Each function is the engine's write path as it was before the writer
was generated: ``validate_row`` coerces one value at a time through
:func:`~repro.minidb.types.coerce`, NOT NULL and foreign keys are
checked per row against the FK specs resolved from the catalog, and
:meth:`Table.insert <repro.minidb.storage.Table.insert>` maintains the
indexes.  ``tests/test_row_writer.py`` runs both on identical databases
and compares every row, index map, stamp and error.
"""

from __future__ import annotations

from repro.errors import ConstraintViolation, ExecutionError
from repro.minidb.storage import ValidatedRows
from repro.minidb.types import coerce


def validate_row(table, values: tuple) -> tuple:
    schema = table.schema
    if len(values) != schema.arity:
        raise ExecutionError(
            f"table {schema.name!r} expects {schema.arity} values, "
            f"got {len(values)}"
        )
    return tuple(
        coerce(value, column.sql_type, f"{schema.name}.{column.name}")
        for value, column in zip(values, schema.columns)
    )


def validate_rows(table, rows) -> list[tuple]:
    if rows.__class__ is ValidatedRows and rows.schema is table.schema:
        return rows
    return [validate_row(table, tuple(row)) for row in rows]


def check_not_null(table, row: tuple) -> None:
    for value, column in zip(row, table.schema.columns):
        if value is None and column.not_null:
            raise ConstraintViolation(
                f"NULL in NOT NULL column {table.name}.{column.name}",
                constraint=f"NOT NULL {table.name}.{column.name}",
                table=table.name,
            )


def check_fk_insert(db, table, row: tuple) -> None:
    """Every FK value of ``row`` must have a parent (NULLs exempt)."""
    for fk in table.schema.foreign_keys:
        parent = db.catalog.require_table(fk.ref_table)
        key = tuple(row[p] for p in table.schema.key_positions(fk.columns))
        if any(v is None for v in key):
            continue  # SQL: NULL FK values are not checked
        pk = parent.primary_key_index
        if pk is not None and parent.schema.key_positions(
            parent.schema.primary_key
        ) == parent.schema.key_positions(fk.ref_columns):
            if pk.lookup(key) is not None:
                continue
        elif any(True for _ in parent.lookup_secondary(fk.ref_columns, key)):
            continue
        raise ConstraintViolation(
            f"foreign key violation: "
            f"{table.name}({', '.join(fk.columns)})"
            f"={key!r} has no parent in {fk.ref_table}",
            constraint=str(fk),
            table=table.name,
        )


def _record(db, table, row: tuple, rowid: int) -> None:
    txn = db.transactions.current
    if txn is not None and txn.active:
        txn.record_insert(table, row, rowid)


def insert_rows(db, table_name: str, rows) -> int:
    """``Database.insert_rows`` with no triggers: validate every row,
    then NOT NULL → FK → store, row by row."""
    table = db.catalog.require_table(table_name)
    validated = validate_rows(table, rows)
    for row in validated:
        check_not_null(table, row)
        check_fk_insert(db, table, row)
        _record(db, table, row, table.insert(row))
    return len(validated)


def apply_batch(db, inserts: dict, deletes: dict) -> int:
    """``Database.apply_batch``: deletes children-first, inserts
    parents-first with FKs deferred to the final state, the whole
    batch rolled back on any failure."""
    own_transaction = not db.transactions.in_transaction
    if own_transaction:
        db.begin()
    changed = 0
    deleted_rows = []
    inserted_rows = []
    try:
        delete_names = [name for name, rows in deletes.items() if rows]
        for name in reversed(db.checker.fk_topological_order(delete_names)):
            table = db.catalog.require_table(name)
            for row in validate_rows(table, deletes[name]):
                if db._physical_delete_deferred(table, row):
                    deleted_rows.append((table, row))
                    changed += 1
        insert_names = [name for name, rows in inserts.items() if rows]
        for name in db.checker.fk_topological_order(insert_names):
            table = db.catalog.require_table(name)
            for row in validate_rows(table, inserts[name]):
                check_not_null(table, row)
                _record(db, table, row, table.insert(row))
                inserted_rows.append((table, row))
                changed += 1
        for table, row in inserted_rows:
            check_fk_insert(db, table, row)
        for table, row in deleted_rows:
            db.checker.check_fk_after_delete(table, row)
    except BaseException:
        if own_transaction:
            db.rollback()
        raise
    if own_transaction:
        db.commit()
    return changed


def load_rows(table, rows) -> int:
    """``Table.load_rows``: validate and store each row in turn,
    unique keys the only constraint."""
    count = 0
    for row in rows:
        table.insert(validate_row(table, tuple(row)))
        count += 1
    return count
