"""Transaction support: an undo log over row-level changes.

The engine uses statement-level immediate constraint checking, so a
transaction only needs to remember which rows were inserted and deleted
in order to roll them back.  TINTIN's ``safeCommit`` wraps the batch
apply in one of these transactions: if a constraint trips mid-batch the
whole update is undone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from ..errors import TransactionError
from .storage import Table


@dataclass
class _UndoRecord:
    kind: Literal["insert", "delete"]
    table: Table
    row: tuple
    rowid: int


class Transaction:
    """One open transaction: an ordered undo log."""

    def __init__(self):
        self._log: list[_UndoRecord] = []
        self.active = True

    def record_insert(self, table: Table, row: tuple, rowid: int) -> None:
        self._log.append(_UndoRecord("insert", table, row, rowid))

    def record_delete(self, table: Table, row: tuple, rowid: int) -> None:
        self._log.append(_UndoRecord("delete", table, row, rowid))

    def rollback(self) -> int:
        """Undo every logged change in reverse order; returns the count."""
        count = len(self._log)
        for record in reversed(self._log):
            if record.kind == "insert":
                # the row may have moved; delete by identity when possible
                try:
                    record.table.delete_rowid(record.rowid)
                except KeyError:
                    record.table.delete_row(record.row)
            else:
                record.table.insert(record.row)
        self._log.clear()
        self.active = False
        return count

    def commit(self) -> int:
        count = len(self._log)
        self._log.clear()
        self.active = False
        return count


class TransactionManager:
    """Tracks one agent's (single) open transaction.

    A database owns a default manager; each server session owns its own
    and binds it to the committing thread via
    :meth:`repro.minidb.database.Database.transaction_scope`, so undo
    logs stay attributed to the session whose update is being applied.
    """

    def __init__(self):
        self._current: Transaction | None = None

    @property
    def current(self) -> Transaction | None:
        return self._current

    @property
    def in_transaction(self) -> bool:
        return self._current is not None and self._current.active

    def begin(self) -> Transaction:
        if self.in_transaction:
            raise TransactionError("a transaction is already open")
        self._current = Transaction()
        return self._current

    def commit(self) -> int:
        if not self.in_transaction:
            raise TransactionError("no open transaction to commit")
        count = self._current.commit()
        self._current = None
        return count

    def rollback(self) -> int:
        if not self.in_transaction:
            raise TransactionError("no open transaction to roll back")
        count = self._current.rollback()
        self._current = None
        return count
