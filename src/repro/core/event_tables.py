"""Event capture: auxiliary ``ins_T``/``del_T`` tables plus INSTEAD OF
triggers (paper §4, "SQL Server Controller").

For every base table ``T`` the installer creates two constraint-free
event tables in the ``event`` namespace and two INSTEAD OF triggers
that redirect the user's inserts/deletes into them, leaving ``T``
untouched until ``safeCommit`` applies the batch.

The capture maintains three invariants the EDC machinery relies on
(paper eq. (2)-(3) assume ι/δ are *net* events):

* ``ins_T ∩ T = ∅`` — inserting an existing tuple is a no-op;
* ``del_T ⊆ T``   — deleting a non-existent tuple is a no-op;
* ``ins_T ∩ del_T = ∅`` — delete-then-insert of the same tuple cancels
  out (and so does insert-then-delete when rows are staged through the
  row-level API; an SQL DELETE statement evaluates its WHERE against
  the base table only, so it never sees pending inserts — faithful
  INSTEAD OF trigger behaviour).
"""

from __future__ import annotations

from ..errors import CatalogError
from ..minidb.database import Database
from ..minidb.schema import Column, TableSchema
from ..minidb.storage import Table

#: Namespace tag for event tables (the paper's separate ``event_DB``).
EVENT_NAMESPACE = "event"


def ins_table_name(table: str) -> str:
    return f"ins_{table}"


def del_table_name(table: str) -> str:
    return f"del_{table}"


def event_schema(base: TableSchema, event_name: str) -> TableSchema:
    """The constraint-free schema of an event table mirroring ``base``.

    Shared by the global (catalog-registered) event tables and the
    private per-session staging overlays, which must be shape-identical
    so a session's events can be loaded into the global tables verbatim
    at commit time.
    """
    columns = [Column(c.name, c.sql_type, not_null=False) for c in base.columns]
    return TableSchema(event_name, columns)


def stage_insert(
    base: Table, ins_table: Table, del_table: Table, rows: list[tuple]
) -> None:
    """Stage insertions into ``ins_table`` preserving the net-event
    invariants (see the module docstring).  ``base`` supplies the
    membership tests; it is never modified."""
    for row in rows:
        if del_table.contains_row(row):
            # delete-then-insert of the same tuple: net no-op
            del_table.delete_row(row)
        elif base.contains_row(row) or ins_table.contains_row(row):
            continue  # set semantics: inserting an existing tuple is a no-op
        else:
            ins_table.insert(row)


def stage_delete(
    base: Table, ins_table: Table, del_table: Table, rows: list[tuple]
) -> None:
    """Stage deletions into ``del_table`` preserving the net-event
    invariants; ``base`` is never modified."""
    for row in rows:
        if ins_table.contains_row(row):
            # insert-then-delete of the same tuple: net no-op
            ins_table.delete_row(row)
        elif base.contains_row(row) and not del_table.contains_row(row):
            del_table.insert(row)
        # deleting a tuple that never existed is a no-op


class EventTableManager:
    """Installs and operates the event-capture machinery on a database."""

    def __init__(self, db: Database):
        self.db = db
        self._captured: list[str] = []
        #: optional context-manager factory wrapped around every trigger
        #: capture.  The multi-session commit scheduler installs its
        #: read lock here, so default-session staging (plain
        #: ``db.execute`` DML) serializes with commit windows instead of
        #: racing them.
        self._capture_gate = None

    def set_capture_gate(self, gate) -> None:
        """Install a context-manager factory guarding trigger captures."""
        self._capture_gate = gate

    # -- installation -------------------------------------------------------

    def install(self, tables: list[str] | None = None) -> list[str]:
        """Create event tables + capture triggers for the given base
        tables (default: every table in the ``main`` namespace).

        Returns the list of instrumented table names.  Idempotent per
        table: already-instrumented tables are skipped.
        """
        if tables is None:
            targets = [
                t.schema.name for t in self.db.catalog.tables(namespace="main")
            ]
        else:
            targets = [self.db.catalog.require_table(t).schema.name for t in tables]
        for name in targets:
            if name in self._captured:
                continue
            self._create_event_tables(name)
            self._create_triggers(name)
            self._captured.append(name)
        return list(self._captured)

    @property
    def captured_tables(self) -> list[str]:
        return list(self._captured)

    def _create_event_tables(self, table: str) -> None:
        base = self.db.catalog.require_table(table)
        for event_name in (ins_table_name(table), del_table_name(table)):
            if self.db.catalog.has_table(event_name):
                raise CatalogError(
                    f"event table {event_name!r} already exists — is the "
                    "capture already installed?"
                )
            schema = event_schema(base.schema, event_name)
            self.db.catalog.add_table(schema, namespace=EVENT_NAMESPACE)

    def _create_triggers(self, table: str) -> None:
        self.db.create_trigger(
            f"capture_ins_{table}", table, "insert", self._capture_insert
        )
        self.db.create_trigger(
            f"capture_del_{table}", table, "delete", self._capture_delete
        )

    # -- trigger actions ---------------------------------------------------

    def _capture_insert(self, db: Database, table: str, rows: list[tuple]) -> None:
        if self._capture_gate is not None:
            with self._capture_gate():
                _capture_insert(db, table, rows)
        else:
            _capture_insert(db, table, rows)

    def _capture_delete(self, db: Database, table: str, rows: list[tuple]) -> None:
        if self._capture_gate is not None:
            with self._capture_gate():
                _capture_delete(db, table, rows)
        else:
            _capture_delete(db, table, rows)

    # -- event access ------------------------------------------------------------

    def pending_insertions(self, table: str) -> list[tuple]:
        return self.db.table(ins_table_name(table)).rows_snapshot()

    def pending_deletions(self, table: str) -> list[tuple]:
        return self.db.table(del_table_name(table)).rows_snapshot()

    def pending_counts(self) -> dict[str, tuple[int, int]]:
        """``{table: (#insertions, #deletions)}`` for instrumented tables."""
        return {
            t: (
                len(self.db.table(ins_table_name(t))),
                len(self.db.table(del_table_name(t))),
            )
            for t in self._captured
        }

    def has_pending_events(self) -> bool:
        return any(
            ins or dels for ins, dels in self.pending_counts().values()
        )

    def truncate_events(self) -> int:
        """Empty every event table; returns the number of rows discarded."""
        removed = 0
        for table in self._captured:
            removed += self.db.table(ins_table_name(table)).truncate()
            removed += self.db.table(del_table_name(table)).truncate()
        return removed

    def snapshot_events(self) -> tuple[dict[str, list[tuple]], dict[str, list[tuple]]]:
        """Copy the current global staging as ``(inserts, deletes)``
        dicts (only tables with events appear)."""
        inserts: dict[str, list[tuple]] = {}
        deletes: dict[str, list[tuple]] = {}
        for table in self._captured:
            ins = self.db.table(ins_table_name(table)).rows_snapshot()
            if ins:
                inserts[table] = ins
            dels = self.db.table(del_table_name(table)).rows_snapshot()
            if dels:
                deletes[table] = dels
        return inserts, deletes

    def take_events(self) -> tuple[dict[str, list[tuple]], dict[str, list[tuple]]]:
        """Move the global staging out of the event tables: returns it
        (as :meth:`snapshot_events` does) and leaves them empty — ready
        for the next update, and for a commit to present any update to
        the violation views as overlays.  One pass; an empty event
        table costs one length test."""
        inserts: dict[str, list[tuple]] = {}
        deletes: dict[str, list[tuple]] = {}
        for table in self._captured:
            for staged, name in (
                (inserts, ins_table_name(table)),
                (deletes, del_table_name(table)),
            ):
                events = self.db.table(name)
                if len(events):
                    staged[table] = events.rows_snapshot()
                    events.truncate()
        return inserts, deletes

    def load_events(
        self,
        inserts: dict[str, list[tuple]],
        deletes: dict[str, list[tuple]],
    ) -> None:
        """Put a staging :meth:`take_events` took back into the (still
        empty) global event tables — how a commit window restores the
        default-session events it stashed.  Rows were validated at
        staging time, so they are inserted without re-validation.
        """
        for table, rows in inserts.items():
            target = self.db.table(ins_table_name(table))
            for row in rows:
                target.insert(row)
        for table, rows in deletes.items():
            target = self.db.table(del_table_name(table))
            for row in rows:
                target.insert(row)

    # -- applying -------------------------------------------------------------------

    def apply_pending(self) -> int:
        """Apply the captured batch to the base tables (a trigger-free
        physical write — capture stays armed), then truncate the event
        tables.  Constraint violations propagate after rolling the
        batch back, the events still staged."""
        changed = self.db.apply_batch(*self.snapshot_events())
        self.truncate_events()
        return changed


# -- trigger actions ----------------------------------------------------------


def _capture_insert(db: Database, table: str, rows: list[tuple]) -> None:
    stage_insert(
        db.table(table),
        db.table(ins_table_name(table)),
        db.table(del_table_name(table)),
        rows,
    )


def _capture_delete(db: Database, table: str, rows: list[tuple]) -> None:
    stage_delete(
        db.table(table),
        db.table(ins_table_name(table)),
        db.table(del_table_name(table)),
        rows,
    )
