"""Event capture: auxiliary ``ins_T``/``del_T`` tables plus INSTEAD OF
triggers (paper §4, "SQL Server Controller"), and the one staging
class every session's update is netted through.

For every base table ``T`` the installer creates two constraint-free
event tables in the ``event`` namespace and two INSTEAD OF triggers
that redirect the user's inserts/deletes into them, leaving ``T``
untouched until ``safeCommit`` applies the batch.

A staged update is a :class:`StagedEvents`: per captured table, the
table's schema when staging began and an ins/del table pair.  The
default session's is backed by the catalog's ``ins_T``/``del_T``; a
:class:`~repro.server.Session`'s by private tables of the same shape;
a shard worker nets every routed slice through its default one.  Every
door keeps the three invariants the EDC machinery relies on (paper
eq. (2)-(3) assume ι/δ are *net* events):

* ``ins_T ∩ T = ∅`` — inserting an existing tuple is a no-op;
* ``del_T ⊆ T``   — deleting a non-existent tuple is a no-op;
* ``ins_T ∩ del_T = ∅`` — delete-then-insert of the same tuple cancels
  out (and so does insert-then-delete when rows are staged through the
  row-level API; an SQL DELETE statement evaluates its WHERE against
  the base table only, so it never sees pending inserts — faithful
  INSTEAD OF trigger behaviour).
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from ..errors import CatalogError, ExecutionError
from ..minidb.database import Database
from ..minidb.schema import Column, TableSchema, normalize
from ..minidb.storage import Table, TableOverlay, ValidatedRows

#: Namespace tag for event tables (the paper's separate ``event_DB``).
EVENT_NAMESPACE = "event"


def ins_table_name(table: str) -> str:
    return f"ins_{table}"


def del_table_name(table: str) -> str:
    return f"del_{table}"


class StagedEvents:
    """One staged update: the net events of every captured table.

    Per captured table it holds the table's schema when staging began
    and an ``ins``/``del`` table pair, filled under the three
    invariants above.  The default session's instance is backed by the
    catalog's own ``ins_T``/``del_T`` (paper parity: ``SELECT * FROM
    ins_T``, ``check_pending`` and a SQLite mirror read them); a
    :class:`~repro.server.Session` owns one backed by private tables of
    the same shape outside the catalog (:meth:`private`).  A shard
    worker stages every routed slice through its default instance
    before the scheduler sees it.

    Staging checks rows against the catalog's table, so the events of
    a table dropped since — and perhaps created again — are not taken:
    they went with the table, as the default session's do.
    """

    def __init__(self, db: Database, tables: dict):
        self._db = db
        #: ``{captured table: (its schema when staging began, ins, del)}``
        self.tables: dict[str, tuple[TableSchema, Table, Table]] = tables
        #: (stamp, overlay map) memo — rebuilt only after the staging
        #: tables or the catalog changed, so repeated reads between
        #: stagings share one immutable overlay (and its probe indexes)
        self._overlay_cache: Optional[tuple[tuple, Optional[dict]]] = None

    def private(self) -> "StagedEvents":
        """An empty staging of the same tables, backed by private
        tables outside the catalog."""
        private = {
            name: (schema, Table(ins.schema, "session"), Table(dels.schema, "session"))
            for name, (schema, ins, dels) in self.tables.items()
        }
        return StagedEvents(self._db, private)

    def _pair(self, base: Table) -> tuple[Table, Table]:
        entry = self.tables.get(base.name)
        if entry is None or entry[0] is not base.schema:
            raise ExecutionError(
                f"table {base.name!r} is not instrumented for capture — "
                "sessions can only stage updates on captured tables"
            )
        return entry[1], entry[2]

    def stage_insert(self, base: Table, rows: list[tuple]) -> None:
        """Stage insertions of ``base`` rows preserving the net-event
        invariants.  ``rows`` must have passed ``base.validate_rows``.
        ``base`` supplies the membership tests; it is never modified.
        Every test is a hash probe, so staging is linear in the rows
        staged."""
        ins_table, del_table = self._pair(base)
        for row in rows:
            rowid = del_table.find_rowid(row)
            if rowid is not None:
                # delete-then-insert of the same tuple: net no-op
                del_table.delete_rowid(rowid)
            elif base.contains_row(row) or ins_table.contains_row(row):
                continue  # set semantics: inserting an existing tuple is a no-op
            else:
                ins_table.insert(row)

    def stage_delete(self, base: Table, rows: list[tuple]) -> None:
        """Stage deletions of ``base`` rows preserving the net-event
        invariants; ``base`` is never modified.  What is staged is the
        row ``base`` stores, so the delete table holds validated rows
        whatever spelling of a value the caller used."""
        ins_table, del_table = self._pair(base)
        for row in rows:
            rowid = ins_table.find_rowid(row)
            if rowid is not None:
                # insert-then-delete of the same tuple: net no-op
                ins_table.delete_rowid(rowid)
                continue
            rowid = base.find_rowid(row)
            if rowid is not None:
                stored = base.row_by_id(rowid)
                if not del_table.contains_row(stored):
                    del_table.insert(stored)
            # deleting a tuple that never existed is a no-op

    def _current(self, name: str, schema: TableSchema) -> Optional[Table]:
        """The catalog's table ``name`` while it is the table of
        ``schema`` (the one staging began on), else None."""
        base = self._db.catalog.get_table(name, None)
        return base if base is not None and base.schema is schema else None

    def _staged(self):
        """``(schema, ins, del, its table)`` per captured table that has
        staged events and is still the catalog's table."""
        for name, (schema, ins, dels) in self.tables.items():
            if len(ins) or len(dels):
                base = self._current(name, schema)
                if base is not None:
                    yield schema, ins, dels, base

    def snapshot(self) -> tuple[dict[str, list[tuple]], dict[str, list[tuple]]]:
        """Copy the staged update as ``(inserts, deletes)`` dicts of
        :class:`~repro.minidb.storage.ValidatedRows` (only tables with
        events appear)."""
        inserts: dict[str, list[tuple]] = {}
        deletes: dict[str, list[tuple]] = {}
        for schema, ins, dels, _ in self._staged():
            if len(ins):
                inserts[schema.name] = ValidatedRows(ins.scan(), schema)
            if len(dels):
                deletes[schema.name] = ValidatedRows(dels.scan(), schema)
        return inserts, deletes

    def take(self) -> tuple[dict[str, list[tuple]], dict[str, list[tuple]]]:
        """Move the staged update out: returns it (as :meth:`snapshot`
        does) and leaves the staging empty — ready for the next update,
        and for a commit to present this one to the violation views as
        overlays."""
        staged = self.snapshot()
        self.truncate()
        return staged

    def load(
        self,
        inserts: dict[str, list[tuple]],
        deletes: dict[str, list[tuple]],
    ) -> None:
        """Put an update :meth:`take` took back into the (still empty)
        staging — how a commit window restores the default session's
        events it stashed.  The rows were validated at staging time."""
        for side, events in ((1, inserts), (2, deletes)):  # ins, then del
            for table, rows in events.items():
                target = self.tables[table][side]
                for row in rows:
                    target.insert(row)

    def truncate(self) -> int:
        """Empty the staging; returns the number of rows discarded."""
        return sum(
            table.truncate()
            for _, ins, dels in self.tables.values()
            for table in (ins, dels)
            if len(table)
        )

    def counts(self) -> dict[str, tuple[int, int]]:
        """``{table: (#insertions, #deletions)}`` per captured table
        that is still the catalog's."""
        return {
            name: (len(ins), len(dels))
            for name, (schema, ins, dels) in self.tables.items()
            if self._current(name, schema) is not None
        }

    def _version(self) -> tuple[int, int]:
        """Stamp over the staging tables and the catalog: any staging
        mutation bumps some table's ``data_version``, and a drop bumps
        the catalog's version, so equal stamps prove the overlays
        unchanged."""
        return self._db.catalog.version, sum(
            ins.data_version + dels.data_version
            for _, ins, dels in self.tables.values()
        )

    def overlays(self) -> Optional[dict[str, TableOverlay]]:
        """The staged update as a read-time overlay map (normalized
        base-table name -> :class:`TableOverlay`); ``None`` when nothing
        is staged.  The overlay snapshots the staging tables, so it
        stays stable even if staging continues afterwards; it is
        memoized until the staging tables change, so repeated reads pay
        nothing to rebuild it."""
        version = self._version()
        cached = self._overlay_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        overlays = {
            normalize(schema.name): TableOverlay(
                ins.rows_snapshot(), dels.rows_snapshot(), table=base
            )
            for schema, ins, dels, base in self._staged()
        }
        self._overlay_cache = (version, overlays or None)
        return overlays or None


class EventTableManager:
    """Installs the event-capture machinery on a database: the
    ``ins_T``/``del_T`` tables, and the triggers that stage the default
    session's update in them through :attr:`staged`."""

    def __init__(self, db: Database):
        self.db = db
        #: ``{captured table: (its schema at install, ins_T, del_T)}``.
        #: Every staged row passed that schema's validation: a drop of the
        #: table takes its triggers, event tables and entry with it (see
        #: :meth:`release`), so a table created again under the name is
        #: captured only by the next :meth:`install`.
        self._captured: dict[str, tuple[TableSchema, Table, Table]] = {}
        #: the default session's staged update, held in the catalog's
        #: own event tables
        self.staged = StagedEvents(db, self._captured)
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
            ins, dels = self._create_event_tables(name)
            self._create_triggers(name)
            self._captured[name] = (
                self.db.catalog.require_table(name).schema,
                ins,
                dels,
            )
        return list(self._captured)

    def release(self, table: str) -> None:
        """Forget the capture of ``table`` (a normalized name) as it is
        dropped: its ``ins_T``/``del_T`` go, with any events staged in
        them.  The catalog drops the triggers with the table."""
        for name in [name for name in self._captured if normalize(name) == table]:
            _, ins, dels = self._captured.pop(name)
            self.db.catalog.drop_table(ins.name)
            self.db.catalog.drop_table(dels.name)

    def owner_of(self, event_table: str) -> str | None:
        """The captured table whose ``ins_T`` or ``del_T`` is
        ``event_table`` (a normalized name), or None."""
        for name, (_, ins, dels) in self._captured.items():
            if event_table in (normalize(ins.name), normalize(dels.name)):
                return name
        return None

    @property
    def captured_tables(self) -> list[str]:
        return list(self._captured)

    def _create_event_tables(self, table: str) -> tuple[Table, Table]:
        base = self.db.catalog.require_table(table)
        created = []
        for event_name in (ins_table_name(table), del_table_name(table)):
            if self.db.catalog.has_table(event_name):
                raise CatalogError(
                    f"event table {event_name!r} already exists — is the "
                    "capture already installed?"
                )
            columns = [
                Column(c.name, c.sql_type, not_null=False)
                for c in base.schema.columns
            ]
            schema = TableSchema(event_name, columns)
            created.append(
                self.db.catalog.add_table(schema, namespace=EVENT_NAMESPACE)
            )
        return created[0], created[1]

    def _create_triggers(self, table: str) -> None:
        for name, event, stage in (
            (f"capture_ins_{table}", "insert", self.staged.stage_insert),
            (f"capture_del_{table}", "delete", self.staged.stage_delete),
        ):
            self.db.create_trigger(name, table, event, partial(self._capture, stage))

    # -- trigger actions ---------------------------------------------------

    def _capture(self, stage, db: Database, table: str, rows: list[tuple]) -> None:
        base = self.db.catalog.require_table(table)
        if self._capture_gate is not None:
            with self._capture_gate():
                stage(base, rows)
        else:
            stage(base, rows)
