"""Database catalog: tables, views, triggers and stored procedures.

All object names are case-insensitive.  Tables carry a ``namespace``
tag: TINTIN's auxiliary event tables live in the ``"event"`` namespace
(the paper uses a separate ``event_DB`` database; a tagged namespace in
one catalog gives the same isolation for our purposes and keeps the SQL
dialect free of cross-database qualifiers).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import CatalogError
from ..sqlparser import nodes as n
from .schema import TableSchema, normalize
from .storage import Table

_RAISE = object()


@dataclass
class View:
    """A stored view: name, defining query AST, output column names."""

    name: str
    query: n.Query
    columns: tuple[str, ...]


@dataclass
class Trigger:
    """An INSTEAD OF trigger on a table.

    ``event`` is ``"insert"`` or ``"delete"``.  ``action`` receives
    ``(database, table_name, rows)`` and fully replaces the base-table
    modification while the trigger is enabled — exactly SQL Server's
    INSTEAD OF semantics, which TINTIN uses to capture updates into the
    event tables without touching the base data.
    """

    name: str
    table: str
    event: str
    action: Callable
    enabled: bool = True


@dataclass
class Procedure:
    """A stored procedure: a named callable taking (database, *args)."""

    name: str
    body: Callable
    description: str = ""


class Catalog:
    """Named collections of tables, views, triggers and procedures.

    The catalog carries a monotonically increasing :attr:`version`,
    bumped on every change to its *shape* (table/view/trigger creation
    and removal).  Compiled plans embed direct references to catalog
    objects, so the prepared-plan cache keys its entries on this
    version: any DDL instantly invalidates every cached plan.  Data
    changes and trigger enable/disable (which flips on every single
    ``safeCommit``) deliberately do **not** bump the version — SELECT
    plans are insensitive to both, and bumping on the commit hot path
    would defeat plan caching entirely.

    Shape mutations (DDL, trigger toggling) are serialized behind an
    RLock so a multi-session server can run DDL while client threads
    read.  Single-name lookups stay lock-free (CPython dict reads are
    atomic); collection readers snapshot under the lock so a concurrent
    DDL cannot resize a dict mid-iteration.  Readers that must not
    observe a half-applied *commit* synchronize through the
    :class:`repro.server.CommitScheduler`'s read/write lock rather than
    here.
    """

    def __init__(self):
        self._tables: dict[str, Table] = {}
        self._views: dict[str, View] = {}
        self._triggers: dict[str, Trigger] = {}
        #: (normalized table, event) -> its triggers in creation order;
        #: every DML statement looks its triggers up here, lock-free
        self._trigger_index: dict[tuple[str, str], tuple[Trigger, ...]] = {}
        self._procedures: dict[str, Procedure] = {}
        self._version = 0
        self._lock = threading.RLock()

    @property
    def version(self) -> int:
        """Current catalog-shape version (bumped by DDL)."""
        return self._version

    def bump_version(self) -> int:
        """Invalidate all cached plans by advancing the version."""
        with self._lock:
            self._version += 1
            return self._version

    # -- tables -----------------------------------------------------------

    def add_table(self, schema: TableSchema, namespace: str = "main") -> Table:
        with self._lock:
            key = normalize(schema.name)
            if key in self._tables or key in self._views:
                raise CatalogError(f"object {schema.name!r} already exists")
            table = Table(schema, namespace)
            self._tables[key] = table
            self.bump_version()
            return table

    def get_table(self, name: str, default=_RAISE):
        table = self._tables.get(normalize(name))
        if table is None:
            if default is not _RAISE:
                return default
            raise CatalogError(f"unknown table {name!r}")
        return table

    def require_table(self, name: str) -> Table:
        table = self._tables.get(normalize(name))
        if table is None:
            raise CatalogError(f"unknown table {name!r}")
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> bool:
        with self._lock:
            key = normalize(name)
            if key not in self._tables:
                if if_exists:
                    return False
                raise CatalogError(f"unknown table {name!r}")
            referencing = [
                t.schema.name
                for t in self._tables.values()
                if any(
                    normalize(fk.ref_table) == key
                    for fk in t.schema.foreign_keys
                )
                and normalize(t.schema.name) != key
            ]
            if referencing:
                raise CatalogError(
                    f"cannot drop table {name!r}: referenced by foreign keys "
                    f"of {', '.join(sorted(referencing))}"
                )
            del self._tables[key]
            for trigger_name in [
                tn
                for tn, tr in self._triggers.items()
                if normalize(tr.table) == key
            ]:
                del self._triggers[trigger_name]
            for event in ("insert", "delete"):
                self._trigger_index.pop((key, event), None)
            self.bump_version()
            return True

    def tables(self, namespace: Optional[str] = None) -> list[Table]:
        with self._lock:
            result = [
                t
                for t in self._tables.values()
                if namespace is None or t.namespace == namespace
            ]
        return sorted(result, key=lambda t: normalize(t.schema.name))

    def tables_in_creation_order(
        self, namespace: Optional[str] = None
    ) -> list[Table]:
        """Tables in the order they were created (dict insertion order).

        This order is a **durability contract**, not an implementation
        detail: creation order is a valid FK-topological order by
        construction (CREATE TABLE validates that referenced parents
        already exist), so checkpoints serialize tables this way — and
        WAL format v2 batch records reference tables by their *position
        in this list* (the schema ordinal).  Changing how the catalog
        stores tables must preserve it, or existing logs stop replaying.
        """
        with self._lock:
            return [
                t
                for t in self._tables.values()
                if namespace is None or t.namespace == namespace
            ]

    def has_table(self, name: str) -> bool:
        return normalize(name) in self._tables

    # -- views ---------------------------------------------------------------

    def add_view(self, view: View) -> None:
        with self._lock:
            key = normalize(view.name)
            if key in self._views or key in self._tables:
                raise CatalogError(f"object {view.name!r} already exists")
            self._views[key] = view
            self.bump_version()

    def get_view(self, name: str, default=None) -> Optional[View]:
        return self._views.get(normalize(name), default)

    def drop_view(self, name: str, if_exists: bool = False) -> bool:
        with self._lock:
            key = normalize(name)
            if key not in self._views:
                if if_exists:
                    return False
                raise CatalogError(f"unknown view {name!r}")
            del self._views[key]
            self.bump_version()
            return True

    def views(self) -> list[View]:
        with self._lock:
            result = list(self._views.values())
        return sorted(result, key=lambda v: normalize(v.name))

    def has_view(self, name: str) -> bool:
        return normalize(name) in self._views

    # -- triggers ---------------------------------------------------------------

    def add_trigger(self, trigger: Trigger) -> None:
        with self._lock:
            key = normalize(trigger.name)
            if key in self._triggers:
                raise CatalogError(f"trigger {trigger.name!r} already exists")
            if trigger.event not in ("insert", "delete"):
                raise CatalogError(
                    f"unsupported trigger event {trigger.event!r}"
                )
            self.require_table(trigger.table)
            self._triggers[key] = trigger
            slot = (normalize(trigger.table), trigger.event)
            self._trigger_index[slot] = self._trigger_index.get(slot, ()) + (trigger,)
            self.bump_version()

    def drop_trigger(self, name: str) -> None:
        with self._lock:
            key = normalize(name)
            if key not in self._triggers:
                raise CatalogError(f"unknown trigger {name!r}")
            trigger = self._triggers.pop(key)
            slot = (normalize(trigger.table), trigger.event)
            remaining = tuple(
                t for t in self._trigger_index.get(slot, ()) if t is not trigger
            )
            if remaining:
                self._trigger_index[slot] = remaining
            else:
                self._trigger_index.pop(slot, None)
            self.bump_version()

    def triggers_for(self, table: str, event: str) -> list[Trigger]:
        return list(self._trigger_index.get((normalize(table), event), ()))

    def active_triggers_for(self, table: str, event: str) -> list[Trigger]:
        return [t for t in self.triggers_for(table, event) if t.enabled]

    def triggers(self) -> list[Trigger]:
        with self._lock:
            result = list(self._triggers.values())
        return sorted(result, key=lambda t: normalize(t.name))

    def set_triggers_enabled(self, table: str, enabled: bool) -> None:
        with self._lock:
            key = normalize(table)
            for event in ("insert", "delete"):
                for trigger in self._trigger_index.get((key, event), ()):
                    trigger.enabled = enabled

    # -- stable shape serialization (durability subsystem) -------------------

    def shape_signature(self) -> str:
        """A stable hash of the catalog's *shape*: table schemas (with
        namespaces), view names and output columns, trigger names, and
        procedure names — no row data.

        The checkpoint writer stores this signature; recovery recomputes
        it after rebuilding the catalog (DDL replay + assertion
        re-compilation) and refuses to proceed on a mismatch, so a
        recovered engine provably carries the same catalog shape as the
        one that wrote the checkpoint.
        """
        import hashlib
        import json

        with self._lock:
            shape = {
                "tables": sorted(
                    (normalize(t.schema.name), t.namespace, t.schema.to_dict())
                    for t in self._tables.values()
                ),
                "views": sorted(
                    (normalize(v.name), list(v.columns))
                    for v in self._views.values()
                ),
                "triggers": sorted(normalize(n) for n in self._triggers),
                "procedures": sorted(normalize(n) for n in self._procedures),
            }
        payload = json.dumps(shape, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- procedures ----------------------------------------------------------------

    def add_procedure(self, procedure: Procedure) -> None:
        with self._lock:
            key = normalize(procedure.name)
            if key in self._procedures:
                raise CatalogError(
                    f"procedure {procedure.name!r} already exists"
                )
            self._procedures[key] = procedure

    def replace_procedure(self, procedure: Procedure) -> None:
        with self._lock:
            self._procedures[normalize(procedure.name)] = procedure

    def get_procedure(self, name: str) -> Procedure:
        procedure = self._procedures.get(normalize(name))
        if procedure is None:
            raise CatalogError(f"unknown procedure {name!r}")
        return procedure

    def has_procedure(self, name: str) -> bool:
        return normalize(name) in self._procedures

    def procedures(self) -> list[Procedure]:
        with self._lock:
            result = list(self._procedures.values())
        return sorted(result, key=lambda p: normalize(p.name))
