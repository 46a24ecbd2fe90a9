"""Declarative constraint enforcement: NOT NULL, PK/UNIQUE, FOREIGN KEY.

NOT NULL, PRIMARY KEY / UNIQUE and the insert-side FK check (every FK
of a new row must reference an existing parent) run inside each table's
generated writer (:mod:`repro.minidb.writer`), from the FK specs this
module resolves.  This module adds the delete side of referential
integrity: no row in a child table may still reference the victim
(RESTRICT semantics; the paper's batch apply orders tables so that
consistent batches never trip this).

FK checks use hash indexes on both the parent key and the child FK
columns, so they stay O(1) per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..errors import CatalogError, ConstraintViolation, SchemaError
from .catalog import Catalog
from .schema import ForeignKey, TableSchema, normalize
from .storage import Table


def validate_foreign_keys(catalog: Catalog, schema: TableSchema) -> TableSchema:
    """Resolve and validate a new table's FKs against the catalog.

    Fills in omitted ``ref_columns`` with the parent's primary key and
    verifies that the referenced columns form the parent's primary key
    or a declared UNIQUE key (SQL requires parent keys to be unique).
    Self-references are allowed.
    """
    resolved: list[ForeignKey] = []
    for fk in schema.foreign_keys:
        if normalize(fk.ref_table) == normalize(schema.name):
            parent_schema = schema
        else:
            parent = catalog.get_table(fk.ref_table, default=None)
            if parent is None:
                raise SchemaError(
                    f"table {schema.name!r}: foreign key references unknown "
                    f"table {fk.ref_table!r}"
                )
            parent_schema = parent.schema
        ref_columns = fk.ref_columns or parent_schema.primary_key
        if not ref_columns:
            raise SchemaError(
                f"table {schema.name!r}: foreign key to {fk.ref_table!r} "
                "needs explicit columns (parent has no primary key)"
            )
        ref_columns = tuple(parent_schema.column(c).name for c in ref_columns)
        keys = {tuple(map(normalize, parent_schema.primary_key))} | {
            tuple(map(normalize, u)) for u in parent_schema.uniques
        }
        if tuple(map(normalize, ref_columns)) not in keys:
            raise SchemaError(
                f"table {schema.name!r}: foreign key references non-unique "
                f"columns {ref_columns!r} of {fk.ref_table!r}"
            )
        if len(fk.columns) != len(ref_columns):
            raise SchemaError(
                f"table {schema.name!r}: foreign key column count mismatch"
            )
        resolved.append(ForeignKey(fk.columns, fk.ref_table, ref_columns))
    schema.foreign_keys = tuple(resolved)
    return schema


@dataclass
class _OutgoingFK:
    """One resolved child-side FK: everything a per-row check needs."""

    fk: ForeignKey
    positions: tuple[int, ...]
    parent: Table
    ref_columns: tuple[str, ...]


@dataclass
class _IncomingFK:
    """One resolved parent-side FK: a child table referencing us."""

    fk: ForeignKey
    child: Table
    parent_positions: tuple[int, ...]


class ConstraintChecker:
    """Row-level constraint checks against the current catalog state.

    Parent-side FK metadata (column positions, child table objects)
    is resolved once per catalog version and cached, so batch applies
    pay O(1) dictionary lookups per row instead of re-resolving names
    and key positions row by row.  The FK topological order used by
    ``apply_batch`` is memoized the same way.  Child-side specs
    (:meth:`outgoing_fks`) are resolved when a table's writer is
    generated, which is cached per catalog version itself.
    """

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        #: name -> (catalog version at build time, specs).  Entries are
        #: validated against the *current* version on every read, so a
        #: DDL racing a concurrent build can at worst store an entry
        #: that is already stale — it is rebuilt on its next use, never
        #: served for the new version.
        self._incoming: dict[str, tuple[int, list[_IncomingFK]]] = {}
        self._topo_cache: dict[tuple, list[str]] = {}

    # -- FK spec caches ----------------------------------------------------

    def outgoing_fks(self, table: Table) -> list[_OutgoingFK]:
        """Resolved child-side FKs of ``table`` against the catalog."""
        return [
            _OutgoingFK(
                fk=fk,
                positions=table.schema.key_positions(fk.columns),
                parent=self.catalog.require_table(fk.ref_table),
                ref_columns=fk.ref_columns,
            )
            for fk in table.schema.foreign_keys
        ]

    def incoming_fks(self, table: Table) -> list[_IncomingFK]:
        """Resolved FKs of other tables referencing ``table`` (cached)."""
        version = self.catalog.version
        key = normalize(table.name)
        cached = self._incoming.get(key)
        if cached is not None and cached[0] == version:
            return cached[1]
        specs = []
        for child in self.catalog.tables():
            for fk in child.schema.foreign_keys:
                if normalize(fk.ref_table) != key:
                    continue
                specs.append(
                    _IncomingFK(
                        fk=fk,
                        child=child,
                        parent_positions=table.schema.key_positions(
                            fk.ref_columns
                        ),
                    )
                )
        self._incoming[key] = (version, specs)
        return specs

    @staticmethod
    def _parent_exists(parent: Table, columns: tuple[str, ...], key: tuple) -> bool:
        # a referenced PK/UNIQUE key is answered from its unique index
        return any(True for _ in parent.lookup_secondary(columns, key))

    # -- FK on delete --------------------------------------------------------------

    def check_fk_delete(self, table: Table, row: tuple) -> None:
        """No child row may reference the victim (RESTRICT)."""
        for spec in self.incoming_fks(table):
            key = tuple(row[p] for p in spec.parent_positions)
            if any(v is None for v in key):
                continue
            for referencing in spec.child.lookup_secondary(
                spec.fk.columns, key
            ):
                if spec.child is table and referencing == row:
                    continue  # a row may reference itself
                raise ConstraintViolation(
                    f"foreign key violation: cannot delete from "
                    f"{table.name}, still referenced by {spec.child.name}"
                    f"({', '.join(spec.fk.columns)})={key!r}",
                    constraint=str(spec.fk),
                    table=spec.child.name,
                )

    # -- FK deferred (batch) --------------------------------------------------------

    def check_fk_after_delete(self, table: Table, deleted_row: tuple) -> None:
        """Deferred RESTRICT check against the *final* state: a deleted
        parent row is fine if its key was re-established by an insert in
        the same batch, or if no child references it anymore."""
        for spec in self.incoming_fks(table):
            key = tuple(deleted_row[p] for p in spec.parent_positions)
            if any(v is None for v in key):
                continue
            if self._parent_exists(table, spec.fk.ref_columns, key):
                continue  # the key survives (re-inserted in the batch)
            for _ in spec.child.lookup_secondary(spec.fk.columns, key):
                raise ConstraintViolation(
                    f"foreign key violation: deleting from {table.name} "
                    f"leaves {spec.child.name}"
                    f"({', '.join(spec.fk.columns)})={key!r} dangling",
                    constraint=str(spec.fk),
                    table=spec.child.name,
                )

    # -- FK on update --------------------------------------------------------------

    def check_fk_update(self, table: Table, old_row: tuple, new_row: tuple) -> None:
        """RESTRICT check for updates: only keys that actually change
        need the no-referencing-children check."""
        for spec in self.incoming_fks(table):
            old_key = tuple(old_row[p] for p in spec.parent_positions)
            new_key = tuple(new_row[p] for p in spec.parent_positions)
            if old_key == new_key or any(v is None for v in old_key):
                continue
            for referencing in spec.child.lookup_secondary(
                spec.fk.columns, old_key
            ):
                if spec.child is table and referencing == old_row:
                    continue
                raise ConstraintViolation(
                    f"foreign key violation: cannot change key of "
                    f"{table.name}, still referenced by {spec.child.name}"
                    f"({', '.join(spec.fk.columns)})={old_key!r}",
                    constraint=str(spec.fk),
                    table=spec.child.name,
                )

    # -- batch ordering ---------------------------------------------------------------

    def fk_topological_order(self, names: list[str]) -> list[str]:
        """Order table names parents-first by the FK graph (children last).

        Used when applying a batch update: inserts go parents-first,
        deletes children-first (reversed).  Cycles (other than
        self-references) raise :class:`CatalogError`.  The order for a
        given set of (normalized) names is memoized per catalog version
        — ``apply_batch`` re-sorts the same handful of tables on every
        commit, so the sort runs once, not once per commit.
        """
        wanted = {normalize(name): name for name in names}
        cache_key = (self.catalog.version, tuple(sorted(wanted)))
        cached = self._topo_cache.get(cache_key)
        if cached is not None:
            return [wanted[key] for key in cached]
        if len(self._topo_cache) > 256:  # bound growth across versions
            self._topo_cache.clear()
        children: dict[str, set[str]] = {key: set() for key in wanted}
        indegree: dict[str, int] = {key: 0 for key in wanted}
        for key in wanted:
            table = self.catalog.require_table(key)
            for fk in table.schema.foreign_keys:
                parent = normalize(fk.ref_table)
                if parent in wanted and parent != key:
                    if key not in children[parent]:
                        children[parent].add(key)
                        indegree[key] += 1
        ready = sorted(key for key, deg in indegree.items() if deg == 0)
        order: list[str] = []
        while ready:
            key = ready.pop(0)
            order.append(key)
            for child in sorted(children[key]):
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if len(order) != len(wanted):
            raise CatalogError("foreign key cycle detected among tables")
        self._topo_cache[cache_key] = order
        return [wanted[key] for key in order]
