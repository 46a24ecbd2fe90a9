"""Row storage with hash indexes.

A :class:`Table` stores rows as tuples keyed by a monotonically
increasing rowid.  Unique indexes (primary key, UNIQUE) map key tuples
to a single rowid; secondary (non-unique) indexes map key tuples to a
set of rowids.  Secondary indexes are created on demand by the planner
(e.g. for foreign-key lookups and correlated `NOT EXISTS` probes) —
this mirrors the indexes a production DBA would keep on join columns
and is what gives the incremental checks their locality.

Every equality probe — :meth:`Table.lookup_secondary`,
:meth:`TableOverlay.lookup`, and through them the planner's
``IndexScan``/``IndexJoin``, the FK checker and the aggregate readers —
resolves its column tuple once to a :class:`KeyProbe`.  Columns that
are exactly a PRIMARY KEY / UNIQUE key are answered from that key's
:class:`UniqueIndex`; only other column sets get a
:class:`SecondaryIndex`, built on first probe.  A key is never indexed
twice.
"""

from __future__ import annotations

import threading
from collections import Counter
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from ..errors import ConstraintViolation
from .schema import TableSchema
from .writer import LOAD, VALIDATE, row_code


class UniqueIndex:
    """Maps a key tuple to the rowid of the single row holding it.

    Rows with a NULL in any key column are not indexed (SQL: NULLs are
    distinct for uniqueness purposes).
    """

    def __init__(self, name: str, positions: tuple[int, ...]):
        self.name = name
        self.positions = positions
        self._map: dict[tuple, int] = {}

    def key_of(self, row: tuple) -> Optional[tuple]:
        key = tuple(row[p] for p in self.positions)
        if any(v is None for v in key):
            return None
        return key

    def lookup(self, key: tuple) -> Optional[int]:
        return self._map.get(key)

    def add(self, row: tuple, rowid: int) -> None:
        key = self.key_of(row)
        if key is None:
            return
        existing = self._map.get(key)
        if existing is not None and existing != rowid:
            raise self.violation(key)
        self._map[key] = rowid

    def violation(self, key: tuple) -> ConstraintViolation:
        """The error for a second row holding ``key``."""
        return ConstraintViolation(
            f"duplicate key {key!r} violates {self.name}",
            constraint=self.name,
        )

    def remove(self, row: tuple, rowid: int) -> None:
        key = self.key_of(row)
        if key is not None and self._map.get(key) == rowid:
            del self._map[key]

    def __len__(self) -> int:
        return len(self._map)


class SecondaryIndex:
    """Non-unique hash index: key tuple -> rowids, in rowid order.

    Rowids only ever grow, and rows enter an index in rowid order (at
    build time and on every insert), so each key's insertion-ordered
    dict *is* its rowids in scan order — a probe never sorts.
    """

    def __init__(self, name: str, positions: tuple[int, ...]):
        self.name = name
        self.positions = positions
        self._map: dict[tuple, dict[int, None]] = {}
        #: ``key_of(row)``: the row's key tuple (``itemgetter`` of one
        #: position returns the bare value, hence the wrapper)
        if len(positions) == 1:
            (position,) = positions
            self.key_of = lambda row: (row[position],)
        else:
            self.key_of = itemgetter(*positions)

    def lookup(self, key: tuple) -> frozenset[int]:
        return frozenset(self._map.get(key, ()))

    def lookup_rowids(self, key: tuple):
        """Internal variant avoiding a copy; callers must not mutate."""
        return self._map.get(key, ())

    def add(self, row: tuple, rowid: int) -> None:
        self._map.setdefault(self.key_of(row), {})[rowid] = None

    def remove(self, row: tuple, rowid: int) -> None:
        key = self.key_of(row)
        rowids = self._map.get(key)
        if rowids is not None:
            rowids.pop(rowid, None)
            if not rowids:
                del self._map[key]


class KeyProbe:
    """The resolved access path for equality probes on one column tuple.

    ``positions`` are the probed columns' row positions, in the order
    the caller lists them (and supplies key values).  Exactly one of
    ``unique`` / ``secondary`` is set; ``order`` permutes a caller's
    key into the unique index's own column order when the two differ.
    """

    __slots__ = ("positions", "unique", "order", "secondary")

    def __init__(
        self,
        positions: tuple[int, ...],
        unique: Optional[UniqueIndex] = None,
        secondary: Optional[SecondaryIndex] = None,
    ):
        self.positions = positions
        self.unique = unique
        self.secondary = secondary
        self.order: Optional[tuple[int, ...]] = None
        if unique is not None and unique.positions != positions:
            self.order = tuple(positions.index(p) for p in unique.positions)

    def rowids(self, key: tuple):
        """Rowids of the rows whose probed columns equal ``key``, in
        rowid order (= scan order).  A unique key holds at most one
        row, and — like the index behind it — never matches a key
        containing NULL."""
        unique = self.unique
        if unique is not None:
            if self.order is not None:
                key = tuple(key[i] for i in self.order)
            rowid = unique.lookup(key)
            return () if rowid is None else (rowid,)
        return self.secondary.lookup_rowids(key)


def _first_wins(
    rows: list[tuple], unique_indexes: list["UniqueIndex"]
) -> list[tuple]:
    """Keep the first row per unique key (later collisions dropped)."""
    kept: list[tuple] = []
    seen: list[set] = [set() for _ in unique_indexes]
    for row in rows:
        keys = [index.key_of(row) for index in unique_indexes]
        if any(
            key is not None and key in taken
            for key, taken in zip(keys, seen)
        ):
            continue
        for key, taken in zip(keys, seen):
            if key is not None:
                taken.add(key)
        kept.append(row)
    return kept


class ValidatedRows(list):
    """Rows every one of which passed :meth:`Table.validate_rows` against
    :attr:`schema`, or is a row the table of that schema stores.

    The apply's precondition, stated once: ``Database.apply_batch``
    validates every row list handed to it unless it is a
    ``ValidatedRows`` whose schema is the target table's own.  A
    table dropped and created again under its name has a new schema
    object, so rows checked against the old one are checked again.
    One is built by :meth:`Table.validate_rows`, or from the rows of
    the event tables and a session's staging tables, which staging
    fills with validated rows only.  A copy through pickle is a plain
    list, so rows that cross a process boundary are validated on
    arrival.
    """

    __slots__ = ("schema",)

    def __init__(self, rows: Iterable[tuple], schema: TableSchema):
        super().__init__(rows)
        self.schema = schema

    def __reduce__(self):
        return list, (list(self),)


class TableOverlay:
    """Staged events applied to one table at *read* time.

    An overlay is the read-side view of a staging area: ``inserts`` are
    rows appended to the table's committed contents, ``deletes`` a
    **multiset** of rows masked out of them (counted, so a staged
    delete of one copy of a duplicated row hides exactly one copy, not
    all of them).  Executors merge the overlay on the fly — the base
    table is never touched, which is what lets overlay readers share
    the read lock and keeps ``data_version``/row counts stable.

    Overlays are immutable snapshots: build one from the staging
    tables, run any number of reads against it, throw it away.
    """

    __slots__ = ("inserts", "deletes", "_insert_indexes")

    def __init__(
        self,
        inserts: Iterable[tuple] = (),
        deletes: Iterable[tuple] = (),
        table: Optional["Table"] = None,
    ):
        rows = list(inserts)
        if table is not None and table.unique_indexes and len(rows) > 1:
            # first-wins among the staged inserts themselves: staging
            # tables are constraint-free, so two different tuples can
            # be staged under one unique key — physically, the second
            # insert would fail on the duplicate key (splice semantics)
            rows = _first_wins(rows, table.unique_indexes)
        self.inserts: list[tuple] = rows
        self.deletes: Counter = Counter(deletes)
        #: key positions -> {key: [overlay rows]} memo for index probes
        self._insert_indexes: dict[tuple[int, ...], dict] = {}

    def __bool__(self) -> bool:
        return bool(self.inserts or self.deletes)

    def mask(self, rows: Iterable[tuple]) -> Iterator[tuple]:
        """Yield ``rows`` minus the staged deletes (multiset semantics:
        each staged delete hides one copy)."""
        deletes = self.deletes
        if not deletes:
            yield from rows
            return
        masked: Counter = Counter()
        for row in rows:
            limit = deletes.get(row, 0)
            if limit and masked[row] < limit:
                masked[row] += 1
                continue
            yield row

    def conflicts(self, table: "Table", row: tuple) -> bool:
        """Whether a staged insert is shadowed by committed data: some
        unique key of ``row`` is held by a base row that the staged
        deletes do not mask.  Mirrors the splice baseline, where the
        physical insert fails on the duplicate key and the snapshot
        shows the committed row — without this, a read could observe
        two rows under one primary key.
        """
        deletes = self.deletes
        for index in table.unique_indexes:
            key = index.key_of(row)
            if key is None:
                continue
            rowid = index.lookup(key)
            if rowid is None:
                continue
            if not deletes.get(table.row_by_id(rowid)):
                return True
        return False

    def visible_inserts(self, table: "Table") -> Iterator[tuple]:
        """Staged inserts not shadowed by committed unique keys."""
        if not table.unique_indexes:
            return iter(self.inserts)
        return (
            row for row in self.inserts if not self.conflicts(table, row)
        )

    def scan(self, table: "Table") -> Iterator[tuple]:
        """The merged full scan: base rows minus staged deletes, then
        the staged inserts."""
        yield from self.mask(table.scan())
        yield from self.visible_inserts(table)

    def _inserts_by_key(self, positions: tuple[int, ...]) -> dict:
        index = self._insert_indexes.get(positions)
        if index is None:
            index = {}
            for row in self.inserts:
                key = tuple(row[p] for p in positions)
                index.setdefault(key, []).append(row)
            self._insert_indexes[positions] = index
        return index

    def lookup(
        self, table: "Table", columns: tuple[str, ...], key: tuple
    ) -> Iterator[tuple]:
        """The merged index probe: base index hits minus staged
        deletes, then staged inserts matching ``key`` — the rows, in
        the order, the merged :meth:`scan` yields them."""
        probe = table.key_probe(columns)
        yield from self.mask(
            table.row_by_id(rowid) for rowid in probe.rowids(key)
        )
        for row in self._inserts_by_key(probe.positions).get(key, ()):
            if not table.unique_indexes or not self.conflicts(table, row):
                yield row

    def contains(self, table: "Table", row: tuple) -> bool:
        """Whole-tuple membership in the merged view."""
        for staged in self.inserts:
            if staged == row and not self.conflicts(table, staged):
                return True
        if not table.contains_row(row):
            return False
        limit = self.deletes.get(row, 0)
        if not limit:
            return True
        # masked copies: visible iff base holds more copies than deletes
        copies = sum(1 for existing in table.scan() if existing == row)
        return copies > limit


class Table:
    """Physical storage for one table: rows, unique and secondary indexes."""

    def __init__(self, schema: TableSchema, namespace: str = "main"):
        self.schema = schema
        self.namespace = namespace
        self._rows: dict[int, tuple] = {}
        self._next_rowid = 0
        #: monotonically increasing stamp, bumped on every row mutation.
        #: Snapshot readers compare stamps before/after a read to prove
        #: they observed one stable version of the table.
        self.data_version = 0
        self.unique_indexes: list[UniqueIndex] = []
        self.secondary_indexes: dict[tuple[int, ...], SecondaryIndex] = {}
        #: columns-tuple -> resolved access path, so repeated probes
        #: skip the per-call ``schema.key_positions`` resolution; the
        #: lock makes on-demand index builds safe under concurrent
        #: readers
        self._key_probes: dict[tuple[str, ...], KeyProbe] = {}
        self._index_build_lock = threading.Lock()
        #: the secondary index on every column that answers
        #: :meth:`find_rowid` without a primary key; None until used
        self._whole_rows: Optional[SecondaryIndex] = None
        #: mode -> (stamp, function): this table's generated row code
        #: (:func:`repro.minidb.writer.row_code`)
        self._row_code: dict[str, tuple] = {}
        if schema.primary_key:
            self.unique_indexes.append(
                UniqueIndex(
                    f"PRIMARY KEY of {schema.name}",
                    schema.key_positions(schema.primary_key),
                )
            )
        for unique in schema.uniques:
            self.unique_indexes.append(
                UniqueIndex(
                    f"UNIQUE({', '.join(unique)}) of {schema.name}",
                    schema.key_positions(unique),
                )
            )

    # -- basic stats ---------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def row_count(self) -> int:
        return len(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    # -- reading ---------------------------------------------------------------

    def scan(self) -> Iterator[tuple]:
        """Iterate over all rows.  Do not mutate the table while scanning."""
        return iter(self._rows.values())

    def rows_snapshot(self) -> list[tuple]:
        """A stable copy of all rows (safe to mutate the table afterwards)."""
        return list(self._rows.values())

    def row_by_id(self, rowid: int) -> tuple:
        return self._rows[rowid]

    def contains_row(self, row: tuple) -> bool:
        """Whole-tuple membership test (used by event-capture semantics)."""
        return self.find_rowid(row) is not None

    @property
    def primary_key_index(self) -> Optional[UniqueIndex]:
        if self.schema.primary_key and self.unique_indexes:
            return self.unique_indexes[0]
        return None

    # -- writing ---------------------------------------------------------------

    def validate_rows(self, rows: Iterable[tuple]) -> ValidatedRows:
        """Type-check and coerce candidate rows (no constraint checks)
        with the table's generated validator; a :class:`ValidatedRows`
        checked against this table's schema is returned as it is."""
        if rows.__class__ is ValidatedRows and rows.schema is self.schema:
            return rows
        validated = ValidatedRows((), self.schema)
        row_code(self, VALIDATE)(rows, validated)
        return validated

    def insert(self, row: tuple) -> int:
        """Insert one validated row, maintaining all indexes — the
        storage primitive of constraint-free staging tables, undo and
        UPDATE.

        Raises :class:`ConstraintViolation` on duplicate unique keys; the
        row is not inserted in that case.  Rows a caller hands to the
        database go through the table's generated writer
        (:mod:`repro.minidb.writer`) instead.
        """
        rowid = self._next_rowid
        added: list[UniqueIndex] = []
        try:
            for index in self.unique_indexes:
                index.add(row, rowid)
                added.append(index)
        except ConstraintViolation:
            for index in added:
                index.remove(row, rowid)
            raise
        for index in self.secondary_indexes.values():
            index.add(row, rowid)
        self._rows[rowid] = row
        self._next_rowid += 1
        self.data_version += 1
        return rowid

    def delete_rowid(self, rowid: int) -> tuple:
        """Delete one row by rowid, maintaining indexes; returns the row."""
        row = self._rows.pop(rowid)
        for index in self.unique_indexes:
            index.remove(row, rowid)
        for index in self.secondary_indexes.values():
            index.remove(row, rowid)
        self.data_version += 1
        return row

    def delete_row(self, row: tuple) -> bool:
        """Delete one row equal to ``row``; returns False if absent."""
        rowid = self.find_rowid(row)
        if rowid is None:
            return False
        self.delete_rowid(rowid)
        return True

    def find_rowid(self, row: tuple) -> Optional[int]:
        """The rowid of the first row (in scan order) equal to ``row``,
        or None.  A hash probe: through the primary key when the table
        has one (no stored row has a NULL key), else through an index on
        every column, built on the first probe — staging tests each row
        against keyless event tables, so a scan here would make staging
        quadratic."""
        pk = self.primary_key_index
        if pk is not None:
            key = pk.key_of(row)
            rowid = None if key is None else pk.lookup(key)
            if rowid is not None and self._rows[rowid] == row:
                return rowid
            return None
        index = self._whole_rows
        if index is None:
            index = self._whole_rows = self.ensure_secondary_index(
                self.schema.column_names
            )
        for rowid in index.lookup_rowids(row):
            return rowid
        return None

    def load_rows(self, rows: Iterable[Iterable]) -> int:
        """Bulk-load serialized rows (the checkpoint restore path);
        returns how many were loaded.

        One pass of the table's generated :data:`~repro.minidb.writer
        .LOAD` writer: each row is validated (type coercion
        re-canonicalizes values that lost their exact Python type in
        serialization — JSON turns tuples into lists, for instance) and
        stored with every index maintained, before the next row is
        read.  Constraint enforcement beyond unique keys is the
        caller's concern: recovered rows were committed, so they are
        consistent by construction.
        """
        return row_code(self, LOAD)(rows, None)

    def truncate(self) -> int:
        """Remove all rows; returns how many were removed."""
        count = len(self._rows)
        self._rows.clear()
        for index in self.unique_indexes:
            index._map.clear()
        for index in self.secondary_indexes.values():
            index._map.clear()
        if count:
            self.data_version += 1
        return count

    # -- secondary indexes --------------------------------------------------------

    def ensure_secondary_index(self, columns: tuple[str, ...]) -> SecondaryIndex:
        """Get or build a secondary hash index on the given columns.

        The build is serialized so two concurrent readers cannot race
        to construct the same index.  Probes do not call this directly:
        :meth:`key_probe` does, and only for column sets no unique key
        already answers.
        """
        positions = self.schema.key_positions(columns)
        index = self.secondary_indexes.get(positions)
        if index is not None:
            return index
        with self._index_build_lock:
            index = self.secondary_indexes.get(positions)
            if index is None:
                index = SecondaryIndex(
                    f"idx_{self.schema.name}_{'_'.join(columns)}", positions
                )
                for rowid, row in self._rows.items():
                    index.add(row, rowid)
                self.secondary_indexes[positions] = index
        return index

    def key_probe(self, columns: tuple[str, ...]) -> KeyProbe:
        """The access path for equality probes on ``columns``: the
        unique index when the columns are exactly a declared PRIMARY
        KEY / UNIQUE key (in any order), otherwise a secondary hash
        index built now, on first use."""
        probe = self._key_probes.get(columns)
        if probe is None:
            positions = self.schema.key_positions(columns)
            for unique in self.unique_indexes:
                if sorted(unique.positions) == sorted(positions):
                    probe = KeyProbe(positions, unique=unique)
                    break
            else:
                probe = KeyProbe(
                    positions, secondary=self.ensure_secondary_index(columns)
                )
            self._key_probes[columns] = probe
        return probe

    def lookup_secondary(
        self, columns: tuple[str, ...], key: tuple
    ) -> Iterator[tuple]:
        """Yield the rows whose ``columns`` equal ``key`` through a hash
        index, in scan order."""
        rows = self._rows
        for rowid in self.key_probe(columns).rowids(key):
            yield rows[rowid]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.schema.name!r}, {len(self)} rows)"
