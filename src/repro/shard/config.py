"""Shard-key declarations, commit-footprint and read classification,
and the co-location check assertions must pass.

The router's one routing decision per commit is made here: every
staged row is mapped to a shard by hashing its declared shard-key
column, and a commit whose rows land on a single shard bypasses
two-phase commit entirely.  The placement function must therefore be
*deterministic across processes* — Python's builtin ``hash`` is
per-process salted for strings, so string keys go through CRC-32
instead.  A read whose shape pins its rows to one shard is sent to
that shard only (:meth:`ShardConfig.read_shard`).
"""

from __future__ import annotations

import zlib
from typing import Optional

from ..core.aggregates import AggregateAssertionCompiler
from ..core.assertion import Assertion
from ..core.denial_compiler import CouplingSpec, DenialCompiler, derive_coupling
from ..errors import CompilationError, SchemaError, TypeCheckError
from ..minidb.expressions import ARGS_KEY
from ..minidb.schema import normalize
from ..minidb.types import coerce
from ..sqlparser import nodes as n


class ShardConfig:
    """Declared partitioning: shard count plus ``{table: column}`` keys.

    Tables without a declared key are *pinned to shard 0* — small
    reference tables (the paper's lookup relations) live there whole,
    and any commit touching them routes through shard 0.  Declare a
    key for every high-traffic table.
    """

    def __init__(self, shards: int, keys: Optional[dict[str, str]] = None):
        if shards < 1:
            raise SchemaError("shard count must be at least 1")
        self.shards = shards
        #: table name (lowercased) -> shard-key column name
        self.keys = {
            table.lower(): column.lower()
            for table, column in (keys or {}).items()
        }
        # key-column positions resolve lazily against the router's
        # catalog mirror (the table may not exist yet at config time),
        # afresh after any DDL: a table created again may hold its key
        # at another position
        self._positions: tuple[int, dict[str, Optional[int]]] = (-1, {})

    def shard_of(self, value) -> int:
        """Deterministic placement for one shard-key value.

        Integers partition by modulus (contiguous ids spread evenly);
        everything else hashes its ``repr`` through CRC-32 — stable
        across processes and interpreter restarts, unlike the salted
        builtin ``hash``.
        """
        if isinstance(value, bool) or not isinstance(value, int):
            return zlib.crc32(repr(value).encode("utf-8")) % self.shards
        return value % self.shards

    def _key_position(self, db, table: str) -> Optional[int]:
        """Column position of ``table``'s shard key, None when pinned."""
        version = db.catalog.version
        if self._positions[0] != version:
            self._positions = (version, {})
        positions = self._positions[1]
        lowered = table.lower()
        if lowered not in positions:
            column = self.keys.get(lowered)
            if column is None:
                positions[lowered] = None
            else:
                schema = db.table(table).schema
                positions[lowered] = schema.key_positions((column,))[0]
        return positions[lowered]

    def split(
        self,
        db,
        inserts: dict[str, list[tuple]],
        deletes: dict[str, list[tuple]],
    ) -> dict[int, tuple[dict, dict]]:
        """Partition one commit's event batch by shard.

        Returns ``{shard_id: (inserts, deletes)}`` covering only the
        shards the batch actually touches — a single-entry result is
        the router's fast path, anything larger is a distributed
        transaction.  ``db`` is the catalog mirror used to resolve
        key-column positions.
        """
        out: dict[int, tuple[dict, dict]] = {}
        for side, events in enumerate((inserts, deletes)):
            for table, rows in (events or {}).items():
                position = self._key_position(db, table)
                for row in rows:
                    shard = (
                        0
                        if position is None
                        else self.shard_of(row[position])
                    )
                    bucket = out.setdefault(shard, ({}, {}))
                    bucket[side].setdefault(table, []).append(row)
        return out

    def read_shard(self, db, stmt, params: Optional[dict]) -> Optional[int]:
        """The one shard that can hold a row of a read, or None when
        the read must go to every shard.

        ``stmt`` and ``params`` are the statement-cache entry's parsed
        shape and this call's constants, from ``db`` (the catalog
        mirror).  Only a single non-aggregate SELECT over base tables
        routes: over pinned tables only, to shard 0; over one keyed
        table, when a top-level conjunct of its WHERE is ``key =
        constant``, to the shard :meth:`split` would place a staged row
        with that key on — the constant is coerced through the key
        column's type first, so ``5`` and ``5.0`` place as the stored
        value does.  Every row sits on the shard of its own key, so no
        other shard holds a row of the result.  Aggregates (one row per
        shard), unions, joins of keyed tables, ``OR``/``IN``, ``key =
        NULL``, ``key = column``, a constant the key type refuses, and a
        DOUBLE zero (``0.0`` and ``-0.0`` are equal but place apart)
        all scatter.
        """
        if not isinstance(stmt, n.SelectStatement):
            return None
        select = stmt.query
        if not isinstance(select, n.Select) or not select.from_items:
            return None
        for item in select.items:
            if isinstance(item, n.SelectItem) and any(
                isinstance(node, n.AggregateCall)
                for node in n.walk_expr(item.expr)
            ):
                return None
        if not all(db.catalog.has_table(ref.name) for ref in select.from_items):
            return None  # a view's rows may come from any shard
        keyed = [
            ref for ref in select.from_items if normalize(ref.name) in self.keys
        ]
        if not keyed:
            return 0
        if len(select.from_items) > 1:
            return None
        (ref,) = keyed
        column = db.table(ref.name).schema.columns[
            self._key_position(db, ref.name)
        ]
        name, binding = normalize(column.name), normalize(ref.binding)
        args = params[ARGS_KEY] if params else ()
        shard = None
        for conjunct in n.conjuncts(select.where):
            if not isinstance(conjunct, n.Comparison) or conjunct.op != "=":
                continue
            for key, constant in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if not (
                    isinstance(key, n.ColumnRef)
                    and normalize(key.column) == name
                    and (key.table is None or normalize(key.table) == binding)
                ):
                    continue
                if isinstance(constant, n.Parameter):
                    value = args[constant.index]
                    value = -value if constant.negated else value
                elif isinstance(constant, n.Literal) and constant.value is not None:
                    value = constant.value
                else:
                    continue
                try:
                    value = coerce(value, column.sql_type)
                except TypeCheckError:
                    return None
                if isinstance(value, float) and value == 0:
                    return None
                # two different keys select no row: any shard is right
                shard = self.shard_of(value)
        return shard

    def require_local(self, db, sql: str) -> None:
        """Refuse an assertion one shard cannot check on its own rows.

        Each shard validates its slice of a commit against only the
        rows it holds, which is sound exactly when every row of a
        violation lives on one shard.  The assertion is compiled on
        ``db`` (the router's catalog mirror) and every denial must be
        *co-located*: a union-find over its atoms — positive or
        negated, at any depth — must join them all.  Two atoms join
        when one shared variable of the denial sits at both tables'
        shard-key columns and those columns have the same declared
        type (``shard_of(5) != shard_of(5.0)``); tables pinned to shard
        0 join each other and nothing else.  A table pair related
        through no equated key (a wildcard pair) is refused unless both
        are pinned.  An aggregate assertion is checked the same way
        over its outer and inner table, joined by its correlation
        columns.  Raises :class:`CompilationError` naming the offending
        join.
        """
        assertion = Assertion.parse(sql)
        if AggregateAssertionCompiler.is_aggregate_assertion(assertion):
            spec = AggregateAssertionCompiler(db.catalog).compile(assertion)
            joins = [
                CouplingSpec(
                    assertion.name,
                    (spec.outer_table.lower(), spec.inner_table.lower()),
                    tuple(
                        ((0, outer), (1, inner))
                        for inner, outer in spec.correlation
                    ),
                    (),
                )
            ]
        else:
            denials = DenialCompiler(db.catalog).compile(assertion)
            joins = derive_coupling(denials)
        for coupling in joins:
            self._require_colocated(db, assertion.name, coupling)

    def _require_colocated(self, db, assertion: str, spec) -> None:
        tables = spec.atoms
        keys = [self._key_position(db, table) for table in tables]

        def column(atom: int, position: int) -> str:
            name = db.table(tables[atom]).schema.column_names[position]
            return f"{tables[atom]}.{name}"

        def refuse(what: str):
            placement = ", ".join(
                f"{table} keyed on {self.keys[table]}"
                if key is not None
                else f"{table} pinned to shard 0"
                for table, key in dict(zip(tables, keys)).items()
            )
            raise CompilationError(
                f"assertion {assertion!r} cannot be checked shard by "
                f"shard: {what} ({placement}), so the rows of one "
                "violation may live on different shards"
            )

        for a, b in spec.wildcard_pairs:
            if self._key_position(db, a) is not None or (
                self._key_position(db, b) is not None
            ):
                refuse(f"{a} and {b} are related through no equated key")
        parent = list(range(len(tables)))

        def find(atom: int) -> int:
            while parent[atom] != atom:
                parent[atom] = parent[parent[atom]]
                atom = parent[atom]
            return atom

        pinned = [atom for atom, key in enumerate(keys) if key is None]
        for atom in pinned[1:]:
            parent[find(atom)] = find(pinned[0])
        for keyspace in spec.keyspaces:
            # one representative per declared type: 5 and 5.0 place apart
            first_of_type: dict[str, int] = {}
            for atom, position in keyspace:
                if keys[atom] == position:
                    schema = db.table(tables[atom]).schema
                    kind = schema.columns[position].sql_type.kind
                    lead = first_of_type.setdefault(kind, atom)
                    parent[find(atom)] = find(lead)
        if len({find(atom) for atom in range(len(tables))}) > 1:
            crossing = sorted(
                {
                    " = ".join(sorted((column(a, pa), column(b, pb))))
                    for keyspace in spec.keyspaces
                    for a, pa in keyspace
                    for b, pb in keyspace
                    if find(a) != find(b)
                }
            )
            refuse(
                f"its join on {' and '.join(crossing)} does not equate "
                "co-located shard keys"
                if crossing
                else "its atoms share no equated key"
            )
