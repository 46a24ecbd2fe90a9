"""Aggregate assertions — the paper's stated future work (§5).

    "As further work, we plan to extend TINTIN to handle aggregate
     functions in assertions."

This module implements that extension for assertions of the shape::

    CREATE ASSERTION name CHECK (NOT EXISTS (
        SELECT * FROM outer AS o
        WHERE [outer conditions AND]
              (SELECT AGG(arg) FROM inner AS i
               WHERE i.k = o.k [AND inner conditions])  OP  constant))

e.g. "no order has more than 7 line items" or "the quantities of an
order's items never sum above 300".

Checking is incremental in the spirit of the authors' follow-up work on
aggregates ([5] in the paper): instead of rewriting deltas of the
aggregate itself, the checker recomputes the aggregate **only for the
groups an update can touch** — new outer tuples (``ins_outer``) and
outer tuples whose group gained or lost inner tuples (keys appearing in
``ins_inner``/``del_inner``) — using index probes against the base
table and the (tiny) event tables.  Updates that touch neither table
skip the check entirely, mirroring the "trivially empty" shortcut of
the relational EDC views.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from ..errors import AssertionDefinitionError
from ..minidb.catalog import Catalog
from ..minidb.database import Database
from ..minidb.codegen import compile_expression
from ..minidb.expressions import Compiled, Scope, sql_compare
from ..minidb.plan import aggregate_value
from ..sqlparser import nodes as n
from .assertion import Assertion
from .event_tables import del_table_name, ins_table_name
from .safe_commit import Violation

_FLIP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass
class AggregateAssertion:
    """A compiled aggregate assertion (see module docstring for shape)."""

    name: str
    outer_table: str
    outer_binding: str
    #: compiled predicate over an outer row (True = row is constrained)
    outer_condition: Optional[Compiled]
    func: str
    #: compiled aggregate argument over an inner row (None = COUNT(*))
    argument: Optional[Compiled]
    inner_table: str
    inner_binding: str
    #: pairs of (inner column position, outer column position)
    correlation: tuple[tuple[int, int], ...]
    #: compiled predicate over an inner row (outer row via params)
    inner_condition: Optional[Compiled]
    op: str
    bound: object
    #: correlation key column names, resolved once at compile time so
    #: the per-commit checker never rebuilds them (prepared-checker
    #: counterpart of the prepared EDC views)
    outer_key_columns: tuple[str, ...] = ()
    inner_key_columns: tuple[str, ...] = ()
    #: True when the aggregate argument and the inner condition depend
    #: only on inner columns — the per-row contribution is then the
    #: same for every probing outer row and the group state can be
    #: memoized (see :class:`AggregateMemo`)
    memoizable: bool = True

    @property
    def driving_tables(self) -> tuple[str, ...]:
        """Event tables whose content can make this assertion fire."""
        return (
            ins_table_name(self.outer_table),
            ins_table_name(self.inner_table),
            del_table_name(self.inner_table),
        )


class AggregateAssertionCompiler:
    """Recognizes and compiles the supported aggregate-assertion shape."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    @staticmethod
    def is_aggregate_assertion(assertion: Assertion) -> bool:
        return any(
            isinstance(node, n.ScalarSubquery)
            for query in _safe_inner_queries(assertion)
            for select in _selects(query)
            if select.where is not None
            for node in n.walk_expr(select.where)
        )

    def compile(self, assertion: Assertion) -> AggregateAssertion:
        queries = assertion.inner_queries()
        if len(queries) != 1 or not isinstance(queries[0], n.Select):
            raise AssertionDefinitionError(
                f"aggregate assertion {assertion.name!r}: CHECK must be a "
                "single NOT EXISTS (SELECT ...)"
            )
        select = queries[0]
        if len(select.from_items) != 1:
            raise AssertionDefinitionError(
                f"aggregate assertion {assertion.name!r}: exactly one outer "
                "table is supported"
            )
        outer_ref = select.from_items[0]
        outer = self.catalog.get_table(outer_ref.name, default=None)
        if outer is None:
            raise AssertionDefinitionError(
                f"aggregate assertion {assertion.name!r}: unknown table "
                f"{outer_ref.name!r}"
            )
        outer_scope = Scope(
            [(outer_ref.binding, c) for c in outer.schema.column_names]
        )

        aggregate_condition: Optional[n.Comparison] = None
        plain: list[n.Expr] = []
        for conjunct in n.conjuncts(select.where):
            if _contains_scalar(conjunct):
                if aggregate_condition is not None:
                    raise AssertionDefinitionError(
                        f"aggregate assertion {assertion.name!r}: exactly one "
                        "aggregate comparison is supported"
                    )
                aggregate_condition = self._normalize_comparison(
                    assertion.name, conjunct
                )
            else:
                plain.append(conjunct)
        if aggregate_condition is None:
            raise AssertionDefinitionError(
                f"aggregate assertion {assertion.name!r}: no aggregate "
                "comparison found"
            )

        scalar = aggregate_condition.left
        bound_expr = aggregate_condition.right
        assert isinstance(scalar, n.ScalarSubquery)
        if not isinstance(bound_expr, n.Literal) or bound_expr.value is None:
            raise AssertionDefinitionError(
                f"aggregate assertion {assertion.name!r}: the aggregate must "
                "be compared against a non-NULL constant"
            )

        inner_select = scalar.query
        assert isinstance(inner_select, n.Select)
        call = inner_select.items[0].expr
        if len(inner_select.from_items) != 1:
            raise AssertionDefinitionError(
                f"aggregate assertion {assertion.name!r}: the aggregate "
                "subquery must range over exactly one table"
            )
        inner_ref = inner_select.from_items[0]
        inner = self.catalog.get_table(inner_ref.name, default=None)
        if inner is None:
            raise AssertionDefinitionError(
                f"aggregate assertion {assertion.name!r}: unknown table "
                f"{inner_ref.name!r}"
            )
        inner_scope = Scope(
            [(inner_ref.binding, c) for c in inner.schema.column_names],
            outer=outer_scope,
        )

        correlation: list[tuple[int, int]] = []
        inner_conditions: list[n.Expr] = []
        for conjunct in n.conjuncts(inner_select.where):
            pair = self._equi_pair(conjunct, inner_scope, outer_scope)
            if pair is not None:
                correlation.append(pair)
            else:
                inner_conditions.append(conjunct)
        if not correlation:
            raise AssertionDefinitionError(
                f"aggregate assertion {assertion.name!r}: the aggregate "
                "subquery must be equi-correlated with the outer table"
            )

        # A column ref the inner-local scope cannot resolve escapes to
        # the outer row; such a condition/argument varies per probing
        # outer tuple and disqualifies per-group memoization.
        inner_local = Scope(
            [(inner_ref.binding, c) for c in inner.schema.column_names]
        )
        memo_inputs = list(inner_conditions)
        if call.argument is not None:
            memo_inputs.append(call.argument)
        memoizable = not any(
            isinstance(node, n.ColumnRef)
            and inner_local.try_resolve(node) is None
            for expr in memo_inputs
            for node in n.walk_expr(expr)
        )

        return AggregateAssertion(
            name=assertion.name,
            outer_table=outer.schema.name,
            outer_binding=outer_ref.binding.lower(),
            outer_condition=(
                compile_expression(n.conjoin(plain), outer_scope) if plain else None
            ),
            func=call.func,
            argument=(
                compile_expression(call.argument, inner_scope)
                if call.argument is not None
                else None
            ),
            inner_table=inner.schema.name,
            inner_binding=inner_ref.binding.lower(),
            correlation=tuple(correlation),
            inner_condition=(
                compile_expression(n.conjoin(inner_conditions), inner_scope)
                if inner_conditions
                else None
            ),
            op=aggregate_condition.op,
            bound=bound_expr.value,
            outer_key_columns=tuple(
                outer.schema.columns[op].name for _, op in correlation
            ),
            inner_key_columns=tuple(
                inner.schema.columns[ip].name for ip, _ in correlation
            ),
            memoizable=memoizable,
        )

    @staticmethod
    def _normalize_comparison(name: str, conjunct: n.Expr) -> n.Comparison:
        """Bring the aggregate condition into ``scalar OP literal`` form."""
        if not isinstance(conjunct, n.Comparison):
            raise AssertionDefinitionError(
                f"aggregate assertion {name!r}: the aggregate may only "
                "appear in a comparison"
            )
        if isinstance(conjunct.left, n.ScalarSubquery):
            return conjunct
        if isinstance(conjunct.right, n.ScalarSubquery):
            return n.Comparison(
                _FLIP[conjunct.op], conjunct.right, conjunct.left
            )
        raise AssertionDefinitionError(
            f"aggregate assertion {name!r}: one comparison side must be the "
            "aggregate subquery"
        )

    @staticmethod
    def _equi_pair(
        conjunct: n.Expr, inner_scope: Scope, outer_scope: Scope
    ) -> Optional[tuple[int, int]]:
        if not (isinstance(conjunct, n.Comparison) and conjunct.op == "="):
            return None
        for inner, other in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if not (
                isinstance(inner, n.ColumnRef) and isinstance(other, n.ColumnRef)
            ):
                continue
            inner_position = inner_scope.try_resolve(inner)
            outer_position = outer_scope.try_resolve(other)
            if inner_position is not None and outer_position is not None:
                return (inner_position, outer_position)
        return None


class _Group:
    """Base-state aggregate of one correlation group: row count plus a
    multiset of non-NULL argument values."""

    __slots__ = ("rows", "values")

    def __init__(self):
        self.rows = 0
        self.values: Counter = Counter()


class AggregateMemo:
    """Demand-filled per-group aggregate cache over the **base** inner
    table, maintained incrementally from applied deltas (PR 8).

    The checker normally recomputes a candidate group by probing the
    base inner table; when the memo is warm it supplies the group's
    ``(row count, value multiset)`` directly, so the check touches only
    the staged event rows.  Groups are cached lazily: a check that
    misses materializes the group from base-table probes and
    :meth:`store`\\ s it — there is never a full-table rebuild scan in
    the commit path.  Like the EDC delta arming state this is derived
    cache: it goes warm only through :meth:`note_applied` (after a
    *validated* apply — warming is just a version sync, no scan), is
    version-checked at every use, and any unvalidated drift — catalog
    change, bulk load, recovery replay — flushes it back to cold.  It
    is never WAL-logged.

    ``spec.memoizable`` is False when the aggregate argument or inner
    condition references outer columns: the per-row contribution then
    depends on the probing outer tuple and no per-group state exists.
    """

    def __init__(self, spec: AggregateAssertion):
        self.spec = spec
        self.enabled = spec.memoizable
        self._groups: dict[tuple, _Group] = {}
        self._catalog_version: Optional[int] = None
        self._data_version: Optional[int] = None

    # -- lifecycle --------------------------------------------------------

    def flush(self) -> None:
        """Back to cold: the next validated apply re-warms."""
        self._groups.clear()
        self._catalog_version = None
        self._data_version = None

    @property
    def warm(self) -> bool:
        return self._data_version is not None

    def usable(self, db: Database) -> bool:
        """Warm and version-consistent with ``db`` right now."""
        if not self.enabled or self._data_version is None:
            return False
        if db.catalog.version != self._catalog_version:
            self.flush()
            return False
        table = db.catalog.get_table(self.spec.inner_table, default=None)
        if table is None or table.data_version != self._data_version:
            self.flush()
            return False
        return True

    def note_applied(self, db: Database, inserts: dict, deletes: dict) -> None:
        """Fold a just-applied batch into the cached group states.

        Cold memos warm up here by syncing to the post-apply versions
        (this is the only place the memo warms — mirroring the EDC
        arming protocol — and it costs no scan: groups fill lazily on
        first use); warm memos fold only the delta rows for the inner
        table into groups that are already cached.  Deltas for an
        uncached group are dropped — the group materializes from the
        post-apply base whenever a check next needs it.
        """
        if not self.enabled:
            return
        table = db.catalog.get_table(self.spec.inner_table, default=None)
        if table is None:
            self.flush()
            return
        if (
            self._data_version is None
            or db.catalog.version != self._catalog_version
        ):
            self._groups.clear()
            self._catalog_version = db.catalog.version
            self._data_version = table.data_version
            return
        name = self.spec.inner_table.lower()
        removed = next(
            (v for k, v in (deletes or {}).items() if k.lower() == name), ()
        )
        added = next(
            (v for k, v in (inserts or {}).items() if k.lower() == name), ()
        )
        for row in removed:
            self._apply(row, -1)
        for row in added:
            self._apply(row, +1)
        self._catalog_version = db.catalog.version
        self._data_version = table.data_version

    # -- state ------------------------------------------------------------

    def _apply(self, row: tuple, sign: int) -> None:
        """Fold one applied row into (+1) or out of (-1) its cached
        group; no-op when the group isn't cached.  A fold that would go
        negative (a delete the cached state never saw) evicts just that
        group — it re-materializes from base on next use."""
        spec = self.spec
        if (
            spec.inner_condition is not None
            and spec.inner_condition(row, {}) is not True
        ):
            return
        key = tuple(row[ip] for ip, _ in spec.correlation)
        group = self._groups.get(key)
        if group is None:
            return
        group.rows += sign
        if group.rows < 0:
            del self._groups[key]
            return
        if spec.argument is not None:
            value = spec.argument(row, {})
            if value is not None:
                count = group.values[value] + sign
                if count < 0:
                    del self._groups[key]
                    return
                if count:
                    group.values[value] = count
                else:
                    del group.values[value]

    def group(self, key: tuple) -> Optional[tuple[int, Counter]]:
        """Copy of the group's cached base state, or ``None`` when the
        group isn't cached yet (caller materializes + :meth:`store`)."""
        group = self._groups.get(key)
        if group is None:
            return None
        return group.rows, Counter(group.values)

    def store(self, key: tuple, rows: int, values: Counter) -> None:
        """Cache a group materialized from the base table (called right
        after a :meth:`usable` check, so versions are already in sync)."""
        group = _Group()
        group.rows = rows
        group.values = Counter(values)
        self._groups[key] = group


class AggregateChecker:
    """Incremental group-probe checker for one aggregate assertion."""

    def __init__(self, spec: AggregateAssertion):
        self.spec = spec
        #: derived per-group cache; duck-typed ``note_applied``/``flush``
        #: driven by :class:`~repro.core.safe_commit.SafeCommit`
        self.memo = AggregateMemo(spec)

    @property
    def driving_tables(self) -> tuple[str, ...]:
        return self.spec.driving_tables

    # -- checking ---------------------------------------------------------

    def check(self, db: Database, overlays: Optional[dict] = None) -> Optional[Violation]:
        """Find new-state violations among update-adjacent groups.

        ``overlays`` (normalized table name ->
        :class:`~repro.minidb.storage.TableOverlay`) merges staged
        rows into the named tables at read time — the commit scheduler
        validates a batch by overlaying the event tables instead of
        physically loading them.
        """
        spec = self.spec
        reader = _OverlayReader(overlays)
        outer = db.table(spec.outer_table)
        ins_outer = db.table(ins_table_name(spec.outer_table))
        del_outer = db.table(del_table_name(spec.outer_table))
        ins_inner = db.table(ins_table_name(spec.inner_table))
        del_inner = db.table(del_table_name(spec.inner_table))

        outer_columns = spec.outer_key_columns

        candidates: dict[tuple, tuple] = {}
        for row in reader.scan(ins_outer):
            candidates[("ins", row)] = row
        # groups touched by inner insertions/deletions: probe the outer
        # table by the correlation key
        for event_table in (ins_inner, del_inner):
            for event_row in reader.scan(event_table):
                key = tuple(
                    event_row[ip] for ip, _ in spec.correlation
                )
                if any(v is None for v in key):
                    continue
                for outer_row in reader.probe(outer, outer_columns, key):
                    if reader.contains(del_outer, outer_row):
                        continue  # the outer tuple is being removed
                    candidates[("base", outer_row)] = outer_row

        witnesses = []
        for candidate in candidates.values():
            if self._violates(db, candidate, ins_inner, del_inner, reader):
                witnesses.append(candidate)
        if not witnesses:
            return None
        return Violation(
            assertion=spec.name,
            edc_name=f"{spec.name}(aggregate)",
            columns=list(outer.schema.column_names),
            rows=witnesses,
        )

    def _violates(self, db, outer_row, ins_inner, del_inner, reader) -> bool:
        spec = self.spec
        if spec.outer_condition is not None:
            if spec.outer_condition(outer_row, {}) is not True:
                return False
        value = self._new_state_aggregate(
            db, outer_row, ins_inner, del_inner, reader
        )
        return sql_compare(spec.op, value, spec.bound) is True

    def _new_state_aggregate(self, db, outer_row, ins_inner, del_inner, reader):
        """AGG over (inner ∖ del_inner ∪ ins_inner) restricted to the
        outer row's group, via index probes."""
        spec = self.spec
        inner = db.table(spec.inner_table)
        inner_columns = spec.inner_key_columns
        key = tuple(outer_row[op] for _, op in spec.correlation)
        params = self._outer_params(db, outer_row)

        if self.memo.usable(db):
            return self._memoized_aggregate(
                key, params, inner, ins_inner, del_inner, reader
            )

        deleted = {
            row
            for row in reader.probe(del_inner, inner_columns, key)
        }
        count = 0
        values: list = []
        for source, skip_deleted in ((inner, True), (ins_inner, False)):
            for row in reader.probe(source, inner_columns, key):
                if skip_deleted and row in deleted:
                    continue
                if (
                    spec.inner_condition is not None
                    and spec.inner_condition(row, params) is not True
                ):
                    continue
                if spec.argument is None:
                    count += 1
                else:
                    values.append(spec.argument(row, params))
        if spec.argument is None:
            return count
        return aggregate_value(spec.func, values)

    def _memoized_aggregate(
        self, key, params, inner, ins_inner, del_inner, reader
    ):
        """New-state aggregate from the warm memo: start at the cached
        base-group state (materializing it from base probes on a cache
        miss) and fold in only the staged event rows."""
        spec = self.spec
        inner_columns = spec.inner_key_columns
        cached = self.memo.group(key)
        if cached is None:
            # miss: build the group's base state from the physical
            # table — memoizable specs never read outer params here
            rows = 0
            values: Counter = Counter()
            for row in inner.lookup_secondary(inner_columns, key):
                if (
                    spec.inner_condition is not None
                    and spec.inner_condition(row, {}) is not True
                ):
                    continue
                rows += 1
                if spec.argument is not None:
                    value = spec.argument(row, {})
                    if value is not None:
                        values[value] += 1
            self.memo.store(key, rows, values)
        else:
            rows, values = cached
        for row in set(reader.probe(del_inner, inner_columns, key)):
            if not reader.contains(inner, row):
                continue  # deleting a row the base never had
            if (
                spec.inner_condition is not None
                and spec.inner_condition(row, params) is not True
            ):
                continue
            rows -= 1
            if spec.argument is not None:
                value = spec.argument(row, params)
                if value is not None:
                    values[value] -= 1
                    if values[value] <= 0:
                        del values[value]
        for row in reader.probe(ins_inner, inner_columns, key):
            if (
                spec.inner_condition is not None
                and spec.inner_condition(row, params) is not True
            ):
                continue
            rows += 1
            if spec.argument is not None:
                value = spec.argument(row, params)
                if value is not None:
                    values[value] += 1
        if spec.argument is None:
            return rows
        return aggregate_value(spec.func, values.elements())

    def _outer_params(self, db, outer_row) -> dict:
        spec = self.spec
        outer = db.table(spec.outer_table)
        return {
            (spec.outer_binding, column.lower()): outer_row[position]
            for position, column in enumerate(outer.schema.column_names)
        }

    # -- full (non-incremental) check --------------------------------------------

    def check_full(self, db: Database) -> Optional[Violation]:
        """Scan every outer row and recompute its aggregate — the
        non-incremental comparator for the E6 bench."""
        spec = self.spec
        outer = db.table(spec.outer_table)
        inner = db.table(spec.inner_table)
        inner_columns = spec.inner_key_columns
        witnesses = []
        for outer_row in outer.scan():
            if spec.outer_condition is not None:
                if spec.outer_condition(outer_row, {}) is not True:
                    continue
            key = tuple(outer_row[op] for _, op in spec.correlation)
            params = self._outer_params(db, outer_row)
            count = 0
            values: list = []
            for row in inner.lookup_secondary(inner_columns, key):
                if (
                    spec.inner_condition is not None
                    and spec.inner_condition(row, params) is not True
                ):
                    continue
                if spec.argument is None:
                    count += 1
                else:
                    values.append(spec.argument(row, params))
            value = (
                count if spec.argument is None else aggregate_value(spec.func, values)
            )
            if sql_compare(spec.op, value, spec.bound) is True:
                witnesses.append(outer_row)
        if not witnesses:
            return None
        return Violation(
            assertion=spec.name,
            edc_name=f"{spec.name}(aggregate, full)",
            columns=list(outer.schema.column_names),
            rows=witnesses,
        )


class _OverlayReader:
    """Reads tables through an optional overlay map.

    The commit scheduler validates staged updates by overlaying the
    event tables rather than loading them; this adapter routes the
    aggregate checker's scans/probes/membership tests through the
    overlay when one is present, and straight at the table otherwise.
    """

    __slots__ = ("overlays",)

    def __init__(self, overlays: Optional[dict]):
        self.overlays = overlays or {}

    def _overlay(self, table):
        return self.overlays.get(table.schema.name.lower())

    def scan(self, table):
        overlay = self._overlay(table)
        return table.scan() if overlay is None else overlay.scan(table)

    def probe(self, table, columns, key):
        overlay = self._overlay(table)
        if overlay is None:
            return table.lookup_secondary(columns, key)
        return overlay.lookup(table, columns, key)

    def contains(self, table, row) -> bool:
        overlay = self._overlay(table)
        if overlay is None:
            return table.contains_row(row)
        return overlay.contains(table, row)


def _safe_inner_queries(assertion: Assertion):
    try:
        return assertion.inner_queries()
    except AssertionDefinitionError:
        return []


def _selects(query: n.Query):
    return query.selects if isinstance(query, n.Union) else (query,)


def _contains_scalar(expr: n.Expr) -> bool:
    return any(
        isinstance(node, n.ScalarSubquery) for node in n.walk_expr(expr)
    )
