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
aggregate itself, the check recomputes the aggregate **only for the
groups an update can touch** — new outer tuples (``ins_outer``) and
outer tuples whose group gained or lost inner tuples (keys appearing in
``ins_inner``/``del_inner``).  Each such group's new state is read once:
an index probe of the base inner table, minus the staged deletes, plus
the staged inserts.  Updates that touch neither table skip the check
entirely, mirroring the "trivially empty" shortcut of the relational
EDC views.

Assertions that share outer table, inner table and correlation form one
:class:`AggregateFamily`, which finds and reads those groups once for
all of them; each member then applies its own conditions, argument,
function and bound.  Nothing is cached between commits but resolved
table handles.  SQL's ``i.k = o.k`` is never true when a side is NULL,
so an outer row whose correlation key holds a NULL has an empty group
(COUNT 0, any other aggregate NULL), and its comparison is still
evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import AssertionDefinitionError
from ..minidb.catalog import Catalog
from ..minidb.database import Database
from ..minidb.codegen import compile_expression
from ..minidb.expressions import Compiled, Scope, sql_compare
from ..minidb.plan import aggregate_value
from ..minidb.schema import normalize
from ..minidb.storage import TableOverlay
from ..sqlparser import nodes as n
from .assertion import Assertion
from .event_tables import del_table_name, ins_table_name
from .safe_commit import Violation

_FLIP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: the parameters of an expression that reads no outer column (never
#: written to)
_NO_PARAMS: dict = {}


@dataclass
class AggregateAssertion:
    """A compiled aggregate assertion (see module docstring for shape)."""

    name: str
    outer_table: str
    #: compiled predicate over an outer row (True = row is constrained)
    outer_condition: Optional[Compiled]
    func: str
    #: compiled aggregate argument over an inner row (None = COUNT(*))
    argument: Optional[Compiled]
    inner_table: str
    #: pairs of (inner column position, outer column position)
    correlation: tuple[tuple[int, int], ...]
    #: compiled predicate over an inner row (outer row via params)
    inner_condition: Optional[Compiled]
    op: str
    bound: object
    #: True when the inner condition or the argument reads outer
    #: columns: only then are they handed the outer row as parameters
    reads_outer: bool = False
    #: the parameter name of each outer column, ``(binding, column)``
    outer_params: tuple[tuple[str, str], ...] = ()

    @property
    def driving_tables(self) -> tuple[str, ...]:
        """Event tables whose content can make this assertion fire."""
        return (
            ins_table_name(self.outer_table),
            ins_table_name(self.inner_table),
            del_table_name(self.inner_table),
        )

    def witnessed_by(self, outer_row: tuple, group: list) -> bool:
        """Whether ``outer_row`` violates the assertion when ``group``
        holds the inner rows correlated with it."""
        if (
            self.outer_condition is not None
            and self.outer_condition(outer_row, _NO_PARAMS) is not True
        ):
            return False
        params = (
            dict(zip(self.outer_params, outer_row))
            if self.reads_outer
            else _NO_PARAMS
        )
        condition = self.inner_condition
        if condition is not None:
            group = [row for row in group if condition(row, params) is True]
        argument = self.argument
        if argument is None:
            value = len(group)
        else:
            value = aggregate_value(
                self.func, [argument(row, params) for row in group]
            )
        return sql_compare(self.op, value, self.bound) is True


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
        # the outer row.
        inner_local = Scope(
            [(inner_ref.binding, c) for c in inner.schema.column_names]
        )
        inputs = list(inner_conditions)
        if call.argument is not None:
            inputs.append(call.argument)
        reads_outer = any(
            isinstance(node, n.ColumnRef)
            and inner_local.try_resolve(node) is None
            for expr in inputs
            for node in n.walk_expr(expr)
        )

        return AggregateAssertion(
            name=assertion.name,
            outer_table=outer.schema.name,
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
            correlation=tuple(correlation),
            inner_condition=(
                compile_expression(n.conjoin(inner_conditions), inner_scope)
                if inner_conditions
                else None
            ),
            op=aggregate_condition.op,
            bound=bound_expr.value,
            reads_outer=reads_outer,
            outer_params=tuple(
                (outer_ref.binding.lower(), column.lower())
                for column in outer.schema.column_names
            ),
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


class AggregateChecker:
    """One installed aggregate assertion: its spec and the full-scan
    comparator.  The commit's check pass runs it as a member of an
    :class:`AggregateFamily`."""

    def __init__(self, spec: AggregateAssertion):
        self.spec = spec

    @property
    def driving_tables(self) -> tuple[str, ...]:
        return self.spec.driving_tables

    @property
    def family_key(self) -> tuple:
        """Checkers with equal keys read the same groups."""
        spec = self.spec
        return (
            normalize(spec.outer_table),
            normalize(spec.inner_table),
            tuple(sorted(spec.correlation)),
        )

    def check_full(self, db: Database) -> Optional[Violation]:
        """Scan every outer row and recompute its aggregate — the
        non-incremental comparator for the E6 bench."""
        spec = self.spec
        outer = db.table(spec.outer_table)
        inner = db.table(spec.inner_table)
        outer_at = tuple(op for _, op in spec.correlation)
        columns = tuple(inner.schema.columns[ip].name for ip, _ in spec.correlation)
        witnesses = []
        for outer_row in outer.scan():
            key = tuple(outer_row[p] for p in outer_at)
            group = [] if None in key else list(inner.lookup_secondary(columns, key))
            if spec.witnessed_by(outer_row, group):
                witnesses.append(outer_row)
        if not witnesses:
            return None
        return Violation(
            assertion=spec.name,
            edc_name=f"{spec.name}(aggregate, full)",
            columns=list(outer.schema.column_names),
            rows=witnesses,
        )


class AggregateFamily:
    """The aggregate checkers that share outer table, inner table and
    correlation: one check unit of the commit's check pass.

    :meth:`run` finds the groups the update touches and reads each
    one's new state once for all members; a lone checker is a family
    of one.  The family's tables, their probes and the event tables'
    overlay keys are resolved once per ``(db, catalog version)`` — the
    rule :class:`~repro.minidb.database.PreparedStatement` uses, since
    only version-bumping DDL adds or drops a table.
    """

    __slots__ = ("members", "label", "_outer_at", "_inner_at", "_resolved")

    def __init__(self, members: list[AggregateChecker]):
        self.members = members
        #: a shared unit's trace label; a lone checker reports under
        #: its own name
        self.label = (
            members[0].spec.name + ".shared" if len(members) > 1 else None
        )
        pairs = sorted(members[0].spec.correlation)
        self._inner_at = tuple(ip for ip, _ in pairs)
        self._outer_at = tuple(op for _, op in pairs)
        self._resolved: Optional[tuple] = None

    def _resolve(self, db: Database) -> tuple:
        resolved = self._resolved
        version = db.catalog.version
        if resolved is None or resolved[0] is not db or resolved[1] != version:
            spec = self.members[0].spec
            outer = db.table(spec.outer_table)
            inner = db.table(spec.inner_table)
            events = tuple(
                (db.table(name), normalize(name))
                for name in (
                    ins_table_name(spec.outer_table),
                    del_table_name(spec.outer_table),
                    ins_table_name(spec.inner_table),
                    del_table_name(spec.inner_table),
                )
            )
            resolved = self._resolved = (
                db,
                version,
                outer,
                outer.key_probe(_names(outer, self._outer_at)),
                inner,
                inner.key_probe(_names(inner, self._inner_at)),
                events,
            )
        return resolved

    def run(self, db: Database, overlays: Optional[dict] = None) -> list[tuple]:
        """Check every member against the update held in the event
        tables, merged at read time with ``overlays`` (normalized event
        table name -> :class:`~repro.minidb.storage.TableOverlay`).
        Returns ``(checker, name, witness count, violation or None)``
        per member, in member order."""
        _, _, outer, outer_probe, inner, inner_probe, events = self._resolve(db)
        ins_outer, del_outer, ins_inner, del_inner = (
            overlays[key].scan(table) if overlays and key in overlays else table.scan()
            for table, key in events
        )
        added = _by_key(ins_inner, self._inner_at)
        removed = _by_key(del_inner, self._inner_at)
        inner_row = inner.row_by_id
        groups: dict[tuple, list] = {}

        def group(key: tuple) -> list:
            """The new state's inner rows correlated with ``key``:
            base rows minus staged deletes, plus staged inserts."""
            rows = groups.get(key)
            if rows is None:
                if None in key:
                    rows = []  # ``i.k = o.k`` is never true for NULL
                else:
                    rows = list(map(inner_row, inner_probe.rowids(key)))
                    if key in removed:
                        rows = list(TableOverlay(deletes=removed[key]).mask(rows))
                    rows.extend(added.get(key, ()))
                groups[key] = rows
            return rows

        outer_at = self._outer_at
        candidates = [
            (row, group(tuple(row[p] for p in outer_at))) for row in ins_outer
        ]
        if added or removed:
            # base outer rows whose group gained or lost inner rows,
            # unless the update removes them
            gone = set(del_outer)
            outer_row = outer.row_by_id
            for key in {**added, **removed}:
                for row in map(outer_row, outer_probe.rowids(key)):
                    if row not in gone:
                        candidates.append((row, group(key)))

        outcomes = []
        for checker in self.members:
            spec = checker.spec
            witnessed = spec.witnessed_by
            witnesses = [row for row, rows in candidates if witnessed(row, rows)]
            violation = None
            if witnesses:
                violation = Violation(
                    assertion=spec.name,
                    edc_name=f"{spec.name}(aggregate)",
                    columns=list(outer.schema.column_names),
                    rows=witnesses,
                )
            outcomes.append((checker, spec.name, len(witnesses), violation))
        return outcomes


def _names(table, positions: tuple[int, ...]) -> tuple[str, ...]:
    return tuple(table.schema.columns[p].name for p in positions)


def _by_key(rows, positions: tuple[int, ...]) -> dict[tuple, list]:
    """``rows`` grouped by their values at ``positions``; a key holding
    a NULL correlates with nothing, so its rows are dropped."""
    grouped: dict[tuple, list] = {}
    for row in rows:
        key = tuple(row[p] for p in positions)
        if None not in key:
            grouped.setdefault(key, []).append(row)
    return grouped


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
