"""Query planner: AST -> physical plan.

Planning strategy, tuned for TINTIN's workload shape (tiny event tables
joined against large indexed base tables):

1. **Pushdown** — single-binding WHERE conjuncts move onto their scan.

   1b. **Access path** — when a base table's pushed-down conjuncts of
   the form ``col = <constant>`` (a non-NULL literal or a statement
   parameter, either side) cover a key the schema already implies, the
   scan becomes an :class:`~repro.minidb.plan.IndexScan`: the whole
   PRIMARY KEY or a UNIQUE key (answered from its unique index), else a
   declared FOREIGN KEY column set, else the longest leading prefix of
   the PRIMARY KEY (answered from the secondary hash index that
   ``IndexJoin`` and the FK checker build on first probe).  No index is
   ever built for an ad-hoc column set, and none at ``CREATE TABLE`` or
   load time.  The whole pushed-down predicate stays a ``Filter`` on
   top, so the rows — and the errors — are those of ``Filter(SeqScan)``.
2. **Greedy equi-join ordering** — start from the smallest estimated
   relation and repeatedly attach the smallest connected one (equal
   estimates go in FROM order, so a plan never depends on the
   process's string-hash seed).  When the
   accumulated stream is much smaller than the next base table, the
   planner emits an :class:`~repro.minidb.plan.IndexJoin` that probes the
   table's hash index instead of materializing it — this is what makes
   the generated incremental views touch only update-adjacent data.
3. **Subquery probes** — ``[NOT] EXISTS`` / ``[NOT] IN`` / scalar
   aggregates are bound into the expression that uses them, not into
   join operators.  A subquery over a single base table with
   equi-correlation becomes an :class:`~repro.minidb.plan.IndexProbe`;
   anything else a :class:`~repro.minidb.plan.SubPlan`, run once per
   distinct correlation value (so an uncorrelated subquery runs exactly
   once per execution).

Every expression in a plan is bound (:func:`~repro.minidb.expressions.bind`)
before it is stored, so reference errors surface at planning time.  Plans
hold no per-execution state, so a compiled plan may be executed any
number of times — this is what the prepared-statement cache in
:mod:`repro.minidb.database` builds on.  The planner records every base
table it resolves in :attr:`Planner.tables_used` together with its row
count at plan time, so the cache can re-plan when table sizes drift far
from what the greedy join ordering assumed.
"""

from __future__ import annotations

from typing import Optional

from ..errors import CatalogError, ExecutionError, SchemaError
from ..sqlparser import nodes as n
from .expressions import Scope, bind
from .plan import (
    Aggregate,
    DeltaSeed,
    Distinct,
    Filter,
    HashJoin,
    IndexJoin,
    IndexProbe,
    IndexScan,
    NestedLoopCross,
    PlanNode,
    Project,
    Rename,
    SeqScan,
    SubPlan,
    UnionAll,
    UnionDistinct,
)
from .storage import Table
from .types import probe_key

#: Below this ratio of outer-estimate to table size the planner prefers
#: probing the table's index over materializing it in a hash join.
_INDEX_JOIN_RATIO = 0.25

#: Assumed fraction of a table sharing one value of a non-unique key
#: (a FOREIGN KEY or PRIMARY KEY prefix) — the IndexScan estimate.
_KEY_SELECTIVITY = 0.01

class _Relation:
    """A FROM-clause relation during planning.

    Estimates are read off the (pushdown-filtered) plan nodes built in
    ``_join_relations`` — plain attributes, so the greedy join-ordering
    loops never recompute them per access.
    """

    def __init__(self, binding: str, plan: PlanNode, table: Optional[Table]):
        self.binding = binding.lower()
        self.plan = plan
        #: set when the relation is a bare base table (IndexJoin candidate)
        self.table = table
        self.pushdown: list[n.Expr] = []


class Planner:
    """Plans queries against a catalog (tables + views)."""

    def __init__(self, catalog):
        self.catalog = catalog
        #: normalized base-table name -> row count when the plan was
        #: built; consumed by the prepared-plan cache for drift checks
        self.tables_used: dict[str, int] = {}
        #: normalized name -> the Table object the plan captured, so the
        #: cache can detect drop-and-recreate under the same name
        self.table_refs: dict[str, Table] = {}

    def _note_table(self, table: Table) -> None:
        key = table.schema.name.lower()
        self.tables_used.setdefault(key, len(table))
        self.table_refs.setdefault(key, table)

    # -- public API -------------------------------------------------------

    def plan_query(self, query: n.Query, outer: Optional[Scope] = None) -> PlanNode:
        """Build an executable plan for a SELECT or UNION query."""
        if isinstance(query, n.Union):
            parts = [self.plan_select(s, outer) for s in query.selects]
            width = len(parts[0].scope.entries)
            for part in parts[1:]:
                if len(part.scope.entries) != width:
                    raise ExecutionError("UNION branches have different widths")
            return UnionAll(parts) if query.all else UnionDistinct(parts)
        return self.plan_select(query, outer)

    def output_columns(self, query: n.Query) -> list[str]:
        """Output column names of a query (for views and result headers)."""
        select = query.selects[0] if isinstance(query, n.Union) else query
        names: list[str] = []
        for item in select.items:
            if isinstance(item, n.Star):
                names.extend(self._star_columns(select, item))
            elif item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, n.ColumnRef):
                names.append(item.expr.column)
            elif isinstance(item.expr, n.AggregateCall):
                names.append(item.expr.func.lower())
            else:
                names.append(f"col{len(names) + 1}")
        return names

    # -- FROM resolution -------------------------------------------------------

    def _star_columns(self, select: n.Select, star: n.Star) -> list[str]:
        columns: list[str] = []
        for ref in select.from_items:
            if star.table is not None and ref.binding.lower() != star.table.lower():
                continue
            columns.extend(self._relation_columns(ref.name))
        if not columns:
            raise SchemaError(f"star {star.table}.* matches no relation")
        return columns

    def _relation_columns(self, name: str) -> list[str]:
        table = self.catalog.get_table(name, default=None)
        if table is not None:
            return list(table.schema.column_names)
        view = self.catalog.get_view(name, default=None)
        if view is not None:
            return list(view.columns)
        raise CatalogError(f"unknown table or view {name!r}")

    def _base_relation(self, ref: n.TableRef, outer: Optional[Scope]) -> _Relation:
        if isinstance(ref, n.DeltaSeedRef):
            tables = []
            for name in ref.tables:
                table = self.catalog.get_table(name, default=None)
                if table is None:
                    raise CatalogError(f"unknown event table {name!r}")
                self._note_table(table)
                tables.append(table)
            seed = DeltaSeed(tables, ref.binding, ref.columns, ref.positions)
            # table=None: the seed is a key stream, never an IndexJoin
            # target — it is the probe *source* the parents attach to
            return _Relation(ref.binding, seed, None)
        table = self.catalog.get_table(ref.name, default=None)
        if table is not None:
            self._note_table(table)
            return _Relation(ref.binding, SeqScan(table, ref.binding), table)
        view = self.catalog.get_view(ref.name, default=None)
        if view is not None:
            subplan = self.plan_query(view.query, outer)
            renamed = Rename(subplan, ref.binding, list(view.columns))
            return _Relation(ref.binding, renamed, None)
        raise CatalogError(f"unknown table or view {ref.name!r}")

    # -- SELECT planning ----------------------------------------------------------

    def plan_select(self, select: n.Select, outer: Optional[Scope] = None) -> PlanNode:
        if _is_aggregate_select(select):
            return self._plan_aggregate_select(select, outer)
        source = self._plan_source(select, outer)
        return self._project(source, select, outer)

    def _plan_source(
        self, select: n.Select, outer: Optional[Scope]
    ) -> PlanNode:
        """FROM + WHERE of one SELECT block (everything but the select
        list)."""
        relations = self._resolve_from(select, outer)
        bindings = {rel.binding for rel in relations}
        if len(bindings) != len(relations):
            raise SchemaError("duplicate binding name in FROM clause")

        pushdowns: dict[str, list[n.Expr]] = {rel.binding: [] for rel in relations}
        edges: list[tuple[str, str, n.ColumnRef, n.ColumnRef]] = []
        residual: list[n.Expr] = []

        for conjunct in n.conjuncts(select.where):
            kind, payload = self._classify(conjunct, bindings)
            if kind == "pushdown":
                pushdowns[payload[0]].append(payload[1])
            elif kind == "edge":
                edges.append(payload)
            else:
                residual.append(payload)

        for rel in relations:
            rel.pushdown = pushdowns[rel.binding]

        joined = self._join_relations(relations, edges, outer)

        if residual:
            # every plan leaving _join_relations is already scoped with
            # ``outer`` as its correlation chain
            joined = Filter(joined, self._bind(n.conjoin(residual), joined.scope))

        return joined

    def _plan_aggregate_select(
        self, select: n.Select, outer: Optional[Scope]
    ) -> PlanNode:
        """Ungrouped aggregation: ``SELECT COUNT(*), SUM(x) FROM ...``.

        Engine extension (the assertion fragment has no aggregates);
        used by the aggregate-assertion checker and general queries.
        """
        if select.distinct:
            raise ExecutionError("DISTINCT is not valid on an aggregate query")
        source = self._plan_source(select, outer)
        scope = source.scope
        specs: list = []
        names: list[str] = []
        for item in select.items:
            if isinstance(item, n.Star) or not isinstance(
                item.expr, n.AggregateCall
            ):
                raise ExecutionError(
                    "aggregate queries cannot mix aggregates with plain "
                    "columns (GROUP BY is not supported)"
                )
            call = item.expr
            if call.argument is None:
                specs.append((call.func, None))
            else:
                specs.append((call.func, self._bind(call.argument, scope)))
            names.append(item.alias or call.func.lower())
        out_scope = Scope([(None, name) for name in names], outer=outer)
        return Aggregate(source, specs, out_scope)

    def _resolve_from(
        self, select: n.Select, outer: Optional[Scope]
    ) -> list[_Relation]:
        if not select.from_items:
            raise SchemaError("SELECT requires a FROM clause")
        return [self._base_relation(ref, outer) for ref in select.from_items]

    # -- conjunct classification ------------------------------------------------

    def _classify(self, conjunct: n.Expr, bindings: set[str]):
        """Classify one WHERE conjunct.

        Returns ``("pushdown", (binding, expr))``, ``("edge", (b1, b2,
        ref1, ref2))`` or ``("residual", expr)``.
        """
        # unwrap NOT around subquery predicates so they normalize
        expr = conjunct
        if isinstance(expr, n.Not) and isinstance(expr.item, (n.Exists, n.InSubquery)):
            inner = expr.item
            if isinstance(inner, n.Exists):
                expr = n.Exists(inner.query, negated=not inner.negated)
            else:
                expr = n.InSubquery(inner.item, inner.query, negated=not inner.negated)
        if isinstance(expr, (n.Exists, n.InSubquery)):
            return ("residual", expr)
        if _contains_subquery(expr):
            return ("residual", expr)

        used = _local_bindings(expr, bindings)
        if (
            isinstance(expr, n.Comparison)
            and expr.op == "="
            and isinstance(expr.left, n.ColumnRef)
            and isinstance(expr.right, n.ColumnRef)
        ):
            lb = (expr.left.table or "").lower()
            rb = (expr.right.table or "").lower()
            if lb in bindings and rb in bindings and lb != rb:
                return ("edge", (lb, rb, expr.left, expr.right))
        if len(used) == 1:
            return ("pushdown", (next(iter(used)), expr))
        return ("residual", expr)

    # -- join ordering -----------------------------------------------------------

    def _join_relations(
        self,
        relations: list[_Relation],
        edges: list[tuple[str, str, n.ColumnRef, n.ColumnRef]],
        outer: Optional[Scope],
    ) -> PlanNode:
        # Rescope every relation's plan onto the outer chain exactly once,
        # up front — the greedy loop below then reuses plan scopes as-is
        # instead of re-allocating a Scope per attachment step.
        plans: dict[str, PlanNode] = {}
        for rel in relations:
            plan = _rescope(rel.plan, Scope(rel.plan.scope.entries, outer=outer))
            if rel.pushdown:
                if rel.table is not None:
                    plan = self._access_path(rel, plan)
                plan = Filter(plan, self._bind(n.conjoin(rel.pushdown), plan.scope))
            plans[rel.binding] = plan

        if len(relations) == 1:
            only = relations[0]
            return plans[only.binding]

        by_binding = {rel.binding: rel for rel in relations}
        # equal estimates break toward FROM order, so a query plans the
        # same in every process whatever its string-hash seed
        rank = {binding: i for i, binding in enumerate(by_binding)}

        def cost(binding: str) -> tuple[float, int]:
            return plans[binding].estimate, rank[binding]

        remaining = set(by_binding)
        start = min(remaining, key=cost)
        current = plans[start]
        current_set = {start}
        remaining.discard(start)

        while remaining:
            connected = {
                (b2 if b1 in current_set else b1)
                for (b1, b2, _, _) in edges
                if (b1 in current_set) != (b2 in current_set)
                and (b1 in remaining or b2 in remaining)
            }
            connected &= remaining
            if connected:
                chosen = min(connected, key=cost)
                current = self._attach(
                    current, current_set, by_binding[chosen], plans[chosen], edges, outer
                )
            else:
                chosen = min(remaining, key=cost)
                current = NestedLoopCross(current, plans[chosen])
            current_set.add(chosen)
            remaining.discard(chosen)
        return current

    def _access_path(self, rel: _Relation, scan: PlanNode) -> PlanNode:
        """Step 1b: an :class:`IndexScan` when ``rel``'s pushed-down
        ``col = <constant>`` conjuncts cover a key of its base table,
        else the ``scan`` it was given."""
        table = rel.table
        schema = table.schema
        constants: dict[str, n.Expr] = {}
        for conjunct in rel.pushdown:
            if not (isinstance(conjunct, n.Comparison) and conjunct.op == "="):
                continue
            for ref, constant in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if not isinstance(ref, n.ColumnRef):
                    continue
                position = scan.scope.try_resolve(ref)
                if position is None:
                    continue
                column = schema.columns[position]
                if isinstance(constant, n.Literal):
                    if not probe_key(constant.value, column.sql_type):
                        # NULL, or a literal the comparison rejects:
                        # the scan finds nothing / raises, as it must
                        return scan
                elif not isinstance(constant, n.Parameter):
                    continue
                constants.setdefault(column.name, constant)
        if not constants:
            return scan

        primary = schema.primary_key
        candidates = [(primary, "PRIMARY KEY", True)]
        candidates += [(unique, "UNIQUE", True) for unique in schema.uniques]
        candidates += [
            (fk.columns, "FOREIGN KEY", False) for fk in schema.foreign_keys
        ]
        candidates += [
            (primary[:length], "PRIMARY KEY prefix", False)
            for length in range(len(primary) - 1, 0, -1)
        ]
        for columns, via, unique in candidates:
            if columns and all(column in constants for column in columns):
                break
        else:
            return scan
        estimate = 1.0 if unique else max(len(table) * _KEY_SELECTIVITY, 1.0)
        key = [constants[c] for c in columns]  # literals and parameters
        plan = IndexScan(table, scan.binding, columns, key, via, estimate)
        return _rescope(plan, scan.scope)

    def _attach(
        self,
        current: PlanNode,
        current_set: set[str],
        chosen: _Relation,
        chosen_plan: PlanNode,
        edges,
        outer: Optional[Scope],
    ) -> PlanNode:
        """Join ``chosen`` onto the accumulated ``current`` plan.

        Both ``current`` and ``chosen_plan`` were rescoped onto the
        outer chain before the greedy loop started, so their scopes are
        used directly here (no per-step Scope allocation).
        """
        outer_refs: list[n.ColumnRef] = []
        inner_refs: list[n.ColumnRef] = []
        for b1, b2, r1, r2 in edges:
            if b1 in current_set and b2 == chosen.binding:
                outer_refs.append(r1)
                inner_refs.append(r2)
            elif b2 in current_set and b1 == chosen.binding:
                outer_refs.append(r2)
                inner_refs.append(r1)
        current_scope = current.scope
        outer_positions = tuple(current_scope.resolve(r) for r in outer_refs)

        use_index = (
            chosen.table is not None
            and current.estimate <= len(chosen.table) * _INDEX_JOIN_RATIO
        )
        if use_index:
            columns = tuple(
                chosen.table.schema.column(r.column).name for r in inner_refs
            )
            join = IndexJoin(
                current, chosen.table, chosen.binding, columns, outer_positions
            )
            if chosen.pushdown:
                join.residual = self._bind(n.conjoin(chosen.pushdown), join.scope)
            return join

        inner_positions = tuple(chosen_plan.scope.resolve(r) for r in inner_refs)
        return HashJoin(
            current,
            chosen_plan,
            outer_positions,
            inner_positions,
        )

    # -- projection ------------------------------------------------------------

    def _project(
        self, child: PlanNode, select: n.Select, outer: Optional[Scope]
    ) -> PlanNode:
        scope = child.scope  # already chained onto ``outer`` by _plan_source
        exprs: list = []
        names: list[str] = []
        for item in select.items:
            if isinstance(item, n.Star):
                # FROM order, whatever order the joins ran in — the
                # order output_columns() names the columns in
                for ref in select.from_items:
                    wanted = ref.binding.lower()
                    if item.table is not None and wanted != item.table.lower():
                        continue
                    for position, (binding, column) in enumerate(scope.entries):
                        if binding == wanted:
                            exprs.append(position)
                            names.append(column)
            else:
                exprs.append(self._bind(item.expr, scope))
                if item.alias:
                    names.append(item.alias)
                elif isinstance(item.expr, n.ColumnRef):
                    names.append(item.expr.column)
                else:
                    names.append(f"col{len(names) + 1}")
        out_scope = Scope([(None, name) for name in names], outer=outer)
        plan: PlanNode = Project(child, exprs, out_scope)
        if select.distinct:
            plan = Distinct(plan)
        return plan

    # -- subqueries ---------------------------------------------------------------

    def _bind(self, expr: n.Expr, scope: Scope) -> n.Expr:
        """Bind ``expr`` in ``scope``, planning the subqueries it holds."""
        return bind(expr, scope, lambda node: self._bind_subquery(node, scope))

    def _bind_subquery(self, node: n.Expr, scope: Scope) -> n.Expr:
        if isinstance(node, n.Exists):
            probe = self._bind_exists(node.query, scope)
        elif isinstance(node, n.InSubquery):
            probe = self._bind_in(node, scope)
        elif isinstance(node, n.ScalarSubquery):
            return self._bind_scalar(node, scope)
        else:
            raise ExecutionError(f"unexpected subquery node {type(node).__name__}")
        return n.Not(probe) if node.negated else probe

    def _bind_exists(self, query: n.Query, scope: Scope) -> n.Expr:
        """``EXISTS (query)``: a union is the OR of its branches."""
        if isinstance(query, n.Union):
            return n.Or(tuple(self._bind_exists(s, scope) for s in query.selects))
        parts = self._probe_parts(query, scope, required=True)
        if parts is None:
            return SubPlan("exists", self.plan_query(query, outer=scope))
        table, inner_scope, columns, key, residual = parts
        return IndexProbe("exists", table, inner_scope, columns, key, residual)

    def _bind_scalar(self, node: n.ScalarSubquery, scope: Scope) -> n.Expr:
        """A scalar aggregate subquery.  Like EXISTS, a single-table
        equi-correlated aggregate folds the rows of one index probe —
        this keeps aggregate assertions incremental (the group is
        recomputed, but only for update-adjacent keys)."""
        query = node.query
        assert isinstance(query, n.Select)  # parser guarantees
        parts = self._probe_parts(query, scope, required=True)
        if parts is None:
            return SubPlan("scalar", self.plan_query(query, outer=scope))
        table, inner_scope, columns, key, residual = parts
        call = query.items[0].expr
        argument = (
            None
            if call.argument is None
            else self._bind(call.argument, inner_scope)
        )
        return IndexProbe(
            "scalar",
            table,
            inner_scope,
            columns,
            key,
            residual,
            func=call.func,
            argument=argument,
        )

    def _bind_in(self, node: n.InSubquery, scope: Scope) -> n.Expr:
        """``subject IN (query)`` with SQL three-valued semantics
        (positive form; negation wraps it).  The index form needs a
        single-table subquery whose output is a bare NOT NULL column
        (NULL-freeness makes probe semantics exact); it probes the
        output column together with the correlated ones."""
        query = node.query
        subject = bind(node.item, Scope([], outer=scope))
        if len(self.output_columns(query)) != 1:
            raise ExecutionError("IN subquery must produce exactly one column")
        item = query.items[0] if isinstance(query, n.Select) else None
        if (
            isinstance(query, n.Select)
            and not query.distinct
            and len(query.items) == 1
            and isinstance(item, n.SelectItem)
            and isinstance(item.expr, n.ColumnRef)
        ):
            parts = self._probe_parts(query, scope, required=False)
            if parts is not None:
                table, inner_scope, columns, key, residual = parts
                position = inner_scope.try_resolve(item.expr)
                if position is not None:
                    out_column = table.schema.columns[position]
                    if out_column.not_null:
                        return IndexProbe(
                            "in",
                            table,
                            inner_scope,
                            (out_column.name,) + columns,
                            key,
                            residual,
                            subject=subject,
                        )
        plan = self.plan_query(query, outer=scope)
        return SubPlan("in", plan, subject=subject)

    def _probe_parts(self, select: n.Select, scope: Scope, required: bool):
        """``(table, inner scope, key columns, key exprs, residual)`` of
        a subquery over one base table, splitting its WHERE into
        equi-correlated conjuncts (the probe key) and the rest; None
        when it ranges over anything else, or — with ``required`` —
        when no conjunct correlates."""
        if len(select.from_items) != 1:
            return None
        ref = select.from_items[0]
        table = self.catalog.get_table(ref.name, default=None)
        if table is None:
            return None
        self._note_table(table)
        inner_scope = Scope(
            [(ref.binding, c) for c in table.schema.column_names], outer=scope
        )
        params_scope = Scope([], outer=scope)
        columns: list[str] = []
        key: list[n.Expr] = []
        residual: list[n.Expr] = []
        for conjunct in n.conjuncts(select.where):
            corr = self._split_equi_correlation(conjunct, inner_scope, params_scope)
            if corr is not None:
                position, outer_expr = corr
                columns.append(table.schema.columns[position].name)
                key.append(outer_expr)
            else:
                residual.append(conjunct)
        if required and not columns:
            return None
        bound = self._bind(n.conjoin(residual), inner_scope) if residual else None
        return table, inner_scope, tuple(columns), tuple(key), bound

    def _split_equi_correlation(
        self, conjunct: n.Expr, inner_scope: Scope, params_scope: Scope
    ) -> Optional[tuple[int, n.Expr]]:
        """If ``conjunct`` is ``inner_col = outer_expr`` (either side),
        return ``(inner column position, bound outer expr)``."""
        if not (isinstance(conjunct, n.Comparison) and conjunct.op == "="):
            return None
        for inner, other in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if not isinstance(inner, n.ColumnRef):
                continue
            position = inner_scope.try_resolve(inner)
            if position is None:
                continue
            if _contains_subquery(other):
                continue
            try:
                outer_expr = bind(other, params_scope)
            except SchemaError:
                continue
            return (position, outer_expr)
        return None


def access_skeleton(plan: PlanNode) -> tuple:
    """The access paths of ``plan``: its scan, join and probe nodes with
    their tables and key columns, with Filter, Project and Rename
    erased.  Two plans with equal skeletons read the same rows through
    the same indexes, whatever predicates they evaluate on the way."""
    while isinstance(plan, (Filter, Project, Rename)):
        plan = plan.child
    if isinstance(plan, SeqScan):
        return ("SeqScan", plan.table.name)
    if isinstance(plan, IndexScan):
        return ("IndexScan", plan.table.name, plan.columns)
    if isinstance(plan, IndexJoin):
        return (
            "IndexJoin",
            plan.table.name,
            plan.table_columns,
            plan.outer_positions,
            access_skeleton(plan.outer),
        )
    if isinstance(plan, HashJoin):
        return (
            "HashJoin",
            plan.left_positions,
            plan.right_positions,
            access_skeleton(plan.left),
            access_skeleton(plan.right),
        )
    return (type(plan).__name__,) + tuple(
        access_skeleton(child) for child in plan.children()
    )


def _rescope(plan: PlanNode, scope: Scope) -> PlanNode:
    """Attach a scope (with outer chain) to an existing plan node."""
    plan.scope = scope
    return plan


def _contains_subquery(expr: n.Expr) -> bool:
    return any(
        isinstance(node, (n.Exists, n.InSubquery, n.ScalarSubquery))
        for node in n.walk_expr(expr)
    )


def _is_aggregate_select(select: n.Select) -> bool:
    return any(
        isinstance(item, n.SelectItem)
        and any(
            isinstance(node, n.AggregateCall) for node in n.walk_expr(item.expr)
        )
        for item in select.items
    )


def _local_bindings(expr: n.Expr, bindings: set[str]) -> set[str]:
    """Bindings from ``bindings`` referenced by ``expr``.

    Unqualified refs are attributed by probing; refs to outer scopes
    contribute nothing (they compile to params).
    """
    used: set[str] = set()
    for node in n.walk_expr(expr):
        if isinstance(node, n.ColumnRef):
            if node.table is not None:
                binding = node.table.lower()
                if binding in bindings:
                    used.add(binding)
            else:
                used.add("?unqualified?")
    if "?unqualified?" in used:
        # conservatively treat unqualified refs as multi-binding unless
        # there is exactly one relation
        if len(bindings) == 1:
            used.discard("?unqualified?")
            used.add(next(iter(bindings)))
    return used
