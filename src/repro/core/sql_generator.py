"""EDC -> SQL view generation (the paper's third step, after [4]).

Each positive literal becomes a table reference in the FROM clause
(event tables first, exactly like the paper's example view), joined to
previously translated literals through shared variables.  Built-ins and
constant bindings land in WHERE, and negated literals become correlated
``NOT EXISTS`` subqueries.  Negated *derived* literals (``¬aux(s̄)``)
expand into one ``NOT EXISTS`` per defining rule — sound because
``¬(r1 ∨ r2) = ¬r1 ∧ ¬r2`` — so the stored views reference only base
and event tables and stay fully index-probeable.

The queries are emitted as AST (and stored as views via the engine);
:func:`repro.sqlparser.printer.print_query` renders them as standard
SQL, which is what the portability experiment (E5) runs on SQLite.
"""

from __future__ import annotations

from typing import Optional

from ..errors import CompilationError
from ..logic import (
    Atom,
    Builtin,
    Constant,
    DerivedPredicate,
    NegatedConjunction,
    Term,
    Variable,
)
from ..logic.literals import DERIVED
from ..minidb.catalog import Catalog
from ..sqlparser import nodes as n
from .edc import EDC, EventGuard


class _AliasGenerator:
    """Globally unique table aliases (T0, T1, ...) within one view."""

    def __init__(self):
        self._counter = 0

    def next(self) -> str:
        alias = f"T{self._counter}"
        self._counter += 1
        return alias


class SQLGenerator:
    """Translates EDCs and aux predicates into SQL view definitions."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # -- public API -------------------------------------------------------

    def edc_query(self, edc: EDC, canon_out: Optional[dict] = None) -> n.Select:
        """The violation query of one EDC (non-empty answer = violation).

        ``canon_out``, when given, receives each variable's binding
        column reference (the first positive occurrence)."""
        aux_index = {a.predicate.name.lower(): a for a in edc.aux}
        positives: list[Atom] = []
        negatives: list = []
        builtins: list[Builtin] = []
        guards: list[EventGuard] = []
        for literal in edc.body:
            if isinstance(literal, Atom):
                if literal.negated:
                    negatives.append(literal)
                else:
                    positives.append(literal)
            elif isinstance(literal, Builtin):
                builtins.append(literal)
            elif isinstance(literal, NegatedConjunction):
                negatives.append(literal)
            elif isinstance(literal, EventGuard):
                guards.append(literal)
            else:  # pragma: no cover - defensive
                raise CompilationError(f"unexpected EDC literal {literal!r}")
        if not positives:
            raise CompilationError(
                f"EDC {edc.name!r} has no positive literal to select from"
            )
        aliases = _AliasGenerator()
        return self._build_select(
            positives, negatives, builtins, guards, {}, aliases, aux_index,
            canon_out=canon_out,
        )

    def delta_query(self, edc: EDC, branches) -> n.Query:
        """The seeded delta variant of a guard-mode EDC's view.

        One SELECT per :class:`~repro.core.delta.DeltaBranch`: the
        branch's event tables collapse into a
        :class:`~repro.sqlparser.nodes.DeltaSeedRef` (distinct staged
        keys), joined to the EDC's parent atoms through the branch
        mapping; builtins and negations render exactly as in the full
        view, so both queries agree column-for-column and the full plan
        stays usable as the differential oracle.  The EventGuard is
        dropped — the seed itself is the (now correlated) firing
        condition.
        """
        aux_index = {a.predicate.name.lower(): a for a in edc.aux}
        positives: list[Atom] = []
        negatives: list = []
        builtins: list[Builtin] = []
        for literal in edc.body:
            if isinstance(literal, Atom):
                (negatives if literal.negated else positives).append(literal)
            elif isinstance(literal, Builtin):
                builtins.append(literal)
            elif isinstance(literal, NegatedConjunction):
                negatives.append(literal)
            elif not isinstance(literal, EventGuard):  # pragma: no cover
                raise CompilationError(f"unexpected EDC literal {literal!r}")
        if not positives:
            raise CompilationError(
                f"EDC {edc.name!r} has no positive literal to select from"
            )
        selects: list[n.Select] = []
        for branch in branches:
            aliases = _AliasGenerator()
            canon: dict[Variable, n.ColumnRef] = {}
            base = self._build_select(
                positives, negatives, builtins, [], {}, aliases, aux_index,
                canon_out=canon,
            )
            seed_alias = "delta0"
            columns = tuple(f"k{i}" for i in range(len(branch.mapping)))
            positions = tuple(p for _, p in branch.mapping)
            seed = n.DeltaSeedRef(seed_alias, branch.tables, columns, positions)
            conditions = n.conjuncts(base.where)
            for i, (variable, _) in enumerate(branch.mapping):
                ref = canon.get(variable)
                if ref is None:
                    raise CompilationError(
                        f"delta mapping variable {variable} is not bound by "
                        f"a positive literal of EDC {edc.name!r}"
                    )
                conditions.append(
                    n.Comparison("=", ref, n.ColumnRef(columns[i], seed_alias))
                )
            # project exactly the full view's output (the parents'
            # columns, in FROM order) so results compare directly
            items = tuple(n.Star(ref.binding) for ref in base.from_items)
            selects.append(
                n.Select(
                    items,
                    (seed,) + tuple(base.from_items),
                    n.conjoin(conditions),
                    distinct=True,
                )
            )
        if len(selects) == 1:
            return selects[0]
        return n.Union(tuple(selects), all=False)

    def aux_view(
        self,
        aux: DerivedPredicate,
        aux_index: Optional[dict[str, DerivedPredicate]] = None,
    ) -> Optional[n.CreateView]:
        """A UNION view displaying an aux predicate's extension.

        Returns None when a rule binds a head parameter only through
        correlation (parameterized rules cannot be materialized as a
        standalone view); the checker never needs these views — they are
        stored for inspection parity with the paper's tool.
        """
        aux_index = aux_index or {}
        selects: list[n.Select] = []
        for rule in aux.rules:
            aliases = _AliasGenerator()
            positives = [
                l for l in rule.body if isinstance(l, Atom) and not l.negated
            ]
            negatives = [
                l
                for l in rule.body
                if (isinstance(l, Atom) and l.negated)
                or isinstance(l, NegatedConjunction)
            ]
            builtins = [l for l in rule.body if isinstance(l, Builtin)]
            canon: dict[Variable, n.ColumnRef] = {}
            try:
                select = self._build_select(
                    positives, negatives, builtins, [], {}, aliases, aux_index, canon
                )
            except CompilationError:
                # a head parameter reachable only through correlation
                # (e.g. it appears only in a built-in): not materializable
                return None
            items: list[n.SelectItem] = []
            for position, param in enumerate(rule.head.terms):
                if isinstance(param, Variable):
                    ref = canon.get(param)
                    if ref is None:
                        return None  # parameterized-only rule
                    items.append(n.SelectItem(ref, f"p{position + 1}"))
                else:
                    items.append(
                        n.SelectItem(n.Literal(param.value), f"p{position + 1}")
                    )
            selects.append(
                n.Select(tuple(items), select.from_items, select.where)
            )
        if len(selects) == 1:
            return n.CreateView(aux.predicate.name, selects[0])
        return n.CreateView(aux.predicate.name, n.Union(tuple(selects)))

    # -- internals ------------------------------------------------------------

    def _columns_of(self, sql_table: str) -> tuple[str, ...]:
        return self.catalog.require_table(sql_table).schema.column_names

    def _build_select(
        self,
        positives: list[Atom],
        negatives: list,
        builtins: list[Builtin],
        guards: list,
        outer_env: dict[Variable, n.ColumnRef],
        aliases: _AliasGenerator,
        aux_index: dict[str, DerivedPredicate],
        canon_out: Optional[dict] = None,
    ) -> n.Select:
        # event tables first: drives the planner from the small relations
        # and matches the paper's generated views
        ordered = sorted(
            positives, key=lambda a: 0 if a.predicate.kind in ("ins", "del") else 1
        )
        canon: dict[Variable, n.ColumnRef] = {}
        conditions: list[n.Expr] = []
        from_items: list[n.TableRef] = []
        for atom in ordered:
            table_name = atom.predicate.sql_table()
            columns = self._columns_of(table_name)
            if len(columns) != len(atom.terms):
                raise CompilationError(
                    f"atom {atom} arity {len(atom.terms)} does not match "
                    f"table {table_name!r} ({len(columns)} columns)"
                )
            alias = aliases.next()
            from_items.append(n.TableRef(table_name, alias))
            for term, column in zip(atom.terms, columns):
                ref = n.ColumnRef(column, alias)
                if isinstance(term, Constant):
                    conditions.append(
                        n.Comparison("=", ref, n.Literal(term.value))
                    )
                elif term in canon:
                    conditions.append(n.Comparison("=", ref, canon[term]))
                elif term in outer_env:
                    conditions.append(n.Comparison("=", ref, outer_env[term]))
                else:
                    canon[term] = ref
        env = {**outer_env, **canon}
        if canon_out is not None:
            canon_out.update(canon)

        for builtin in builtins:
            conditions.append(
                n.Comparison(
                    builtin.op,
                    self._ref_of(builtin.left, env),
                    self._ref_of(builtin.right, env),
                )
            )

        for literal in negatives:
            conditions.append(
                self._render_negation(literal, env, aliases, aux_index)
            )

        for guard in guards:
            exists_parts = [
                n.Exists(
                    n.Select(
                        (n.Star(),),
                        (n.TableRef(p.sql_table(), aliases.next()),),
                        None,
                    )
                )
                for p in guard.predicates
            ]
            condition = (
                exists_parts[0]
                if len(exists_parts) == 1
                else n.Or(tuple(exists_parts))
            )
            conditions.append(condition)

        return n.Select(
            (n.Star(),), tuple(from_items), n.conjoin(conditions)
        )

    def _ref_of(self, term: Term, env: dict[Variable, n.ColumnRef]) -> n.Expr:
        if isinstance(term, Constant):
            return n.Literal(term.value)
        ref = env.get(term)
        if ref is None:
            raise CompilationError(
                f"variable {term} is not bound by any positive literal"
            )
        return ref

    def _render_negation(
        self,
        literal,
        env: dict[Variable, n.ColumnRef],
        aliases: _AliasGenerator,
        aux_index: dict[str, DerivedPredicate],
    ) -> n.Expr:
        if isinstance(literal, Atom):
            if literal.predicate.kind == DERIVED:
                return self._render_negated_aux(literal, env, aliases, aux_index)
            return self._negated_atom_exists(literal, env, aliases)
        if isinstance(literal, NegatedConjunction):
            positives = [
                i for i in literal.items if isinstance(i, Atom) and not i.negated
            ]
            nested = [
                i
                for i in literal.items
                if isinstance(i, NegatedConjunction)
                or (isinstance(i, Atom) and i.negated)
            ]
            builtins = [i for i in literal.items if isinstance(i, Builtin)]
            subquery = self._build_select(
                positives, nested, builtins, [], env, aliases, aux_index
            )
            return n.Exists(subquery, negated=True)
        raise CompilationError(f"cannot render negation {literal!r}")

    def _negated_atom_exists(
        self,
        literal: Atom,
        env: dict[Variable, n.ColumnRef],
        aliases: _AliasGenerator,
    ) -> n.Expr:
        table_name = literal.predicate.sql_table()
        columns = self._columns_of(table_name)
        alias = aliases.next()
        conditions: list[n.Expr] = []
        for term, column in zip(literal.terms, columns):
            ref = n.ColumnRef(column, alias)
            if isinstance(term, Constant):
                conditions.append(n.Comparison("=", ref, n.Literal(term.value)))
            elif term in env:
                conditions.append(n.Comparison("=", ref, env[term]))
            # an unbound variable is existential inside the negation
        subquery = n.Select(
            (n.Star(),), (n.TableRef(table_name, alias),), n.conjoin(conditions)
        )
        return n.Exists(subquery, negated=True)

    def _render_negated_aux(
        self,
        literal: Atom,
        env: dict[Variable, n.ColumnRef],
        aliases: _AliasGenerator,
        aux_index: dict[str, DerivedPredicate],
    ) -> n.Expr:
        aux = aux_index.get(literal.predicate.name.lower())
        if aux is None:
            raise CompilationError(
                f"EDC references unknown aux predicate {literal.predicate.name!r}"
            )
        parts: list[n.Expr] = []
        for rule in aux.rules:
            # the rule body sees ONLY its head parameters (mapped to the
            # aux argument refs) — any other variable it shares a name
            # with in the enclosing EDC is a distinct existential scope
            # (the paper's δlineIt(l, o) vs the aux rules' own l)
            rule_env: dict[Variable, n.Expr] = {}
            for param, arg in zip(rule.head.terms, literal.terms):
                if isinstance(param, Variable):
                    rule_env[param] = self._ref_of(arg, env)
            positives = [
                i for i in rule.body if isinstance(i, Atom) and not i.negated
            ]
            nested = [
                i
                for i in rule.body
                if (isinstance(i, Atom) and i.negated)
                or isinstance(i, NegatedConjunction)
            ]
            builtins = [i for i in rule.body if isinstance(i, Builtin)]
            subquery = self._build_select(
                positives, nested, builtins, [], rule_env, aliases, aux_index
            )
            parts.append(n.Exists(subquery, negated=True))
        return parts[0] if len(parts) == 1 else n.And(tuple(parts))
