"""Assertion -> logic denial compilation (the paper's first step).

Each ``CREATE ASSERTION ... CHECK (NOT EXISTS (query))`` is rewritten
into one or more :class:`~repro.logic.Denial` objects: the query's FROM
tables become positive atoms with fresh variables per column, equality
conditions unify variables (or bind them to constants), comparisons
become built-in literals, positive ``EXISTS``/``IN`` subqueries are
flattened into the body, and negated subqueries become
:class:`~repro.logic.NegatedConjunction` literals.  ``UNION`` (and
``OR``/``IN``-list disjunction) distributes the translation into
several denials.

Notes on fragment boundaries (documented deviations):

* ``NOT IN (subquery)`` is translated as ``NOT EXISTS``, which is
  only equivalent when neither side can be NULL (``x NOT IN (…, NULL)``
  is never true).  It is therefore refused unless its operand and the
  subquery's selected column are ``NOT NULL`` (or primary-key) columns
  or constants.
* ``IS [NOT] NULL`` and arithmetic inside assertions are rejected (the
  paper excludes functions from the fragment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import (
    AssertionDefinitionError,
    UnknownColumnError,
    UnknownTableError,
)
from ..logic import (
    Atom,
    Builtin,
    Constant,
    Denial,
    NegatedConjunction,
    Predicate,
    Term,
    Variable,
    VariableFactory,
)
from ..minidb.catalog import Catalog
from ..sqlparser import nodes as n
from .assertion import Assertion


class _UnionFind:
    """Union-find over variables whose representatives may be constants."""

    def __init__(self, parent: Optional[dict] = None):
        self._parent: dict[Variable, Term] = dict(parent) if parent else {}

    def clone(self) -> "_UnionFind":
        return _UnionFind(self._parent)

    def find(self, term: Term) -> Term:
        while isinstance(term, Variable) and term in self._parent:
            term = self._parent[term]
        return term

    def union(self, left: Term, right: Term) -> bool:
        """Merge the classes of two terms; False if two distinct
        constants collide (the body is unsatisfiable)."""
        left = self.find(left)
        right = self.find(right)
        if left == right:
            return True
        if isinstance(left, Constant) and isinstance(right, Constant):
            return False
        if isinstance(left, Constant):
            self._parent[right] = left
        else:
            self._parent[left] = right
        return True

    def substitution_for(self, variables: set[Variable]) -> dict[Variable, Term]:
        return {v: self.find(v) for v in variables if self.find(v) != v}


class _Body:
    """One alternative denial body under construction."""

    def __init__(self, items=None, uf: Optional[_UnionFind] = None):
        self.items: list = list(items) if items else []
        self.uf = uf if uf is not None else _UnionFind()
        self.alive = True

    def clone(self) -> "_Body":
        copy = _Body(self.items, self.uf.clone())
        copy.alive = self.alive
        return copy


class _Binding:
    """A FROM-clause binding: table predicate + per-column variables."""

    def __init__(self, predicate: Predicate, schema, terms: tuple[Variable, ...]):
        self.predicate = predicate
        self.schema = schema
        self.terms = terms

    def term_for(self, column: str) -> Variable:
        return self.terms[self.schema.column_index(column)]


class _Context:
    """Binding environment with an outer chain (for correlation)."""

    def __init__(self, outer: Optional["_Context"] = None):
        self.outer = outer
        self.bindings: dict[str, _Binding] = {}

    def add(self, name: str, binding: _Binding) -> None:
        key = name.lower()
        if key in self.bindings:
            raise AssertionDefinitionError(
                f"duplicate FROM binding {name!r} in assertion query"
            )
        self.bindings[key] = binding

    def resolve(self, ref: n.ColumnRef) -> tuple[Variable, bool]:
        """Resolve a column ref to its variable; second value is True when
        the variable is local to this context (not an outer correlation)."""
        binding, local = self.binding_of(ref)
        return binding.term_for(ref.column), local

    def binding_of(self, ref: n.ColumnRef) -> tuple[_Binding, bool]:
        """The binding that owns a column ref, and whether it is local
        to this context."""
        context, local = self, True
        while context is not None:
            found = context._binding_here(ref)
            if found is not None:
                return found, local
            context, local = context.outer, False
        raise UnknownColumnError(ref.column, ref.table or "")

    def _binding_here(self, ref: n.ColumnRef) -> Optional[_Binding]:
        if ref.table is not None:
            binding = self.bindings.get(ref.table.lower())
            if binding is None or not binding.schema.has_column(ref.column):
                return None
            return binding
        matches = [
            b for b in self.bindings.values() if b.schema.has_column(ref.column)
        ]
        if len(matches) > 1:
            raise AssertionDefinitionError(
                f"ambiguous column {ref.column!r} in assertion query"
            )
        return matches[0] if matches else None


class DenialCompiler:
    """Compiles assertions into logic denials against a catalog schema."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._vars = VariableFactory()

    # -- public API -------------------------------------------------------

    def compile(self, assertion: Assertion) -> list[Denial]:
        """All denials of one assertion (one per disjunctive branch)."""
        bodies: list[_Body] = []
        for query in assertion.inner_queries():
            for select in _branches(query):
                context = _Context()
                for body in self._translate_select(select, context, _Body()):
                    bodies.append(body)
        denials: list[Denial] = []
        for body in bodies:
            if not body.alive:
                continue
            finished = self._finish(assertion.name, body, len(denials) + 1)
            if finished is not None:
                denials.append(finished)
        # an empty result is legitimate: the condition was proven
        # unsatisfiable (e.g. WHERE FALSE), so the assertion can never
        # be violated and needs no checking machinery
        return denials

    # -- SELECT translation ---------------------------------------------------

    def _translate_select(
        self, select: n.Select, context: _Context, body: _Body
    ) -> list[_Body]:
        """Translate one SELECT block into body alternatives (in place on
        clones of ``body``)."""
        local_vars: set[Variable] = set()
        for ref in select.from_items:
            binding = self._bind_table(ref)
            context.add(ref.binding, binding)
            local_vars |= set(binding.terms)
            body.items.append(Atom(binding.predicate, binding.terms))
        bodies = [body]
        for conjunct in n.conjuncts(select.where):
            bodies = self._apply_condition(conjunct, context, local_vars, bodies)
        return [b for b in bodies if b.alive]

    def _bind_table(self, ref: n.TableRef) -> _Binding:
        schema = self._table_schema(ref)
        terms = tuple(self._vars.fresh(c.lower()) for c in schema.column_names)
        return _Binding(Predicate(schema.name), schema, terms)

    def _table_schema(self, ref: n.TableRef):
        table = self.catalog.get_table(ref.name, default=None)
        if table is None:
            if self.catalog.get_view(ref.name) is not None:
                raise AssertionDefinitionError(
                    f"assertion references view {ref.name!r}; assertions "
                    "must be defined over base tables"
                )
            raise UnknownTableError(ref.name)
        return table.schema

    # -- conditions -------------------------------------------------------------

    def _apply_condition(
        self,
        expr: n.Expr,
        context: _Context,
        local_vars: set[Variable],
        bodies: list[_Body],
    ) -> list[_Body]:
        """Apply one boolean condition to each alternative body."""
        expr = _normalize_not(expr)

        if isinstance(expr, n.Literal):
            if expr.value is True:
                return bodies
            for body in bodies:
                body.alive = False
            return bodies

        if isinstance(expr, n.And):
            for item in expr.items:
                bodies = self._apply_condition(item, context, local_vars, bodies)
            return bodies

        if isinstance(expr, n.Or):
            result: list[_Body] = []
            for item in expr.items:
                clones = [b.clone() for b in bodies]
                result.extend(
                    self._apply_condition(item, context, local_vars, clones)
                )
            return [b for b in result if b.alive]

        if isinstance(expr, n.Comparison):
            return self._apply_comparison(expr, context, local_vars, bodies)

        if isinstance(expr, n.InList):
            return self._apply_in_list(expr, context, local_vars, bodies)

        if isinstance(expr, n.Exists):
            if expr.negated:
                return self._apply_not_exists(expr.query, context, bodies)
            return self._apply_exists(expr.query, context, local_vars, bodies)

        if isinstance(expr, n.InSubquery):
            return self._apply_in_subquery(expr, context, local_vars, bodies)

        if isinstance(expr, n.IsNull):
            raise AssertionDefinitionError(
                "IS [NOT] NULL is outside the assertion fragment (logic "
                "denials are NULL-free)"
            )
        if isinstance(expr, n.Not):
            raise AssertionDefinitionError(
                f"cannot translate NOT over {type(expr.item).__name__} in an "
                "assertion"
            )
        raise AssertionDefinitionError(
            f"unsupported condition {type(expr).__name__} in an assertion"
        )

    def _term_of(self, expr: n.Expr, context: _Context) -> Term:
        if isinstance(expr, n.ColumnRef):
            variable, _ = context.resolve(expr)
            return variable
        if isinstance(expr, n.Literal):
            if expr.value is None:
                raise AssertionDefinitionError(
                    "NULL literals are outside the assertion fragment"
                )
            return Constant(expr.value)
        if isinstance(expr, n.Arithmetic):
            raise AssertionDefinitionError(
                "arithmetic is outside the assertion fragment (the paper "
                "excludes functions)"
            )
        raise AssertionDefinitionError(
            f"unsupported operand {type(expr).__name__} in assertion condition"
        )

    def _apply_comparison(
        self,
        expr: n.Comparison,
        context: _Context,
        local_vars: set[Variable],
        bodies: list[_Body],
    ) -> list[_Body]:
        left = self._term_of(expr.left, context)
        right = self._term_of(expr.right, context)
        if expr.op == "=":
            for body in bodies:
                unified = self._unify(body, left, right, local_vars)
                if unified is False:
                    body.alive = False
                elif unified is None:
                    # neither side is a local variable (e.g. two outer
                    # correlation terms under a negation): the equality
                    # must stay as an explicit condition
                    body.items.append(Builtin("=", left, right))
            return [b for b in bodies if b.alive]
        for body in bodies:
            body.items.append(Builtin(expr.op, left, right))
        return bodies

    @staticmethod
    def _unify(
        body: _Body, left: Term, right: Term, local_vars: set[Variable]
    ) -> Optional[bool]:
        """Unify within the body when sound: at least one side must be a
        local variable (outer terms are opaque here).  Returns True/False
        for unified/unsatisfiable, or None when unification does not
        apply and the equality must be kept as a built-in.  A column
        equal to itself is kept too: on a nullable column ``c = c`` is
        SQL's ``c IS NOT NULL``."""
        lrep = body.uf.find(left)
        rrep = body.uf.find(right)
        if lrep == rrep:
            return None if isinstance(lrep, Variable) else True
        if isinstance(lrep, Variable) and lrep in local_vars:
            return body.uf.union(lrep, rrep)
        if isinstance(rrep, Variable) and rrep in local_vars:
            return body.uf.union(rrep, lrep)
        if isinstance(lrep, Constant) and isinstance(rrep, Constant):
            return False  # two distinct constants can never be equal
        return None

    def _apply_in_list(
        self,
        expr: n.InList,
        context: _Context,
        local_vars: set[Variable],
        bodies: list[_Body],
    ) -> list[_Body]:
        subject = self._term_of(expr.item, context)
        values = [self._term_of(v, context) for v in expr.values]
        if expr.negated:
            for body in bodies:
                for value in values:
                    body.items.append(Builtin("<>", subject, value))
            return bodies
        result: list[_Body] = []
        for value in values:
            clones = [b.clone() for b in bodies]
            for body in clones:
                unified = self._unify(body, subject, value, local_vars)
                if unified is False:
                    body.alive = False
                elif unified is None:
                    body.items.append(Builtin("=", subject, value))
            result.extend(b for b in clones if b.alive)
        return result

    # -- subqueries ---------------------------------------------------------------

    def _apply_exists(
        self,
        query: n.Query,
        context: _Context,
        local_vars: set[Variable],
        bodies: list[_Body],
    ) -> list[_Body]:
        """Positive EXISTS flattens into the body (a join)."""
        result: list[_Body] = []
        for select in _branches(query):
            for body in bodies:
                sub_context = _Context(outer=context)
                clone = body.clone()
                sub_local = set(local_vars)
                translated = self._translate_select_into(
                    select, sub_context, sub_local, clone
                )
                result.extend(translated)
        return [b for b in result if b.alive]

    def _translate_select_into(
        self,
        select: n.Select,
        context: _Context,
        local_vars: set[Variable],
        body: _Body,
    ) -> list[_Body]:
        for ref in select.from_items:
            binding = self._bind_table(ref)
            context.add(ref.binding, binding)
            local_vars |= set(binding.terms)
            body.items.append(Atom(binding.predicate, binding.terms))
        bodies = [body]
        for conjunct in n.conjuncts(select.where):
            bodies = self._apply_condition(conjunct, context, local_vars, bodies)
        return bodies

    def _apply_not_exists(
        self, query: n.Query, context: _Context, bodies: list[_Body]
    ) -> list[_Body]:
        """NOT EXISTS over a (possibly UNION) query: one negated
        conjunction per branch (¬(A ∨ B) = ¬A ∧ ¬B)."""
        for select in _branches(query):
            conjunction_alternatives = self._translate_negated(select, context)
            # a UNION-free branch yields exactly one alternative; OR inside
            # the branch yields several, each of which must be negated
            for body in bodies:
                for items in conjunction_alternatives:
                    body.items.append(NegatedConjunction(tuple(items)))
        return bodies

    def _translate_negated(
        self, select: n.Select, context: _Context
    ) -> list[list]:
        """Translate a subquery under negation into alternative item lists
        (each becomes one NegatedConjunction)."""
        sub_context = _Context(outer=context)
        sub_local: set[Variable] = set()
        sub_body = _Body()
        for ref in select.from_items:
            binding = self._bind_table(ref)
            sub_context.add(ref.binding, binding)
            sub_local |= set(binding.terms)
            sub_body.items.append(Atom(binding.predicate, binding.terms))
        sub_bodies = [sub_body]
        for conjunct in n.conjuncts(select.where):
            sub_bodies = self._apply_condition(
                conjunct, sub_context, sub_local, sub_bodies
            )
        alternatives: list[list] = []
        for sub in sub_bodies:
            if not sub.alive:
                continue
            mapping = sub.uf.substitution_for(_all_variables(sub.items))
            items = [_rename_item(item, mapping) for item in sub.items]
            alternatives.append(items)
        return alternatives

    def _apply_in_subquery(
        self,
        expr: n.InSubquery,
        context: _Context,
        local_vars: set[Variable],
        bodies: list[_Body],
    ) -> list[_Body]:
        subject = self._term_of(expr.item, context)
        rewritten = _in_as_exists(expr, subject)
        if expr.negated:
            self._refuse_nullable(expr.item, context)
            for select in _branches(expr.query):
                scope = _Context(outer=context)
                for ref in select.from_items:
                    schema = self._table_schema(ref)
                    scope.add(ref.binding, _Binding(None, schema, ()))
                self._refuse_nullable(select.items[0].expr, scope)
            return self._apply_not_exists(rewritten, context, bodies)
        return self._apply_exists(rewritten, context, local_vars, bodies)

    @staticmethod
    def _refuse_nullable(expr: n.Expr, context: _Context) -> None:
        """``NOT IN (subquery)`` becomes ``NOT EXISTS``, which is only
        sound when no NULL can reach either side of its equality."""
        if not isinstance(expr, n.ColumnRef):
            return  # a constant: NULL literals are refused elsewhere
        schema = context.binding_of(expr)[0].schema
        column = schema.column(expr.column)
        if not column.not_null:
            raise AssertionDefinitionError(
                f"NOT IN (subquery) over nullable column "
                f"{schema.name}.{column.name}: SQL's NOT IN is never true "
                "when a NULL is involved; declare the column NOT NULL or "
                "write NOT EXISTS"
            )

    # -- finishing ------------------------------------------------------------------

    def _finish(self, name: str, body: _Body, index: int) -> Optional[Denial]:
        mapping = body.uf.substitution_for(_all_variables(body.items))
        items = [_rename_item(item, mapping) for item in body.items]
        simplified: list = []
        for item in items:
            if isinstance(item, Builtin):
                ground = item.evaluate_if_ground()
                if ground is True:
                    continue  # trivially satisfied: drop the literal
                if ground is False:
                    return None  # body unsatisfiable: contributes no denial
            simplified.append(item)
        if not any(isinstance(i, Atom) and not i.negated for i in simplified):
            raise AssertionDefinitionError(
                f"assertion {name!r}: a denial branch has no positive "
                "relation — the condition is not range-restricted"
            )
        denial_name = name if index == 1 else f"{name}_b{index}"
        return Denial(denial_name, tuple(simplified))


# ---------------------------------------------------------------------------
# helpers


def _branches(query: n.Query) -> tuple[n.Select, ...]:
    return query.selects if isinstance(query, n.Union) else (query,)


def _normalize_not(expr: n.Expr) -> n.Expr:
    """Push NOT inward one step so conditions normalize."""
    if not isinstance(expr, n.Not):
        return expr
    inner = expr.item
    if isinstance(inner, n.Not):
        return _normalize_not(inner.item)
    if isinstance(inner, n.Comparison):
        from ..logic.literals import negate_comparison_op

        return n.Comparison(negate_comparison_op(inner.op), inner.left, inner.right)
    if isinstance(inner, n.Exists):
        return n.Exists(inner.query, negated=not inner.negated)
    if isinstance(inner, n.InSubquery):
        return n.InSubquery(inner.item, inner.query, negated=not inner.negated)
    if isinstance(inner, n.InList):
        return n.InList(inner.item, inner.values, negated=not inner.negated)
    if isinstance(inner, n.And):
        return n.Or(tuple(n.Not(i) for i in inner.items))
    if isinstance(inner, n.Or):
        return n.And(tuple(n.Not(i) for i in inner.items))
    return expr


def _in_as_exists(expr: n.InSubquery, subject) -> n.Query:
    """Rewrite ``x IN (SELECT c FROM ...)`` as an EXISTS query whose WHERE
    gains ``c = x`` (as an AST equality on the original expressions)."""
    branches = []
    for select in _branches(expr.query):
        if len(select.items) != 1 or isinstance(select.items[0], n.Star):
            raise AssertionDefinitionError(
                "IN subquery must select exactly one column"
            )
        out = select.items[0].expr
        condition = n.Comparison("=", out, expr.item)
        branches.append(
            n.Select(
                items=(n.Star(),),
                from_items=select.from_items,
                where=n.conjoin(n.conjuncts(select.where) + [condition]),
                distinct=False,
            )
        )
    if len(branches) == 1:
        return branches[0]
    return n.Union(tuple(branches), all=False)


def _all_variables(items) -> set[Variable]:
    result: set[Variable] = set()
    for item in items:
        result |= item.variables()
    return result


def _rename_item(item, mapping):
    return item.rename(mapping) if mapping else item


# -- join structure ----------------------------------------------------------
#
# Whether one shard can check a denial against only its own rows is a
# *static* property of the denial: the compiler's union-find has
# already forced every equi-correlated column — across any nesting
# depth — onto one shared Variable, so a variable's occurrence list IS
# the set of columns through which rows of different atoms meet in one
# witness.  ``derive_coupling`` exposes that join structure; the shard
# router's co-location check (``ShardConfig.require_local``) reads it.


@dataclass(frozen=True)
class CouplingSpec:
    """The join structure of one denial.

    ``atoms`` — the table of each atom, positive or negated at any
    depth, by atom index.

    ``keyspaces`` — one entry per variable shared by two or more atoms:
    its occurrences as ``(atom index, column position)``.  Rows of two
    atoms meet in a witness only by agreeing on such a variable.

    ``wildcard_pairs`` — table pairs whose atoms can share a witness
    with no comparable key: related only through an inequality builtin,
    or a plain cross product (disconnected components of the join
    graph).
    """

    denial: str
    atoms: tuple[str, ...]
    keyspaces: tuple[tuple[tuple[int, int], ...], ...]
    wildcard_pairs: tuple[tuple[str, str], ...]


def derive_coupling(denials) -> tuple[CouplingSpec, ...]:
    """The join structure of every denial (see :class:`CouplingSpec`)."""
    specs = []
    for denial in denials:
        atoms: list[Atom] = []
        builtins: list[Builtin] = []
        _collect_literals(denial.body, atoms, builtins)
        tables = tuple(_norm(atom.predicate.name) for atom in atoms)

        #: variable -> {(atom index, position)}
        occurrences: dict[Variable, set] = {}
        for index, atom in enumerate(atoms):
            for position, term in enumerate(atom.terms):
                if isinstance(term, Variable):
                    occurrences.setdefault(term, set()).add((index, position))

        keyspaces = tuple(
            tuple(sorted(occurrences[var]))
            for var in sorted(occurrences, key=lambda v: v.name)
            if len({index for index, _ in occurrences[var]}) > 1
        )
        specs.append(
            CouplingSpec(
                denial=denial.name,
                atoms=tables,
                keyspaces=keyspaces,
                wildcard_pairs=_wildcard_pairs(tables, builtins, occurrences),
            )
        )
    return tuple(specs)


def _collect_literals(items, atoms: list, builtins: list):
    for item in items:
        if isinstance(item, Builtin):
            builtins.append(item)
        elif isinstance(item, NegatedConjunction):
            _collect_literals(item.items, atoms, builtins)
        elif isinstance(item, Atom):
            atoms.append(item)


def _wildcard_pairs(atoms, builtins, occurrences) -> tuple[tuple[str, str], ...]:
    """Table pairs with no shared (value-comparable) variable that can
    still share a witness: linked by a builtin, or a plain cross
    product (disconnected components of the join graph).  ``atoms`` is
    the table of each atom by index."""
    tables = sorted(set(atoms))
    if len(tables) < 2:
        return ()
    var_tables = {
        var: {atoms[index] for index, _ in occs}
        for var, occs in occurrences.items()
    }
    shared: set[tuple[str, str]] = set()
    for linked in var_tables.values():
        shared.update(_pairs(linked))

    # connectivity over shared-var edges plus builtin edges
    parent = {t: t for t in tables}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def union(a, b):
        parent[find(a)] = find(b)

    builtin_pairs: set[tuple[str, str]] = set()
    for builtin in builtins:
        span = set()
        for var in builtin.variables():
            span |= var_tables.get(var, set())
        builtin_pairs.update(_pairs(sorted(span)))
    for a, b in shared | builtin_pairs:
        union(a, b)

    wildcards = {pair for pair in builtin_pairs if pair not in shared}
    for a, b in _pairs(tables):
        if find(a) != find(b):
            wildcards.add((a, b))
    return tuple(sorted(wildcards))


def _pairs(items):
    items = sorted(set(items))
    return {
        (a, b) for i, a in enumerate(items) for b in items[i + 1 :]
    }


def _norm(name: str) -> str:
    return name.lower()
