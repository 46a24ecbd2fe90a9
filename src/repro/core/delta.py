"""Delta-rule derivation: incremental evaluation of guard-mode EDCs.

Every EDC falls into one of two shapes:

* **delta-native** — at least one positive event atom (``ins_T`` /
  ``del_T``).  The compiled view already scales with ``|delta|``: the
  planner orders the tiny event tables first and index-joins the base
  tables, so nothing more is needed.
* **guard-mode** — no positive event atom; the EDC fires on an
  uncorrelated :class:`~repro.core.edc.EventGuard` and re-checks a
  ``¬aux`` condition over *every* parent row.  This is the shape behind
  the ``everyOrderHasMaxItem`` pathology: check cost scales with the
  parent table, not the update.

For guard-mode EDCs this module derives **delta rules**: one seeded
branch per event-table occurrence in the negation closure, each joining
the staged delta keys back to the parent atoms.  The reasoning mirrors
the paper's own treatment of the event-free DNF disjunct — the old
state is assumed consistent, so a parent row can only *become*
violating if the update changed its inner (``aux``) result, and with
every closure occurrence binding at least one parent-correlated column,
only parents reachable from a staged row's key can change.  The seed
(:class:`~repro.minidb.plan.DeltaSeed`) projects and deduplicates those
keys, so the check probes each affected parent once.  Unlike the full
view, a seeded plan would miss a violation the old state already held,
so ``Tintin.add_assertion`` checks that state once when it installs an
assertion with a seeded EDC; every validated commit keeps it.

Fallback rules (the EDC keeps its full plan as the only evaluator):

* more than one :class:`EventGuard` in the body (several independent
  complex negations in event mode — the interaction is not expressible
  as a single seeded join);
* any event-table occurrence in the closure that binds **no** parent
  variable: a staged row there can affect every parent, so pruning by
  key would be unsound;
* aux expansion deeper than :data:`_MAX_DEPTH` (defensive — generated
  aux predicates are acyclic).

Variable scoping during the walk matches
:meth:`repro.core.sql_generator.SQLGenerator._render_negated_aux`: a
rule body sees *only* its head parameters; any other variable — even
the same :class:`~repro.logic.Variable` object reused by the generator
— is a fresh existential inside the rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..logic import Atom, Builtin, NegatedConjunction, Variable
from ..logic.literals import DEL, DERIVED, INS
from ..sqlparser import nodes as n
from .edc import EDC, EventGuard

#: Aux expansion deeper than this aborts derivation.
_MAX_DEPTH = 12


class NotDeltaExpressible(Exception):
    """The EDC's shape cannot be delta-seeded; keep the full plan."""


@dataclass(frozen=True)
class DeltaBranch:
    """One seeded branch of a delta rule.

    ``tables`` are the event tables whose staged rows seed the branch
    (they share the base table's schema); ``mapping`` pairs each parent
    :class:`~repro.logic.Variable` with the event-row column position
    that carries its value.  Occurrences with identical mappings are
    merged; a mapping that is a strict superset of another (same
    tables) is dropped — the coarser key set already covers every
    parent the finer one can reach.
    """

    tables: tuple[str, ...]
    mapping: tuple[tuple[Variable, int], ...]


@dataclass
class DeltaRule:
    """The delta evaluation strategy derived for one EDC."""

    #: ``native`` — the full plan is already |delta|-driven;
    #: ``seeded`` — evaluate ``query`` instead of the full view (the
    #: old state's consistency it assumes is checked at install).
    kind: str
    branches: tuple[DeltaBranch, ...] = ()
    #: the seeded delta query (``None`` for native EDCs)
    query: Optional[n.Query] = None


class DeltaCompiler:
    """Derives :class:`DeltaRule`\\ s from compiled EDCs."""

    def __init__(self, sql_generator):
        self.sql = sql_generator

    def compile(self, edc: EDC) -> Optional[DeltaRule]:
        """The delta rule for ``edc``, or None when it must fall back
        to the full plan."""
        if edc.event_tables:
            return DeltaRule(kind="native")
        guards = [l for l in edc.body if isinstance(l, EventGuard)]
        if len(guards) != 1:
            return None
        try:
            branches = self.derive_branches(edc)
        except NotDeltaExpressible:
            return None
        if not branches:
            return None
        query = self.sql.delta_query(edc, branches)
        return DeltaRule(kind="seeded", branches=branches, query=query)

    # -- occurrence walk ---------------------------------------------------

    def derive_branches(self, edc: EDC) -> tuple[DeltaBranch, ...]:
        """All seeded branches of a guard-mode EDC.

        Raises :class:`NotDeltaExpressible` when any event occurrence
        in the negation closure binds no parent variable.
        """
        parent_vars: set[Variable] = set()
        for atom in edc.positive_atoms:
            parent_vars |= atom.variables()
        aux_index = {a.predicate.name.lower(): a for a in edc.aux}
        #: sql event table -> set of mapping signatures
        per_table: dict[str, set[frozenset]] = {}
        negations = [
            l
            for l in edc.body
            if isinstance(l, NegatedConjunction)
            or (isinstance(l, Atom) and l.negated)
        ]
        self._walk(negations, None, parent_vars, aux_index, per_table, 0)
        return self._branches_from(per_table)

    def _walk(
        self,
        items,
        env: Optional[dict[Variable, Variable]],
        parent_vars: set[Variable],
        aux_index: dict,
        per_table: dict[str, set[frozenset]],
        depth: int,
    ) -> None:
        """Collect event-table occurrence mappings.

        ``env`` is None at the top scope (EDC body: variables resolve
        directly against the parent set) and a head-parameter
        substitution inside aux rules (only substituted variables can
        reach a parent — everything else is a rule-local existential).
        """
        if depth > _MAX_DEPTH:
            raise NotDeltaExpressible("aux expansion too deep")
        for item in items:
            if isinstance(item, Builtin) or isinstance(item, EventGuard):
                continue
            if isinstance(item, NegatedConjunction):
                # shares the enclosing scope (existentials are simply
                # absent from env / the parent set)
                self._walk(
                    item.items, env, parent_vars, aux_index, per_table, depth
                )
                continue
            if not isinstance(item, Atom):  # pragma: no cover - defensive
                raise NotDeltaExpressible(f"unexpected literal {item!r}")
            kind = item.predicate.kind
            if kind == DERIVED:
                aux = aux_index.get(item.predicate.name.lower())
                if aux is None:
                    raise NotDeltaExpressible(
                        f"unknown aux predicate {item.predicate.name!r}"
                    )
                for rule in aux.rules:
                    rule_env: dict[Variable, Variable] = {}
                    for param, arg in zip(rule.head.terms, item.terms):
                        if not isinstance(param, Variable):
                            continue
                        resolved = self._resolve(arg, env, parent_vars)
                        if resolved is not None:
                            rule_env[param] = resolved
                    self._walk(
                        rule.body,
                        rule_env,
                        parent_vars,
                        aux_index,
                        per_table,
                        depth + 1,
                    )
            elif kind in (INS, DEL):
                mapping: dict[Variable, int] = {}
                for position, term in enumerate(item.terms):
                    resolved = self._resolve(term, env, parent_vars)
                    if resolved is not None and resolved not in mapping:
                        mapping[resolved] = position
                if not mapping:
                    raise NotDeltaExpressible(
                        f"event occurrence {item} binds no parent variable"
                    )
                signature = frozenset(mapping.items())
                per_table.setdefault(
                    item.predicate.sql_table().lower(), set()
                ).add(signature)
            # base-kind atoms are static during the check: no branch

    @staticmethod
    def _resolve(
        term,
        env: Optional[dict[Variable, Variable]],
        parent_vars: set[Variable],
    ) -> Optional[Variable]:
        if not isinstance(term, Variable):
            return None
        if env is None:
            return term if term in parent_vars else None
        return env.get(term)

    @staticmethod
    def _branches_from(
        per_table: dict[str, set[frozenset]]
    ) -> tuple[DeltaBranch, ...]:
        """Minimal branches: per table drop dominated signatures, then
        merge tables sharing a signature into one seed."""
        by_signature: dict[frozenset, list[str]] = {}
        for table, signatures in per_table.items():
            minimal = [
                s
                for s in signatures
                if not any(o < s for o in signatures)
            ]
            for signature in minimal:
                by_signature.setdefault(signature, []).append(table)
        branches = []
        for signature, tables in sorted(
            by_signature.items(),
            key=lambda kv: (sorted(kv[1]), sorted((v.name, p) for v, p in kv[0])),
        ):
            mapping = tuple(sorted(signature, key=lambda vp: (vp[1], vp[0].name)))
            branches.append(DeltaBranch(tuple(sorted(tables)), mapping))
        return tuple(branches)
