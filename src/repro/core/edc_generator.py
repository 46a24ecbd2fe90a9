"""Denial -> EDC generation (the paper's second step, eqs. (2)-(3)).

Every literal of a denial is replaced by its evaluation in the new
database state Dⁿ and the result is expanded into disjunctive normal
form over the insertion/deletion event tables.  Each disjunct with at
least one event literal becomes one EDC; the event-free disjunct is
discarded because the old state is assumed consistent.

Literal modes
-------------

Positive atom ``p(t̄)``:
    * event:    ``ιp(t̄)``                     (the tuple is being inserted)
    * no-event: ``p(t̄) ∧ ¬δp(t̄)``           (the old tuple remains)

Simple negation ``¬∃ē (q(t̄) ∧ φ)`` (one atom + builtins):
    * no-event: ``¬∃(q ∧ φ) ∧ ¬∃(ιq ∧ φ)``  (was empty and stays empty)
    * event:    ``δq(t̄) ∧ φ ∧ ¬aux(s̄)``     (a deletion may have emptied it)

      with the paper's aux rules ``aux(s̄) ← ιq ∧ φ`` and
      ``aux(s̄) ← q ∧ ¬δq ∧ φ`` ("something still matches in Dⁿ").
      When the negation has no existential variables the ``¬aux`` is
      implied by event disjointness and omitted.

Complex negation ``¬∃ (c1 ∧ ... ∧ cr)`` (joins or nested negations):
    * no-event: ``¬aux_C(s̄)``
    * event:    ``guard(events on C's tables) ∧ ¬aux_C(s̄)``

      where ``aux_C`` holds the new-state expansion of the whole
      conjunction (one rule per combination of per-atom modes).

This reproduces the running example's EDCs 4-6 verbatim (unit tested).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from ..errors import CompilationError
from ..logic import (
    Atom,
    Builtin,
    Denial,
    DerivedPredicate,
    NegatedConjunction,
    Predicate,
    Rule,
    Variable,
    VariableFactory,
)
from ..logic.literals import BASE, DEL, DERIVED, INS
from .edc import EDC, EventGuard


@dataclass
class _Mode:
    """One way a literal participates in an EDC."""

    items: tuple
    is_event: bool


class EDCGenerator:
    """Generates the EDC set (and aux predicates) of a denial."""

    def __init__(self):
        self._vars = VariableFactory("v")
        self._aux_counter = 0

    def generate(self, denial: Denial) -> tuple[list[EDC], list[DerivedPredicate]]:
        """All EDCs of ``denial`` plus the aux predicates they use."""
        bound_vars = self._positively_bound(denial)
        aux_predicates: list[DerivedPredicate] = []
        literal_modes: list[list[_Mode]] = []
        constant_items: list = []

        for literal in denial.body:
            if isinstance(literal, Builtin):
                constant_items.append(literal)
            elif isinstance(literal, Atom):
                if literal.negated:
                    # normalize: a bare negated atom is a singleton negation
                    conjunction = NegatedConjunction((literal.negate(),))
                    literal_modes.append(
                        self._negation_modes(
                            conjunction, bound_vars, denial.name, aux_predicates
                        )
                    )
                else:
                    literal_modes.append(self._positive_modes(literal))
            elif isinstance(literal, NegatedConjunction):
                literal_modes.append(
                    self._negation_modes(
                        literal, bound_vars, denial.name, aux_predicates
                    )
                )
            else:  # pragma: no cover - defensive
                raise TypeError(f"unexpected literal {literal!r} in denial")

        edcs: list[EDC] = []
        for combo in itertools.product(*literal_modes):
            if not any(mode.is_event for mode in combo):
                continue  # the old state is assumed consistent
            body: list = []
            for mode in combo:
                body.extend(mode.items)
            body.extend(constant_items)
            edcs.append(
                EDC(
                    name=f"{denial.name}{len(edcs) + 1}",
                    assertion=denial.name,
                    body=tuple(body),
                    aux=tuple(aux_predicates),
                )
            )
        _refuse_negated_ins(edc.body for edc in edcs)
        _refuse_negated_ins(
            rule.body for aux in aux_predicates for rule in aux.rules
        )
        return edcs, aux_predicates

    # -- modes ----------------------------------------------------------------

    @staticmethod
    def _positive_modes(atom: Atom) -> list[_Mode]:
        ins = Atom(Predicate(atom.predicate.name, INS), atom.terms)
        stays = (
            atom,
            Atom(Predicate(atom.predicate.name, DEL), atom.terms, negated=True),
        )
        return [_Mode((ins,), True), _Mode(stays, False)]

    def _negation_modes(
        self,
        conjunction: NegatedConjunction,
        bound_vars: set[Variable],
        denial_name: str,
        aux_predicates: list[DerivedPredicate],
    ) -> list[_Mode]:
        if conjunction.is_simple:
            return self._simple_negation_modes(
                conjunction, bound_vars, denial_name, aux_predicates
            )
        return self._complex_negation_modes(
            conjunction, bound_vars, denial_name, aux_predicates
        )

    def _simple_negation_modes(
        self,
        conjunction: NegatedConjunction,
        bound_vars: set[Variable],
        denial_name: str,
        aux_predicates: list[DerivedPredicate],
    ) -> list[_Mode]:
        atom = conjunction.atoms[0]
        builtins = conjunction.builtins
        shared = conjunction.shared_with(bound_vars)
        existentials = conjunction.variables() - set(shared)

        ins_atom = Atom(Predicate(atom.predicate.name, INS), atom.terms)
        no_event = _Mode(
            (
                NegatedConjunction((atom,) + builtins),
                NegatedConjunction((ins_atom,) + builtins),
            ),
            False,
        )

        del_atom = Atom(Predicate(atom.predicate.name, DEL), atom.terms)
        event_items: list = [del_atom, *builtins]
        if existentials:
            aux = self._build_simple_aux(
                conjunction, shared, denial_name, aux_predicates
            )
            event_items.append(
                Atom(aux.predicate, tuple(shared), negated=True)
            )
        event = _Mode(tuple(event_items), True)
        return [event, no_event]

    def _build_simple_aux(
        self,
        conjunction: NegatedConjunction,
        shared: tuple[Variable, ...],
        denial_name: str,
        aux_predicates: list[DerivedPredicate],
    ) -> DerivedPredicate:
        atom = conjunction.atoms[0]
        builtins = conjunction.builtins
        self._aux_counter += 1
        predicate = Predicate(f"{denial_name}_aux{self._aux_counter}", DERIVED)
        head = Atom(predicate, tuple(shared))
        ins_atom = Atom(Predicate(atom.predicate.name, INS), atom.terms)
        del_atom = Atom(
            Predicate(atom.predicate.name, DEL), atom.terms, negated=True
        )
        rules = (
            Rule(head, (ins_atom, *builtins), parameterized=True),
            Rule(head, (atom, del_atom, *builtins), parameterized=True),
        )
        aux = DerivedPredicate(predicate, rules)
        aux_predicates.append(aux)
        return aux

    def _complex_negation_modes(
        self,
        conjunction: NegatedConjunction,
        bound_vars: set[Variable],
        denial_name: str,
        aux_predicates: list[DerivedPredicate],
    ) -> list[_Mode]:
        shared = conjunction.shared_with(bound_vars)
        aux = self._build_complex_aux(
            conjunction, shared, bound_vars, denial_name, aux_predicates
        )
        negated_aux = Atom(aux.predicate, tuple(shared), negated=True)
        guard = EventGuard(self._event_predicates(conjunction))
        return [
            _Mode((guard, negated_aux), True),
            _Mode((negated_aux,), False),
        ]

    def _build_complex_aux(
        self,
        conjunction: NegatedConjunction,
        shared: tuple[Variable, ...],
        bound_vars: set[Variable],
        denial_name: str,
        aux_predicates: list[DerivedPredicate],
    ) -> DerivedPredicate:
        """aux_C(s̄) = "C is satisfiable in the new state Dⁿ": one rule per
        combination of new-state branches of C's atoms."""
        self._aux_counter += 1
        predicate = Predicate(f"{denial_name}_aux{self._aux_counter}", DERIVED)
        head = Atom(predicate, tuple(shared))

        per_item_branches: list[list[tuple]] = []
        inner_bound = bound_vars | conjunction.positive_variables()
        for item in conjunction.items:
            if isinstance(item, Atom):
                ins_branch = (Atom(Predicate(item.predicate.name, INS), item.terms),)
                stay_branch = (
                    item,
                    Atom(
                        Predicate(item.predicate.name, DEL),
                        item.terms,
                        negated=True,
                    ),
                )
                per_item_branches.append([ins_branch, stay_branch])
            elif isinstance(item, Builtin):
                per_item_branches.append([(item,)])
            elif isinstance(item, NegatedConjunction):
                nested_shared = item.shared_with(inner_bound)
                nested_aux = self._build_new_state_aux(
                    item, nested_shared, inner_bound, denial_name, aux_predicates
                )
                per_item_branches.append(
                    [(Atom(nested_aux.predicate, tuple(nested_shared), negated=True),)]
                )
            else:  # pragma: no cover - defensive
                raise TypeError(f"unexpected item {item!r}")

        rules = []
        for combo in itertools.product(*per_item_branches):
            body: list = []
            for branch in combo:
                body.extend(branch)
            rules.append(Rule(head, tuple(body), parameterized=True))
        aux = DerivedPredicate(predicate, tuple(rules))
        aux_predicates.append(aux)
        return aux

    def _build_new_state_aux(
        self,
        conjunction: NegatedConjunction,
        shared: tuple[Variable, ...],
        bound_vars: set[Variable],
        denial_name: str,
        aux_predicates: list[DerivedPredicate],
    ) -> DerivedPredicate:
        """New-state membership aux for a nested negation (any shape)."""
        # the complex construction is valid for simple conjunctions too;
        # reuse it for uniform nesting
        return self._build_complex_aux(
            conjunction, shared, bound_vars, denial_name, aux_predicates
        )

    @staticmethod
    def _event_predicates(conjunction: NegatedConjunction) -> tuple[Predicate, ...]:
        """All ins/del event predicates underlying a conjunction."""
        names: list[str] = []

        def collect(item) -> None:
            if isinstance(item, Atom):
                if item.predicate.name not in names:
                    names.append(item.predicate.name)
            elif isinstance(item, NegatedConjunction):
                for inner in item.items:
                    collect(inner)

        for item in conjunction.items:
            collect(item)
        result: list[Predicate] = []
        for name in names:
            result.append(Predicate(name, INS))
            result.append(Predicate(name, DEL))
        return tuple(result)

    @staticmethod
    def _positively_bound(denial: Denial) -> set[Variable]:
        bound: set[Variable] = set()
        for atom in denial.positive_atoms:
            bound |= atom.variables()
        return bound


def _refuse_negated_ins(bodies) -> None:
    """The generator negates ``DEL`` atoms only: the SQL generator
    matches ``¬δT`` on T's primary key, which is sound because ``δT``
    holds stored rows of T.  ``¬ιT`` under a key match would not be (an
    update puts one key in both ``ιT`` and ``δT``), so one must never
    be emitted."""
    for body in bodies:
        for item in body:
            if isinstance(item, Atom) and item.negated and item.predicate.kind == INS:
                raise CompilationError(
                    f"EDC generation emitted a negated insertion atom {item}"
                )
