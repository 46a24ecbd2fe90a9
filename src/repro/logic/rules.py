"""Denials and derived-predicate rules.

A **denial** is a rule ``L1 ∧ ... ∧ Ln → ⊥`` stating a condition that
must never hold.  A **derived predicate** (the paper's ``aux``) is
defined by one or more rules ``aux(x̄) ← body``; EDC generation
introduces these to express "the negated relation is empty in the new
state" for negations with existential variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..errors import LogicError, SafetyError
from .literals import Atom, Builtin, Literal, NegatedConjunction, Predicate
from .terms import Constant, Term, Variable


def _check_safety(context: str, body: tuple[Literal, ...]) -> None:
    """Range restriction: every variable in a negated atom or builtin
    must also occur in a positive atom of the same body."""
    positive_vars: set[Variable] = set()
    for literal in body:
        if isinstance(literal, Atom) and not literal.negated:
            positive_vars |= literal.variables()
    for literal in body:
        if isinstance(literal, Builtin):
            unsafe = literal.variables() - positive_vars
            if unsafe:
                raise SafetyError(
                    f"{context}: variables {sorted(v.name for v in unsafe)} in "
                    f"built-in {literal} do not occur in any positive literal"
                )
    # Negated atoms may contain *extra* (existential) variables — those are
    # quantified inside the negation.  But at least the connection to the
    # rest of the rule must be through positive variables or constants;
    # a fully disconnected negated atom over unbound shared names is fine
    # logically, so no further check is needed here.


@dataclass(frozen=True)
class Denial:
    """``body → ⊥``: the body must never be satisfiable."""

    name: str
    body: tuple[Literal, ...]

    def __post_init__(self):
        if not self.body:
            raise LogicError(f"denial {self.name!r} has an empty body")
        if not any(isinstance(l, Atom) and not l.negated for l in self.body):
            raise SafetyError(
                f"denial {self.name!r} has no positive literal — the "
                "condition is not range-restricted (TINTIN's fragment "
                "requires assertions of the form NOT EXISTS (query))"
            )
        _check_safety(f"denial {self.name!r}", self.body)

    @property
    def positive_atoms(self) -> tuple[Atom, ...]:
        return tuple(
            l for l in self.body if isinstance(l, Atom) and not l.negated
        )

    @property
    def negated_conjunctions(self) -> tuple[NegatedConjunction, ...]:
        return tuple(l for l in self.body if isinstance(l, NegatedConjunction))

    @property
    def builtins(self) -> tuple[Builtin, ...]:
        return tuple(l for l in self.body if isinstance(l, Builtin))

    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for literal in self.body:
            result |= literal.variables()
        return result

    def __str__(self) -> str:
        return " ∧ ".join(str(l) for l in self.body) + " → ⊥"


@dataclass(frozen=True)
class Rule:
    """One defining rule of a derived predicate: ``head ← body``.

    ``parameterized`` rules are evaluated only under correlation (the
    head variables arrive as parameters from the enclosing query), so
    head variables need not be bound by the body's positive atoms.
    TINTIN's aux predicates are parameterized.
    """

    head: Atom
    body: tuple[Literal, ...]
    parameterized: bool = False

    def __post_init__(self):
        if self.head.negated:
            raise LogicError("rule head cannot be negated")
        if not self.body:
            raise LogicError(f"rule for {self.head.predicate.name!r} has empty body")
        if self.parameterized:
            return
        _check_safety(f"rule {self.head.predicate.name!r}", self.body)
        head_vars = self.head.variables()
        positive_vars: set[Variable] = set()
        for literal in self.body:
            if isinstance(literal, Atom) and not literal.negated:
                positive_vars |= literal.variables()
        unsafe = head_vars - positive_vars
        if unsafe:
            raise SafetyError(
                f"rule for {self.head.predicate.name!r}: head variables "
                f"{sorted(v.name for v in unsafe)} not bound in body"
            )

    def __str__(self) -> str:
        return f"{self.head} ← " + " ∧ ".join(str(l) for l in self.body)


@dataclass(frozen=True)
class DerivedPredicate:
    """A derived predicate with its defining rules (a small IDB)."""

    predicate: Predicate
    rules: tuple[Rule, ...]

    def __post_init__(self):
        if self.predicate.kind != "derived":
            raise LogicError(
                f"derived predicate {self.predicate.name!r} must have kind 'derived'"
            )
        if not self.rules:
            raise LogicError(
                f"derived predicate {self.predicate.name!r} has no rules"
            )
        for rule in self.rules:
            if rule.head.predicate != self.predicate:
                raise LogicError(
                    f"rule head {rule.head.predicate.name!r} does not match "
                    f"derived predicate {self.predicate.name!r}"
                )
            if rule.head.arity != self.rules[0].head.arity:
                raise LogicError(
                    f"derived predicate {self.predicate.name!r} has rules of "
                    "different arities"
                )

    @property
    def arity(self) -> int:
        return self.rules[0].head.arity

    def __str__(self) -> str:
        return "; ".join(str(rule) for rule in self.rules)


def collect_predicates(body: Iterable[Literal]) -> set[Predicate]:
    """All predicate symbols appearing in a body (recursing into
    negated conjunctions)."""
    result: set[Predicate] = set()
    for literal in body:
        if isinstance(literal, Atom):
            result.add(literal.predicate)
        elif isinstance(literal, NegatedConjunction):
            result |= collect_predicates(literal.items)
    return result
