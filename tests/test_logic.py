"""Unit tests for the logic layer (terms, literals, denials, rules)."""

import pytest

from repro.errors import LogicError, SafetyError
from repro.logic import (
    BASE,
    DEL,
    DERIVED,
    INS,
    Atom,
    Builtin,
    Constant,
    Denial,
    DerivedPredicate,
    Predicate,
    Rule,
    Variable,
    VariableFactory,
    collect_predicates,
    substitute_all,
)

O = Variable("o")
L = Variable("l")
ORDER = Predicate("order")
LINEIT = Predicate("lineIt")


class TestTerms:
    def test_variable_identity(self):
        assert Variable("x") == Variable("x")
        assert Variable("x") != Variable("y")

    def test_constant(self):
        assert Constant(5) == Constant(5)
        assert str(Constant("a")) == "'a'"
        assert str(Constant(5)) == "5"

    def test_fresh_variables_never_collide(self):
        factory = VariableFactory()
        names = {factory.fresh().name for _ in range(100)}
        assert len(names) == 100

    def test_fresh_with_hint(self):
        factory = VariableFactory()
        v = factory.fresh("orderkey")
        assert v.name.startswith("orderkey")

    def test_substitute_all(self):
        mapping = {O: L}
        assert substitute_all((O, Constant(1)), mapping) == (L, Constant(1))


class TestPredicatesAndAtoms:
    def test_predicate_display_uses_paper_notation(self):
        assert Predicate("order", INS).display == "ιorder"
        assert Predicate("order", DEL).display == "δorder"
        assert Predicate("order", BASE).display == "order"

    def test_predicate_sql_table(self):
        assert Predicate("order", INS).sql_table() == "ins_order"
        assert Predicate("order", DEL).sql_table() == "del_order"
        assert Predicate("order", BASE).sql_table() == "order"

    def test_unknown_kind_rejected(self):
        with pytest.raises(LogicError):
            Predicate("p", "bogus")

    def test_atom_str(self):
        atom = Atom(LINEIT, (L, O), negated=True)
        assert str(atom) == "¬lineIt(l, o)"

    def test_atom_negate(self):
        atom = Atom(ORDER, (O,))
        assert atom.negate().negated
        assert atom.negate().negate() == atom

    def test_atom_variables(self):
        atom = Atom(LINEIT, (L, Constant(1)))
        assert atom.variables() == {L}

    def test_atom_rename(self):
        atom = Atom(LINEIT, (L, O))
        renamed = atom.rename({L: Variable("z")})
        assert renamed.terms == (Variable("z"), O)

    def test_atom_invalid_term_rejected(self):
        with pytest.raises(LogicError):
            Atom(ORDER, ("not-a-term",))


class TestBuiltins:
    def test_negate_flips_operator(self):
        b = Builtin("<", O, Constant(5))
        assert b.negate() == Builtin(">=", O, Constant(5))

    def test_double_negation_identity(self):
        for op in ("=", "<>", "<", "<=", ">", ">="):
            b = Builtin(op, O, L)
            assert b.negate().negate() == b

    def test_unknown_operator_rejected(self):
        with pytest.raises(LogicError):
            Builtin("~", O, L)

    def test_evaluate_if_ground(self):
        assert Builtin("<", Constant(1), Constant(2)).evaluate_if_ground() is True
        assert Builtin("=", Constant(1), Constant(2)).evaluate_if_ground() is False
        assert Builtin("=", O, Constant(2)).evaluate_if_ground() is None

    def test_builtin_variables(self):
        assert Builtin("=", O, L).variables() == {O, L}
        assert Builtin("=", Constant(1), L).variables() == {L}


class TestDenials:
    def test_running_example_denial(self):
        denial = Denial(
            "atLeastOneLineItem",
            (Atom(ORDER, (O,)), Atom(LINEIT, (L, O), negated=True)),
        )
        assert str(denial) == "order(o) ∧ ¬lineIt(l, o) → ⊥"
        assert len(denial.positive_atoms) == 1
        assert [l for l in denial.body if isinstance(l, Atom) and l.negated] == [
            Atom(LINEIT, (L, O), negated=True)
        ]
        assert denial.variables() == {O, L}

    def test_empty_body_rejected(self):
        with pytest.raises(LogicError):
            Denial("bad", ())

    def test_no_positive_literal_rejected(self):
        with pytest.raises(SafetyError):
            Denial("bad", (Atom(ORDER, (O,), negated=True),))

    def test_unsafe_builtin_rejected(self):
        # variable in builtin not bound by any positive atom
        with pytest.raises(SafetyError):
            Denial("bad", (Atom(ORDER, (O,)), Builtin("<", L, Constant(5))))

    def test_builtin_over_positive_vars_ok(self):
        denial = Denial(
            "ok", (Atom(ORDER, (O,)), Builtin(">", O, Constant(5)))
        )
        assert len(denial.builtins) == 1

    def test_collect_predicates(self):
        denial = Denial(
            "x",
            (Atom(ORDER, (O,)), Atom(LINEIT, (L, O), negated=True)),
        )
        assert collect_predicates(denial.body) == {ORDER, LINEIT}


class TestRulesAndDerived:
    AUX = Predicate("aux", DERIVED)

    def test_paper_aux_rules(self):
        # aux(o) <- ιlineIt(l, o);  aux(o) <- lineIt(l, o) ∧ ¬δlineIt(l, o)
        r1 = Rule(
            Atom(self.AUX, (O,)),
            (Atom(Predicate("lineIt", INS), (L, O)),),
        )
        r2 = Rule(
            Atom(self.AUX, (O,)),
            (
                Atom(LINEIT, (L, O)),
                Atom(Predicate("lineIt", DEL), (L, O), negated=True),
            ),
        )
        derived = DerivedPredicate(self.AUX, (r1, r2))
        assert derived.arity == 1
        assert "ιlineIt" in str(derived)
        assert "¬δlineIt" in str(derived)

    def test_unbound_head_variable_rejected(self):
        with pytest.raises(SafetyError):
            Rule(Atom(self.AUX, (O,)), (Atom(LINEIT, (L, L)),))

    def test_negated_head_rejected(self):
        with pytest.raises(LogicError):
            Rule(Atom(self.AUX, (O,), negated=True), (Atom(ORDER, (O,)),))

    def test_empty_rule_body_rejected(self):
        with pytest.raises(LogicError):
            Rule(Atom(self.AUX, ()), ())

    def test_derived_requires_derived_kind(self):
        with pytest.raises(LogicError):
            DerivedPredicate(ORDER, (Rule(Atom(ORDER, (O,)), (Atom(LINEIT, (L, O)),)),))

    def test_mismatched_rule_head_rejected(self):
        other = Predicate("other", DERIVED)
        rule = Rule(Atom(other, (O,)), (Atom(ORDER, (O,)),))
        with pytest.raises(LogicError):
            DerivedPredicate(self.AUX, (rule,))

    def test_no_rules_rejected(self):
        with pytest.raises(LogicError):
            DerivedPredicate(self.AUX, ())

    def test_mixed_arity_rules_rejected(self):
        r1 = Rule(Atom(self.AUX, (O,)), (Atom(ORDER, (O,)),))
        r2 = Rule(Atom(self.AUX, (O, L)), (Atom(LINEIT, (L, O)),))
        with pytest.raises(LogicError):
            DerivedPredicate(self.AUX, (r1, r2))
