"""Tests for denial -> EDC generation, pinned to the paper's running
example (EDCs 4-6 and the aux rules of §2)."""

import pytest

from repro.core import Assertion, DenialCompiler, EDCGenerator
from repro.core.edc_generator import _Mode
from repro.errors import CompilationError
from repro.logic import Atom, Builtin, NegatedConjunction, Predicate
from repro.logic.literals import BASE, DEL, DERIVED, INS
from repro.minidb import Database


@pytest.fixture
def db():
    database = Database("tpc")
    database.execute(
        "CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, o_custkey INTEGER)"
    )
    database.execute(
        "CREATE TABLE lineitem (l_orderkey INTEGER NOT NULL, "
        "l_linenumber INTEGER NOT NULL, l_quantity INTEGER, "
        "PRIMARY KEY (l_orderkey, l_linenumber), "
        "FOREIGN KEY (l_orderkey) REFERENCES orders (o_orderkey))"
    )
    return database


def generate(db, sql):
    assertion = Assertion.parse(sql)
    denials = DenialCompiler(db.catalog).compile(assertion)
    generator = EDCGenerator()
    all_edcs, all_aux = [], []
    for denial in denials:
        edcs, aux = generator.generate(denial)
        all_edcs.extend(edcs)
        all_aux.extend(aux)
    return all_edcs, all_aux


def kinds_of(edc):
    """Multiset of (predicate kind, name, negated) in the EDC body."""
    result = []
    for literal in edc.body:
        if isinstance(literal, Atom):
            result.append((literal.predicate.kind, literal.predicate.name, literal.negated))
        elif isinstance(literal, NegatedConjunction):
            atom = literal.atoms[0]
            result.append(("nc-" + atom.predicate.kind, atom.predicate.name, True))
    return sorted(result)


class TestRunningExampleEDCs:
    SQL = (
        "CREATE ASSERTION atLeastOneLineItem CHECK (NOT EXISTS ("
        "SELECT * FROM orders AS o WHERE NOT EXISTS ("
        "SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey)))"
    )

    def test_exactly_three_edcs_before_optimization(self, db):
        edcs, _ = generate(db, self.SQL)
        assert len(edcs) == 3

    def test_edc4_insert_order_no_lineitem(self, db):
        """Paper EDC 4: ιorder(o) ∧ ¬lineIt(l,o) ∧ ¬ιlineIt(l,o)."""
        edcs, _ = generate(db, self.SQL)
        shapes = [kinds_of(e) for e in edcs]
        expected = sorted(
            [
                ("ins", "orders", False),
                ("nc-base", "lineitem", True),
                ("nc-ins", "lineitem", True),
            ]
        )
        assert expected in shapes

    def test_edc5_insert_order_delete_lineitem(self, db):
        """Paper EDC 5: ιorder(o) ∧ δlineIt(l,o) ∧ ¬aux(o)."""
        edcs, _ = generate(db, self.SQL)
        shapes = [kinds_of(e) for e in edcs]
        expected = sorted(
            [
                ("ins", "orders", False),
                ("del", "lineitem", False),
                ("derived", "atLeastOneLineItem_aux1", True),
            ]
        )
        assert expected in shapes

    def test_edc6_old_order_delete_lineitem(self, db):
        """Paper EDC 6: order(o) ∧ ¬δorder(o) ∧ δlineIt(l,o) ∧ ¬aux(o)."""
        edcs, _ = generate(db, self.SQL)
        shapes = [kinds_of(e) for e in edcs]
        expected = sorted(
            [
                ("base", "orders", False),
                ("del", "orders", True),
                ("del", "lineitem", False),
                ("derived", "atLeastOneLineItem_aux1", True),
            ]
        )
        assert expected in shapes

    def test_aux_rules_match_paper(self, db):
        """aux(o) ← ιlineIt(l,o);  aux(o) ← lineIt(l,o) ∧ ¬δlineIt(l,o)."""
        _, aux = generate(db, self.SQL)
        assert len(aux) == 1
        predicate = aux[0]
        assert predicate.arity == 1
        assert len(predicate.rules) == 2
        r_ins, r_stay = predicate.rules
        assert [a.predicate.kind for a in r_ins.body] == [INS]
        kinds = [(a.predicate.kind, a.negated) for a in r_stay.body]
        assert kinds == [(BASE, False), (DEL, True)]
        # the head variable is the shared order key, first term of each body atom
        head_var = predicate.rules[0].head.terms[0]
        assert r_ins.body[0].terms[0] == head_var
        assert r_stay.body[0].terms[0] == head_var

    def test_aux_shared_across_edcs(self, db):
        edcs, aux = generate(db, self.SQL)
        aux_names = {
            l.predicate.name
            for e in edcs
            for l in e.body
            if isinstance(l, Atom) and l.predicate.kind == DERIVED
        }
        assert aux_names == {aux[0].predicate.name}

    def test_event_tables_metadata(self, db):
        edcs, _ = generate(db, self.SQL)
        tables = sorted(tuple(sorted(e.event_tables)) for e in edcs)
        assert tables == [
            ("del_lineitem",),
            ("del_lineitem", "ins_orders"),
            ("ins_orders",),
        ]


class TestSimpleCases:
    def test_single_positive_atom_gives_one_edc(self, db):
        edcs, aux = generate(
            db,
            "CREATE ASSERTION q CHECK (NOT EXISTS ("
            "SELECT * FROM lineitem AS l WHERE l.l_quantity > 100))",
        )
        # only the insertion mode survives (all-no-event dropped)
        assert len(edcs) == 1
        assert aux == []
        assert edcs[0].event_tables == ("ins_lineitem",)
        # builtins carried over
        assert any(isinstance(l, Builtin) for l in edcs[0].body)

    def test_join_of_two_atoms_gives_three_edcs(self, db):
        edcs, _ = generate(
            db,
            "CREATE ASSERTION j CHECK (NOT EXISTS ("
            "SELECT * FROM orders AS o, lineitem AS l "
            "WHERE o.o_orderkey = l.l_orderkey AND l.l_quantity > 50))",
        )
        assert len(edcs) == 3  # 2^2 - 1

    def test_negation_without_existentials_needs_no_aux(self, db):
        # FK-style inclusion: every lineitem has its order; the negated
        # atom's variables are all bound except o_custkey (existential)
        edcs, aux = generate(
            db,
            "CREATE ASSERTION fk CHECK (NOT EXISTS ("
            "SELECT * FROM lineitem AS l WHERE NOT EXISTS ("
            "SELECT * FROM orders AS o WHERE o.o_orderkey = l.l_orderkey)))",
        )
        # o_custkey is existential -> aux IS needed here
        assert len(aux) == 1

    def test_builtins_appear_in_every_edc(self, db):
        edcs, _ = generate(
            db,
            "CREATE ASSERTION b CHECK (NOT EXISTS ("
            "SELECT * FROM orders AS o, lineitem AS l "
            "WHERE o.o_orderkey = l.l_orderkey AND l.l_quantity > 50))",
        )
        for edc in edcs:
            assert any(isinstance(l, Builtin) for l in edc.body)

    def test_edc_names_follow_paper_convention(self, db):
        edcs, _ = generate(
            db,
            "CREATE ASSERTION named CHECK (NOT EXISTS ("
            "SELECT * FROM orders AS o, lineitem AS l "
            "WHERE o.o_orderkey = l.l_orderkey))",
        )
        assert [e.name for e in edcs] == ["named1", "named2", "named3"]


class TestComplexNegation:
    SQL = (
        "CREATE ASSERTION deep CHECK (NOT EXISTS ("
        "SELECT * FROM orders AS o WHERE NOT EXISTS ("
        "SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey "
        "AND NOT EXISTS (SELECT * FROM lineitem AS m "
        "WHERE m.l_orderkey = l.l_orderkey AND m.l_quantity > l.l_quantity))))"
    )

    def test_complex_negation_uses_guard(self, db):
        edcs, aux = generate(db, self.SQL)
        guarded = [e for e in edcs if e.guard is not None]
        assert guarded
        guard_tables = set(guarded[0].guard_tables)
        assert guard_tables == {"ins_lineitem", "del_lineitem"}

    def test_complex_negation_builds_nested_aux(self, db):
        _, aux = generate(db, self.SQL)
        # one aux for the outer conjunction, one for the nested negation
        assert len(aux) == 2

    def test_new_state_expansion_rule_count(self, db):
        _, aux = generate(db, self.SQL)
        outer = max(aux, key=lambda a: len(a.rules))
        # outer conjunction has one atom (2 branches) x nested negation (1)
        assert len(outer.rules) == 2


def test_a_negated_insertion_atom_is_refused(db, monkeypatch):
    """The SQL generator's key match for ``¬δT`` would be unsound for
    ``¬ιT``, so the generator refuses to emit one."""

    def stays_as_negated_insert(atom):
        negated_ins = Atom(Predicate(atom.predicate.name, INS), atom.terms, negated=True)
        return [
            _Mode((Atom(Predicate(atom.predicate.name, INS), atom.terms),), True),
            _Mode((atom, negated_ins), False),
        ]

    monkeypatch.setattr(
        EDCGenerator, "_positive_modes", staticmethod(stays_as_negated_insert)
    )
    with pytest.raises(CompilationError, match="negated insertion"):
        generate(db, TestRunningExampleEDCs.SQL)
