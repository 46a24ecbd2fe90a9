"""Tests for EDC -> SQL view generation."""

import pytest

from repro.core import Assertion, DenialCompiler, EDCGenerator, SQLGenerator
from repro.core.edc import EDC, EventGuard
from repro.errors import CompilationError
from repro.logic import Atom, Builtin, Constant, Predicate, Variable
from repro.logic.literals import DEL, INS
from repro.minidb import Database
from repro.sqlparser import parse_query, print_query

O = Variable("o")
C = Variable("c")


@pytest.fixture
def db():
    database = Database("tpc")
    database.execute(
        "CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, o_custkey INTEGER)"
    )
    database.execute(
        "CREATE TABLE lineitem (l_orderkey INTEGER NOT NULL, "
        "l_linenumber INTEGER NOT NULL, l_quantity INTEGER, "
        "PRIMARY KEY (l_orderkey, l_linenumber))"
    )
    # event tables (normally created by EventTableManager)
    for base in ("orders", "lineitem"):
        for prefix in ("ins", "del"):
            columns = database.table(base).schema
            ddl_cols = ", ".join(
                f"{c.name} {c.sql_type}" for c in columns.columns
            )
            database.execute(f"CREATE TABLE {prefix}_{base} ({ddl_cols})")
    return database


def views_for(db, sql):
    assertion = Assertion.parse(sql)
    denials = DenialCompiler(db.catalog).compile(assertion)
    generator = EDCGenerator()
    sql_gen = SQLGenerator(db.catalog)
    texts = []
    for denial in denials:
        edcs, _ = generator.generate(denial)
        for edc in edcs:
            texts.append(print_query(sql_gen.edc_query(edc)))
    return texts


class TestGeneratedSQL:
    def test_paper_view_text(self, db):
        """The insertion EDC of the running example must produce the
        paper's exact query shape (§2's atLeastOneLineItem1 view)."""
        texts = views_for(
            db,
            "CREATE ASSERTION a CHECK (NOT EXISTS ("
            "SELECT * FROM orders AS o WHERE NOT EXISTS ("
            "SELECT * FROM lineitem AS l "
            "WHERE l.l_orderkey = o.o_orderkey)))",
        )
        # without the optimizer, both EDC4 and EDC5 reference ins_orders;
        # EDC4 is the one whose FROM is ins_orders alone
        ins_views = [
            t for t in texts if t.startswith("SELECT * FROM ins_orders AS T0 WHERE")
        ]
        assert len(ins_views) == 1
        text = ins_views[0]
        assert "NOT EXISTS (SELECT * FROM lineitem AS" in text
        assert "NOT EXISTS (SELECT * FROM ins_lineitem AS" in text
        # correlation is on the order key only
        assert text.count("l_orderkey = T0.o_orderkey") == 2

    def test_generated_sql_parses_back(self, db):
        texts = views_for(
            db,
            "CREATE ASSERTION a CHECK (NOT EXISTS ("
            "SELECT * FROM orders AS o, lineitem AS l "
            "WHERE o.o_orderkey = l.l_orderkey AND l.l_quantity > 5))",
        )
        for text in texts:
            parse_query(text)  # must be valid standard SQL

    def test_event_tables_come_first_in_from(self, db):
        texts = views_for(
            db,
            "CREATE ASSERTION a CHECK (NOT EXISTS ("
            "SELECT * FROM orders AS o, lineitem AS l "
            "WHERE o.o_orderkey = l.l_orderkey))",
        )
        for text in texts:
            first_table = text.split("FROM ")[1].split(" ")[0]
            assert first_table.startswith(("ins_", "del_")), text

    def test_constants_become_where_conditions(self, db):
        texts = views_for(
            db,
            "CREATE ASSERTION a CHECK (NOT EXISTS ("
            "SELECT * FROM orders AS o WHERE o.o_custkey = 7))",
        )
        assert any("o_custkey = 7" in t for t in texts)

    def test_builtin_comparisons_rendered(self, db):
        texts = views_for(
            db,
            "CREATE ASSERTION a CHECK (NOT EXISTS ("
            "SELECT * FROM lineitem AS l WHERE l.l_quantity > 100))",
        )
        assert any("l_quantity > 100" in t for t in texts)

    def test_aux_expansion_is_per_rule(self, db):
        texts = views_for(
            db,
            "CREATE ASSERTION a CHECK (NOT EXISTS ("
            "SELECT * FROM orders AS o WHERE NOT EXISTS ("
            "SELECT * FROM lineitem AS l "
            "WHERE l.l_orderkey = o.o_orderkey)))",
        )
        # the deletion EDCs render ¬aux as two NOT EXISTS (one per rule:
        # ins-branch, survive-branch with nested ¬del)
        deletion_views = [t for t in texts if "del_lineitem" in t]
        assert deletion_views
        for text in deletion_views:
            assert "ins_lineitem" in text
            assert text.count("NOT EXISTS") >= 2

    def test_guard_renders_as_exists_disjunction(self, db):
        guard = EventGuard(
            (Predicate("lineitem", INS), Predicate("lineitem", DEL))
        )
        ins = Atom(Predicate("orders", INS), (O, C))
        edc = EDC("g1", "g", (ins, guard))
        text = print_query(SQLGenerator(db.catalog).edc_query(edc))
        assert "EXISTS (SELECT * FROM ins_lineitem" in text
        assert "EXISTS (SELECT * FROM del_lineitem" in text
        assert " OR " in text

    def test_negated_deletion_matches_the_bound_primary_key(self, db):
        """``T(x̄) ∧ ¬δT(x̄)`` compares ``δT`` on T's primary key only
        (a whole-row ``=`` is unknown on a NULL column); a keyless
        table, or a key the atom leaves unbound, compares every bound
        column."""
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        stays = (
            Atom(Predicate("lineitem", "base"), (x, y, z)),
            Atom(Predicate("lineitem", DEL), (x, y, z), negated=True),
        )
        text = print_query(SQLGenerator(db.catalog).edc_query(EDC("x1", "x", stays)))
        inner = text[text.index("FROM del_lineitem"):]
        assert "l_orderkey = T0.l_orderkey" in inner
        assert "l_linenumber = T0.l_linenumber" in inner
        assert "l_quantity" not in inner
        unbound = (
            Atom(Predicate("orders", INS), (x, z)),
            Atom(Predicate("lineitem", DEL), (x, y, z), negated=True),
        )
        text = print_query(SQLGenerator(db.catalog).edc_query(EDC("x2", "x", unbound)))
        inner = text[text.index("FROM del_lineitem"):]
        assert "l_orderkey = T0.o_orderkey" in inner
        assert "l_quantity = T0.o_custkey" in inner
        assert "l_linenumber" not in inner

    def test_missing_positive_literal_rejected(self, db):
        edc = EDC("x1", "x", (Builtin("<", Constant(1), Constant(2)),))
        with pytest.raises(CompilationError, match="positive"):
            SQLGenerator(db.catalog).edc_query(edc)

    def test_unbound_builtin_variable_rejected(self, db):
        ins = Atom(Predicate("orders", INS), (O, C))
        loose = Builtin("<", Variable("zz"), Constant(2))
        edc = EDC("x1", "x", (ins, loose))
        with pytest.raises(CompilationError, match="not bound"):
            SQLGenerator(db.catalog).edc_query(edc)

    def test_arity_mismatch_rejected(self, db):
        bad = Atom(Predicate("orders", INS), (O,))  # orders has 2 columns
        edc = EDC("x1", "x", (bad,))
        with pytest.raises(CompilationError, match="arity"):
            SQLGenerator(db.catalog).edc_query(edc)

    def test_unknown_aux_rejected(self, db):
        ins = Atom(Predicate("orders", INS), (O, C))
        ghost = Atom(Predicate("ghost_aux", "derived"), (O,), negated=True)
        edc = EDC("x1", "x", (ins, ghost), aux=())
        with pytest.raises(CompilationError, match="unknown aux"):
            SQLGenerator(db.catalog).edc_query(edc)

    def test_aliases_are_unique_within_view(self, db):
        texts = views_for(
            db,
            "CREATE ASSERTION a CHECK (NOT EXISTS ("
            "SELECT * FROM orders AS o WHERE NOT EXISTS ("
            "SELECT * FROM lineitem AS l "
            "WHERE l.l_orderkey = o.o_orderkey)))",
        )
        for text in texts:
            aliases = [
                word for word in text.replace("(", " ").split() if word.startswith("T")
                and word[1:].isdigit()
            ]
            # every alias introduction "AS Tn" is unique
            introduced = [
                aliases[i] for i, word in enumerate(aliases)
            ]
            tokens = text.split()
            declared = [
                tokens[i + 1]
                for i, tok in enumerate(tokens)
                if tok == "AS" and i + 1 < len(tokens)
            ]
            assert len(declared) == len(set(declared)), text


class TestAuxViews:
    def test_materializable_aux_becomes_union_view(self, db):
        assertion = Assertion.parse(
            "CREATE ASSERTION a CHECK (NOT EXISTS ("
            "SELECT * FROM orders AS o WHERE NOT EXISTS ("
            "SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey)))"
        )
        denials = DenialCompiler(db.catalog).compile(assertion)
        generator = EDCGenerator()
        sql_gen = SQLGenerator(db.catalog)
        _, aux = generator.generate(denials[0])
        view = sql_gen.aux_view(aux[0])
        assert view is not None
        text = print_query(view.query)
        assert "UNION" in text
        assert "ins_lineitem" in text
        parse_query(text)

    def test_parameterized_only_aux_returns_none(self, db):
        # head param bound only through a built-in comparison
        from repro.logic import DerivedPredicate, Rule
        from repro.logic.literals import DERIVED

        q = Variable("q")
        aux_pred = Predicate("aux_p", DERIVED)
        rule = Rule(
            Atom(aux_pred, (q,)),
            (
                Atom(Predicate("lineitem", INS), (O, C, Variable("qq"))),
                Builtin(">", Variable("qq"), q),
            ),
            parameterized=True,
        )
        aux = DerivedPredicate(aux_pred, (rule,))
        assert SQLGenerator(db.catalog).aux_view(aux) is None
