"""Planner/executor tests: SELECT semantics end to end."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError, ExecutionError, SchemaError
from repro.minidb import Database

ORDERS = [
    (1, 10, 100.0),
    (2, 20, 200.0),
    (3, 30, 300.0),
    (4, 10, 50.0),
    (5, None, 75.0),
]
ITEMS = [
    (1, 1, 5),
    (1, 2, 7),
    (2, 1, 9),
    (4, 1, 2),
]


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, "
        "o_custkey INTEGER, o_totalprice DOUBLE)"
    )
    database.execute(
        "CREATE TABLE lineitem (l_orderkey INTEGER NOT NULL, "
        "l_linenumber INTEGER NOT NULL, l_quantity INTEGER, "
        "PRIMARY KEY (l_orderkey, l_linenumber))"
    )
    for row in ORDERS:
        database.insert_rows("orders", [row])
    for row in ITEMS:
        database.insert_rows("lineitem", [row])
    return database


class TestBasicSelect:
    def test_select_star(self, db):
        rs = db.query("SELECT * FROM orders")
        assert sorted(rs.rows) == sorted(ORDERS)
        assert rs.columns == ["o_orderkey", "o_custkey", "o_totalprice"]

    def test_projection(self, db):
        rs = db.query("SELECT o_orderkey FROM orders WHERE o_totalprice > 100.0")
        assert sorted(rs.rows) == [(2,), (3,)]

    def test_projection_alias(self, db):
        rs = db.query("SELECT o_orderkey AS k FROM orders WHERE o_orderkey = 1")
        assert rs.columns == ["k"]

    def test_expression_projection(self, db):
        rs = db.query("SELECT o_totalprice * 2 FROM orders WHERE o_orderkey = 1")
        assert rs.rows == [(200.0,)]
        assert rs.columns == ["col1"]

    def test_where_filters_unknown(self, db):
        # o_custkey of order 5 is NULL: comparison is UNKNOWN -> excluded
        rs = db.query("SELECT o_orderkey FROM orders WHERE o_custkey > 0")
        assert sorted(rs.rows) == [(1,), (2,), (3,), (4,)]

    def test_where_is_null(self, db):
        rs = db.query("SELECT o_orderkey FROM orders WHERE o_custkey IS NULL")
        assert rs.rows == [(5,)]

    def test_distinct(self, db):
        rs = db.query("SELECT DISTINCT o_custkey FROM orders WHERE o_custkey = 10")
        assert rs.rows == [(10,)]

    def test_qualified_star(self, db):
        rs = db.query(
            "SELECT o.* FROM orders AS o, lineitem AS l "
            "WHERE o.o_orderkey = l.l_orderkey AND l.l_linenumber = 2"
        )
        assert rs.rows == [(1, 10, 100.0)]

    def test_unknown_table_raises(self, db):
        with pytest.raises(CatalogError):
            db.query("SELECT * FROM ghost")

    def test_unknown_column_raises(self, db):
        with pytest.raises(SchemaError):
            db.query("SELECT nope FROM orders")

    def test_result_set_helpers(self, db):
        rs = db.query("SELECT o_orderkey FROM orders WHERE o_orderkey = 1")
        assert not rs.is_empty
        assert len(rs) == 1
        assert rs.first() == (1,)
        assert rs.column("o_orderkey") == [1]
        with pytest.raises(ExecutionError):
            rs.column("ghost")


class TestJoins:
    def test_comma_join_with_condition(self, db):
        rs = db.query(
            "SELECT o.o_orderkey, l.l_quantity FROM orders AS o, lineitem AS l "
            "WHERE o.o_orderkey = l.l_orderkey"
        )
        assert sorted(rs.rows) == [(1, 5), (1, 7), (2, 9), (4, 2)]

    def test_explicit_join_on(self, db):
        rs = db.query(
            "SELECT o.o_orderkey FROM orders AS o JOIN lineitem AS l "
            "ON o.o_orderkey = l.l_orderkey WHERE l.l_quantity > 6"
        )
        assert sorted(rs.rows) == [(1,), (2,)]

    def test_cross_join(self, db):
        rs = db.query("SELECT o.o_orderkey FROM orders AS o CROSS JOIN lineitem AS l")
        assert len(rs) == len(ORDERS) * len(ITEMS)

    def test_self_join(self, db):
        rs = db.query(
            "SELECT a.o_orderkey, b.o_orderkey FROM orders AS a, orders AS b "
            "WHERE a.o_custkey = b.o_custkey AND a.o_orderkey < b.o_orderkey"
        )
        assert rs.rows == [(1, 4)]

    def test_three_way_join(self, db):
        db.execute("CREATE TABLE customer (c_custkey INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO customer VALUES (10), (20), (30)")
        rs = db.query(
            "SELECT c.c_custkey, l.l_quantity FROM customer AS c, orders AS o, "
            "lineitem AS l WHERE c.c_custkey = o.o_custkey "
            "AND o.o_orderkey = l.l_orderkey AND l.l_linenumber = 1"
        )
        assert sorted(rs.rows) == [(10, 2), (10, 5), (20, 9)]

    def test_null_join_keys_never_match(self, db):
        db.execute("INSERT INTO lineitem VALUES (5, 1, 1)")
        # order 5 has NULL custkey; joining on custkey must not match NULL=NULL
        db.execute("CREATE TABLE k (v INTEGER)")
        db.insert_rows("k", [(None,)])
        rs = db.query(
            "SELECT o.o_orderkey FROM orders AS o, k WHERE o.o_custkey = k.v"
        )
        assert rs.rows == []

    def test_non_equi_join_condition(self, db):
        rs = db.query(
            "SELECT o.o_orderkey, l.l_orderkey FROM orders AS o, lineitem AS l "
            "WHERE o.o_orderkey = l.l_orderkey AND o.o_totalprice > l.l_quantity * 20"
        )
        # order 1: 100.0 is not > 5*20 nor > 7*20; order 2: 200 > 180;
        # order 4: 50 > 40
        assert sorted(rs.rows) == [(2, 2), (4, 4)]

    def test_duplicate_binding_rejected(self, db):
        with pytest.raises(SchemaError):
            db.query("SELECT * FROM orders AS x, lineitem AS x")


class TestSubqueries:
    def test_not_exists_correlated(self, db):
        rs = db.query(
            "SELECT o_orderkey FROM orders AS o WHERE NOT EXISTS "
            "(SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey)"
        )
        assert sorted(rs.rows) == [(3,), (5,)]

    def test_exists_correlated(self, db):
        rs = db.query(
            "SELECT o_orderkey FROM orders AS o WHERE EXISTS "
            "(SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey "
            "AND l.l_quantity > 6)"
        )
        assert sorted(rs.rows) == [(1,), (2,)]

    def test_exists_uncorrelated(self, db):
        rs = db.query(
            "SELECT o_orderkey FROM orders WHERE EXISTS (SELECT * FROM lineitem)"
        )
        assert len(rs) == 5

    def test_not_exists_uncorrelated_empty_inner(self, db):
        db.execute("DELETE FROM lineitem")
        rs = db.query(
            "SELECT o_orderkey FROM orders WHERE EXISTS (SELECT * FROM lineitem)"
        )
        assert rs.rows == []

    def test_in_subquery(self, db):
        rs = db.query(
            "SELECT o_orderkey FROM orders WHERE o_orderkey IN "
            "(SELECT l_orderkey FROM lineitem WHERE l_quantity > 4)"
        )
        assert sorted(rs.rows) == [(1,), (2,)]

    def test_not_in_subquery(self, db):
        rs = db.query(
            "SELECT o_orderkey FROM orders WHERE o_orderkey NOT IN "
            "(SELECT l_orderkey FROM lineitem)"
        )
        assert sorted(rs.rows) == [(3,), (5,)]

    def test_not_in_with_null_inner_yields_nothing(self, db):
        # nullable inner column containing NULL: NOT IN can never be TRUE
        db.execute("CREATE TABLE maybe (v INTEGER)")
        db.insert_rows("maybe", [(1,), (None,)])
        rs = db.query(
            "SELECT o_orderkey FROM orders WHERE o_orderkey NOT IN "
            "(SELECT v FROM maybe)"
        )
        assert rs.rows == []

    def test_in_with_null_inner_still_finds_matches(self, db):
        db.execute("CREATE TABLE maybe (v INTEGER)")
        db.insert_rows("maybe", [(1,), (None,)])
        rs = db.query(
            "SELECT o_orderkey FROM orders WHERE o_orderkey IN (SELECT v FROM maybe)"
        )
        assert rs.rows == [(1,)]

    def test_correlated_in_subquery(self, db):
        rs = db.query(
            "SELECT o_orderkey FROM orders AS o WHERE 1 IN "
            "(SELECT l_linenumber FROM lineitem AS l "
            "WHERE l.l_orderkey = o.o_orderkey)"
        )
        assert sorted(rs.rows) == [(1,), (2,), (4,)]

    def test_nested_not_exists(self, db):
        # orders where every lineitem has quantity > 4
        rs = db.query(
            "SELECT o_orderkey FROM orders AS o WHERE EXISTS "
            "(SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey) "
            "AND NOT EXISTS (SELECT * FROM lineitem AS l "
            "WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity <= 4)"
        )
        assert sorted(rs.rows) == [(1,), (2,)]

    def test_doubly_nested_subquery(self, db):
        db.execute("CREATE TABLE customer (c_custkey INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO customer VALUES (10), (20), (30), (40)")
        # customers that have an order with no lineitems
        rs = db.query(
            "SELECT c_custkey FROM customer AS c WHERE EXISTS "
            "(SELECT * FROM orders AS o WHERE o.o_custkey = c.c_custkey "
            "AND NOT EXISTS (SELECT * FROM lineitem AS l "
            "WHERE l.l_orderkey = o.o_orderkey))"
        )
        assert rs.rows == [(30,)]

    def test_subquery_inside_or_residual(self, db):
        rs = db.query(
            "SELECT o_orderkey FROM orders AS o WHERE o_orderkey = 5 OR EXISTS "
            "(SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey "
            "AND l.l_quantity > 8)"
        )
        assert sorted(rs.rows) == [(2,), (5,)]

    def test_in_subquery_multi_column_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.query(
                "SELECT * FROM orders WHERE o_orderkey IN "
                "(SELECT l_orderkey, l_linenumber FROM lineitem)"
            )

    def test_exists_over_union(self, db):
        rs = db.query(
            "SELECT o_orderkey FROM orders AS o WHERE EXISTS "
            "(SELECT l_orderkey FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey "
            "AND l.l_quantity > 8 "
            "UNION SELECT l_orderkey FROM lineitem AS l "
            "WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity < 3)"
        )
        assert sorted(rs.rows) == [(2,), (4,)]


class TestUnion:
    def test_union_distinct(self, db):
        rs = db.query(
            "SELECT o_orderkey FROM orders WHERE o_orderkey = 1 "
            "UNION SELECT o_orderkey FROM orders WHERE o_orderkey = 1"
        )
        assert rs.rows == [(1,)]

    def test_union_all_keeps_duplicates(self, db):
        rs = db.query(
            "SELECT o_orderkey FROM orders WHERE o_orderkey = 1 "
            "UNION ALL SELECT o_orderkey FROM orders WHERE o_orderkey = 1"
        )
        assert rs.rows == [(1,), (1,)]

    def test_union_width_mismatch_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.query(
                "SELECT o_orderkey FROM orders "
                "UNION SELECT l_orderkey, l_quantity FROM lineitem"
            )


class TestViews:
    def test_view_in_query(self, db):
        db.execute(
            "CREATE VIEW expensive AS "
            "SELECT o_orderkey AS k, o_totalprice AS p FROM orders "
            "WHERE o_totalprice > 100.0"
        )
        rs = db.query("SELECT k FROM expensive WHERE p < 250.0")
        assert rs.rows == [(2,)]

    def test_view_join_with_table(self, db):
        db.execute(
            "CREATE VIEW expensive AS "
            "SELECT o_orderkey AS k FROM orders WHERE o_totalprice > 100.0"
        )
        rs = db.query(
            "SELECT e.k, l.l_quantity FROM expensive AS e, lineitem AS l "
            "WHERE e.k = l.l_orderkey"
        )
        assert sorted(rs.rows) == [(2, 9)]

    def test_view_over_union(self, db):
        db.execute(
            "CREATE VIEW u AS SELECT o_orderkey AS k FROM orders "
            "WHERE o_orderkey = 1 UNION SELECT o_orderkey FROM orders "
            "WHERE o_orderkey = 2"
        )
        rs = db.query("SELECT * FROM u")
        assert sorted(rs.rows) == [(1,), (2,)]

    def test_view_validates_eagerly(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE VIEW bad AS SELECT * FROM ghost")

    def test_view_name_collision(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE VIEW orders AS SELECT * FROM lineitem")

    def test_drop_view(self, db):
        db.execute("CREATE VIEW v AS SELECT * FROM orders")
        db.execute("DROP VIEW v")
        with pytest.raises(CatalogError):
            db.query("SELECT * FROM v")


class TestPlanShapes:
    """The planner must choose index probes for update-sized inputs —
    this is the property the whole incremental method rests on."""

    def test_small_outer_probes_large_table(self, db):
        db.execute("CREATE TABLE tiny (k INTEGER)")
        db.insert_rows("tiny", [(1,)])
        for i in range(100, 400):
            db.insert_rows("orders", [(i, i, 1.0)])
        plan = db.explain(
            "SELECT * FROM tiny AS t, orders AS o WHERE o.o_orderkey = t.k"
        )
        assert "IndexJoin(probe orders" in plan

    def test_comparable_sides_use_hash_join(self, db):
        plan = db.explain(
            "SELECT * FROM orders AS a, orders AS b WHERE a.o_orderkey = b.o_orderkey"
        )
        assert "HashJoin" in plan

    def test_correlated_not_exists_is_probe_not_join(self, db):
        plan = db.explain(
            "SELECT * FROM orders AS o WHERE NOT EXISTS "
            "(SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey)"
        )
        # subqueries are probes inside the Filter predicate, not plan joins
        assert "Filter" in plan
        assert "HashJoin" not in plan


@settings(max_examples=60, deadline=None)
@given(
    orders=st.lists(
        st.tuples(st.integers(1, 20), st.integers(1, 5)), max_size=20, unique_by=lambda t: t[0]
    ),
    items=st.lists(st.tuples(st.integers(1, 25), st.integers(1, 3)), max_size=30, unique=True),
)
def test_not_exists_matches_reference_semantics(orders, items):
    """NOT EXISTS agrees with a straightforward Python reference model."""
    db = Database()
    db.execute("CREATE TABLE o (ok INTEGER PRIMARY KEY, ck INTEGER)")
    db.execute("CREATE TABLE l (lk INTEGER, ln INTEGER, PRIMARY KEY (lk, ln))")
    for row in orders:
        db.insert_rows("o", [row])
    for row in items:
        db.insert_rows("l", [row])
    rs = db.query(
        "SELECT ok FROM o WHERE NOT EXISTS (SELECT * FROM l WHERE l.lk = o.ok)"
    )
    expected = sorted(
        (ok,) for ok, _ in orders if not any(lk == ok for lk, _ in items)
    )
    assert sorted(rs.rows) == expected
