"""Tests for the aggregate-assertion extension (paper §5 future work).

Covers the supported shapes (COUNT/SUM/MIN/MAX/AVG bounds per group),
the incremental group check against safeCommit, rejection of
unsupported shapes, NULL correlation keys against SQLite, aggregate
families (one check unit per shared scope), and two differential
property tests: against a full recheck, and against SQLite over random
staged updates through the default session and through a ``Session``.
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Tintin
from repro.core.aggregates import AggregateAssertionCompiler, AggregateFamily
from repro.core.assertion import Assertion
from repro.errors import AssertionDefinitionError
from repro.minidb import Database
from repro.obs import RecordingTracer


def make_db():
    db = Database()
    db.execute("CREATE TABLE orders (ok INTEGER PRIMARY KEY, ck INTEGER)")
    db.execute(
        "CREATE TABLE li (ok INTEGER NOT NULL, ln INTEGER NOT NULL, "
        "qty INTEGER NOT NULL, PRIMARY KEY (ok, ln), "
        "FOREIGN KEY (ok) REFERENCES orders (ok))"
    )
    return db


MAX_THREE = (
    "CREATE ASSERTION maxThree CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE "
    "(SELECT COUNT(*) FROM li AS l WHERE l.ok = o.ok) > 3))"
)
SUM_CAP = (
    "CREATE ASSERTION sumCap CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE "
    "(SELECT SUM(qty) FROM li AS l WHERE l.ok = o.ok) > 100))"
)


@pytest.fixture
def installed():
    db = make_db()
    tintin = Tintin(db)
    tintin.install()
    tintin.add_assertion(MAX_THREE)
    tintin.add_assertion(SUM_CAP)
    db.insert_rows("orders", [(1, 10), (2, 20)], bypass_triggers=True)
    db.insert_rows(
        "li", [(1, 1, 10), (1, 2, 20), (2, 1, 5)], bypass_triggers=True
    )
    return db, tintin


class TestCompiler:
    def test_detects_aggregate_assertion(self):
        assertion = Assertion.parse(MAX_THREE)
        assert AggregateAssertionCompiler.is_aggregate_assertion(assertion)

    def test_plain_assertion_not_detected(self):
        assertion = Assertion.parse(
            "CREATE ASSERTION x CHECK (NOT EXISTS (SELECT * FROM orders))"
        )
        assert not AggregateAssertionCompiler.is_aggregate_assertion(assertion)

    def test_spec_fields(self):
        db = make_db()
        spec = AggregateAssertionCompiler(db.catalog).compile(
            Assertion.parse(MAX_THREE)
        )
        assert spec.func == "COUNT"
        assert spec.argument is None
        assert spec.op == ">"
        assert spec.bound == 3
        assert spec.outer_table == "orders"
        assert spec.inner_table == "li"
        assert spec.correlation == ((0, 0),)
        assert set(spec.driving_tables) == {"ins_orders", "ins_li", "del_li"}

    def test_flipped_comparison_normalized(self):
        db = make_db()
        spec = AggregateAssertionCompiler(db.catalog).compile(
            Assertion.parse(
                "CREATE ASSERTION x CHECK (NOT EXISTS ("
                "SELECT * FROM orders AS o WHERE 3 < "
                "(SELECT COUNT(*) FROM li AS l WHERE l.ok = o.ok)))"
            )
        )
        assert spec.op == ">"
        assert spec.bound == 3

    def test_outer_condition_supported(self):
        db = make_db()
        spec = AggregateAssertionCompiler(db.catalog).compile(
            Assertion.parse(
                "CREATE ASSERTION x CHECK (NOT EXISTS ("
                "SELECT * FROM orders AS o WHERE o.ck > 5 AND "
                "(SELECT COUNT(*) FROM li AS l WHERE l.ok = o.ok) > 3))"
            )
        )
        assert spec.outer_condition is not None

    def test_inner_condition_supported(self):
        db = make_db()
        spec = AggregateAssertionCompiler(db.catalog).compile(
            Assertion.parse(
                "CREATE ASSERTION x CHECK (NOT EXISTS ("
                "SELECT * FROM orders AS o WHERE "
                "(SELECT COUNT(*) FROM li AS l WHERE l.ok = o.ok "
                "AND l.qty > 5) > 3))"
            )
        )
        assert spec.inner_condition is not None

    @pytest.mark.parametrize(
        "sql,message",
        [
            (
                "CREATE ASSERTION x CHECK (NOT EXISTS ("
                "SELECT * FROM orders AS o, li AS m WHERE "
                "(SELECT COUNT(*) FROM li AS l WHERE l.ok = o.ok) > 3))",
                "one outer table",
            ),
            (
                "CREATE ASSERTION x CHECK (NOT EXISTS ("
                "SELECT * FROM orders AS o WHERE "
                "(SELECT COUNT(*) FROM li AS l WHERE l.qty > 0) > 3))",
                "equi-correlated",
            ),
            (
                "CREATE ASSERTION x CHECK (NOT EXISTS ("
                "SELECT * FROM orders AS o WHERE "
                "(SELECT COUNT(*) FROM li AS l WHERE l.ok = o.ok) > o.ck))",
                "constant",
            ),
        ],
    )
    def test_unsupported_shapes_rejected(self, sql, message):
        db = make_db()
        with pytest.raises(AssertionDefinitionError, match=message):
            AggregateAssertionCompiler(db.catalog).compile(Assertion.parse(sql))


class TestIncrementalChecking:
    def test_within_bound_commits(self, installed):
        db, tintin = installed
        db.execute("INSERT INTO li VALUES (1, 3, 30)")  # third item, sum 60
        assert tintin.safe_commit().committed

    def test_count_violation_rejected(self, installed):
        db, tintin = installed
        db.execute("INSERT INTO li VALUES (1, 3, 1)")
        db.execute("INSERT INTO li VALUES (1, 4, 1)")  # fourth item
        result = tintin.safe_commit()
        assert result.rejected
        assert result.violations[0].assertion == "maxThree"
        assert result.violations[0].rows == [(1, 10)]

    def test_sum_violation_rejected(self, installed):
        db, tintin = installed
        db.execute("INSERT INTO li VALUES (1, 3, 90)")  # sum 120 > 100
        result = tintin.safe_commit()
        assert result.rejected
        assert {v.assertion for v in result.violations} == {"sumCap"}

    def test_new_order_with_violation(self, installed):
        db, tintin = installed
        db.execute("INSERT INTO orders VALUES (3, 30)")
        for i in range(1, 5):
            db.execute(f"INSERT INTO li VALUES (3, {i}, 1)")
        result = tintin.safe_commit()
        assert result.rejected
        assert result.violations[0].rows == [(3, 30)]

    def test_deletion_can_fix_violation(self, installed):
        db, tintin = installed
        # swap a big item for a small one in the same transaction
        db.execute("DELETE FROM li WHERE ok = 1 AND ln = 2")  # remove qty 20
        db.execute("INSERT INTO li VALUES (1, 9, 95)")  # sum 10+95=105? no:
        # 10 (ln 1) + 95 = 105 > 100 -> still violated
        result = tintin.safe_commit()
        assert result.rejected

    def test_deletion_balances_insertion(self, installed):
        db, tintin = installed
        db.execute("DELETE FROM li WHERE ok = 1 AND ln = 2")  # -20
        db.execute("INSERT INTO li VALUES (1, 9, 85)")  # 10+85 = 95 <= 100
        assert tintin.safe_commit().committed

    def test_deleting_outer_row_with_items_is_fine(self, installed):
        db, tintin = installed
        db.execute("DELETE FROM li WHERE ok = 2")
        db.execute("DELETE FROM orders WHERE ok = 2")
        assert tintin.safe_commit().committed

    def test_untouched_tables_skip_check(self, installed):
        db, tintin = installed
        db.execute("CREATE TABLE unrelated (x INTEGER)")
        tintin.events.install(["unrelated"])
        db.execute("INSERT INTO unrelated VALUES (1)")
        result = tintin.safe_commit()
        assert result.committed
        assert result.checked_views == 0  # both aggregate checks skipped
        assert result.skipped_views == 2

    def test_base_data_untouched_on_rejection(self, installed):
        db, tintin = installed
        before = sorted(db.table("li").scan())
        db.execute("INSERT INTO li VALUES (1, 3, 999)")
        tintin.safe_commit()
        assert sorted(db.table("li").scan()) == before

    def test_drop_aggregate_assertion(self, installed):
        db, tintin = installed
        tintin.drop_assertion("maxThree")
        db.execute("INSERT INTO li VALUES (1, 3, 1)")
        db.execute("INSERT INTO li VALUES (1, 4, 1)")
        assert tintin.safe_commit().committed  # only sumCap remains

    def test_describe_mentions_aggregate(self, installed):
        _, tintin = installed
        text = tintin.describe()
        assert "COUNT(*)" in text
        assert "SUM" in text

    def test_baseline_agrees_on_aggregate(self, installed):
        db, tintin = installed
        db.execute("INSERT INTO li VALUES (1, 3, 1)")
        db.execute("INSERT INTO li VALUES (1, 4, 1)")
        result = tintin.full_check_commit()
        assert result.rejected


class TestMinMaxAvg:
    def make(self, sql):
        db = make_db()
        tintin = Tintin(db)
        tintin.install()
        tintin.add_assertion(sql)
        db.insert_rows("orders", [(1, 10)], bypass_triggers=True)
        db.insert_rows("li", [(1, 1, 10), (1, 2, 20)], bypass_triggers=True)
        return db, tintin

    def test_min_bound(self):
        db, tintin = self.make(
            "CREATE ASSERTION minQty CHECK (NOT EXISTS ("
            "SELECT * FROM orders AS o WHERE "
            "(SELECT MIN(qty) FROM li AS l WHERE l.ok = o.ok) < 5))"
        )
        db.execute("INSERT INTO li VALUES (1, 3, 2)")
        assert tintin.safe_commit().rejected

    def test_max_bound(self):
        db, tintin = self.make(
            "CREATE ASSERTION maxQty CHECK (NOT EXISTS ("
            "SELECT * FROM orders AS o WHERE "
            "(SELECT MAX(qty) FROM li AS l WHERE l.ok = o.ok) > 50))"
        )
        db.execute("INSERT INTO li VALUES (1, 3, 60)")
        assert tintin.safe_commit().rejected

    def test_avg_bound(self):
        db, tintin = self.make(
            "CREATE ASSERTION avgQty CHECK (NOT EXISTS ("
            "SELECT * FROM orders AS o WHERE "
            "(SELECT AVG(qty) FROM li AS l WHERE l.ok = o.ok) > 40))"
        )
        db.execute("INSERT INTO li VALUES (1, 3, 200)")  # avg ~76
        assert tintin.safe_commit().rejected

    def test_empty_group_aggregate_is_null_not_violation(self):
        # MIN over an empty group is NULL -> comparison UNKNOWN -> no
        # violation (SQL semantics)
        db, tintin = self.make(
            "CREATE ASSERTION minQty CHECK (NOT EXISTS ("
            "SELECT * FROM orders AS o WHERE "
            "(SELECT MIN(qty) FROM li AS l WHERE l.ok = o.ok) < 5))"
        )
        db.execute("INSERT INTO orders VALUES (9, 90)")  # no items at all
        assert tintin.safe_commit().committed


# ---------------------------------------------------------------------------
# Differential property: incremental aggregate check == full recheck


@settings(max_examples=40, deadline=None)
@given(
    base_items=st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 40)),
        max_size=12,
        unique_by=lambda t: (t[0], t[1]),
    ),
    new_items=st.lists(
        st.tuples(st.integers(1, 4), st.integers(5, 9), st.integers(1, 60)),
        max_size=8,
        unique_by=lambda t: (t[0], t[1]),
    ),
    del_keys=st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=8, unique=True
    ),
)
def test_aggregate_incremental_matches_full(base_items, new_items, del_keys):
    db = make_db()
    tintin = Tintin(db)
    tintin.install()
    tintin.add_assertion(SUM_CAP)
    db.insert_rows("orders", [(k, k) for k in range(1, 5)], bypass_triggers=True)
    # keep the initial state consistent: drop items of over-cap orders
    totals: dict[int, int] = {}
    consistent = []
    for ok, ln, qty in base_items:
        if totals.get(ok, 0) + qty <= 100:
            totals[ok] = totals.get(ok, 0) + qty
            consistent.append((ok, ln, qty))
    db.insert_rows("li", consistent, bypass_triggers=True)

    for ok, ln in del_keys:
        db.execute(f"DELETE FROM li WHERE ok = {ok} AND ln = {ln}")
    for ok, ln, qty in new_items:
        db.execute(f"INSERT INTO li VALUES ({ok}, {ln}, {qty})")

    incremental = tintin.check_pending()

    # ground truth on a scratch copy
    scratch = make_db()
    scratch.insert_rows(
        "orders", db.table("orders").rows_snapshot(), bypass_triggers=True
    )
    scratch.insert_rows("li", db.table("li").rows_snapshot(), bypass_triggers=True)
    scratch.apply_batch(
        {"li": db.table("ins_li").rows_snapshot()},
        {"li": db.table("del_li").rows_snapshot()},
    )
    scratch_t = Tintin(scratch)
    scratch_t.install()
    scratch_t.add_assertion(SUM_CAP)
    ground_truth = bool(scratch_t.baseline.check_current_state(scratch))

    assert incremental.rejected == ground_truth


# ---------------------------------------------------------------------------
# NULL correlation keys: SQL's ``s.y = r.y`` is never true for a NULL


def null_key_engine(body: str, committed_s=()) -> tuple[Database, Tintin]:
    db = Database("nullkey")
    db.execute("CREATE TABLE r (x INTEGER PRIMARY KEY, y INTEGER)")
    db.execute("CREATE TABLE s (x INTEGER PRIMARY KEY, y INTEGER)")
    db.insert_rows("s", list(committed_s), bypass_triggers=True)
    tintin = Tintin(db)
    tintin.install()
    tintin.add_assertion(f"CREATE ASSERTION a CHECK (NOT EXISTS ({body}))")
    return db, tintin


def sqlite_rows(body: str, r_rows, s_rows) -> list[tuple]:
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE r (x INTEGER PRIMARY KEY, y INTEGER)")
    lite.execute("CREATE TABLE s (x INTEGER PRIMARY KEY, y INTEGER)")
    lite.executemany("INSERT INTO r VALUES (?, ?)", r_rows)
    lite.executemany("INSERT INTO s VALUES (?, ?)", s_rows)
    rows = lite.execute(body).fetchall()
    lite.close()
    return rows


class TestNullCorrelationKey:
    def test_null_key_matches_no_committed_inner_row(self):
        """With s(1, NULL) committed, r(1, NULL) has an empty group:
        COUNT is 0, so ``> 0`` finds no violating row."""
        body = (
            "SELECT * FROM r WHERE "
            "(SELECT COUNT(*) FROM s WHERE s.y = r.y) > 0"
        )
        assert sqlite_rows(body, [(1, None)], [(1, None)]) == []
        db, tintin = null_key_engine(body, committed_s=[(1, None)])
        db.execute("INSERT INTO r VALUES (1, NULL)")
        assert tintin.safe_commit().committed
        checker = tintin.safe_commit_proc.aggregate_checkers[0]
        assert checker.check_full(db) is None

    def test_null_key_matches_no_staged_inner_row(self):
        """r(1, NULL) and s(2, NULL) staged together: the group is still
        empty, so ``< 1`` holds for r(1, NULL) — a violation."""
        body = (
            "SELECT * FROM r WHERE "
            "(SELECT COUNT(*) FROM s WHERE s.y = r.y) < 1"
        )
        assert sqlite_rows(body, [(1, None)], [(2, None)]) == [(1, None)]
        db, tintin = null_key_engine(body)
        db.execute("INSERT INTO r VALUES (1, NULL)")
        db.execute("INSERT INTO s VALUES (2, NULL)")
        result = tintin.safe_commit()
        assert result.rejected
        assert result.violations[0].rows == [(1, None)]
        # the full comparator agrees once the rows are in
        db.insert_rows("r", [(1, None)], bypass_triggers=True)
        db.insert_rows("s", [(2, None)], bypass_triggers=True)
        checker = tintin.safe_commit_proc.aggregate_checkers[0]
        assert checker.check_full(db).rows == [(1, None)]


# ---------------------------------------------------------------------------
# A family: assertions sharing outer table, inner table and correlation


def family_units(tintin: Tintin) -> list[AggregateFamily]:
    proc = tintin.safe_commit_proc
    proc.check_only(tintin.db)  # builds the dispatch
    return [
        unit
        for unit, *_ in proc._dispatch.index
        if isinstance(unit, AggregateFamily)
    ]


class TestFamily:
    def test_shared_scope_is_one_unit_and_a_lone_checker_its_own(self):
        db = make_db()
        db.execute("CREATE TABLE notes (ok INTEGER PRIMARY KEY, ln INTEGER)")
        tintin = Tintin(db)
        tintin.install()
        tintin.add_assertion(MAX_THREE)
        tintin.add_assertion(
            "CREATE ASSERTION fewNotes CHECK (NOT EXISTS ("
            "SELECT * FROM orders AS o WHERE "
            "(SELECT COUNT(*) FROM notes AS n WHERE n.ok = o.ok) > 1))"
        )
        tintin.add_assertion(SUM_CAP)
        units = family_units(tintin)
        assert [[c.spec.name for c in u.members] for u in units] == [
            ["maxThree", "sumCap"],
            ["fewNotes"],
        ]
        assert [u.label for u in units] == ["maxThree.shared", None]

    def test_traced_commit_emits_one_shared_span(self, installed):
        db, tintin = installed
        tracer = RecordingTracer()
        tintin.set_tracer(tracer)
        session = tintin.create_session()
        session.insert("li", [(1, 3, 90)])  # sum 120 > 100
        result = session.commit()
        assert [v.assertion for v in result.violations] == ["sumCap"]
        # members count as checks, as the paper counts views
        assert (result.checked_views, result.skipped_views) == (2, 0)
        spans = [s for s in tracer.spans() if s.name.startswith("check.")]
        assert [s.name for s in spans] == ["check.maxThree.shared"]
        assert spans[0].attrs["members"] == 2
        assert spans[0].attrs["violations"] == 1

    def test_members_report_in_installation_order(self, installed):
        db, tintin = installed
        for ln in range(3, 6):
            db.execute(f"INSERT INTO li VALUES (1, {ln}, 30)")
        result = tintin.safe_commit()
        assert [v.assertion for v in result.violations] == ["maxThree", "sumCap"]
        assert all(v.rows == [(1, 10)] for v in result.violations)

    def test_catalog_bump_reresolves_table_handles(self, installed):
        db, tintin = installed
        (family,) = family_units(tintin)
        db.execute("INSERT INTO li VALUES (2, 2, 5)")
        assert tintin.safe_commit().committed
        version = db.catalog.version
        assert family._resolved[1] == version
        db.execute("CREATE TABLE unrelated (z INTEGER)")  # unrelated DDL
        assert db.catalog.version != version
        db.execute("INSERT INTO li VALUES (2, 3, 90)")  # sum 100, in bound
        assert tintin.safe_commit().committed
        assert family._resolved[1] == db.catalog.version
        assert family._resolved[4] is db.table("li")
        db.execute("DELETE FROM li WHERE ok = 2 AND ln = 1")
        db.execute("INSERT INTO li VALUES (2, 4, 6)")  # sum 101
        result = tintin.safe_commit()
        assert [v.assertion for v in result.violations] == ["sumCap"]

    def test_resolution_follows_the_database(self, installed):
        """A family checked against a second database with the same
        catalog version must not read the first one's tables."""
        db, tintin = installed
        (family,) = family_units(tintin)
        other = make_db()
        Tintin(other).install()
        while other.catalog.version < db.catalog.version:
            other.catalog.bump_version()
        other.insert_rows("orders", [(1, 10)], bypass_triggers=True)
        other.insert_rows("ins_li", [(1, 1, 101)], bypass_triggers=True)
        outcomes = family.run(other)
        assert [hits for _, _, hits, _ in outcomes] == [0, 1]
        assert family.run(db)[1][2] == 0


# ---------------------------------------------------------------------------
# Differential: a family of five functions, an outer-reading member and
# a second scope, against SQLite over random staged updates

DIFF_DDL = (
    "CREATE TABLE r (x INTEGER PRIMARY KEY, y INTEGER, v INTEGER)",
    "CREATE TABLE s (x INTEGER PRIMARY KEY, y INTEGER, q INTEGER)",
)

#: name -> the body of ``NOT EXISTS (...)``; the first six share the
#: scope (r, s, s.y = r.y), the last correlates the other way round
DIFF_BODIES = {
    "cnt": "SELECT * FROM r WHERE "
    "(SELECT COUNT(*) FROM s WHERE s.y = r.y) > 3",
    "total": "SELECT * FROM r WHERE "
    "(SELECT SUM(s.q) FROM s WHERE s.y = r.y) > 16",
    "low": "SELECT * FROM r WHERE r.v > 1 AND "
    "(SELECT MIN(s.q) FROM s WHERE s.y = r.y) < 1",
    "high": "SELECT * FROM r WHERE "
    "(SELECT MAX(s.q) FROM s WHERE s.y = r.y) > 7",
    "mean": "SELECT * FROM r WHERE "
    "(SELECT AVG(s.q) FROM s WHERE s.y = r.y) > 6",
    "aboveV": "SELECT * FROM r WHERE "
    "(SELECT COUNT(*) FROM s WHERE s.y = r.y AND s.q > r.v) > 1",
    "vSum": "SELECT * FROM s WHERE "
    "(SELECT SUM(r.v) FROM r WHERE r.y = s.y) > 12",
}


def maybe(*values):
    return st.sampled_from((None,) + values)


diff_step = st.fixed_dictionaries(
    {
        "r": st.lists(st.tuples(maybe(1, 2), maybe(0, 2, 5, 9)), max_size=2),
        "s": st.lists(st.tuples(maybe(1, 2), maybe(0, 2, 4, 7, 8)), max_size=3),
        "del_r": st.lists(st.integers(0, 20), max_size=2),
        "del_s": st.lists(st.integers(0, 20), max_size=2),
    }
)


def diff_engine() -> Tintin:
    db = Database("aggdiff")
    for ddl in DIFF_DDL:
        db.execute(ddl)
    tintin = Tintin(db)
    tintin.install()
    for name, body in DIFF_BODIES.items():
        tintin.add_assertion(f"CREATE ASSERTION {name} CHECK (NOT EXISTS ({body}))")
    return tintin


def sqlite_witnesses(lite, model: dict) -> dict[str, set]:
    for table, rows in model.items():
        lite.execute(f"DELETE FROM {table}")
        lite.executemany(f"INSERT INTO {table} VALUES (?, ?, ?)", rows)
    found = {}
    for name, body in DIFF_BODIES.items():
        rows = lite.execute(body).fetchall()
        if rows:
            found[name] = set(rows)
    return found


@pytest.mark.parametrize("route", ["default", "session"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(steps=st.lists(diff_step, min_size=1, max_size=8))
def test_aggregate_differential(route, steps):
    tintin = diff_engine()
    db = tintin.db
    lite = sqlite3.connect(":memory:")
    for ddl in DIFF_DDL:
        lite.execute(ddl)
    model: dict[str, list[tuple]] = {"r": [], "s": []}
    next_key = 1
    for step in steps:
        inserts: dict[str, list[tuple]] = {"r": [], "s": []}
        for table in ("r", "s"):
            for y, value in step[table]:
                inserts[table].append((next_key, y, value))
                next_key += 1
        deletes = {
            table: list(
                {model[table][i % len(model[table])] for i in step["del_" + table]}
            )
            if model[table]
            else []
            for table in ("r", "s")
        }
        if route == "session":
            session = tintin.create_session()
            for table in ("r", "s"):
                session.insert(table, inserts[table])
                session.delete(table, deletes[table])
            result = session.commit()
        else:
            for table in ("r", "s"):
                for row in inserts[table]:
                    db.execute(
                        f"INSERT INTO {table} VALUES ({', '.join(_sql(v) for v in row)})"
                    )
                for row in deletes[table]:
                    db.execute(f"DELETE FROM {table} WHERE x = {row[0]}")
            result = tintin.safe_commit()
        post = {
            table: [row for row in model[table] if row not in deletes[table]]
            + inserts[table]
            for table in ("r", "s")
        }
        expected = sqlite_witnesses(lite, post)
        found = {v.assertion: set(v.rows) for v in result.violations}
        assert found == expected
        assert result.committed == (not expected)
        assert result.checked_views + result.skipped_views == len(DIFF_BODIES)
        if result.committed:
            model = post
        for table in ("r", "s"):
            assert sorted(db.table(table).scan()) == sorted(model[table])
    lite.close()


def _sql(value) -> str:
    return "NULL" if value is None else str(value)
