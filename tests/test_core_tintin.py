"""End-to-end tests of the Tintin facade: install, add assertions,
capture updates, safeCommit vs the non-incremental baseline.

The final class is the key correctness property of the whole
reproduction: on randomized update batches, the incremental check must
reach exactly the same accept/reject decision as re-running the full
assertion queries on the would-be new state.
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Tintin
from repro.errors import AssertionDefinitionError, CompilationError
from repro.minidb import Database
from repro.sqlparser import print_query

AT_LEAST_ONE = (
    "CREATE ASSERTION atLeastOneLineItem CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE NOT EXISTS ("
    "SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey)))"
)


def make_db():
    db = Database("TPC")
    db.execute(
        "CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, o_custkey INTEGER)"
    )
    db.execute(
        "CREATE TABLE lineitem (l_orderkey INTEGER NOT NULL, "
        "l_linenumber INTEGER NOT NULL, l_quantity INTEGER, "
        "PRIMARY KEY (l_orderkey, l_linenumber), "
        "FOREIGN KEY (l_orderkey) REFERENCES orders (o_orderkey))"
    )
    return db


@pytest.fixture
def installed():
    db = make_db()
    tintin = Tintin(db)
    tintin.install()
    tintin.add_assertion(AT_LEAST_ONE)
    db.insert_rows("orders", [(1, 10), (2, 20)], bypass_triggers=True)
    db.insert_rows(
        "lineitem", [(1, 1, 5), (1, 2, 7), (2, 1, 9)], bypass_triggers=True
    )
    return db, tintin


class TestInstallation:
    def test_install_creates_event_tables(self):
        db = make_db()
        tintin = Tintin(db)
        captured = tintin.install()
        assert sorted(captured) == ["lineitem", "orders"]
        for name in ("ins_orders", "del_orders", "ins_lineitem", "del_lineitem"):
            assert db.catalog.has_table(name)
            assert db.table(name).namespace == "event"

    def test_install_creates_safecommit_procedure(self):
        db = make_db()
        Tintin(db).install()
        assert db.catalog.get_procedure("safeCommit").name == "safeCommit"

    def test_add_assertion_requires_install(self):
        db = make_db()
        tintin = Tintin(db)
        with pytest.raises(CompilationError, match="install"):
            tintin.add_assertion(AT_LEAST_ONE)

    def test_duplicate_assertion_rejected(self, installed):
        _, tintin = installed
        with pytest.raises(CompilationError):
            tintin.add_assertion(AT_LEAST_ONE)

    def test_views_are_stored_in_catalog(self, installed):
        db, tintin = installed
        assertion = tintin.assertions["atLeastOneLineItem"]
        assert assertion.view_names
        for view in assertion.view_names:
            assert db.catalog.has_view(view)

    def test_paper_view_shape(self, installed):
        """The stored view for EDC 4 matches the paper's example."""
        db, tintin = installed
        assertion = tintin.assertions["atLeastOneLineItem"]
        texts = [
            print_query(db.catalog.get_view(v).query)
            for v in assertion.view_names
        ]
        ins_order_views = [t for t in texts if t.startswith("SELECT * FROM ins_orders")]
        assert len(ins_order_views) == 1
        text = ins_order_views[0]
        assert "NOT EXISTS (SELECT * FROM lineitem" in text
        assert "NOT EXISTS (SELECT * FROM ins_lineitem" in text

    def test_drop_assertion_removes_views(self, installed):
        db, tintin = installed
        views = list(tintin.assertions["atLeastOneLineItem"].view_names)
        tintin.drop_assertion("atLeastOneLineItem")
        for view in views:
            assert not db.catalog.has_view(view)
        assert tintin.safe_commit_proc.compiled == []

    def test_describe_mentions_edcs(self, installed):
        _, tintin = installed
        text = tintin.describe()
        assert "atLeastOneLineItem" in text
        assert "EDC" in text


class TestEventCapture:
    def test_insert_is_captured_not_applied(self, installed):
        db, _ = installed
        db.execute("INSERT INTO orders VALUES (5, 50)")
        assert db.query("SELECT * FROM orders WHERE o_orderkey = 5").is_empty
        assert len(db.table("ins_orders")) == 1

    def test_delete_is_captured_not_applied(self, installed):
        db, _ = installed
        db.execute("DELETE FROM lineitem WHERE l_orderkey = 2")
        assert len(db.query("SELECT * FROM lineitem")) == 3
        assert len(db.table("del_lineitem")) == 1

    def test_delete_does_not_see_pending_inserts(self, installed):
        # INSTEAD OF semantics: a DELETE statement evaluates its WHERE
        # against the base table, so a tuple pending in ins_T is invisible
        # to it (matches SQL Server trigger behaviour)
        db, _ = installed
        db.execute("INSERT INTO orders VALUES (5, 50)")
        db.execute("DELETE FROM orders WHERE o_orderkey = 5")
        assert len(db.table("ins_orders")) == 1
        assert len(db.table("del_orders")) == 0

    def test_programmatic_insert_then_delete_cancels(self, installed):
        # staging rows through the capture API does apply the net-effect
        # cancellation the EDC equations assume
        db, _ = installed
        db.insert_rows("orders", [(5, 50)])
        db.delete_rows("orders", [(5, 50)])
        assert len(db.table("ins_orders")) == 0
        assert len(db.table("del_orders")) == 0

    def test_delete_then_insert_cancels(self, installed):
        db, _ = installed
        db.execute("DELETE FROM orders WHERE o_orderkey = 1")
        db.execute("INSERT INTO orders VALUES (1, 10)")
        assert len(db.table("del_orders")) == 0
        assert len(db.table("ins_orders")) == 0

    def test_inserting_existing_tuple_is_noop(self, installed):
        db, _ = installed
        db.execute("INSERT INTO orders VALUES (1, 10)")
        assert len(db.table("ins_orders")) == 0

    def test_deleting_missing_tuple_is_noop(self, installed):
        db, _ = installed
        db.execute("DELETE FROM orders WHERE o_orderkey = 777")
        assert len(db.table("del_orders")) == 0

    def test_duplicate_capture_is_deduplicated(self, installed):
        db, _ = installed
        db.execute("INSERT INTO orders VALUES (5, 50)")
        db.execute("INSERT INTO orders VALUES (5, 50)")
        assert len(db.table("ins_orders")) == 1

    def test_update_captured_as_delete_plus_insert(self, installed):
        db, tintin = installed
        db.execute("UPDATE orders SET o_custkey = 99 WHERE o_orderkey = 1")
        assert len(db.table("del_orders")) == 1
        assert len(db.table("ins_orders")) == 1
        result = tintin.safe_commit()
        assert result.committed
        assert db.query(
            "SELECT o_custkey FROM orders WHERE o_orderkey = 1"
        ).rows == [(99,)]


class TestSafeCommit:
    def test_valid_insert_commits(self, installed):
        db, tintin = installed
        db.execute("INSERT INTO orders VALUES (5, 50)")
        db.execute("INSERT INTO lineitem VALUES (5, 1, 3)")
        result = tintin.safe_commit()
        assert result.committed
        assert result.applied_rows == 2
        assert not db.query("SELECT * FROM orders WHERE o_orderkey = 5").is_empty

    def test_orphan_order_rejected(self, installed):
        db, tintin = installed
        db.execute("INSERT INTO orders VALUES (5, 50)")
        result = tintin.safe_commit()
        assert result.rejected
        assert result.violations[0].assertion == "atLeastOneLineItem"
        assert db.query("SELECT * FROM orders WHERE o_orderkey = 5").is_empty
        # events are truncated so the next transaction starts clean
        assert len(db.table("ins_orders")) == 0

    def test_deleting_last_lineitem_rejected(self, installed):
        db, tintin = installed
        db.execute("DELETE FROM lineitem WHERE l_orderkey = 2")
        result = tintin.safe_commit()
        assert result.rejected
        # base data untouched
        assert len(db.query("SELECT * FROM lineitem")) == 3

    def test_deleting_one_of_two_lineitems_allowed(self, installed):
        db, tintin = installed
        db.execute(
            "DELETE FROM lineitem WHERE l_orderkey = 1 AND l_linenumber = 1"
        )
        assert tintin.safe_commit().committed

    def test_delete_order_with_its_lineitems_allowed(self, installed):
        db, tintin = installed
        db.execute("DELETE FROM lineitem WHERE l_orderkey = 2")
        db.execute("DELETE FROM orders WHERE o_orderkey = 2")
        result = tintin.safe_commit()
        assert result.committed
        assert db.query("SELECT * FROM orders WHERE o_orderkey = 2").is_empty

    def test_replacing_lineitem_in_same_transaction_allowed(self, installed):
        db, tintin = installed
        db.execute("DELETE FROM lineitem WHERE l_orderkey = 2")
        db.execute("INSERT INTO lineitem VALUES (2, 7, 1)")
        assert tintin.safe_commit().committed

    def test_empty_transaction_commits_trivially(self, installed):
        _, tintin = installed
        result = tintin.safe_commit()
        assert result.committed
        assert result.applied_rows == 0
        assert result.checked_views == 0  # every view skipped

    def test_skip_counts_reported(self, installed):
        db, tintin = installed
        db.execute("INSERT INTO orders VALUES (5, 50)")
        db.execute("INSERT INTO lineitem VALUES (5, 1, 1)")
        result = tintin.safe_commit()
        assert result.checked_views + result.skipped_views == 2

    def test_constraint_violation_reported_not_raised(self, installed):
        db, tintin = installed
        # lineitem referencing a non-existent order passes the assertion
        # machinery (assertion is about orders without lineitems) but
        # violates the FK at apply time
        db.execute("INSERT INTO lineitem VALUES (777, 1, 1)")
        result = tintin.safe_commit()
        assert result.rejected
        assert result.constraint_error
        assert db.query("SELECT * FROM lineitem WHERE l_orderkey = 777").is_empty

    def test_safecommit_via_sql_call(self, installed):
        db, _ = installed
        db.execute("INSERT INTO orders VALUES (5, 50)")
        result = db.execute("CALL safeCommit()")
        assert result.rejected

    def test_check_pending_leaves_events_in_place(self, installed):
        db, tintin = installed
        db.execute("INSERT INTO orders VALUES (5, 50)")
        result = tintin.check_pending()
        assert result.rejected
        assert len(db.table("ins_orders")) == 1  # still pending


class TestNullableColumns:
    """SQL's three-valued logic on nullable columns."""

    def test_deleting_the_only_lineitem_with_a_null_column_rejected(self):
        """ROADMAP direction 1, repro 1: ``¬δlineitem`` is matched on
        lineitem's primary key.  Matched on every column, the deleted
        row's NULL ``l_quantity`` made ``NULL = NULL`` unknown, the
        row still counted as present, and the delete committed."""
        db = make_db()
        tintin = Tintin(db)
        tintin.install()
        tintin.add_assertion(AT_LEAST_ONE)
        db.insert_rows("orders", [(1, 10)], bypass_triggers=True)
        db.insert_rows("lineitem", [(1, 1, None)], bypass_triggers=True)
        db.execute("DELETE FROM lineitem WHERE l_orderkey = 1")
        assert tintin.safe_commit().rejected
        assert len(db.table("lineitem")) == 1

    @staticmethod
    def self_equal(column: str) -> tuple[Database, Tintin]:
        db = Database("nulls")
        db.execute("CREATE TABLE s (x INTEGER PRIMARY KEY, y INTEGER)")
        tintin = Tintin(db)
        tintin.install()
        tintin.add_assertion(
            "CREATE ASSERTION noSelfEqual CHECK (NOT EXISTS ("
            f"SELECT * FROM s AS a0 WHERE a0.{column} = a0.{column}))"
        )
        return db, tintin

    def test_null_never_equals_itself(self):
        """ROADMAP direction 1, repro 2: ``y = y`` is SQL's ``y IS NOT
        NULL``, so a row whose ``y`` is NULL violates nothing."""
        db, tintin = self.self_equal("y")
        db.execute("INSERT INTO s VALUES (2, NULL)")
        assert tintin.safe_commit().committed
        db.execute("INSERT INTO s VALUES (3, 4)")
        assert tintin.safe_commit().rejected
        assert db.query("SELECT x FROM s").rows == [(2,)]

    def test_a_key_column_always_equals_itself(self):
        """The key is NOT NULL, so ``x = x`` holds for every row and
        every insert is rejected."""
        db, tintin = self.self_equal("x")
        for row in ("(1, NULL)", "(2, 7)"):
            db.execute(f"INSERT INTO s VALUES {row}")
            assert tintin.safe_commit().rejected
        assert db.query("SELECT x FROM s").is_empty


NOT_IN_BODY = "SELECT * FROM r WHERE r.y NOT IN (SELECT s.y FROM s)"


def not_in_engine(r_y: str, s_y: str) -> tuple[Database, Tintin]:
    db = Database("notin")
    db.execute(f"CREATE TABLE r (x INTEGER PRIMARY KEY, y INTEGER{r_y})")
    db.execute(f"CREATE TABLE s (x INTEGER PRIMARY KEY, y INTEGER{s_y})")
    tintin = Tintin(db)
    tintin.install()
    return db, tintin


class TestNotInSubquery:
    """``NOT IN (subquery)`` compiles to ``NOT EXISTS``, which agrees
    with SQL only when no NULL can reach either side."""

    def test_null_in_the_subquery_is_no_violation_so_refused(self):
        """The repro: with s(2, NULL) and r(2, 7) SQLite finds no
        violating row (7 NOT IN (NULL) is unknown, never true), yet
        NOT EXISTS (... s.y = r.y) would reject the update."""
        lite = sqlite3.connect(":memory:")
        lite.execute("CREATE TABLE r (x INTEGER PRIMARY KEY, y INTEGER)")
        lite.execute("CREATE TABLE s (x INTEGER PRIMARY KEY, y INTEGER)")
        lite.execute("INSERT INTO s VALUES (2, NULL)")
        lite.execute("INSERT INTO r VALUES (2, 7)")
        assert lite.execute(NOT_IN_BODY).fetchall() == []
        lite.close()
        _, tintin = not_in_engine("", "")
        with pytest.raises(AssertionDefinitionError, match="nullable column r.y"):
            tintin.add_assertion(
                f"CREATE ASSERTION notIn CHECK (NOT EXISTS ({NOT_IN_BODY}))"
            )
        assert not tintin.assertions

    @pytest.mark.parametrize(
        "r_y, s_y, column", [(" NOT NULL", "", "s.y"), ("", " NOT NULL", "r.y")]
    )
    def test_either_nullable_side_refused_by_name(self, r_y, s_y, column):
        _, tintin = not_in_engine(r_y, s_y)
        with pytest.raises(AssertionDefinitionError, match=f"column {column}:"):
            tintin.add_assertion(
                f"CREATE ASSERTION notIn CHECK (NOT EXISTS ({NOT_IN_BODY}))"
            )
        assert not tintin.assertions

    def test_not_null_columns_accepted_and_checked(self):
        db, tintin = not_in_engine(" NOT NULL", " NOT NULL")
        tintin.add_assertion(
            f"CREATE ASSERTION notIn CHECK (NOT EXISTS ({NOT_IN_BODY}))"
        )
        db.execute("INSERT INTO s VALUES (3, 7)")
        db.execute("INSERT INTO r VALUES (2, 7)")
        assert tintin.safe_commit().committed
        db.execute("INSERT INTO r VALUES (4, 8)")
        assert tintin.safe_commit().rejected


class TestBaselineAgreement:
    def test_baseline_accepts_valid_update(self, installed):
        db, tintin = installed
        db.execute("INSERT INTO orders VALUES (5, 50)")
        db.execute("INSERT INTO lineitem VALUES (5, 1, 3)")
        result = tintin.full_check_commit()
        assert result.committed
        assert not db.query("SELECT * FROM orders WHERE o_orderkey = 5").is_empty

    def test_baseline_rejects_and_rolls_back(self, installed):
        db, tintin = installed
        db.execute("INSERT INTO orders VALUES (5, 50)")
        result = tintin.full_check_commit()
        assert result.rejected
        assert db.query("SELECT * FROM orders WHERE o_orderkey = 5").is_empty

    def test_baseline_detects_preexisting_violations(self, installed):
        db, tintin = installed
        # sneak in a violating row with triggers bypassed
        db.insert_rows("orders", [(9, 90)], bypass_triggers=True)
        violations = tintin.baseline.check_current_state(db)
        assert violations


class TestMultipleAssertions:
    def test_two_assertions_checked_independently(self, installed):
        db, tintin = installed
        tintin.add_assertion(
            "CREATE ASSERTION smallQty CHECK (NOT EXISTS ("
            "SELECT * FROM lineitem AS l WHERE l.l_quantity > 100))"
        )
        db.execute("INSERT INTO orders VALUES (5, 50)")
        db.execute("INSERT INTO lineitem VALUES (5, 1, 500)")
        result = tintin.safe_commit()
        assert result.rejected
        names = {v.assertion for v in result.violations}
        assert names == {"smallQty"}

    def test_violations_report_witness_rows(self, installed):
        db, tintin = installed
        db.execute("INSERT INTO orders VALUES (5, 50)")
        result = tintin.safe_commit()
        violation = result.violations[0]
        assert violation.rows == [(5, 50)]
        assert "o_orderkey" in violation.columns


def bound_assertion(k: int) -> str:
    """Twins differing only in constants: one family of shared cores."""
    return (
        f"CREATE ASSERTION qtyBound{k} CHECK (NOT EXISTS ("
        "SELECT * FROM orders AS o, lineitem AS l "
        f"WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity > {10 + k} "
        f"AND o.o_custkey > {100 + k}))"
    )


@pytest.fixture
def twins(installed):
    db, tintin = installed
    for k in range(3):
        tintin.add_assertion(bound_assertion(k))
    return db, tintin


def spy_executions(monkeypatch) -> list:
    """Every prepared plan executed from here on, in order."""
    from repro.minidb.database import PreparedStatement

    executed = []
    real = PreparedStatement.execute

    def spy(self, *args, **kwargs):
        executed.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(PreparedStatement, "execute", spy)
    return executed


class TestDispatch:
    def test_one_emptiness_probe_per_event_table_per_pass(
        self, twins, monkeypatch
    ):
        from repro.core.safe_commit import SafeCommit

        db, tintin = twins
        probes = []
        real = SafeCommit._effectively_empty

        def spy(db_, name, overlays):
            probes.append(name)
            return real(db_, name, overlays)

        monkeypatch.setattr(SafeCommit, "_effectively_empty", staticmethod(spy))
        db.execute("INSERT INTO orders VALUES (5, 50)")
        tintin.check_pending()
        assert probes
        assert len(probes) == len(set(probes))
        tables = {
            t.lower()
            for c in tintin.safe_commit_proc.compiled
            for t in c.event_tables + c.guard_tables
        }
        assert set(probes) == tables

    def test_no_plan_executes_for_a_skipped_unit(self, twins, monkeypatch):
        db, tintin = twins
        db.execute("INSERT INTO orders VALUES (5, 50)")
        executed = spy_executions(monkeypatch)
        result = tintin.check_pending()
        compiled = tintin.safe_commit_proc.compiled
        # only ins_orders is non-empty: the views it alone drives wake
        # (a twin family through its one core), nothing else runs
        woken = [
            c
            for c in compiled
            if set(c.event_tables) == {"ins_orders"} and not c.guard_tables
        ]
        plans = {
            c.core.prepared if c.core and c.core.prepared else c.prepared
            for c in woken
        }
        assert len(woken) == 4 and len(plans) == 2
        assert len(executed) == len(plans) and set(executed) == plans
        assert result.checked_views == len(woken)
        assert result.skipped_views == len(compiled) - len(woken)

    def test_a_family_core_runs_once_for_all_members(
        self, twins, monkeypatch
    ):
        db, tintin = twins
        db.execute("INSERT INTO orders VALUES (5, 150)")
        db.execute("INSERT INTO lineitem VALUES (5, 1, 11)")
        executed = spy_executions(monkeypatch)
        result = tintin.check_pending()
        cores = {
            c.core.prepared
            for c in tintin.safe_commit_proc.compiled
            if c.core is not None and c.core.prepared is not None
        }
        assert len(cores) == 3  # one per EDC shape of the twins
        assert sum(1 for p in executed if p in cores) == 3
        own = {c.prepared for c in tintin.safe_commit_proc.compiled}
        assert not [
            p for p in executed if p in own and "qtyBound" in (p.sql or "")
        ]
        # quantity 11 trips qtyBound0 only; each member is still counted
        assert {v.assertion for v in result.violations} == {"qtyBound0"}
        assert result.checked_views + result.skipped_views == len(
            tintin.safe_commit_proc.compiled
        )

    def test_plan_cache_off_runs_no_core(self, twins, monkeypatch):
        db, tintin = twins
        db.execute("INSERT INTO orders VALUES (5, 150)")
        db.execute("INSERT INTO lineitem VALUES (5, 1, 12)")
        cached = tintin.check_pending()
        db.plan_cache_enabled = False
        executed = spy_executions(monkeypatch)
        fresh = tintin.check_pending()
        cores = {
            c.core.prepared
            for c in tintin.safe_commit_proc.compiled
            if c.core is not None
        }
        assert not [p for p in executed if p in cores]
        assert [(v.assertion, v.rows) for v in fresh.violations] == [
            (v.assertion, v.rows) for v in cached.violations
        ]
        assert {v.assertion for v in fresh.violations} == {
            "qtyBound0",
            "qtyBound1",
        }
        assert (fresh.checked_views, fresh.skipped_views) == (
            cached.checked_views,
            cached.skipped_views,
        )


# ---------------------------------------------------------------------------
# Differential property: incremental == full recheck


@settings(max_examples=50, deadline=None)
@given(
    base_orders=st.lists(st.integers(1, 8), max_size=6, unique=True),
    base_items=st.lists(
        st.tuples(st.integers(1, 8), st.integers(1, 3)), max_size=10, unique=True
    ),
    new_orders=st.lists(st.integers(9, 14), max_size=4, unique=True),
    new_items=st.lists(
        st.tuples(st.integers(1, 14), st.integers(4, 6)), max_size=8, unique=True
    ),
    del_order_keys=st.lists(st.integers(1, 8), max_size=4, unique=True),
    del_item_keys=st.lists(
        st.tuples(st.integers(1, 8), st.integers(1, 3)), max_size=6, unique=True
    ),
)
def test_incremental_matches_full_recheck(
    base_orders, base_items, new_orders, new_items, del_order_keys, del_item_keys
):
    """For random consistent initial states and random update batches,
    TINTIN's incremental decision equals the non-incremental one."""
    # build a CONSISTENT initial state: only orders that have items
    base_items = [(o, n) for (o, n) in base_items if o in base_orders]
    covered = {o for (o, _) in base_items}
    base_orders = [o for o in base_orders if o in covered]

    db = make_db()
    tintin = Tintin(db)
    tintin.install()
    tintin.add_assertion(AT_LEAST_ONE)
    db.insert_rows(
        "orders", [(o, o * 10) for o in base_orders], bypass_triggers=True
    )
    db.insert_rows(
        "lineitem", [(o, ln, 1) for (o, ln) in base_items], bypass_triggers=True
    )

    # captured update: deletes of existing rows, inserts of new ones
    for o, ln in del_item_keys:
        db.execute(f"DELETE FROM lineitem WHERE l_orderkey = {o} AND l_linenumber = {ln}")
    for o in del_order_keys:
        # only attempt deletes that respect the FK in the net state:
        # delete the order's remaining items too
        db.execute(f"DELETE FROM lineitem WHERE l_orderkey = {o}")
        db.execute(f"DELETE FROM orders WHERE o_orderkey = {o}")
    for o in new_orders:
        db.execute(f"INSERT INTO orders VALUES ({o}, {o * 10})")
    for o, ln in new_items:
        if o in new_orders or (o in base_orders and o not in del_order_keys):
            db.execute(f"INSERT INTO lineitem VALUES ({o}, {ln}, 2)")

    incremental = tintin.check_pending()

    # ground truth: apply on a scratch copy and run the full query
    scratch = make_db()
    scratch_t = Tintin(scratch)
    scratch_t.install()
    scratch_t.add_assertion(AT_LEAST_ONE)
    scratch.insert_rows(
        "orders", db.table("orders").rows_snapshot(), bypass_triggers=True
    )
    scratch.insert_rows(
        "lineitem", db.table("lineitem").rows_snapshot(), bypass_triggers=True
    )
    inserts = {
        "orders": db.table("ins_orders").rows_snapshot(),
        "lineitem": db.table("ins_lineitem").rows_snapshot(),
    }
    deletes = {
        "orders": db.table("del_orders").rows_snapshot(),
        "lineitem": db.table("del_lineitem").rows_snapshot(),
    }
    from repro.errors import ConstraintViolation

    try:
        scratch.apply_batch(inserts, deletes)
    except ConstraintViolation:
        return  # FK-invalid batch: rejected before assertion checking
    ground_truth_violated = bool(scratch_t.baseline.check_current_state(scratch))

    assert incremental.rejected == ground_truth_violated
