"""Direct tests of the event-capture manager (paper §4, SQL Server
Controller) and of the one staging class every session nets its update
through: installation, capture invariants, pending access, apply."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.event_tables import (
    EventTableManager,
    del_table_name,
    ins_table_name,
)
from repro.errors import CatalogError, ConstraintViolation
from repro.minidb import Database


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE parent (id INTEGER PRIMARY KEY)")
    database.execute(
        "CREATE TABLE child (id INTEGER PRIMARY KEY, pid INTEGER NOT NULL, "
        "FOREIGN KEY (pid) REFERENCES parent (id))"
    )
    database.execute("INSERT INTO parent VALUES (1), (2)")
    database.execute("INSERT INTO child VALUES (10, 1)")
    return database


class TestInstallation:
    def test_install_all_main_tables(self, db):
        manager = EventTableManager(db)
        captured = manager.install()
        assert sorted(captured) == ["child", "parent"]
        for base in ("parent", "child"):
            assert db.catalog.has_table(ins_table_name(base))
            assert db.catalog.has_table(del_table_name(base))

    def test_event_tables_have_no_constraints(self, db):
        manager = EventTableManager(db)
        manager.install()
        ins = db.table("ins_child")
        assert ins.schema.primary_key == ()
        assert ins.schema.foreign_keys == ()
        assert not any(c.not_null for c in ins.schema.columns)

    def test_event_tables_not_reinstrumented(self, db):
        manager = EventTableManager(db)
        manager.install()
        # event tables themselves must not appear among captured tables
        assert "ins_parent" not in manager.captured_tables

    def test_targeted_install(self, db):
        manager = EventTableManager(db)
        manager.install(["parent"])
        assert manager.captured_tables == ["parent"]
        assert not db.catalog.has_table("ins_child")

    def test_install_is_idempotent_per_table(self, db):
        manager = EventTableManager(db)
        manager.install(["parent"])
        manager.install(["parent", "child"])
        assert sorted(manager.captured_tables) == ["child", "parent"]

    def test_conflicting_event_table_rejected(self, db):
        db.execute("CREATE TABLE ins_parent (x INTEGER)")
        manager = EventTableManager(db)
        with pytest.raises(CatalogError, match="already exists"):
            manager.install(["parent"])


class TestCaptureAndPending:
    def test_pending_counts(self, db):
        manager = EventTableManager(db)
        manager.install()
        db.execute("INSERT INTO parent VALUES (3)")
        db.execute("DELETE FROM child WHERE id = 10")
        counts = manager.staged.counts()
        assert counts["parent"] == (1, 0)
        assert counts["child"] == (0, 1)

    def test_pending_rows_access(self, db):
        manager = EventTableManager(db)
        manager.install()
        db.execute("INSERT INTO parent VALUES (3)")
        assert db.table("ins_parent").rows_snapshot() == [(3,)]
        assert db.table("del_parent").rows_snapshot() == []

    def test_truncate_events(self, db):
        manager = EventTableManager(db)
        manager.install()
        db.execute("INSERT INTO parent VALUES (3)")
        db.execute("DELETE FROM child WHERE id = 10")
        assert manager.staged.truncate() == 2
        assert manager.staged.take() == ({}, {})

    def test_base_tables_untouched_by_capture(self, db):
        manager = EventTableManager(db)
        manager.install()
        db.execute("INSERT INTO parent VALUES (3)")
        db.execute("DELETE FROM parent WHERE id = 2")
        assert sorted(db.table("parent").scan()) == [(1,), (2,)]


    def test_capture_after_drop_and_recreate(self, db):
        EventTableManager(db).install()
        for name in ("child", "ins_child", "del_child"):
            db.execute(f"DROP TABLE {name}")
        assert db.catalog.triggers_for("child", "insert") == []
        db.execute(
            "CREATE TABLE child (id INTEGER PRIMARY KEY, pid INTEGER NOT NULL, "
            "FOREIGN KEY (pid) REFERENCES parent (id))"
        )
        db.execute("INSERT INTO child VALUES (11, 1)")  # not captured yet
        assert db.table("child").rows_snapshot() == [(11, 1)]
        manager = EventTableManager(db)
        manager.install(["child"])
        db.execute("INSERT INTO child VALUES (12, 2)")
        db.execute("DELETE FROM child WHERE id = 11")
        assert manager.staged.snapshot() == (
            {"child": [(12, 2)]},
            {"child": [(11, 1)]},
        )
        assert db.table("child").rows_snapshot() == [(11, 1)]
        assert [t.name for t in db.catalog.triggers_for("child", "delete")] == [
            "capture_del_child"
        ]
        # the parent's capture never moved
        db.execute("INSERT INTO parent VALUES (3)")
        assert db.table("ins_parent").rows_snapshot() == [(3,)]
        db.disable_triggers("parent")
        db.execute("INSERT INTO parent VALUES (4)")
        assert (4,) in db.table("parent").rows_snapshot()


class TestApplyPending:
    def test_apply_moves_events_to_base(self, db):
        manager = EventTableManager(db)
        manager.install()
        db.execute("INSERT INTO parent VALUES (3)")
        db.execute("INSERT INTO child VALUES (11, 3)")
        changed = db.apply_batch(*manager.staged.take())
        assert changed == 2
        assert manager.staged.counts() == {"parent": (0, 0), "child": (0, 0)}
        assert (3,) in list(db.table("parent").scan())
        assert (11, 3) in list(db.table("child").scan())

    def test_apply_respects_fk_order(self, db):
        manager = EventTableManager(db)
        manager.install()
        # child arrives before its new parent — apply must still work
        db.execute("INSERT INTO child VALUES (12, 9)")
        db.execute("INSERT INTO parent VALUES (9)")
        assert db.apply_batch(*manager.staged.take()) == 2

    def test_apply_constraint_failure_rolls_back(self, db):
        manager = EventTableManager(db)
        manager.install()
        db.execute("INSERT INTO child VALUES (13, 999)")  # no such parent
        with pytest.raises(ConstraintViolation):
            db.apply_batch(*manager.staged.take())
        # nothing applied, base unchanged
        assert sorted(db.table("child").scan()) == [(10, 1)]

    def test_triggers_reenabled_after_failed_apply(self, db):
        manager = EventTableManager(db)
        manager.install()
        db.execute("INSERT INTO child VALUES (13, 999)")
        with pytest.raises(ConstraintViolation):
            db.apply_batch(*manager.staged.take())
        # capture must still work afterwards
        db.execute("INSERT INTO parent VALUES (5)")
        assert manager.staged.counts()["parent"] == (1, 0)

    def test_delete_and_reinsert_same_key(self, db):
        manager = EventTableManager(db)
        manager.install()
        # a captured UPDATE: delete old row, insert new with same key
        db.execute("UPDATE parent SET id = 2 WHERE id = 2")  # no-op update
        db.execute("DELETE FROM child WHERE id = 10")
        db.execute("INSERT INTO child VALUES (10, 2)")
        assert db.apply_batch(*manager.staged.take()) >= 2
        assert list(db.table("child").lookup_secondary(("id",), (10,))) == [(10, 2)]


class _Counted(int):
    """An INTEGER value that counts the equality tests made on it: a
    staged row meets another row only through its values' ``__eq__``."""

    comparisons = 0

    def __eq__(self, other):
        _Counted.comparisons += 1
        return int.__eq__(self, other)

    __hash__ = int.__hash__


class TestStagingIsLinear:
    """Staging tests each row against the keyless ``ins_T``/``del_T``
    (and a keyless base): hash probes, not scans, so the row
    comparisons made while staging n rows grow with n, not n²."""

    @staticmethod
    def comparisons(stage, rows) -> int:
        _Counted.comparisons = 0
        stage(rows)
        return _Counted.comparisons

    @pytest.mark.parametrize("route", ["default", "session"])
    def test_row_comparisons_grow_linearly(self, route):
        from repro.core import Tintin

        for count in (500, 2000):
            db = Database()
            db.execute("CREATE TABLE bag (a INTEGER, b INTEGER)")
            tintin = Tintin(db)
            tintin.install()
            if route == "default":
                insert, delete = db.insert_rows, db.delete_rows
                pending = tintin.events.staged.counts
            else:
                session = tintin.create_session()
                insert, delete = session.insert, session.delete
                pending = session.pending_counts
            rows = [(_Counted(k), k) for k in range(count)]
            # stage the inserts, take half of them back, insert again
            made = self.comparisons(lambda r: insert("bag", r), rows)
            made += self.comparisons(lambda r: delete("bag", r), rows[::2])
            made += self.comparisons(lambda r: insert("bag", r), rows)
            assert made <= 2 * count, (count, made)
            assert pending()["bag"] == (count, 0)
            result = tintin.safe_commit(None if route == "default" else session)
            assert result.committed
            assert sorted(db.table("bag").scan()) == [(k, k) for k in range(count)]
            # committed rows: deletes now probe the keyless base table
            made = self.comparisons(lambda r: delete("bag", r), rows)
            assert made <= 2 * count, (count, made)
            assert pending()["bag"] == (0, count)


def test_a_null_key_probe_builds_no_index_on_a_keyed_table():
    """No stored row has a NULL primary key, so staging a row with one
    finds nothing in the base table without indexing every column."""
    from repro.core import Tintin

    db = Database()
    db.execute("CREATE TABLE orders (id INTEGER PRIMARY KEY, total DOUBLE)")
    db.insert_rows("orders", [(1, 1.0)])
    tintin = Tintin(db)
    tintin.install()
    session = tintin.create_session()
    session.insert("orders", [(None, 1.0)])
    db.delete_rows("orders", [(None, 1.0)])
    assert db.table("orders").secondary_indexes == {}
    assert not db.table("orders").contains_row((None, 1.0))
    assert session.pending_counts()["orders"] == (1, 0)
    assert tintin.events.staged.counts()["orders"] == (0, 0)


def test_a_session_stages_only_tables_still_captured():
    """A session's staging belongs to the tables captured when it
    began: an uncaptured table, or one dropped and created again, is
    refused, and the dropped table's staged rows are neither read into
    the new table nor taken."""
    from repro.core import Tintin
    from repro.errors import ExecutionError

    db = Database()
    db.execute("CREATE TABLE a (x INTEGER)")
    db.execute("CREATE TABLE u (x INTEGER)")
    tintin = Tintin(db)
    tintin.install(["a"])
    session = tintin.create_session()
    with pytest.raises(ExecutionError, match="not instrumented"):
        session.insert("u", [(1,)])
    session.insert("a", [(1,)])
    assert session.query("SELECT * FROM a").rows == [(1,)]
    db.execute("DROP TABLE a")
    assert not db.catalog.has_table("ins_a")
    assert session.pending_counts() == {} and not session.has_pending_events()
    db.execute("CREATE TABLE a (x INTEGER)")
    assert session.query("SELECT * FROM a").rows == []
    with pytest.raises(ExecutionError, match="not instrumented"):
        session.insert("a", [(2,)])
    assert session.staged.take() == ({}, {})


KEYED_DDL = "CREATE TABLE k (id INTEGER PRIMARY KEY, v INTEGER)"
KEYLESS_DDL = "CREATE TABLE b (x INTEGER, y INTEGER)"

#: one staging step: (operation, table, row)
STEPS = st.tuples(
    st.sampled_from(["insert", "delete"]),
    st.sampled_from(["k", "b"]),
    st.tuples(st.integers(1, 4), st.integers(1, 3)),
)


def _stored_engine():
    from repro.core import Tintin

    db = Database()
    db.execute(KEYED_DDL)
    db.execute(KEYLESS_DDL)
    db.insert_rows("k", [(1, 1), (2, 2)])
    db.insert_rows("b", [(1, 1), (2, 2), (2, 2)])
    tintin = Tintin(db)
    tintin.install()
    return tintin


def _through_the_default_session(steps):
    tintin = _stored_engine()
    db = tintin.db
    for operation, table, row in steps:
        (db.insert_rows if operation == "insert" else db.delete_rows)(table, [row])
    return tintin.events.staged.take()


def _through_a_session(steps):
    session = _stored_engine().create_session()
    for operation, table, row in steps:
        getattr(session, operation)(table, [row])
    return session.staged.take()


def _through_a_shard_slice(steps):
    """A sharded session's staging, then its slice netted as a shard
    worker nets it (the router and the pipe left out)."""
    from types import SimpleNamespace

    from repro.core import CommitResult
    from repro.shard.router import ShardSession
    from repro.shard.worker import net_slice

    shard = _stored_engine()
    taken = []

    def commit_events(inserts, deletes, deadline=None, obs=None):
        taken.append(net_slice(shard, inserts, deletes))
        return CommitResult(committed=True)

    router = SimpleNamespace(db=shard.db, commit_events=commit_events)
    session = ShardSession(router, None, "s")
    for operation, table, row in steps:
        getattr(session, operation)(table, [row])
    session.commit()
    (update,) = taken
    return update


@settings(max_examples=150, deadline=None)
@given(st.lists(STEPS, max_size=14))
def test_every_door_stages_the_same_net_update(steps):
    """One insert/delete sequence over a keyed and a keyless table
    (stored rows, one of them twice) takes out as the same net update
    through the default session's capture triggers, a ``Session`` and
    a shard worker's slice staging."""
    expected = _through_the_default_session(steps)
    assert _through_a_session(steps) == expected
    assert _through_a_shard_slice(steps) == expected
