"""Direct tests of the event-capture manager (paper §4, SQL Server
Controller): installation, capture invariants, pending access, apply."""

import pytest

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
        counts = manager.pending_counts()
        assert counts["parent"] == (1, 0)
        assert counts["child"] == (0, 1)
        assert manager.has_pending_events()

    def test_pending_rows_access(self, db):
        manager = EventTableManager(db)
        manager.install()
        db.execute("INSERT INTO parent VALUES (3)")
        assert manager.pending_insertions("parent") == [(3,)]
        assert manager.pending_deletions("parent") == []

    def test_truncate_events(self, db):
        manager = EventTableManager(db)
        manager.install()
        db.execute("INSERT INTO parent VALUES (3)")
        db.execute("DELETE FROM child WHERE id = 10")
        assert manager.truncate_events() == 2
        assert not manager.has_pending_events()

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
        assert manager.pending_insertions("child") == [(12, 2)]
        assert manager.pending_deletions("child") == [(11, 1)]
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
        changed = manager.apply_pending()
        assert changed == 2
        assert not manager.has_pending_events()
        assert (3,) in list(db.table("parent").scan())
        assert (11, 3) in list(db.table("child").scan())

    def test_apply_respects_fk_order(self, db):
        manager = EventTableManager(db)
        manager.install()
        # child arrives before its new parent — apply must still work
        db.execute("INSERT INTO child VALUES (12, 9)")
        db.execute("INSERT INTO parent VALUES (9)")
        assert manager.apply_pending() == 2

    def test_apply_constraint_failure_rolls_back(self, db):
        manager = EventTableManager(db)
        manager.install()
        db.execute("INSERT INTO child VALUES (13, 999)")  # no such parent
        with pytest.raises(ConstraintViolation):
            manager.apply_pending()
        # nothing applied, base unchanged
        assert sorted(db.table("child").scan()) == [(10, 1)]

    def test_triggers_reenabled_after_failed_apply(self, db):
        manager = EventTableManager(db)
        manager.install()
        db.execute("INSERT INTO child VALUES (13, 999)")
        with pytest.raises(ConstraintViolation):
            manager.apply_pending()
        manager.truncate_events()
        # capture must still work afterwards
        db.execute("INSERT INTO parent VALUES (5)")
        assert manager.pending_counts()["parent"] == (1, 0)

    def test_delete_and_reinsert_same_key(self, db):
        manager = EventTableManager(db)
        manager.install()
        # a captured UPDATE: delete old row, insert new with same key
        db.execute("UPDATE parent SET id = 2 WHERE id = 2")  # no-op update
        db.execute("DELETE FROM child WHERE id = 10")
        db.execute("INSERT INTO child VALUES (10, 2)")
        assert manager.apply_pending() >= 2
        assert list(db.table("child").lookup_secondary(("id",), (10,))) == [(10, 2)]
