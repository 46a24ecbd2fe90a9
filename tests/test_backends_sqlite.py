"""Tests for the SQLite mirror backend (portability, paper §3)."""

import pytest

from repro.backends import SQLiteMirror
from repro.core import Tintin
from repro.minidb import Database
from repro.tpch import AT_LEAST_ONE_LINEITEM, UpdateGenerator, load_tpch, tpch_database


@pytest.fixture
def mirrored_simple():
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(10), c DOUBLE)")
    db.execute("INSERT INTO t VALUES (1, 'x', 1.5), (2, NULL, 2.5)")
    mirror = SQLiteMirror()
    mirror.mirror_schema(db)
    mirror.mirror_data(db)
    yield db, mirror
    mirror.close()


class TestMirroring:
    def test_schema_and_data_copied(self, mirrored_simple):
        _, mirror = mirrored_simple
        rows = mirror.query("SELECT * FROM t ORDER BY a")
        assert rows == [(1, "x", 1.5), (2, None, 2.5)]

    def test_type_mapping(self, mirrored_simple):
        _, mirror = mirrored_simple
        info = mirror.query("PRAGMA table_info(t)")
        types = {row[1]: row[2] for row in info}
        assert types == {"a": "INTEGER", "b": "TEXT", "c": "REAL"}

    def test_primary_key_copied(self, mirrored_simple):
        _, mirror = mirrored_simple
        import sqlite3

        with pytest.raises(sqlite3.IntegrityError):
            mirror.query("INSERT INTO t VALUES (1, 'dup', 0.0)")

    def test_views_copied_and_run(self, mirrored_simple):
        db, mirror = mirrored_simple
        db.execute("CREATE VIEW big AS SELECT a FROM t WHERE c > 2.0")
        mirror.mirror_views(db)
        assert mirror.query("SELECT * FROM big") == [(2,)]

    def test_refresh_event_tables(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        tintin = Tintin(db)
        tintin.install()
        mirror = SQLiteMirror.from_database(db)
        db.execute("INSERT INTO t VALUES (1)")  # captured into ins_t
        mirror.refresh_event_tables(db)
        assert mirror.query("SELECT * FROM ins_t") == [(1,)]
        tintin.events.staged.truncate()
        mirror.refresh_event_tables(db)
        assert mirror.query("SELECT * FROM ins_t") == []
        mirror.close()

    def test_context_manager(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER)")
        with SQLiteMirror.from_database(db) as mirror:
            assert mirror.query("SELECT * FROM t") == []


class TestDecisionAgreement:
    def make_workload(self, violating: bool):
        db = tpch_database()
        load_tpch(db, scale=0.001, seed=42)
        tintin = Tintin(db)
        tintin.install()
        tintin.add_assertion(AT_LEAST_ONE_LINEITEM.sql)
        generator = UpdateGenerator(db, seed=9)
        if violating:
            generator.violating_order_without_lineitem().stage(db)
        else:
            generator.mixed_refresh(4).stage(db)
        return db, tintin

    def view_names(self, tintin):
        return [
            name
            for assertion in tintin.assertions.values()
            for name in assertion.view_names
        ]

    def test_valid_update_agrees(self):
        db, tintin = self.make_workload(violating=False)
        with SQLiteMirror.from_database(db) as mirror:
            sqlite_violated = mirror.any_violation(self.view_names(tintin))
        minidb_violated = tintin.check_pending().rejected
        assert sqlite_violated == minidb_violated is False

    def test_violating_update_agrees(self):
        db, tintin = self.make_workload(violating=True)
        with SQLiteMirror.from_database(db) as mirror:
            names = self.view_names(tintin)
            sqlite_violated = mirror.any_violation(names)
            counts = mirror.check_views(names)
        minidb_violated = tintin.check_pending().rejected
        assert sqlite_violated == minidb_violated is True
        assert sum(counts.values()) >= 1

    def test_same_witness_rows(self):
        db, tintin = self.make_workload(violating=True)
        with SQLiteMirror.from_database(db) as mirror:
            names = self.view_names(tintin)
            for name in names:
                sqlite_rows = sorted(mirror.view_rows(name))
                minidb_rows = sorted(db.query(f"SELECT * FROM {name}").rows)
                assert sqlite_rows == minidb_rows
