"""Dropping a captured table, and creating it again.

An event table (``ins_T`` or ``del_T``) cannot be dropped while ``T``
is captured: every later write to ``T``, and every commit, would fail
on the missing table.

A table an installed assertion reads cannot be dropped: a table created
again under its name would carry no capture triggers, so its writes
would reach the base table unchecked.  Any other captured table takes
its capture with it when dropped — ``ins_T``, ``del_T`` and the
manager's entry — so the next ``install()`` captures the new table, and
a durable engine reopens to the same catalog shape, from a checkpoint
or by replaying the log.
"""

from __future__ import annotations

import pytest

from repro import Database, Tintin
from repro.errors import CatalogError, ExecutionError, ShardError
from repro.shard import ShardedTintin

A_DDL = "CREATE TABLE a (x INTEGER PRIMARY KEY, y INTEGER)"
B_DDL = "CREATE TABLE b (x INTEGER PRIMARY KEY)"
AB = (
    "CREATE ASSERTION ab CHECK (NOT EXISTS (SELECT * FROM a WHERE "
    "NOT EXISTS (SELECT * FROM b WHERE b.x = a.x)))"
)


def build(tintin: Tintin) -> Tintin:
    tintin.db.execute(A_DDL)
    tintin.db.execute(B_DDL)
    tintin.install()
    return tintin


def test_a_table_an_assertion_reads_cannot_be_dropped():
    tintin = build(Tintin(Database()))
    tintin.add_assertion(AB)
    db = tintin.db
    with pytest.raises(CatalogError, match="assertion.*ab"):
        db.execute("DROP TABLE a")
    with pytest.raises(CatalogError, match="assertion.*ab"):
        db.execute("DROP TABLE B")
    # the table, its capture and the assertion are all still in force
    db.execute("INSERT INTO a VALUES (3, 4)")
    result = tintin.safe_commit()
    assert not result.committed and result.checked_views > 0
    assert db.query("SELECT * FROM a").rows == []
    tintin.drop_assertion("ab")
    db.execute("DROP TABLE a")
    assert not db.catalog.has_table("a")


@pytest.mark.parametrize("event_table", ["ins_a", "del_a"])
def test_an_event_table_of_a_captured_table_cannot_be_dropped(event_table):
    tintin = build(Tintin(Database()))
    tintin.add_assertion(AB)
    db = tintin.db
    with pytest.raises(CatalogError, match=f"{event_table}.*captured table 'a'"):
        db.execute(f"DROP TABLE {event_table}")
    assert db.catalog.has_table(event_table)
    # writes to a are still captured and checked, and commit
    db.execute("INSERT INTO a VALUES (3, 4)")
    assert not tintin.safe_commit().committed
    db.execute("INSERT INTO b VALUES (3)")
    db.execute("INSERT INTO a VALUES (3, 4)")
    assert tintin.safe_commit().committed
    db.execute("DELETE FROM a WHERE x = 3")
    assert tintin.safe_commit().committed
    assert db.query("SELECT * FROM a").rows == []
    # dropping a itself still takes both event tables with it
    tintin.drop_assertion("ab")
    db.execute("DROP TABLE a")
    assert not db.catalog.has_table("ins_a")
    assert not db.catalog.has_table("del_a")


def test_a_dropped_captured_table_is_captured_again_by_install():
    tintin = build(Tintin(Database()))
    db = tintin.db
    db.execute("INSERT INTO a VALUES (1, 1)")  # staged, then dropped
    db.execute("DROP TABLE a")
    assert tintin.events.captured_tables == ["b"]
    assert not db.catalog.has_table("ins_a")
    assert not db.catalog.has_table("del_a")
    db.execute(A_DDL)
    assert tintin.install() == ["b", "a"]
    tintin.add_assertion(AB)
    db.execute("INSERT INTO a VALUES (3, 4)")
    assert db.query("SELECT * FROM a").rows == []  # captured, not applied
    assert not tintin.safe_commit().committed
    db.execute("INSERT INTO a VALUES (3, 4)")
    db.execute("INSERT INTO b VALUES (3)")
    assert tintin.safe_commit().committed
    assert db.query("SELECT * FROM a").rows == [(3, 4)]


@pytest.mark.parametrize("checkpoint", [True, False], ids=["checkpoint", "replay"])
def test_a_durable_engine_reopens_after_a_drop_and_recreate(tmp_path, checkpoint):
    tintin = build(Tintin.open(str(tmp_path)))
    tintin.db.execute("DROP TABLE a")
    tintin.db.execute("CREATE TABLE a (x INTEGER PRIMARY KEY, y VARCHAR(5))")
    signature = tintin.db.catalog.shape_signature()
    tintin.close(checkpoint=checkpoint)
    reopened = Tintin.open(str(tmp_path))
    try:
        assert reopened.db.catalog.shape_signature() == signature
        assert reopened.events.captured_tables == ["b"]
        reopened.install()
        reopened.add_assertion(AB)
        reopened.db.execute("INSERT INTO a VALUES (3, 'x')")
        assert not reopened.safe_commit().committed
    finally:
        reopened.close()
    again = Tintin.open(str(tmp_path))
    try:
        assert sorted(again.events.captured_tables) == ["a", "b"]
        assert list(again.assertions) == ["ab"]
    finally:
        again.close()


def test_an_installed_engine_with_nothing_captured_reopens(tmp_path):
    tintin = Tintin.open(str(tmp_path))
    tintin.install()
    tintin.db.execute(A_DDL)
    tintin.close()
    reopened = Tintin.open(str(tmp_path))
    try:
        assert reopened.installed
        assert reopened.events.captured_tables == []
    finally:
        reopened.close()


def test_a_sharded_drop_the_shards_refuse_leaves_the_mirror_whole(tmp_path):
    engine = ShardedTintin(str(tmp_path), shards=2, shard_keys={"a": "x", "b": "x"})
    try:
        engine.execute(A_DDL)
        engine.execute(B_DDL)
        engine.install()
        engine.add_assertion(AB)
        with pytest.raises(ShardError, match="assertion.*ab"):
            engine.execute("DROP TABLE b")
        assert engine.db.catalog.has_table("b")
        session = engine.create_session()
        session.insert("a", [(3, 4)])
        session.insert("b", [(3,)])
        assert session.commit().committed
        assert engine.query("SELECT * FROM b WHERE x = 3").rows == [(3,)]
    finally:
        engine.close()


@pytest.mark.parametrize("event_table", ["ins_a", "del_a"])
def test_a_sharded_event_table_drop_is_refused_and_leaves_the_mirror_whole(
    tmp_path, event_table
):
    engine = ShardedTintin(str(tmp_path), shards=2, shard_keys={"a": "x", "b": "x"})
    try:
        engine.execute(A_DDL)
        engine.execute(B_DDL)
        engine.install()
        engine.add_assertion(AB)
        signature = engine.db.catalog.shape_signature()
        with pytest.raises(ShardError, match="captured table 'a'"):
            engine.execute(f"DROP TABLE {event_table}")
        assert engine.db.catalog.shape_signature() == signature
        session = engine.create_session()
        session.insert("a", [(3, 4)])
        assert not session.commit().committed
        # the refused attempt consumed its update: stage it again
        session.insert("a", [(3, 4)])
        session.insert("b", [(3,)])
        assert session.commit().committed
        assert engine.query("SELECT * FROM a WHERE x = 3").rows == [(3, 4)]
    finally:
        engine.close()


@pytest.mark.parametrize("durable", [False, True], ids=["embedded", "durable"])
@pytest.mark.parametrize("route", ["default", "session"])
def test_a_drop_under_staged_rows_takes_only_that_tables_rows(
    tmp_path, route, durable
):
    """One contract on every route: the staged rows of a dropped table
    go with it, and the rest of the update commits."""
    tintin = build(Tintin.open(str(tmp_path)) if durable else Tintin(Database()))
    db = tintin.db
    session = tintin.create_session() if route == "session" else None
    stage = db.insert_rows if session is None else session.insert
    stage("a", [(1, 1)])
    stage("b", [(2,)])
    db.execute("DROP TABLE a")
    result = tintin.safe_commit(session)
    assert result.committed and result.applied_rows == 1
    assert db.query("SELECT * FROM b").rows == [(2,)]
    db.execute(A_DDL)
    if session is not None:
        # the session's staging belonged to the dropped table
        with pytest.raises(ExecutionError, match="not instrumented"):
            session.insert("a", [(3, 3)])
    assert tintin.safe_commit(session).applied_rows == 0
    if durable:
        tintin.close()
        reopened = Tintin.open(str(tmp_path))
        try:
            assert reopened.db.query("SELECT * FROM b").rows == [(2,)]
            assert reopened.db.query("SELECT * FROM a").rows == []
        finally:
            reopened.close()
