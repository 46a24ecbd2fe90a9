"""A row is validated once, where it enters the engine.

Staging validates what it stages, and the batch apply trusts rows that
staging handed it (``ValidatedRows`` checked against the target table's
own schema) instead of validating them again.
Every other way rows reach the apply — a direct ``db.apply_batch``, WAL
replay, the pipe to a shard worker — hands it plain lists, which it
still validates.  So a wrong-arity and a wrong-type row are refused on
every route, with the error each route has always raised, and neither
reaches a table.
"""

from __future__ import annotations

import pickle

import pytest

from repro import Tintin
from repro.errors import ExecutionError, RecoveryError, ShardError, TypeCheckError
from repro.minidb import Database, storage
from repro.minidb.storage import ValidatedRows
from repro.minidb.writer import VALIDATE
from repro.shard import ShardedTintin

ORDERS_DDL = "CREATE TABLE orders (id INTEGER PRIMARY KEY, total DOUBLE)"
#: ``(row, the error it raises, its message)``
BAD_ROWS = [
    pytest.param(
        (7,), ExecutionError, "table 'orders' expects 2 values, got 1", id="arity"
    ),
    pytest.param(
        (7, "seven"),
        TypeCheckError,
        "column orders.total: 'seven' is not a DOUBLE",
        id="type",
    ),
]


def engine() -> Tintin:
    db = Database()
    db.execute(ORDERS_DDL)
    db.insert_rows("orders", [(1, 1.0)])
    tintin = Tintin(db)
    tintin.install()
    return tintin


def literal(row: tuple) -> str:
    return ", ".join(repr(value) for value in row)


@pytest.mark.parametrize("row, error, message", BAD_ROWS)
class TestEveryRouteRefuses:
    def refused(self, tintin: Tintin, action, error, message) -> None:
        with pytest.raises(error) as caught:
            action()
        assert str(caught.value) == message
        assert tintin.db.table("orders").rows_snapshot() == [(1, 1.0)]
        assert tintin.events.staged.counts() == {"orders": (0, 0)}

    def test_db_execute(self, row, error, message):
        tintin = engine()
        sql = f"INSERT INTO orders VALUES ({literal(row)})"
        self.refused(tintin, lambda: tintin.db.execute(sql), error, message)

    def test_session_insert(self, row, error, message):
        tintin = engine()
        session = tintin.create_session()
        self.refused(
            tintin, lambda: session.insert("orders", [row]), error, message
        )
        assert session.pending_counts()["orders"] == (0, 0)

    def test_bulk_load_bypassing_triggers(self, row, error, message):
        tintin = engine()
        self.refused(
            tintin,
            lambda: tintin.db.insert_rows("orders", [row], bypass_triggers=True),
            error,
            message,
        )

    def test_direct_apply_batch(self, row, error, message):
        tintin = engine()
        db = tintin.db
        self.refused(
            tintin, lambda: db.apply_batch({"orders": [row]}, {}), error, message
        )
        self.refused(
            tintin, lambda: db.apply_batch({}, {"orders": [row]}), error, message
        )
        # staged rows that cross a process boundary arrive as a plain
        # list, and are validated again
        schema = db.table("orders").schema
        crossed = pickle.loads(pickle.dumps(ValidatedRows([row], schema)))
        assert type(crossed) is list
        self.refused(
            tintin, lambda: db.apply_batch({"orders": crossed}, {}), error, message
        )

    def test_wal_replay(self, row, error, message, tmp_path):
        tintin = Tintin.open(str(tmp_path))
        tintin.db.execute(ORDERS_DDL)
        tintin.install()
        tintin.durability.append_batch({"orders": [row]}, {}, counts={"orders": 1})
        tintin.durability.sync()
        with pytest.raises(RecoveryError) as caught:
            Tintin.open(str(tmp_path))
        assert f"rejected by the engine: {message}" in str(caught.value)


def test_rows_checked_against_another_schema_are_checked_again():
    tintin = engine()
    db = tintin.db
    # the same DDL on another database: an equal schema, not this one
    other = Database()
    other.execute(ORDERS_DDL)
    stale = ValidatedRows([(7, "seven")], other.table("orders").schema)
    with pytest.raises(TypeCheckError):
        db.apply_batch({"orders": stale}, {})
    trusted = ValidatedRows([(7, 7.0)], db.table("orders").schema)
    assert db.table("orders").validate_rows(trusted) is trusted
    assert db.table("orders").rows_snapshot() == [(1, 1.0)]


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    engine = ShardedTintin(
        str(tmp_path_factory.mktemp("validate_once")),
        shards=2,
        shard_keys={"orders": "id"},
    )
    engine.execute(ORDERS_DDL)
    engine.install()
    yield engine
    engine.close()


@pytest.mark.parametrize("row, error, message", BAD_ROWS)
def test_shard_session_insert(sharded, row, error, message):
    session = sharded.create_session()
    with pytest.raises(error) as caught:
        session.insert("orders", [row])
    assert str(caught.value) == message
    assert sharded.query("SELECT * FROM orders").rows == []


def test_shard_pipe(sharded):
    """Rows sent straight to a shard worker are validated by the
    worker's apply."""
    with pytest.raises(ShardError) as caught:
        sharded.commit_events({"orders": [(8, "eight")]}, {})
    assert str(caught.value) == (
        "shard 0 commit failed: TypeCheckError: "
        "column orders.total: 'eight' is not a DOUBLE"
    )
    assert sharded.query("SELECT * FROM orders").rows == []


@pytest.mark.parametrize("route", ["default", "session"])
def test_a_staged_row_is_validated_once(route, monkeypatch):
    tintin = engine()
    validated = []
    real = storage.row_code

    def spy(table, mode, *args):
        function = real(table, mode, *args)
        if mode != VALIDATE:
            return function

        def counted(rows, out):
            rows = list(rows)
            validated.extend(tuple(row) for row in rows)
            return function(rows, out)

        return counted

    monkeypatch.setattr(storage, "row_code", spy)
    if route == "default":
        tintin.db.execute("INSERT INTO orders VALUES (2, 2.0)")
        tintin.db.execute("DELETE FROM orders WHERE id = 1")
        result = tintin.safe_commit()
        # a DELETE's victims are stored rows: nothing to validate
        assert validated == [(2, 2.0)]
    else:
        session = tintin.create_session()
        session.insert("orders", [(2, 2)])
        session.delete("orders", [(1, 1.0)])
        result = session.commit()
        assert validated == [(2, 2), (1, 1.0)]
    assert result.committed
    assert tintin.db.table("orders").rows_snapshot() == [(2, 2.0)]


def test_a_staged_delete_is_the_stored_row():
    """The default session does not validate delete rows; what it
    stages is the row the table stores, however the caller spelled
    its values — so ``del_T`` too holds validated rows only."""
    tintin = engine()
    tintin.db.delete_rows("orders", [(1, 1), (9, 9.0)])
    staged = tintin.db.table("del_orders").rows_snapshot()
    assert staged == [(1, 1.0)] and type(staged[0][1]) is float
    assert tintin.safe_commit().committed
    assert tintin.db.table("orders").rows_snapshot() == []
