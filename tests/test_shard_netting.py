"""A sharded session nets its update as an embedded session does.

A :class:`~repro.shard.router.ShardSession` keeps the last operation
on each row, and every shard stages its slice through its own staged
update before its scheduler sees it
(:func:`repro.shard.worker.net_slice`).  So on a keyless table an
insert of a stored row adds no second copy, an insert then a delete
of a new row stores nothing, and an insert then a delete of a stored
row deletes it — on a shard-local commit and on a two-phase one alike.
Each script below is run commit by commit on a two-shard engine and
on an embedded engine's session, and the stored rows are compared
after every commit.
"""

from __future__ import annotations

import pytest

from repro import Database, Tintin
from repro.shard import ShardedTintin

T_DDL = "CREATE TABLE t (x INTEGER, y INTEGER)"

#: commits of ``(operation, row)`` steps; ``x`` is the shard key, so
#: an odd and an even ``x`` in one commit make it a two-phase commit
SCRIPTS = {
    "insert a stored row again": [
        [("insert", (1, 1))],
        [("insert", (1, 1))],
    ],
    "insert then delete a new row": [
        [("insert", (2, 2)), ("delete", (2, 2))],
    ],
    "insert then delete a stored row": [
        [("insert", (3, 3))],
        [("insert", (3, 3)), ("delete", (3, 3))],
    ],
    "delete then insert a stored row": [
        [("insert", (5, 5))],
        [("delete", (5, 5)), ("insert", (5, 5))],
    ],
    "delete then insert a new row": [
        [("delete", (7, 7)), ("insert", (7, 7))],
    ],
    "across shards": [
        [("insert", (1, 1)), ("insert", (2, 2))],
        [
            ("insert", (1, 1)),
            ("insert", (2, 2)),
            ("insert", (4, 4)),
            ("delete", (4, 4)),
        ],
        [("insert", (2, 2)), ("delete", (2, 2)), ("delete", (9, 9))],
        [("delete", (1, 1)), ("insert", (1, 1)), ("insert", (6, 6))],
    ],
}


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    engine = ShardedTintin(
        str(tmp_path_factory.mktemp("netting")), shards=2, shard_keys={"t": "x"}
    )
    engine.execute(T_DDL)
    engine.install()
    yield engine
    engine.close()


def stored(engine) -> list[tuple]:
    query = engine.query if isinstance(engine, ShardedTintin) else engine.db.query
    return sorted(tuple(row) for row in query("SELECT * FROM t").rows)


def run(engine, commits) -> list[list[tuple]]:
    """The stored rows after each commit of ``commits``."""
    states = []
    for steps in commits:
        session = engine.create_session()
        for operation, row in steps:
            getattr(session, operation)("t", [row])
        assert session.commit().committed
        session.expire()
        states.append(stored(engine))
    return states


@pytest.mark.parametrize("name", list(SCRIPTS))
def test_a_sharded_commit_ends_where_an_embedded_one_does(sharded, name):
    embedded = Tintin(Database())
    embedded.db.execute(T_DDL)
    embedded.install()
    expected = run(embedded, SCRIPTS[name])
    try:
        assert run(sharded, SCRIPTS[name]) == expected
    finally:
        for x, y in stored(sharded):
            session = sharded.create_session()
            session.delete("t", [(x, y)])
            session.commit()
    assert stored(sharded) == []


def test_the_repro_states(sharded):
    """The two repros as the embedded engine answers them."""
    commits = SCRIPTS["insert a stored row again"] + SCRIPTS[
        "insert then delete a new row"
    ]
    try:
        assert run(sharded, commits) == [[(1, 1)], [(1, 1)], [(1, 1)]]
    finally:
        session = sharded.create_session()
        session.delete("t", [(1, 1)])
        session.commit()



ORDERS_DDL = "CREATE TABLE orders (id INTEGER PRIMARY KEY)"
ITEMS_DDL = (
    "CREATE TABLE items (order_id INTEGER, n INTEGER, "
    "PRIMARY KEY (order_id, n), "
    "FOREIGN KEY (order_id) REFERENCES orders (id))"
)
AT_LEAST_ONE = (
    "CREATE ASSERTION atLeastOneItem CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE NOT EXISTS ("
    "SELECT * FROM items AS i WHERE i.order_id = o.id)))"
)


def refused_then_retried(engine, execute, query) -> tuple[list, list]:
    """Stage an itemless order (refused), then only its item: the
    verdicts and the stored tables."""
    for ddl in (ORDERS_DDL, ITEMS_DDL):
        execute(ddl)
    engine.install()
    engine.add_assertion(AT_LEAST_ONE)
    session = engine.create_session()
    session.insert("orders", [(1,)])
    verdicts = [session.commit().committed]
    session.insert("items", [(1, 1)])
    verdicts.append(session.commit().committed)
    tables = [
        sorted(tuple(row) for row in query(f"SELECT * FROM {table}").rows)
        for table in ("orders", "items")
    ]
    return verdicts, tables


def test_a_refused_commit_consumes_its_update_on_both_engines(tmp_path):
    """A refused commit's update is not staged any more, so the next
    commit sends only its own item — which the foreign key refuses —
    on a sharded session as on an embedded one."""
    embedded = Tintin(Database())
    expected = refused_then_retried(
        embedded, embedded.db.execute, embedded.db.query
    )
    assert expected == ([False, False], [[], []])
    sharded = ShardedTintin(
        str(tmp_path), shards=2, shard_keys={"orders": "id", "items": "order_id"}
    )
    try:
        assert refused_then_retried(sharded, sharded.execute, sharded.query) == (
            expected
        )
    finally:
        sharded.close()
