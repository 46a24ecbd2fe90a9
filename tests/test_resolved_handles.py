"""Table handles resolved once per catalog version follow DDL.

The catalog remembers each name it resolved until the next DDL bumps
its version; the capture triggers, the commit's take of the event
tables, the check pass's emptiness probes and the batch apply all look
tables up through it.  DDL between staging and commit — a table
created, a table dropped and created again under its old name —
re-resolves them: every verdict equals a fresh engine's, which never
saw the DDL, and a write to the re-created table lands in the new
table, not the dropped one.  Staged rows of a captured table that is
dropped and created again with other column types go with the drop, on
the default session (with the table's event tables) and on a session
alike: neither commits them into the new table.
"""

from __future__ import annotations

import pytest

from repro import Tintin
from repro.minidb import Database
from tests.test_core_tintin import AT_LEAST_ONE, make_db

NOTES_DDL = "CREATE TABLE notes (k INTEGER, memo VARCHAR(20))"
#: ``(statements, expected to commit)``
UPDATES = [
    (
        [
            "INSERT INTO orders VALUES (2, 20)",
            "INSERT INTO lineitem VALUES (2, 1, 3)",
        ],
        True,
    ),
    (["INSERT INTO orders VALUES (3, 30)"], False),
    (["DELETE FROM lineitem WHERE l_orderkey = 1"], False),
    (
        [
            "INSERT INTO lineitem VALUES (1, 2, 4)",
            "DELETE FROM lineitem WHERE l_orderkey = 1 AND l_linenumber = 1",
        ],
        True,
    ),
    (
        [
            "DELETE FROM lineitem WHERE l_orderkey = 2",
            "DELETE FROM orders WHERE o_orderkey = 2",
        ],
        True,
    ),
]


def build() -> Tintin:
    db = make_db()
    db.execute(NOTES_DDL)
    tintin = Tintin(db)
    tintin.install(["orders", "lineitem"])
    tintin.add_assertion(AT_LEAST_ONE)
    db.insert_rows("orders", [(1, 10)], bypass_triggers=True)
    db.insert_rows("lineitem", [(1, 1, 5)], bypass_triggers=True)
    return tintin


def run(tintin: Tintin, route: str, ddl) -> list:
    """Commit every update through ``route``, running ``ddl(step)``
    between its staging and its commit; the verdicts and final rows."""
    session = tintin.create_session() if route == "session" else None
    stage = session.execute if session is not None else tintin.db.execute
    verdicts = []
    for step, (statements, _) in enumerate(UPDATES):
        for sql in statements:
            stage(sql)
        ddl(step)
        result = tintin.safe_commit(session)
        verdicts.append(
            (
                result.committed,
                sorted(v.assertion for v in result.violations),
                result.checked_views,
                result.skipped_views,
            )
        )
        if session is not None:
            session.discard()
    rows = {
        name: sorted(tintin.db.table(name).scan())
        for name in ("orders", "lineitem")
    }
    return [verdicts, rows]


@pytest.mark.parametrize("route", ["default", "session"])
def test_verdicts_after_ddl_between_staging_and_commit(route):
    tintin = build()
    db = tintin.db
    # resolve every cached handle before the first DDL
    db.execute("INSERT INTO lineitem VALUES (1, 9, 1)")
    assert tintin.safe_commit().committed
    db.apply_batch({"notes": [(0, "old")]}, {})
    db.execute("DELETE FROM lineitem WHERE l_linenumber = 9")
    assert tintin.safe_commit().committed

    def ddl(step: int) -> None:
        db.execute(f"CREATE TABLE unrelated{step} (x INTEGER)")
        db.execute("DROP TABLE notes")
        db.execute(NOTES_DDL)
        db.apply_batch({"notes": [(step, f"memo {step}")]}, {})

    changed = run(tintin, route, ddl)
    assert changed == run(build(), route, lambda step: None)
    assert [committed for committed, *_ in changed[0]] == [
        expected for _, expected in UPDATES
    ]
    # the last apply went to the table created last
    assert db.query("SELECT * FROM notes").rows == [(4, "memo 4")]
    # the catalog resolved the names again after the last DDL
    assert db.catalog._resolved["notes"] is db.table("notes")


@pytest.mark.parametrize("route", ["default", "session"])
def test_staged_rows_of_a_recreated_captured_table_go_with_the_drop(route):
    db = Database()
    db.execute("CREATE TABLE orders (id INTEGER PRIMARY KEY, total DOUBLE)")
    tintin = Tintin(db)
    tintin.install()
    session = tintin.create_session() if route == "session" else None
    if session is not None:
        session.insert("orders", [(2, 2.5)])
    else:
        db.execute("INSERT INTO orders VALUES (2, 2.5)")
    db.execute("DROP TABLE orders")
    db.execute("CREATE TABLE orders (id INTEGER PRIMARY KEY, total VARCHAR(10))")
    # the drop took the capture with it: ins_orders and its event
    assert not db.catalog.has_table("ins_orders")
    assert tintin.safe_commit(session).applied_rows == 0
    assert db.table("orders").rows_snapshot() == []
