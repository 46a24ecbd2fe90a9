"""The consistency premise is checked when a seeded assertion installs.

Every EDC assumes that the state before an update satisfies the
assertion.  A guard-mode EDC's seeded delta plan probes only the parents
an update touches, so it would never see a violation the state already
held: ``Tintin.add_assertion`` therefore runs such an assertion's
defining query once, and refuses the install when it finds witnesses.
Recovery installs unchecked (the premise was checked at the first
install), so a reopen never fails on it; a bulk loader that bypassed
the triggers checks the premise itself with ``full_check_commit()``.
A sharded engine refuses on every shard when one shard's rows violate.
"""

from __future__ import annotations

import os

import pytest

from repro import Database, Tintin
from repro.core.safe_commit import Violation
from repro.errors import AssertionDefinitionError, ShardError
from repro.shard import ShardedTintin

ORDERS_DDL = "CREATE TABLE orders (id INTEGER PRIMARY KEY, total DOUBLE)"
ITEMS_DDL = (
    "CREATE TABLE items (order_id INTEGER, n INTEGER, qty INTEGER, "
    "PRIMARY KEY (order_id, n), "
    "FOREIGN KEY (order_id) REFERENCES orders (id))"
)
MAX_ITEM = (
    "CREATE ASSERTION everyOrderHasMaxItem CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE NOT EXISTS ("
    "SELECT * FROM items AS i WHERE i.order_id = o.id "
    "AND NOT EXISTS (SELECT * FROM items AS j "
    "WHERE j.order_id = i.order_id AND j.qty > i.qty))))"
)


def build(tintin: Tintin) -> Tintin:
    tintin.db.execute(ORDERS_DDL)
    tintin.db.execute(ITEMS_DDL)
    tintin.install()
    return tintin


def commit_order(tintin: Tintin, key: int, qtys: list[int]) -> bool:
    tintin.db.execute(f"INSERT INTO orders VALUES ({key}, {key}.0)")
    for n, qty in enumerate(qtys, start=1):
        tintin.db.execute(f"INSERT INTO items VALUES ({key}, {n}, {qty})")
    return tintin.safe_commit().committed


def installed(tintin: Tintin) -> tuple:
    """Everything an install could leave behind."""
    return (
        dict(tintin.assertions),
        sorted(view.name for view in tintin.db.catalog.views()),
        list(tintin.safe_commit_proc.compiled),
        list(tintin.baseline.assertions),
    )


def test_a_violated_seeded_assertion_is_refused_and_leaves_nothing(tmp_path):
    tintin = build(Tintin.open(str(tmp_path / "engine")))
    # order 2 has no item, so no maximal one: it violates the assertion
    assert commit_order(tintin, 1, [3, 7])
    assert commit_order(tintin, 2, [])
    wal = os.path.join(str(tmp_path / "engine"), "wal.log")
    before, logged = installed(tintin), open(wal, "rb").read()

    with pytest.raises(AssertionDefinitionError, match="violated") as refused:
        tintin.add_assertion(MAX_ITEM)
    assert refused.value.violations == [
        Violation(
            assertion="everyOrderHasMaxItem",
            edc_name="everyOrderHasMaxItem(full query 1)",
            columns=["id", "total"],
            rows=[(2, 2.0)],
        )
    ]
    assert installed(tintin) == before
    assert open(wal, "rb").read() == logged

    # a later valid commit commits, and once the witness is repaired
    # the same assertion installs and checks
    assert commit_order(tintin, 3, [1])
    tintin.db.execute("INSERT INTO items VALUES (2, 1, 4)")
    assert tintin.safe_commit().committed
    tintin.add_assertion(MAX_ITEM)
    assert not commit_order(tintin, 4, [])
    assert tintin.full_check_commit().committed
    tintin.close()


def test_an_assertion_without_a_seeded_plan_is_installed_unchecked():
    tintin = build(Tintin(Database()))
    assert commit_order(tintin, 1, [])
    # no seeded EDC: the premise is assumed, as the paper assumes it
    tintin.add_assertion(
        "CREATE ASSERTION atLeastOneItem CHECK (NOT EXISTS ("
        "SELECT * FROM orders AS o WHERE NOT EXISTS ("
        "SELECT * FROM items AS i WHERE i.order_id = o.id)))"
    )
    assert not any(
        c.delta_prepared for c in tintin.safe_commit_proc.compiled
    )
    assert not tintin.full_check_commit().committed


def test_a_reopen_over_a_bulk_loaded_violation_succeeds(tmp_path):
    path = str(tmp_path / "engine")
    tintin = build(Tintin.open(path))
    tintin.add_assertion(MAX_ITEM)
    assert commit_order(tintin, 1, [2])
    # a bypassing bulk load is not checked: its loader runs the check
    tintin.db.insert_rows("orders", [(9, 9.0)], bypass_triggers=True)
    tintin.checkpoint()
    tintin.close(checkpoint=False)

    reopened = Tintin.open(path)
    assert "everyOrderHasMaxItem" in reopened.assertions
    result = reopened.full_check_commit()
    assert not result.committed
    assert [v.rows for v in result.violations] == [[(9, 9.0)]]
    reopened.close()


def test_a_violation_on_one_shard_refuses_the_install_on_both(tmp_path):
    engine = ShardedTintin(
        str(tmp_path),
        shards=2,
        shard_keys={"orders": "id", "items": "order_id"},
    )
    try:
        engine.execute(ORDERS_DDL)
        engine.execute(ITEMS_DDL)
        engine.install()
        session = engine.create_session()
        session.insert("orders", [(1, 1.0), (2, 2.0)])
        session.insert("items", [(1, 1, 5)])  # order 2 has no item
        assert session.commit().committed
        assert {engine.config.shard_of(1), engine.config.shard_of(2)} == {0, 1}

        with pytest.raises(ShardError, match="AssertionDefinitionError"):
            engine.add_assertion(MAX_ITEM)
        # neither shard holds it: an itemless order commits on order
        # 1's shard, which found no witness
        session.insert("orders", [(3, 3.0)])
        assert engine.config.shard_of(3) == engine.config.shard_of(1)
        assert session.commit().committed

        # repaired, the assertion installs on both — a shard that had
        # kept it would refuse it as a duplicate
        session.insert("items", [(2, 1, 1), (3, 1, 1)])
        assert session.commit().committed
        assert engine.add_assertion(MAX_ITEM) == "everyOrderHasMaxItem"
        session.insert("orders", [(4, 4.0), (5, 5.0)])
        result = session.commit()
        assert not result.committed
        assert "everyOrderHasMaxItem" in str(result)
    finally:
        engine.close()
