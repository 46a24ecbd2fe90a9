"""The shard router refuses an assertion no shard can check alone.

Each shard validates its slice of a commit against only the rows it
holds, which is sound exactly when every row of a violation lives on
one shard.  ``ShardConfig.require_local`` compiles the assertion on the
router's catalog mirror and accepts it only when every denial's atoms
meet on co-located shard keys.  Most cases drive it on a plain catalog;
one drives it through a live router.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.errors import CompilationError
from repro.shard import ShardConfig, ShardedTintin
from repro.tpch.assertions import ALL_ASSERTIONS, by_name
from repro.tpch.schema import tpch_database

ORDERS_DDL = "CREATE TABLE orders (id INTEGER PRIMARY KEY, total DOUBLE)"
ITEMS_DDL = (
    "CREATE TABLE items (order_id INTEGER, n INTEGER, qty INTEGER, "
    "PRIMARY KEY (order_id, n))"
)
AT_LEAST_ONE_ITEM = (
    "CREATE ASSERTION atLeastOneItem CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE NOT EXISTS ("
    "SELECT * FROM items AS i WHERE i.order_id = o.id)))"
)
MAX_THREE_ITEMS = (
    "CREATE ASSERTION maxThreeItems CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE "
    "(SELECT COUNT(*) FROM items AS i WHERE i.order_id = o.id) > 3))"
)
POSITIVE_QTY = (
    "CREATE ASSERTION positiveQty CHECK (NOT EXISTS ("
    "SELECT * FROM items AS i WHERE i.qty < 1))"
)
KEYS = {"orders": "id", "items": "order_id"}
ORDER_JOIN = "items.order_id = orders.id"


def shop(items_ddl: str = ITEMS_DDL) -> Database:
    db = Database("mirror")
    db.execute(ORDERS_DDL)
    db.execute(items_ddl)
    return db


def refusal(db: Database, keys: dict, sql: str) -> str:
    with pytest.raises(CompilationError) as caught:
        ShardConfig(2, keys).require_local(db, sql)
    return str(caught.value)


class TestTpch:
    @pytest.mark.parametrize(
        "name", ["lineItemHasPartSupp", "quantityWithinStock"]
    )
    def test_partsupp_joins_off_the_shard_key_are_refused(self, name):
        """lineitem keyed on its order, partsupp pinned: a lineitem on
        shard 1 would be checked against shard 1's empty partsupp."""
        message = refusal(
            tpch_database(), {"lineitem": "l_orderkey"}, by_name(name).sql
        )
        assert name in message
        assert "lineitem.l_partkey = partsupp.ps_partkey" in message

    def test_order_keyed_assertions_are_accepted(self):
        """orders and lineitem keyed on the order key, the rest pinned:
        only the two lineitem ⋈ partsupp assertions cross shards."""
        config = ShardConfig(
            2, {"orders": "o_orderkey", "lineitem": "l_orderkey"}
        )
        db = tpch_database()
        refused = []
        for spec in ALL_ASSERTIONS:
            try:
                config.require_local(db, spec.sql)
            except CompilationError:
                refused.append(spec.name)
        assert sorted(refused) == ["lineItemHasPartSupp", "quantityWithinStock"]


class TestRules:
    def test_shard_fixture_assertions_are_local(self):
        config = ShardConfig(2, KEYS)
        for sql in (AT_LEAST_ONE_ITEM, MAX_THREE_ITEMS, POSITIVE_QTY):
            config.require_local(shop(), sql)

    def test_join_off_the_shard_key_is_refused(self):
        message = refusal(
            shop(), {"orders": "id", "items": "n"}, AT_LEAST_ONE_ITEM
        )
        assert ORDER_JOIN in message
        assert "items keyed on n" in message

    def test_key_columns_of_different_types_are_refused(self):
        """``shard_of(5) != shard_of(5.0)``: equal values of an INTEGER
        and a DOUBLE key can land on different shards."""
        items = ITEMS_DDL.replace("order_id INTEGER", "order_id DOUBLE")
        assert ORDER_JOIN in refusal(shop(items), KEYS, AT_LEAST_ONE_ITEM)

    def test_pinned_tables_colocate_only_with_each_other(self):
        ShardConfig(2, {}).require_local(shop(), AT_LEAST_ONE_ITEM)
        message = refusal(shop(), {"orders": "id"}, AT_LEAST_ONE_ITEM)
        assert "items pinned to shard 0" in message

    def test_wildcard_pair_is_refused_unless_both_pinned(self):
        """Rows related only by a comparison have no key to co-locate
        them on."""
        sql = (
            "CREATE ASSERTION qtyBelowTotal CHECK (NOT EXISTS ("
            "SELECT * FROM orders AS o, items AS i WHERE i.qty > o.total))"
        )
        assert "related through no equated key" in refusal(shop(), KEYS, sql)
        ShardConfig(2, {}).require_local(shop(), sql)

    def test_aggregate_correlated_off_the_shard_key_is_refused(self):
        message = refusal(
            shop(), {"orders": "id", "items": "n"}, MAX_THREE_ITEMS
        )
        assert ORDER_JOIN in message


def test_refused_assertion_never_reaches_a_shard(tmp_path):
    engine = ShardedTintin(
        str(tmp_path), shards=2, shard_keys={"orders": "id"}
    )
    try:
        engine.execute(ORDERS_DDL)
        engine.execute(ITEMS_DDL)
        engine.install()
        with pytest.raises(CompilationError, match=ORDER_JOIN):
            engine.add_assertion(AT_LEAST_ONE_ITEM)
        # no shard installed it: an itemless order commits
        session = engine.create_session()
        session.insert("orders", [(1, 1.0)])
        assert session.commit().committed
        engine.add_assertion(POSITIVE_QTY)
        session = engine.create_session()
        session.insert("items", [(1, 1, 0)])
        result = session.commit()
        assert not result.committed and result.violations
    finally:
        engine.close()
