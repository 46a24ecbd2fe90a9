"""Reads the router sends to one shard, held to the scatter they replace.

A non-aggregate SELECT whose one keyed table is pinned to a key by a
top-level ``key = constant`` conjunct, or whose tables are all pinned to
shard 0, can find rows on one shard only: every stored row sits on the
shard of its own key.  The router sends such a read to that shard, under
its routing lock alone, and scatters everything else as before.

The grid below covers INTEGER, DOUBLE and VARCHAR keys, constants that
need coercion (``5.0`` against an INTEGER key, ``-3`` against a DOUBLE
one — where the two spellings place on different shards), negative
constants, the key on either side, qualified and unqualified columns,
an ``EXISTS`` over a co-located table, pinned tables, and every shape
that must scatter.  For each text the rows must equal the union of
every shard's own answer, and the pipes show where it went: one
``send``/``recv`` on the owning shard, or a send to every shard.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ShardError
from repro.minidb import Database
from repro.shard import ShardedTintin
from repro.shard.config import ShardConfig
from tests.test_shard_scatter import pipe_log  # noqa: F401  (fixture)

DDL = [
    "CREATE TABLE orders (id INTEGER PRIMARY KEY, total DOUBLE)",
    "CREATE TABLE items (order_id INTEGER, n INTEGER, "
    "PRIMARY KEY (order_id, n), "
    "FOREIGN KEY (order_id) REFERENCES orders (id))",
    "CREATE TABLE prices (p DOUBLE PRIMARY KEY, label VARCHAR(10))",
    "CREATE TABLE tags (name VARCHAR(10) PRIMARY KEY, v INTEGER)",
    "CREATE TABLE region (r INTEGER PRIMARY KEY, label VARCHAR(10))",
]
KEYS = {"orders": "id", "items": "order_id", "prices": "p", "tags": "name"}
ORDER_IDS = [-9, -7, -4, -3, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8]
#: -0.0 places on another shard than 0.0, yet ``p = 0`` matches it
PRICES = [-3.0, -2.5, -0.0, 1.5, 5.0, 6.0, 7.0]
TAGS = ["a", "b", "c", "d", "e"]
REGIONS = [1, 2, 3, 4]

place = ShardConfig(2).shard_of

#: ``(text, the one shard it must reach)``
ROUTED = [
    ("SELECT * FROM orders WHERE id = 3", place(3)),
    ("SELECT * FROM orders WHERE id = 4", place(4)),
    ("SELECT o.id, o.total FROM orders AS o WHERE o.id = 5", place(5)),
    ("SELECT * FROM orders AS o WHERE 6 = o.id", place(6)),
    ("SELECT * FROM orders AS o WHERE id = -3", place(-3)),
    ("SELECT * FROM orders AS o WHERE -7 = o.id", place(-7)),
    ("SELECT * FROM orders WHERE id = -3.0", place(-3)),
    ("SELECT * FROM orders WHERE id = 5.0", place(5)),
    ("SELECT * FROM orders WHERE id = 99", place(99)),
    ("SELECT * FROM orders AS o WHERE o.total > 1 AND o.id = 7", place(7)),
    ("SELECT DISTINCT o.total FROM orders AS o WHERE o.id = -4", place(-4)),
    (
        "SELECT * FROM orders AS o WHERE o.id = 4 AND EXISTS ("
        "SELECT * FROM items AS i WHERE i.order_id = o.id)",
        place(4),
    ),
    (
        "SELECT * FROM orders AS o WHERE NOT EXISTS ("
        "SELECT * FROM items AS i WHERE i.order_id = o.id) AND o.id = -9",
        place(-9),
    ),
    ("SELECT * FROM items AS i WHERE i.order_id = -1", place(-1)),
    ("SELECT * FROM prices WHERE p = 5", place(5.0)),
    ("SELECT * FROM prices WHERE p = 5.0", place(5.0)),
    ("SELECT * FROM prices AS x WHERE x.p = -3", place(-3.0)),
    ("SELECT x.label FROM prices AS x WHERE -2.5 = x.p", place(-2.5)),
    ("SELECT * FROM tags WHERE name = 'b'", place("b")),
    ("SELECT * FROM tags AS t WHERE 'c' = t.name AND t.v > 0", place("c")),
    ("SELECT * FROM region", 0),
    ("SELECT * FROM region AS r WHERE r.r = 3", 0),
    ("SELECT * FROM region AS r, region AS s WHERE r.r = s.r", 0),
    (
        "SELECT * FROM region AS r WHERE EXISTS ("
        "SELECT * FROM orders AS o WHERE o.id = r.r)",
        0,
    ),
]
SCATTERED = [
    "SELECT * FROM orders",
    "SELECT * FROM orders AS o WHERE o.id > 3",
    "SELECT COUNT(*) FROM orders WHERE id = 3",
    "SELECT COUNT(*) FROM region",
    "SELECT * FROM orders WHERE id = 3 UNION SELECT * FROM orders WHERE id = 4",
    "SELECT * FROM orders AS o, items AS i WHERE o.id = 3 AND i.order_id = o.id",
    "SELECT * FROM orders AS o, region AS r WHERE o.id = 3 AND r.r = 3",
    "SELECT * FROM orders WHERE id = 3 OR id = 4",
    "SELECT * FROM orders AS o WHERE o.id = 3 OR o.id = -3.0",
    "SELECT * FROM orders WHERE id IN (3, 4)",
    "SELECT * FROM orders WHERE id = NULL",
    "SELECT * FROM orders AS o WHERE o.id = o.total",
    "SELECT * FROM orders AS o WHERE o.id = 2.5",
    "SELECT * FROM prices WHERE p = 0",
    "SELECT * FROM prices WHERE p = -0.0",
    "SELECT * FROM tags WHERE name = 'longer than ten'",
    "SELECT * FROM pricey AS p WHERE p.id = 5",
    (
        "SELECT * FROM orders AS o WHERE EXISTS ("
        "SELECT * FROM items AS i WHERE i.order_id = o.id AND i.order_id = 4)"
    ),
]


def build(directory) -> ShardedTintin:
    engine = ShardedTintin(str(directory), shards=2, shard_keys=KEYS)
    for ddl in DDL:
        engine.execute(ddl)
    engine.execute(
        "CREATE VIEW pricey AS SELECT * FROM orders AS o WHERE o.total > 6"
    )
    engine.install()
    return engine


def load(engine) -> None:
    session = engine.create_session()
    session.insert("orders", [(k, k * 1.5) for k in ORDER_IDS])
    session.insert("items", [(k, 1) for k in ORDER_IDS if k % 3])
    session.insert("prices", [(p, f"p{p}") for p in PRICES])
    session.insert("tags", [(t, i) for i, t in enumerate(TAGS)])
    session.insert("region", [(r, f"r{r}") for r in REGIONS])
    assert session.commit().committed


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    engine = build(tmp_path_factory.mktemp("point_reads"))
    load(engine)
    yield engine
    engine.close()


def per_shard(engine, sql: str) -> list[list[tuple]]:
    return [
        sorted(tuple(row) for row in handle.call("query", sql)[1])
        for handle in engine.handles
    ]


def one_call(shard: int) -> list[tuple[str, int, str]]:
    """The pipe log of one ``call`` to ``shard``."""
    return [("send", shard, "query"), ("recv", shard, "query")]


def test_the_grid_stores_rows_on_both_shards_and_a_zero_apart(sharded):
    # the grid's negative keys test the coercion: there an INTEGER and
    # its DOUBLE spelling place on different shards
    assert place(-3) != place(-3.0) and place(-7) != place(-7.0)
    assert place(0.0) != place(-0.0)
    rows = per_shard(sharded, "SELECT * FROM orders")
    assert rows[0] and rows[1]


@pytest.mark.parametrize("sql, shard", ROUTED, ids=[sql for sql, _ in ROUTED])
def test_a_routed_read_is_one_call_with_the_scatters_rows(
    sharded, pipe_log, sql, shard
):
    shards = per_shard(sharded, sql)
    assert not any(rows for i, rows in enumerate(shards) if i != shard)
    columns = sharded.handles[0].call("query", sql)[0]
    del pipe_log[:]
    before = sharded.stats.snapshot()
    result = sharded.query(sql)
    assert pipe_log == one_call(shard)
    assert sorted(result.rows) == sorted(row for rows in shards for row in rows)
    assert result.columns == columns
    after = sharded.stats.snapshot()
    assert after["point_reads"] == before["point_reads"] + 1
    assert after["queries"] == before["queries"]


@pytest.mark.parametrize("sql", SCATTERED)
def test_a_scattered_read_still_reaches_every_shard(sharded, pipe_log, sql):
    shards = per_shard(sharded, sql)
    del pipe_log[:]
    before = sharded.stats.snapshot()
    result = sharded.query(sql)
    assert pipe_log == [
        ("send", 0, "query"),
        ("send", 1, "query"),
        ("recv", 0, "query"),
        ("recv", 1, "query"),
    ]
    assert sorted(result.rows) == sorted(row for rows in shards for row in rows)
    after = sharded.stats.snapshot()
    assert after["queries"] == before["queries"] + 1
    assert after["point_reads"] == before["point_reads"]


def test_the_grid_finds_rows_through_both_paths(sharded):
    """A grid whose routed texts all came back empty would prove
    nothing: most find rows, on both shards, and so do the scatters."""
    routed = [sql for sql, _ in ROUTED if sharded.query(sql).rows]
    assert len(routed) >= len(ROUTED) - 2
    assert {shard for sql, shard in ROUTED if sql in routed} == {0, 1}
    assert sharded.query("SELECT * FROM prices WHERE p = 0").rows == [
        (-0.0, "p-0.0")
    ]
    assert sorted(
        sharded.query("SELECT * FROM orders WHERE id = 3 OR id = 4").rows
    ) == [(3, 4.5), (4, 6.0)]


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT * FROM nowhere WHERE id = 3",
        "SELECT * FROM orders WHERE nothing = 3",
        "SELECT * FROM orders WHERE id = 'x'",
        "SELECT * FROM orders WHERE",
    ],
)
def test_a_text_the_mirror_refuses_scatters_and_fails_as_before(
    sharded, pipe_log, sql
):
    with pytest.raises(ShardError) as routed:
        sharded.query(sql)
    assert [event[:2] for event in pipe_log if event[0] == "send"] == [
        ("send", 0),
        ("send", 1),
    ]
    with pytest.raises(ShardError) as direct:
        sharded.handles[0].call("query", sql)
    assert str(routed.value) == str(direct.value)


def test_a_table_created_again_places_and_routes_by_its_new_key():
    """Key positions resolve again after DDL: a table created again with
    its key at another position places rows, and routes reads, by the
    key — not by the column now where the key used to be."""
    mirror = Database()
    mirror.execute("CREATE TABLE orders (id INTEGER PRIMARY KEY, total DOUBLE)")
    config = ShardConfig(2, {"orders": "id"})
    assert list(config.split(mirror, {"orders": [(3, 2.0)]}, {})) == [place(3)]
    mirror.execute("DROP TABLE orders")
    mirror.execute("CREATE TABLE orders (total DOUBLE, id INTEGER PRIMARY KEY)")
    assert place(2.0) != place(3)
    assert list(config.split(mirror, {"orders": [(2.0, 3)]}, {})) == [place(3)]
    entry, params, _ = mirror.statement("SELECT * FROM orders WHERE id = 3")
    assert config.read_shard(mirror, entry.stmt, params) == place(3)


def test_a_reopened_router_scatters_until_its_schema_is_declared(
    tmp_path, pipe_log
):
    engine = build(tmp_path)
    load(engine)
    engine.close()
    reopened = ShardedTintin(str(tmp_path), shards=2, shard_keys=KEYS)
    try:
        sql = "SELECT * FROM orders WHERE id = 3"
        del pipe_log[:]
        assert reopened.query(sql).rows == [(3, 4.5)]
        assert len(pipe_log) == 4
        for ddl in DDL:
            reopened.declare(ddl)
        del pipe_log[:]
        assert reopened.query(sql).rows == [(3, 4.5)]
        assert pipe_log == one_call(place(3))
    finally:
        reopened.close()


def test_a_point_read_waits_only_for_its_own_shard(sharded):
    """Shard 1's routing lock is held, as an in-flight 2PC holds it from
    prepare to decide: a read of a shard-0 key answers meanwhile; a read
    of a shard-1 key and a scatter read both wait for the release."""
    zero = next(k for k in ORDER_IDS if place(k) == 0)
    one = next(k for k in ORDER_IDS if place(k) == 1)
    held, release = threading.Event(), threading.Event()

    def two_phase_commit_in_flight() -> None:
        with sharded.handles[1].lock:
            held.set()
            release.wait(timeout=60)

    results: dict[str, list] = {}

    def read(name: str, sql: str) -> threading.Thread:
        thread = threading.Thread(
            target=lambda: results.__setitem__(name, sharded.query(sql).rows)
        )
        thread.start()
        return thread

    holder = threading.Thread(target=two_phase_commit_in_flight)
    holder.start()
    try:
        assert held.wait(timeout=30)
        point_zero = read("zero", f"SELECT * FROM orders WHERE id = {zero}")
        point_zero.join(timeout=30)
        assert not point_zero.is_alive() and not release.is_set()
        assert results["zero"] == [(zero, zero * 1.5)]
        point_one = read("one", f"SELECT * FROM orders WHERE id = {one}")
        scatter = read("all", "SELECT * FROM orders")
        for waiting in (point_one, scatter):
            waiting.join(timeout=0.2)
            assert waiting.is_alive()
        assert "one" not in results and "all" not in results
    finally:
        release.set()
        holder.join(timeout=30)
    for thread in (point_one, scatter):
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert results["one"] == [(one, one * 1.5)]
    assert len(results["all"]) == len(ORDER_IDS)
