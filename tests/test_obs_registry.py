"""One stats registry per engine, in every deployment shape.

Each counter block registers once on ``registry`` where its owner is
created or attached; ``registry.render()`` needs no server, and a
``TintinServer`` renders the engine's registry and then its own
front-end blocks.  Each test checks that the page parses (the shared
parser rejects a family split across groups or typed twice) and that
every field of every block on it forms exactly one family."""

from repro import Database, Tintin
from repro.net import TintinClient, TintinServer
from repro.shard import ShardedTintin
from tests.test_obs_metrics import parse_prometheus

SELECT = "SELECT * FROM items AS i WHERE i.qty > 0"


def make_engine(tintin: Tintin) -> Tintin:
    tintin.db.execute(
        "CREATE TABLE items (id INTEGER PRIMARY KEY, qty INTEGER)"
    )
    tintin.install()
    tintin.add_assertion(
        "CREATE ASSERTION positiveQty CHECK (NOT EXISTS ("
        "SELECT * FROM items AS i WHERE i.qty < 0))"
    )
    return tintin


def families(page: str) -> list[str]:
    return [
        line.split(" ")[2]
        for line in page.splitlines()
        if line.startswith("# TYPE ")
    ]


def assert_each_family_once(page: str, *blocks) -> dict:
    samples = parse_prometheus(page)
    names = families(page)
    for block in blocks:
        for field in (*block.COUNTERS, *block.ACCUMULATORS, *block.HIGH_WATER):
            assert names.count(f"{block.PREFIX}_{field}") == 1, field
    return samples


def plan_cache_hits(page: str) -> float:
    return parse_prometheus(page)["tintin_plan_cache_hits"][""]


def test_embedded_engine_renders_without_a_server():
    tintin = make_engine(Tintin(Database("embedded")))
    page = tintin.registry.render()
    assert_each_family_once(page, tintin.db.plan_cache_stats)
    before = plan_cache_hits(page)
    tintin.db.query(SELECT)
    tintin.db.query(SELECT)
    assert plan_cache_hits(tintin.registry.render()) > before
    # the scheduler registers when the session layer is created
    scheduler = tintin.sessions.scheduler
    page = tintin.registry.render()
    assert_each_family_once(page, tintin.db.plan_cache_stats, scheduler.stats)
    assert not any(name.startswith("tintin_wal_") for name in families(page))
    assert set(tintin.registry.snapshot()) == {"plan_cache", "scheduler"}


def test_durable_engine_registers_wal_blocks_while_attached(tmp_path):
    tintin = make_engine(Tintin.open(str(tmp_path / "durable")))
    manager = tintin.durability
    session = tintin.create_session()
    session.insert("items", [(1, 5)])
    assert session.commit().committed
    page = tintin.registry.render()
    samples = assert_each_family_once(
        page,
        tintin.db.plan_cache_stats,
        tintin.sessions.scheduler.stats,
        manager.wal.stats,
        manager.stats,
    )
    assert samples["tintin_wal_appends"][""] >= 1
    view = tintin.registry.snapshot()
    assert view["wal"] == manager.wal.stats.snapshot()
    assert view["durability"] == manager.stats.snapshot()
    tintin.close()
    # detached: no WAL families, as for an engine that never had one
    assert not any(
        name.startswith(("tintin_wal_", "tintin_durability_"))
        for name in families(tintin.registry.render())
    )


def test_served_engine_renders_engine_then_front_end():
    tintin = make_engine(Tintin(Database("served")))
    server = tintin.listen()
    try:
        with TintinClient(*server.address) as client:
            client.insert("items", [(1, 5)])
            assert client.commit()["committed"]
            before = plan_cache_hits(server.render_metrics())
            client.query(SELECT)
            client.query(SELECT)
            payload = client.metrics()
        page = server.render_metrics()
        assert page.startswith(tintin.registry.render())
        assert_each_family_once(
            page,
            tintin.db.plan_cache_stats,
            tintin.sessions.scheduler.stats,
            server.stats,
            server.admission.stats,
        )
        assert plan_cache_hits(page) > before
        assert not any(
            name.startswith("tintin_wal_") for name in families(page)
        )
        assert set(payload) == {
            "plan_cache",
            "scheduler",
            "server",
            "admission",
            "sessions",
        }
        assert payload["scheduler"]["commits"] >= 1
        assert payload["plan_cache"]["hits"] >= 1
    finally:
        server.shutdown(drain_timeout=5)


def test_sharded_engine_behind_a_server(tmp_path):
    """The router registers its counters and the per-shard pipe reader;
    the plan caches live in the shard workers, so the page carries
    no ``tintin_plan_cache_*`` family here."""
    engine = ShardedTintin(
        str(tmp_path / "sharded"), shards=2, shard_keys={"items": "id"}
    )
    try:
        engine.execute(
            "CREATE TABLE items (id INTEGER PRIMARY KEY, qty INTEGER)"
        )
        engine.install()  # a shard stages only the tables it captures
        server = TintinServer(engine, port=0).start()
        try:
            with TintinClient(*server.address) as client:
                client.insert("items", [(1, 5), (2, 6)])
                assert client.commit()["committed"]
                assert len(client.query("SELECT * FROM items WHERE id = 1")) == 1
                assert len(client.query("SELECT * FROM items")) == 2
                payload = client.metrics()
            page = server.render_metrics()
            assert (
                "# HELP tintin_router_point_reads Reads routed to one shard"
                in page
            )
            samples = assert_each_family_once(
                page, engine.stats, server.stats, server.admission.stats
            )
            assert families(page).count("tintin_shard_commits") == 1
            assert set(samples["tintin_shard_commits"]) == {
                '{shard="0"}',
                '{shard="1"}',
            }
            assert not any(
                name.startswith(("tintin_plan_cache_", "tintin_wal_"))
                for name in families(page)
            )
            assert payload["router"]["commits"] == 1
            assert payload["router"]["point_reads"] == 1
            assert payload["router"]["queries"] == 1
            assert set(payload) == {"router", "server", "admission", "sessions"}
        finally:
            server.shutdown(drain_timeout=5, close_engine=False)
    finally:
        engine.close()
