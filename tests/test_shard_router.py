"""Shard routing, two-phase commit, and the Tintin-shaped facade.

One module-scoped two-shard engine serves most tests (spawning worker
processes is the expensive part); tests that mutate data use disjoint
key ranges so they stay independent.
"""

from __future__ import annotations

import time

import pytest

from repro import Database, Tintin
from repro.errors import ExecutionError, SessionExpired, ShardError
from repro.net.client import TintinClient
from repro.net.server import TintinServer
from repro.shard import ShardedTintin
from tests.test_obs_metrics import parse_prometheus

ORDERS_DDL = "CREATE TABLE orders (id INTEGER PRIMARY KEY, total DOUBLE)"
ITEMS_DDL = (
    "CREATE TABLE items (order_id INTEGER, n INTEGER, "
    "PRIMARY KEY (order_id, n), "
    "FOREIGN KEY (order_id) REFERENCES orders (id))"
)
ASSERTION = (
    "CREATE ASSERTION atLeastOneItem CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE NOT EXISTS ("
    "SELECT * FROM items AS i WHERE i.order_id = o.id)))"
)
KEYS = {"orders": "id", "items": "order_id"}


def setup_schema(engine) -> None:
    engine.execute(ORDERS_DDL)
    engine.execute(ITEMS_DDL)
    engine.install()
    engine.add_assertion(ASSERTION)


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    engine = ShardedTintin(
        str(tmp_path_factory.mktemp("sharded")),
        shards=2,
        shard_keys=KEYS,
    )
    setup_schema(engine)
    yield engine
    engine.close()


def order_ids(engine) -> list[int]:
    return sorted(
        row[0] for row in engine.query("SELECT * FROM orders AS o").rows
    )


def stage_order(session, key: int, total: float = 1.0) -> None:
    session.insert("orders", [(key, total)])
    session.insert("items", [(key, 1)])


# -- routing ----------------------------------------------------------------


class TestRouting:
    def test_single_shard_commit_skips_two_phase(self, sharded):
        session = sharded.create_session()
        stage_order(session, 100)  # shard 0
        before = sharded.stats.snapshot()
        result = session.commit()
        assert result.committed
        after = sharded.stats.snapshot()
        assert after["single_shard"] == before["single_shard"] + 1
        assert after["prepares"] == before["prepares"]
        assert 100 in order_ids(sharded)

    def test_cross_shard_commit_runs_two_phase(self, sharded):
        session = sharded.create_session()
        stage_order(session, 102)  # shard 0
        stage_order(session, 103)  # shard 1
        before = sharded.stats.snapshot()
        result = session.commit()
        assert result.committed
        assert result.group_size == 2
        after = sharded.stats.snapshot()
        assert after["cross_shard"] == before["cross_shard"] + 1
        assert after["prepares"] == before["prepares"] + 2
        assert {102, 103} <= set(order_ids(sharded))

    def test_cross_shard_violation_aborts_every_participant(self, sharded):
        """Order 105 (shard 1) ships without an item: shard 1 votes
        no, and shard 0's tentatively applied slice must roll back."""
        session = sharded.create_session()
        session.insert("orders", [(104, 1.0), (105, 1.0)])
        session.insert("items", [(104, 1)])  # nothing for 105
        result = session.commit()
        assert not result.committed
        assert result.violations or result.constraint_error
        ids = order_ids(sharded)
        assert 104 not in ids and 105 not in ids

    def test_expired_deadline_is_a_retriable_verdict(self, sharded):
        session = sharded.create_session()
        stage_order(session, 106)
        result = session.commit(deadline=time.monotonic() - 1.0)
        assert not result.committed
        assert result.deadline_expired
        assert 106 not in order_ids(sharded)

    def test_scatter_query_unions_all_shards(self, sharded):
        session = sharded.create_session()
        stage_order(session, 108)
        stage_order(session, 109)
        assert session.commit().committed
        ids = order_ids(sharded)
        assert {108, 109} <= set(ids)
        # both shards contributed (108 is even -> shard 0, 109 -> 1)

    def test_dml_through_router_execute_is_refused(self, sharded):
        with pytest.raises(ExecutionError, match="session"):
            sharded.execute("INSERT INTO orders VALUES (1, 1.0)")

    def test_select_through_execute_scatters(self, sharded):
        result = sharded.execute("SELECT * FROM orders AS o")
        assert hasattr(result, "rows")


# -- the session facade -----------------------------------------------------


class TestShardSessions:
    def test_staged_rows_validate_against_the_mirror(self, sharded):
        session = sharded.create_session()
        with pytest.raises(Exception):
            session.insert("orders", [("not-an-int", 1.0, "extra")])

    def test_insert_and_delete_return_this_calls_row_count(self, sharded):
        """As ``Session.insert/delete`` do (and as the network server
        forwards as ``{"staged": n}``): rows staged by *this* call."""
        session = sharded.create_session()
        assert session.insert("orders", [(130, 1.0), (131, 1.0)]) == 2
        assert session.insert("items", [(130, 1), (131, 1)]) == 2
        assert session.delete("orders", [(1, 1.0)]) == 1
        assert session.discard() == 5

    def test_every_router_counter_has_help(self, sharded):
        assert set(sharded.stats.HELP) == set(sharded.stats.COUNTERS)

    def test_discard_drops_staging(self, sharded):
        session = sharded.create_session()
        stage_order(session, 110)
        assert session.discard() == 2
        assert session.commit().committed  # empty commit
        assert 110 not in order_ids(sharded)

    def test_expired_session_refuses_everything(self, sharded):
        session = sharded.create_session()
        session.expire()
        with pytest.raises(SessionExpired):
            session.insert("orders", [(1, 1.0)])
        with pytest.raises(SessionExpired):
            session.commit()

    def test_manager_tracks_active_sessions(self, sharded):
        before = sharded.sessions.active_count
        session = sharded.create_session()
        assert sharded.sessions.active_count == before + 1
        session.expire()
        assert sharded.sessions.active_count == before

    def test_session_execute_allows_select_only(self, sharded):
        session = sharded.create_session()
        assert hasattr(
            session.execute("SELECT * FROM orders AS o"), "rows"
        )
        with pytest.raises(ExecutionError):
            session.execute("DELETE FROM orders")


# -- observability ----------------------------------------------------------


class TestShardObservability:
    def test_per_shard_metrics_are_labelled(self, sharded):
        """The router's registry holds its own counters and the
        per-shard ones, each shard's labelled by its id."""
        page = sharded.registry.render()
        assert 'shard="0"' in page
        assert 'shard="1"' in page
        assert all(
            name.startswith(("tintin_router_", "tintin_shard_"))
            for name in parse_prometheus(page)
        )

    def test_per_shard_families_are_contiguous_and_typed_once(self, sharded):
        """One group per family across both shards, one TYPE line each:
        a gauge for the high-water mark, counters for the rest."""
        page = sharded.registry.render()
        samples = parse_prometheus(page)
        assert set(samples["tintin_shard_commits"]) == {
            '{shard="0"}',
            '{shard="1"}',
        }
        assert "# TYPE tintin_shard_max_group_size gauge" in page
        assert "# TYPE tintin_shard_commits counter" in page

    def test_single_shard_commit_emits_a_shard_span(self, sharded):
        from repro.obs.trace import RecordingTracer

        tracer = RecordingTracer()
        sharded.set_tracer(tracer)
        try:
            session = sharded.create_session()
            stage_order(session, 114)  # shard 0
            obs = sharded._make_obs()
            assert session.commit(obs=obs).committed
            obs.finish("committed")
        finally:
            sharded.set_tracer(None)
        spans = [s for s in tracer.spans() if s.name == "shard.commit"]
        assert len(spans) == 1
        assert spans[0].attrs["shard"] == "0"

    def test_metrics_collector_skips_a_busy_shard(self, sharded):
        """A scrape never blocks on a shard mid-commit: a held routing
        lock means that shard is simply absent from this scrape."""
        import threading

        handle = sharded.handles[0]
        held = threading.Event()
        release = threading.Event()

        def hold() -> None:  # the routing lock is re-entrant, so a
            with handle.lock:  # *different* thread must hold it
                held.set()
                release.wait(5.0)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(5.0)
            page = sharded.registry.render()
        finally:
            release.set()
            holder.join()
        assert 'shard="0"' not in page
        assert 'shard="1"' in page

    def test_two_phase_emits_prepare_and_decide_spans(self, sharded):
        from repro.obs.trace import RecordingTracer

        tracer = RecordingTracer()
        sharded.set_tracer(tracer)
        try:
            session = sharded.create_session()
            stage_order(session, 112)
            stage_order(session, 113)
            obs = sharded._make_obs()
            assert session.commit(obs=obs).committed
            obs.finish("committed")
        finally:
            sharded.set_tracer(None)
        names = [span.name for span in tracer.spans()]
        assert names.count("prepare") == 2
        assert names.count("decide") == 2
        shards = {
            span.attrs.get("shard")
            for span in tracer.spans()
            if span.name == "prepare"
        }
        assert shards == {"0", "1"}


# -- admin operations -------------------------------------------------------


class TestAdmin:
    def test_checkpoint_broadcasts_to_every_shard(self, sharded):
        session = sharded.create_session()
        stage_order(session, 116)
        stage_order(session, 117)
        assert session.commit().committed
        sharded.checkpoint()  # nothing in doubt: every shard accepts
        assert {116, 117} <= set(order_ids(sharded))

    def test_healthy_restart_preserves_committed_state(self, sharded):
        session = sharded.create_session()
        stage_order(session, 118)  # shard 0
        assert session.commit().committed
        before = sharded.stats.snapshot()["restarts"]
        hello = sharded.restart_shard(0)
        assert hello["in_doubt"] == []
        assert sharded.stats.snapshot()["restarts"] == before + 1
        assert 118 in order_ids(sharded)

    def test_sweeper_hooks_are_noops(self, sharded):
        sharded.sessions.start_sweeper(0.01)
        assert not sharded.sessions.sweeper_running
        sharded.sessions.stop_sweeper()

    def test_session_delete_stages_validated_rows(self, sharded):
        session = sharded.create_session()
        stage_order(session, 120)
        assert session.commit().committed
        session = sharded.create_session()
        session.delete("items", [(120, 1)])
        session.delete("orders", [(120, 1.0)])
        assert session.commit().committed
        assert 120 not in order_ids(sharded)


# -- serving a sharded engine over the network front end --------------------


def test_tintin_server_serves_a_sharded_engine(tmp_path):
    engine = ShardedTintin(
        str(tmp_path / "served"), shards=2, shard_keys=KEYS
    )
    try:
        setup_schema(engine)
        server = TintinServer(engine, port=0).start()
        try:
            client = TintinClient(*server.address)
            client.insert("orders", [(20, 5.0), (21, 6.0)])
            client.insert("items", [(20, 1), (21, 1)])
            reply = client.commit()
            assert reply["committed"]
            # a scatter read, served on the event loop: one row from
            # each shard
            rows = client.query("SELECT * FROM orders AS o")
            assert sorted(rows.rows) == [(20, 5.0), (21, 6.0)]
            shards = {engine.config.shard_of(row[0]) for row in rows.rows}
            assert shards == {0, 1}
            client.close()
            page = server.render_metrics()
            assert "tintin_router_commits" in page
            assert 'tintin_shard_commits{shard="0"}' in page
        finally:
            server.shutdown()
    finally:
        engine.close()


# -- sequential vs sharded differential -------------------------------------


def test_sharded_execution_matches_sequential_reference(tmp_path):
    """The same commit schedule — single-shard, cross-shard and
    violating batches interleaved — must leave a sharded engine with
    exactly the rows a plain sequential engine keeps."""
    db = Database("reference")
    db.execute(ORDERS_DDL)
    db.execute(ITEMS_DDL)
    reference = Tintin(db)
    reference.install()
    reference.add_assertion(ASSERTION)

    sharded = ShardedTintin(
        str(tmp_path / "diff"), shards=4, shard_keys=KEYS
    )
    try:
        setup_schema(sharded)
        schedule = [
            {"orders": [(n, float(n))], "items": [(n, 1)]}
            for n in range(1, 9)  # single-shard commits
        ]
        schedule.append(  # cross-shard, all four shards, valid
            {
                "orders": [(10, 1.0), (11, 1.0), (12, 1.0), (13, 1.0)],
                "items": [(10, 1), (11, 1), (12, 1), (13, 1)],
            }
        )
        schedule.append(  # cross-shard, violating (15 has no item)
            {"orders": [(14, 1.0), (15, 1.0)], "items": [(14, 1)]}
        )
        schedule.append(  # duplicate key 3 -> engine constraint error
            {"orders": [(3, 99.0)], "items": [(3, 9)]}
        )
        verdicts = []
        for inserts in schedule:
            ref_session = reference.create_session()
            shard_session = sharded.create_session()
            for table, rows in inserts.items():
                ref_session.insert(table, rows)
                shard_session.insert(table, rows)
            ref_result = ref_session.commit()
            shard_result = shard_session.commit()
            assert ref_result.committed == shard_result.committed, inserts
            verdicts.append(shard_result.committed)
        assert verdicts.count(False) == 2  # both rejections exercised
        expected = sorted(
            row[0]
            for row in db.execute("SELECT * FROM orders AS o").rows
        )
        assert order_ids(sharded) == expected
    finally:
        sharded.close()
