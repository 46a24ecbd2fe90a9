"""Scatter/gather over the shard pipes, the unsynced participant
decide, and decision-log compaction at checkpoint.

Every multi-shard conversation — both 2PC rounds and scatter reads —
sends to every shard before it reads any reply.  These tests pin that
*structure* (the order of ``send``/``recv`` calls, never a timing),
show that a no vote or a dead pipe mid-gather still leaves every live
pipe aligned, and show what the unsynced decide record means at a
crash: lost, and resolved from the coordinator's decision log, unless
a later fsync on the same shard already covered it.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.durability import read_wal
from repro.errors import ShardError
from repro.shard import ShardedTintin
from repro.shard.router import ShardHandle

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
ALL_ORDERS = "SELECT * FROM orders AS o"


def build(directory) -> ShardedTintin:
    engine = ShardedTintin(str(directory), shards=2, shard_keys=KEYS)
    engine.execute(ORDERS_DDL)
    engine.execute(ITEMS_DDL)
    engine.install()
    engine.add_assertion(ASSERTION)
    return engine


def reopen(directory) -> ShardedTintin:
    engine = ShardedTintin(str(directory), shards=2, shard_keys=KEYS)
    engine.declare(ORDERS_DDL)
    engine.declare(ITEMS_DDL)
    return engine


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    engine = build(tmp_path_factory.mktemp("scatter"))
    yield engine
    engine.close()


def order_ids(engine) -> list[int]:
    return sorted(row[0] for row in engine.query(ALL_ORDERS).rows)


def commit_orders(engine, *keys: int):
    """Commit one order + item per key (even keys land on shard 0, odd
    keys on shard 1)."""
    session = engine.create_session()
    session.insert("orders", [(key, 1.0) for key in keys])
    session.insert("items", [(key, 1) for key in keys])
    return session.commit()


def crash(engine, shard_id: int) -> None:
    """Power-cut one worker: no flush, no close, no checkpoint."""
    with pytest.raises(ShardError):
        engine.handles[shard_id].call("crash")


def shard_stats(engine, shard_id: int) -> dict:
    return engine.handles[shard_id].call("stats")


def decision_records(directory) -> list[str]:
    path = os.path.join(str(directory), "coord", "decisions.wal")
    return [record.type for record in read_wal(path).records]


@pytest.fixture
def pipe_log(monkeypatch):
    """Every ``ShardHandle.send``/``recv`` as (op, shard, command)."""
    events: list[tuple[str, int, str]] = []
    send, recv = ShardHandle.send, ShardHandle.recv

    def logged_send(self, *message):
        events.append(("send", self.shard_id, message[0]))
        return send(self, *message)

    def logged_recv(self, what):
        events.append(("recv", self.shard_id, what))
        return recv(self, what)

    monkeypatch.setattr(ShardHandle, "send", logged_send)
    monkeypatch.setattr(ShardHandle, "recv", logged_recv)
    return events


# -- structure: every send before the first recv ----------------------------


class TestScatterStructure:
    def test_two_phase_sends_every_request_before_any_reply(
        self, sharded, pipe_log
    ):
        assert commit_orders(sharded, 200, 201).committed
        assert pipe_log == [
            ("send", 0, "prepare"),
            ("send", 1, "prepare"),
            ("recv", 0, "prepare"),
            ("recv", 1, "prepare"),
            ("send", 0, "decide"),
            ("send", 1, "decide"),
            ("recv", 0, "decide"),
            ("recv", 1, "decide"),
        ]

    def test_scatter_read_sends_every_query_before_any_reply(
        self, sharded, pipe_log
    ):
        sharded.query(ALL_ORDERS)
        assert pipe_log == [
            ("send", 0, "query"),
            ("send", 1, "query"),
            ("recv", 0, "query"),
            ("recv", 1, "query"),
        ]

    def test_single_shard_commit_is_one_call(self, sharded, pipe_log):
        assert commit_orders(sharded, 202).committed
        assert pipe_log == [("send", 0, "commit"), ("recv", 0, "commit")]

    def test_scatter_read_is_the_union_of_per_shard_queries(self, sharded):
        assert commit_orders(sharded, 204, 205, 206).committed
        union = sorted(
            tuple(row)
            for handle in sharded.handles
            for row in handle.call("query", ALL_ORDERS)[1]
        )
        result = sharded.query(ALL_ORDERS)
        assert sorted(result.rows) == union
        assert result.columns == sharded.handles[0].call(
            "query", ALL_ORDERS
        )[0]
        assert {204, 205, 206} <= {row[0] for row in union}


# -- a no vote, a dead pipe: every live pipe stays aligned -------------------


class TestGatherAlignment:
    def test_no_vote_aborts_the_yes_voter_and_keeps_pipes_aligned(
        self, sharded
    ):
        before = [shard_stats(sharded, i)["prepared_aborts"] for i in (0, 1)]
        session = sharded.create_session()
        # 210 (shard 0) is valid; 211 (shard 1) has no item: a no vote
        session.insert("orders", [(210, 1.0), (211, 1.0)])
        session.insert("items", [(210, 1)])
        result = session.commit()
        assert not result.committed
        assert result.violations
        after = [shard_stats(sharded, i)["prepared_aborts"] for i in (0, 1)]
        # shard 0 voted yes and was told to abort; shard 1 voted no,
        # so it never held anything to abort
        assert after == [before[0] + 1, before[1]]
        assert not {210, 211} & set(order_ids(sharded))
        # the next commit on each shard gets its own reply
        assert commit_orders(sharded, 212).committed
        assert commit_orders(sharded, 213).committed
        assert commit_orders(sharded, 214, 215).committed
        assert {212, 213, 214, 215} <= set(order_ids(sharded))

    def test_dead_pipe_mid_gather_still_gathers_the_rest(
        self, tmp_path, monkeypatch
    ):
        engine = build(tmp_path)
        try:
            handle = engine.handles[0]
            real_recv = handle.recv

            def dies_after_voting(what):
                reply = real_recv(what)
                if what == "prepare":
                    # the yes vote is durable on shard 0, but the pipe
                    # dies before the coordinator reads it
                    handle.process.kill()
                    handle.process.join()
                    handle.alive = False
                    raise ShardError("shard 0 died during 'prepare'")
                return reply

            monkeypatch.setattr(handle, "recv", dies_after_voting)
            before = shard_stats(engine, 1)["prepared_aborts"]
            result = commit_orders(engine, 2, 3)
            monkeypatch.undo()
            assert not result.committed
            assert "shard 0 failed during prepare" in result.constraint_error
            # shard 1's vote was still gathered, then aborted
            assert shard_stats(engine, 1)["prepared_aborts"] == before + 1
            assert commit_orders(engine, 5).committed
            # shard 0 comes back with the gid in doubt: presumed abort
            resolved = engine.stats.snapshot()["in_doubt_resolved"]
            hello = engine.restart_shard(0)
            assert len(hello["in_doubt"]) == 1
            assert engine.stats.snapshot()["in_doubt_resolved"] == resolved + 1
            assert order_ids(engine) == [5]
        finally:
            engine.close()

    def test_decide_lost_to_a_dead_participant_is_recovery_work(
        self, tmp_path, monkeypatch, caplog
    ):
        engine = build(tmp_path)
        try:
            decision_log = engine._decision_log
            real_sync = decision_log.sync
            victim = engine.handles[0].process

            def sync_then_lose_shard_0() -> None:
                real_sync()  # the commit decision is durable ...
                victim.kill()  # ... and shard 0 dies before its decide
                victim.join()

            monkeypatch.setattr(decision_log, "sync", sync_then_lose_shard_0)
            with caplog.at_level("WARNING", logger="repro.shard"):
                result = commit_orders(engine, 2, 3)
            monkeypatch.undo()
            assert result.committed
            assert "unreachable for commit" in caplog.text
            assert not engine.handles[0].alive
            resolved = engine.stats.snapshot()["in_doubt_resolved"]
            engine.restart_shard(0)
            assert engine.stats.snapshot()["in_doubt_resolved"] == resolved + 1
            assert order_ids(engine) == [2, 3]
        finally:
            engine.close()


# -- the unsynced participant decide ----------------------------------------


class TestUnsyncedDecide:
    def test_crash_right_after_loses_the_decide_not_the_commit(
        self, tmp_path
    ):
        engine = build(tmp_path)
        try:
            assert commit_orders(engine, 2, 3).committed
            crash(engine, 0)
            before = engine.stats.snapshot()["in_doubt_resolved"]
            hello = engine.restart_shard(0)
            # the decide record died in the worker's buffer: the gid
            # comes back in doubt and the decision log commits it
            assert len(hello["in_doubt"]) == 1
            assert engine.stats.snapshot()["in_doubt_resolved"] == before + 1
            assert order_ids(engine) == [2, 3]
        finally:
            engine.close()

    def test_a_later_local_commit_makes_the_decide_durable(self, tmp_path):
        engine = build(tmp_path)
        try:
            assert commit_orders(engine, 2, 3).committed
            assert commit_orders(engine, 4).committed  # shard 0, fsynced
            crash(engine, 0)
            before = engine.stats.snapshot()["in_doubt_resolved"]
            hello = engine.restart_shard(0)
            assert hello["in_doubt"] == []
            assert engine.stats.snapshot()["in_doubt_resolved"] == before
            assert order_ids(engine) == [2, 3, 4]
        finally:
            engine.close()


def test_disjoint_two_phase_commits_log_decisions_one_at_a_time(
    tmp_path, monkeypatch
):
    """Cross-shard commits over disjoint participants ({0,1} and
    {2,3}) hold disjoint routing locks and run concurrently; their
    appends to the one decision log must still not interleave."""
    engine = ShardedTintin(str(tmp_path), shards=4, shard_keys=KEYS)
    try:
        engine.execute(ORDERS_DDL)
        engine.execute(ITEMS_DDL)
        engine.install()
        engine.add_assertion(ASSERTION)
        decision_log = engine._decision_log
        real_append = decision_log.append_decide
        inside, most = [], []

        def slow_append(*args, **kwargs):
            inside.append(None)
            most.append(len(inside))
            time.sleep(0.05)  # long enough for the other commit to arrive
            inside.pop()
            return real_append(*args, **kwargs)

        monkeypatch.setattr(decision_log, "append_decide", slow_append)
        start = threading.Barrier(2)
        results = []

        def client(first: int) -> None:
            start.wait(timeout=30)
            for n in range(3):
                base = first + 8 * n  # shards first % 4 and first % 4 + 1
                results.append(commit_orders(engine, base, base + 1))

        threads = [
            threading.Thread(target=client, args=(first,)) for first in (4, 6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(results) == 6 and all(r.committed for r in results)
        assert max(most) == 1
    finally:
        engine.close()
    recovered = ShardedTintin(str(tmp_path), shards=4, shard_keys=KEYS)
    try:
        assert len(recovered._decided) == 6
        assert recovered.stats.snapshot()["in_doubt_resolved"] == 0
    finally:
        recovered.close()


# -- decision-log compaction at checkpoint ----------------------------------


class TestDecisionLogCompaction:
    def test_checkpoint_empties_the_decision_log(self, tmp_path):
        engine = build(tmp_path)
        acked = []
        for pair in ((2, 3), (4, 5), (6, 7)):
            assert commit_orders(engine, *pair).committed
            acked.extend(pair)
        assert decision_records(tmp_path).count("decide") == 3
        last_seq = engine._decision_log.last_seq
        engine.checkpoint()
        assert "decide" not in decision_records(tmp_path)
        assert not engine._decided
        # sequence numbers continue past the truncation
        assert commit_orders(engine, 8, 9).committed
        acked.extend((8, 9))
        assert engine._decision_log.last_seq > last_seq
        engine.close()

        recovered = reopen(tmp_path)
        try:
            assert recovered.stats.snapshot()["in_doubt_resolved"] == 0
            assert order_ids(recovered) == sorted(acked)
        finally:
            recovered.close()

    def test_a_refusing_shard_leaves_the_decision_log_untouched(
        self, tmp_path
    ):
        engine = build(tmp_path)
        try:
            assert commit_orders(engine, 2, 3).committed
            path = os.path.join(str(tmp_path), "coord", "decisions.wal")
            with open(path, "rb") as handle:
                before = handle.read()
            # shard 1 holds an undecided prepare: it refuses to
            # checkpoint, so the decision log must keep its verdicts
            payload = engine.handles[1].call(
                "prepare",
                "gid-blocks-checkpoint",
                {"orders": [(9, 1.0)], "items": [(9, 1)]},
                {},
                None,
            )
            assert payload["committed"]
            with pytest.raises(ShardError, match="checkpoint refused"):
                engine.checkpoint()
            with open(path, "rb") as handle:
                assert handle.read() == before
            assert engine._decided
            engine.handles[1].call("decide", "gid-blocks-checkpoint", False)
            engine.checkpoint()
            assert "decide" not in decision_records(tmp_path)
        finally:
            engine.close()
