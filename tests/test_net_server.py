"""Network front end: handshake, pipelining, admission control,
backpressure, deadlines, the expiry sweeper, stats snapshots, and
graceful shutdown."""

import threading
import time

import pytest

from repro.core import Tintin
from repro.errors import (
    DeadlineExceeded,
    ExecutionError,
    OverloadError,
    ProtocolError,
    SessionExpired,
)
from repro.minidb import Database
from repro.net import (
    AdmissionQueue,
    FaultInjector,
    TintinClient,
    TintinServer,
)
from repro.net import protocol as p


def make_engine():
    db = Database("netdemo")
    db.execute("CREATE TABLE items (id INT NOT NULL, qty INT)")
    tintin = Tintin(db)
    tintin.install()
    tintin.add_assertion(
        "CREATE ASSERTION positiveQty CHECK (NOT EXISTS ("
        "SELECT * FROM items AS i WHERE i.qty < 0))"
    )
    return tintin


@pytest.fixture
def server():
    tintin = make_engine()
    server = tintin.listen()
    yield server
    if not server._stopped.is_set():
        server.shutdown(drain_timeout=5)


@pytest.fixture
def client(server):
    client = TintinClient(*server.address)
    yield client
    client.close_socket()


class TestHandshake:
    def test_hello_reply_carries_session_and_version(self, server):
        with TintinClient(*server.address) as client:
            assert client.session_id is not None
            assert client.connected

    def test_priority_is_recorded_on_the_session(self, server):
        with TintinClient(*server.address, priority=7) as client:
            session = server.tintin.sessions.get(client.session_id)
            assert session.priority == 7

    def test_request_before_hello_is_a_protocol_error(self, server):
        client = TintinClient(*server.address, connect=False)
        client._sock = __import__("socket").create_connection(
            server.address, timeout=5
        )
        client._sock.settimeout(5)
        client._rfile = client._sock.makefile("rb")
        request_id = client._send(p.T_COMMIT, p.encode_json({}))
        with pytest.raises(ProtocolError):
            ftype, payload = client._wait(request_id)
            if ftype == p.T_ERROR:
                client._raise_error(payload)
        client.close_socket()

    def test_goodbye_expires_the_remote_session(self, server):
        client = TintinClient(*server.address)
        session_id = client.session_id
        client.close()
        with pytest.raises(SessionExpired):
            server.tintin.sessions.get(session_id)


class TestSessionOps:
    def test_stage_commit_query_round_trip(self, client):
        assert client.insert("items", [(1, 5), (2, 3)]) == 2
        verdict = client.commit()
        assert verdict["committed"] is True
        assert verdict["applied_rows"] == 2
        rows = client.query("SELECT id, qty FROM items")
        assert rows.columns == ["id", "qty"]
        assert sorted(rows.rows) == [(1, 5), (2, 3)]

    def test_execute_stages_dml_and_answers_selects(self, client):
        assert client.execute("INSERT INTO items VALUES (9, 1)") == 1
        rows = client.execute("SELECT id FROM items")
        # read-your-writes: the staged row is visible pre-commit
        assert rows.rows == [(9,)]

    def test_constraint_violation_is_a_clean_rejection(self, client):
        client.insert("items", [(1, -4)])
        verdict = client.commit()
        assert verdict["committed"] is False
        assert verdict["violations"]
        assert client.query("SELECT * FROM items").rows == []

    def test_delete_and_discard(self, client):
        client.insert("items", [(1, 1)])
        client.commit()
        client.delete("items", [(1, 1)])
        assert client.discard() == 1
        client.commit()
        assert len(client.query("SELECT * FROM items")) == 1

    def test_execution_errors_map_back(self, client):
        with pytest.raises(ExecutionError):
            client.query("SELECT * FROM no_such_table")

    def test_pipelined_requests_answer_in_order(self, client):
        # issue three staged inserts back-to-back without reading, then
        # collect the responses: ids map 1:1 and arrive in order
        ids = [
            client._send(
                p.T_INSERT, p.encode_events_payload("items", [(i, i)])
            )
            for i in range(3)
        ]
        # wait for the LAST first: earlier replies get parked
        last = client._wait(ids[-1])
        assert last[0] == p.T_OK
        for request_id in ids[:-1]:
            ftype, payload = client._wait(request_id)
            assert ftype == p.T_OK
            assert p.decode_json(payload)["staged"] == 1
        verdict = client.commit()
        assert verdict["applied_rows"] == 3


class TestReadsOnTheLoop:
    def test_reads_are_not_stuck_behind_another_connections_fsync(
        self, tmp_path
    ):
        """Reads and staging run on the event loop, and a commit's
        fsync runs after its window released the write lock: while one
        connection's commit waits on the disk, another connection's
        query, staging and discard still answer at once."""
        tintin = Tintin.open(str(tmp_path), durability="commit")
        tintin.db.execute("CREATE TABLE items (id INT NOT NULL, qty INT)")
        tintin.install()
        faults = FaultInjector()
        server = tintin.listen(faults=faults)
        try:
            writer = TintinClient(*server.address)
            reader = TintinClient(*server.address)
            faults.delay("wal.before_fsync", 0.5, times=1)
            verdicts = []

            def commit():
                writer.insert("items", [(1, 1)])
                verdicts.append(writer.commit())

            committer = threading.Thread(target=commit)
            committer.start()
            deadline = time.monotonic() + 5
            while not faults.triggered["wal.before_fsync"]:
                assert time.monotonic() < deadline, "the commit never logged"
                time.sleep(0.002)
            started = time.perf_counter()
            reader.query("SELECT id, qty FROM items")
            assert time.perf_counter() - started < 0.25
            started = time.perf_counter()
            reader.insert("items", [(2, 2)])
            assert reader.discard() == 1
            assert time.perf_counter() - started < 0.25
            committer.join(timeout=5)
            assert verdicts[0]["committed"] is True
            assert not [
                thread.name
                for thread in threading.enumerate()
                if thread.name.startswith("tintin-net-io")
            ]
            writer.close()
            reader.close()
        finally:
            server.shutdown(drain_timeout=5)


class TestDeadlines:
    def test_zero_timeout_expires_at_admission(self, server, client):
        client.insert("items", [(1, 1)])
        with pytest.raises(DeadlineExceeded):
            client.commit(timeout=0.0, retry=False)
        # nothing reached the base table...
        assert server.tintin.db.query("SELECT * FROM items").rows == []
        # ...but the staged update survived the rejection: the request
        # was never admitted, so a later retry can still commit it
        assert client.query("SELECT * FROM items").rows == [(1, 1)]
        assert client.commit()["committed"] is True

    def test_generous_timeout_commits_normally(self, client):
        client.insert("items", [(1, 1)])
        verdict = client.commit(timeout=30.0)
        assert verdict["committed"] is True


class TestAdmissionQueue:
    def run(self, queue, fn=lambda: "ok", priority=0, deadline=None):
        box = {}
        done = threading.Event()

        def on_done(result, error):
            box["result"], box["error"] = result, error
            done.set()

        queue.submit(fn, on_done, priority=priority, deadline=deadline)
        return box, done

    def test_happy_path(self):
        queue = AdmissionQueue(max_depth=4, workers=1)
        box, done = self.run(queue)
        assert done.wait(5)
        assert box["result"] == "ok" and box["error"] is None
        queue.stop()

    def test_full_queue_sheds_newcomer_with_retry_after(self):
        gate = threading.Event()
        queue = AdmissionQueue(max_depth=2, workers=1)
        holders = [self.run(queue, fn=gate.wait) for _ in range(2)]
        box, done = self.run(queue)  # depth == max_depth: shed
        assert done.wait(5)
        assert isinstance(box["error"], OverloadError)
        assert box["error"].retry_after > 0
        assert box["error"].retriable
        gate.set()
        for holder_box, holder_done in holders:
            assert holder_done.wait(5)
        assert queue.stats.snapshot()["shed_newcomer"] == 1
        queue.stop()

    def test_higher_priority_newcomer_sheds_waiting_low_priority(self):
        gate = threading.Event()
        queue = AdmissionQueue(max_depth=2, workers=1)
        running_box, running_done = self.run(queue, fn=gate.wait)
        waiting_box, waiting_done = self.run(queue, priority=0)
        vip_box, vip_done = self.run(queue, fn=gate.wait, priority=5)
        # the waiting priority-0 request was evicted for the VIP
        assert waiting_done.wait(5)
        assert isinstance(waiting_box["error"], OverloadError)
        gate.set()
        assert vip_done.wait(5)
        assert vip_box["error"] is None
        assert queue.stats.snapshot()["shed_waiting"] == 1
        queue.stop()

    def test_equal_priority_ties_shed_the_newcomer(self):
        gate = threading.Event()
        queue = AdmissionQueue(max_depth=2, workers=1)
        self.run(queue, fn=gate.wait)
        waiting_box, waiting_done = self.run(queue)
        newcomer_box, newcomer_done = self.run(queue)
        assert newcomer_done.wait(5)
        assert isinstance(newcomer_box["error"], OverloadError)
        assert not waiting_done.is_set()  # FIFO fairness kept its place
        gate.set()
        assert waiting_done.wait(5)
        queue.stop()

    def test_deadline_expired_while_queued_is_cancelled(self):
        gate = threading.Event()
        queue = AdmissionQueue(max_depth=4, workers=1)
        self.run(queue, fn=gate.wait)
        started = []
        box, done = self.run(
            queue,
            fn=lambda: started.append(1),
            deadline=time.monotonic() + 0.05,
        )
        time.sleep(0.15)
        gate.set()
        assert done.wait(5)
        assert isinstance(box["error"], DeadlineExceeded)
        assert started == []  # never started
        queue.stop()

    def test_watermark_hysteresis_fires_transitions(self):
        transitions = []
        gate = threading.Event()
        queue = AdmissionQueue(
            max_depth=8,
            high_watermark=2,
            low_watermark=0,
            workers=1,
            on_backpressure=lambda active, delay: transitions.append(
                (active, delay)
            ),
        )
        boxes = [self.run(queue, fn=gate.wait) for _ in range(3)]
        assert queue.backpressure
        assert transitions and transitions[0][0] is True
        assert transitions[0][1] > 0
        gate.set()
        for _, done in boxes:
            assert done.wait(5)
        deadline = time.monotonic() + 5
        while queue.backpressure and time.monotonic() < deadline:
            time.sleep(0.01)
        assert transitions[-1] == (False, 0.0)
        queue.stop()

    def test_drain_sheds_new_work_and_empties(self):
        queue = AdmissionQueue(max_depth=4, workers=1)
        box, done = self.run(queue)
        assert queue.drain(timeout=5)
        late_box, late_done = self.run(queue)
        assert late_done.wait(5)
        assert isinstance(late_box["error"], OverloadError)
        queue.stop()


class TestBackpressureOverWire:
    def test_slowdown_frames_reach_clients(self):
        tintin = make_engine()
        faults = FaultInjector()
        server = tintin.listen(
            max_depth=4,
            high_watermark=1,
            low_watermark=0,
            commit_workers=1,
            faults=faults,
        )
        # hold the scheduler so commits pile up in admission
        faults.delay("scheduler.window", 0.3, times=2)
        clients = [TintinClient(*server.address) for _ in range(3)]
        try:
            threads = []
            for client in clients:
                client.insert("items", [(1, 1)])
                thread = threading.Thread(
                    target=lambda c=client: c.commit(retry=True)
                )
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join(timeout=10)
            # at least one client heard a SLOWDOWN while queued
            assert any(c.slowdown_count > 0 for c in clients)
        finally:
            for client in clients:
                client.close_socket()
            server.shutdown(drain_timeout=5)

    def test_overload_verdict_over_wire_is_retriable(self):
        tintin = make_engine()
        faults = FaultInjector()
        server = tintin.listen(
            max_depth=1, commit_workers=1, faults=faults
        )
        faults.delay("scheduler.window", 0.5, times=1)
        holder = TintinClient(*server.address)
        shed = TintinClient(*server.address)
        try:
            holder.insert("items", [(1, 1)])
            thread = threading.Thread(target=holder.commit)
            thread.start()
            time.sleep(0.1)  # let the holder occupy the only slot
            shed.insert("items", [(2, 1)])
            with pytest.raises(OverloadError) as excinfo:
                shed.commit(retry=False)
            assert excinfo.value.retry_after > 0
            thread.join(timeout=10)
            metrics = server.metrics()
            assert metrics["admission"]["shed_total"] >= 1
        finally:
            holder.close_socket()
            shed.close_socket()
            server.shutdown(drain_timeout=5)


class TestSweeper:
    def test_sweeper_reaps_lapsed_ttl_sessions(self):
        tintin = make_engine()
        manager = tintin.sessions
        manager.start_sweeper(interval=0.05)
        try:
            session = manager.create(ttl=0.1)
            deadline = time.monotonic() + 5
            while (
                manager.active_count > 0 and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert manager.active_count == 0
            assert session.expired
            assert manager.swept_sessions >= 1
        finally:
            manager.stop_sweeper()

    def test_sweeper_reaps_idle_sessions(self):
        tintin = make_engine()
        manager = tintin.sessions
        manager.start_sweeper(interval=0.05, max_idle=0.1)
        try:
            manager.create()  # no TTL: only idleness can reap it
            deadline = time.monotonic() + 5
            while (
                manager.active_count > 0 and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert manager.active_count == 0
        finally:
            manager.stop_sweeper()

    def test_sweeper_skips_pinned_sessions(self):
        tintin = make_engine()
        manager = tintin.sessions
        session = manager.create(ttl=0.05)
        with session._commit_pin():
            time.sleep(0.1)
            manager.sweep()
            assert not session.expired  # pinned: TTL lapse deferred
        manager.sweep()
        assert session.expired

    def test_tintin_close_stops_the_sweeper(self):
        tintin = make_engine()
        tintin.sessions.start_sweeper(interval=0.05)
        assert tintin.sessions.sweeper_running
        tintin.close()  # non-durable engine: close still stops it
        assert not tintin.sessions.sweeper_running

    def test_start_sweeper_is_idempotent(self):
        tintin = make_engine()
        manager = tintin.sessions
        manager.start_sweeper(interval=0.05)
        first = manager._sweeper
        manager.start_sweeper(interval=0.05)
        assert manager._sweeper is first
        manager.stop_sweeper()


class TestStatsSnapshots:
    def test_scheduler_stats_snapshot_is_a_plain_dict(self, client):
        client.insert("items", [(1, 1)])
        client.commit()
        snapshot = client.metrics()["scheduler"]
        assert isinstance(snapshot, dict)
        assert snapshot["commits"] >= 1
        assert "deadline_expired" in snapshot

    def test_snapshot_is_consistent_under_concurrent_bumps(self):
        from repro.server.scheduler import SchedulerStats

        stats = SchedulerStats()
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                stats.bump(commits=1, batches=1)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(50):
                snapshot = stats.snapshot()
                # both fields bump together under one lock, so a
                # consistent snapshot never shows them apart
                assert snapshot["commits"] == snapshot["batches"]
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5)

    def test_health_and_metrics_surfaces(self, server, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["sessions"] >= 1
        metrics = client.metrics()
        for key in ("server", "admission", "scheduler", "sessions"):
            assert key in metrics
        assert metrics["server"]["connections_total"] >= 1


class TestGracefulShutdown:
    def test_shutdown_drains_and_refuses_newcomers(self):
        tintin = make_engine()
        server = tintin.listen()
        client = TintinClient(*server.address)
        client.insert("items", [(1, 1)])
        assert client.commit()["committed"] is True
        assert server.shutdown(drain_timeout=5) is True
        # the acked commit survived the drain
        assert len(tintin.db.query("SELECT * FROM items").rows) == 1
        with pytest.raises(Exception):
            TintinClient(*server.address, timeout=1)
        client.close_socket()

    def test_hello_during_drain_is_refused_retriable(self):
        tintin = make_engine()
        server = tintin.listen()
        server._draining = True
        with pytest.raises(OverloadError):
            TintinClient(*server.address, retries=0)
        server._draining = False
        server.shutdown(drain_timeout=5)
