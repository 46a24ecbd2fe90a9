"""One round trip per transaction: deferred staging in the client, one
staging run per flush in the server, the commit guard, the bounded
per-connection queue, and network ≡ in-process over random scripts."""

import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Tintin
from repro.errors import (
    ConnectionLost,
    DeadlineExceeded,
    ExecutionError,
    ProtocolError,
    ReproError,
)
from repro.minidb import Database
from repro.net import FaultInjector, TintinClient
from repro.net import client as client_module
from repro.net import protocol as p
from repro.net import server as server_module

ALL_ITEMS = "SELECT id, qty FROM items"


def make_engine():
    db = Database("pipeline")
    db.execute("CREATE TABLE items (id INT PRIMARY KEY, qty INT)")
    tintin = Tintin(db)
    tintin.install()
    tintin.add_assertion(
        "CREATE ASSERTION positiveQty CHECK (NOT EXISTS ("
        "SELECT * FROM items AS i WHERE i.qty < 0))"
    )
    return tintin


class RecordingSocket:
    """Stands in for the client's socket and keeps what each
    ``sendall`` carried."""

    def __init__(self, sock):
        self._sock = sock
        self.sends: list[bytes] = []

    def sendall(self, data):
        self.sends.append(bytes(data))
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def frames(self, send: int) -> list[tuple[int, bytes]]:
        """``(frame type, payload)`` of every frame in one ``sendall``."""
        data, out = self.sends[send], []
        while data:
            length, ftype, _ = p.decode_header(data[: p.HEADER_LEN])
            out.append((ftype, data[p.HEADER_LEN : p.HEADER_LEN + length]))
            data = data[p.HEADER_LEN + length :]
        return out


@pytest.fixture
def server():
    server = make_engine().listen()
    yield server
    if not server._stopped.is_set():
        server.shutdown(drain_timeout=5)


@pytest.fixture
def client(server):
    client = TintinClient(*server.address, timeout=5)
    client._sock = RecordingSocket(client._sock)
    yield client
    client.close_socket()


def base_rows(server):
    return sorted(server.tintin.db.query(ALL_ITEMS).rows)


def server_stats(server):
    return server.metrics()["server"]


class TestOneRoundTrip:
    def test_a_transaction_is_one_sendall_and_one_staging_run(
        self, server, client
    ):
        client.insert("items", [(1, 1), (2, 2)])
        assert client.commit()["committed"]
        before = server_stats(server)
        flushes = client.flushes
        client._sock.sends.clear()

        assert client.insert("items", [(3, 3)]) == 1
        assert client.insert("items", [(4, 4), (5, 5)]) == 2
        assert client.delete("items", [(1, 1)]) == 1
        assert client.delete("items", [(2, 2)]) == 1
        assert client._sock.sends == []  # nothing left the client yet
        verdict = client.commit()

        assert verdict["committed"] and verdict["applied_rows"] == 5
        assert len(client._sock.sends) == 1
        assert client.flushes == flushes + 1
        assert [ftype for ftype, _ in client._sock.frames(0)] == [
            p.T_INSERT,
            p.T_INSERT,
            p.T_DELETE,
            p.T_DELETE,
            p.T_COMMIT,
        ]
        after = server_stats(server)
        assert after["stage_runs"] == before["stage_runs"] + 1
        assert after["stage_frames"] == before["stage_frames"] + 4
        assert base_rows(server) == [(3, 3), (4, 4), (5, 5)]

    def test_reads_stage_nothing_and_send_one_frame(self, server, client):
        before = server_stats(server)
        client._sock.sends.clear()
        client.query(ALL_ITEMS)
        assert [ftype for ftype, _ in client._sock.frames(0)] == [p.T_QUERY]
        assert server_stats(server)["stage_runs"] == before["stage_runs"]

    def test_coalescing_counters_are_on_the_metrics_page(self, server, client):
        client.insert("items", [(1, 1)])
        client.commit()
        page = server.render_metrics()
        for name in ("stage_frames", "stage_runs", "guarded_commits_refused"):
            assert f"tintin_server_{name} " in page
            assert name in client.metrics()["server"]


class TestDeferredStagingErrors:
    @pytest.mark.parametrize(
        "table, rows",
        [("no_such_table", [(7, 7)]), ("items", [(7,)])],
        ids=["unknown-table", "wrong-arity"],
    )
    def test_commit_raises_the_staging_error_and_commits_nothing(
        self, server, client, table, rows
    ):
        reference = make_engine().create_session()
        with pytest.raises(ReproError) as expected:
            reference.insert(table, rows)

        client.insert("items", [(1, 1)])
        client.insert(table, rows)  # deferred: the failure is not known yet
        client.insert("items", [(2, 2)])
        with pytest.raises(ExecutionError) as excinfo:
            client.commit()
        assert str(excinfo.value) == str(expected.value)
        assert base_rows(server) == []
        assert server_stats(server)["guarded_commits_refused"] == 1
        # the caller has seen the error: the rows that did stage are
        # still there, and a second commit commits them
        assert sorted(client.query(ALL_ITEMS).rows) == [(1, 1), (2, 2)]
        verdict = client.commit()
        assert verdict["committed"] and verdict["applied_rows"] == 2
        assert base_rows(server) == [(1, 1), (2, 2)]
        assert server_stats(server)["guarded_commits_refused"] == 1

    def test_discard_after_the_refusal_drops_the_survivors(self, server, client):
        client.insert("items", [(1, 1)])
        client.insert("no_such_table", [(7, 7)])
        with pytest.raises(ExecutionError):
            client.commit()
        assert client.discard() == 1
        assert client.commit()["applied_rows"] == 0
        assert base_rows(server) == []

    def test_only_the_first_of_several_failures_is_raised(self, client):
        client.insert("first_missing", [(1, 1)])
        client.insert("second_missing", [(1, 1)])
        with pytest.raises(ExecutionError, match="first_missing"):
            client.commit()

    def test_error_seen_at_a_query_leaves_the_commit_unguarded(
        self, server, client
    ):
        client.insert("items", [(1, 1)])
        client.insert("no_such_table", [(7, 7)])
        with pytest.raises(ExecutionError, match="no_such_table"):
            client.query(ALL_ITEMS)
        # the query's own answer was read and dropped: the stream is aligned
        assert client.query(ALL_ITEMS).rows == [(1, 1)]
        client._sock.sends.clear()
        assert client.commit()["applied_rows"] == 1
        (_, spec), = client._sock.frames(0)
        assert "guard" not in p.decode_json(spec)
        assert server_stats(server)["guarded_commits_refused"] == 0

    def test_guard_covers_only_the_frames_whose_answers_are_unread(
        self, server, client
    ):
        client.insert("no_such_table", [(7, 7)])
        with pytest.raises(ExecutionError):
            client.query(ALL_ITEMS)
        client.insert("items", [(1, 1)])
        client._sock.sends.clear()
        # guarded (one unread answer), but the earlier failure was seen
        assert client.commit()["applied_rows"] == 1
        assert p.decode_json(client._sock.frames(0)[-1][1])["guard"] == 1
        assert server_stats(server)["guarded_commits_refused"] == 0

    def test_discard_raises_the_error_but_is_executed(self, server, client):
        client.insert("items", [(1, 1)])
        client.insert("no_such_table", [(7, 7)])
        with pytest.raises(ExecutionError):
            client.discard()
        assert client.query(ALL_ITEMS).rows == []
        assert client.commit()["applied_rows"] == 0


class TestReadYourWrites:
    def test_query_sees_the_deferred_rows(self, client):
        client.insert("items", [(1, 1)])
        assert client.query(ALL_ITEMS).rows == [(1, 1)]

    def test_insert_then_delete_nets_out_in_order(self, server, client):
        client.insert("items", [(1, 1)])
        client.delete("items", [(1, 1)])
        client.insert("items", [(1, 2)])  # would collide if reordered
        assert client.query(ALL_ITEMS).rows == [(1, 2)]
        client.delete("items", [(1, 2)])
        assert client.query(ALL_ITEMS).rows == []
        assert client.commit()["applied_rows"] == 0
        assert base_rows(server) == []


class TestShedAndDeadline:
    def test_overload_retry_resends_commit_alone_and_stages_once(self):
        faults = FaultInjector()
        server = make_engine().listen(
            max_depth=1, commit_workers=1, faults=faults
        )
        faults.delay("scheduler.window", 0.4, times=1)
        holder = TintinClient(*server.address)
        shed = TintinClient(*server.address)
        shed._sock = RecordingSocket(shed._sock)
        try:
            holder.insert("items", [(1, 1)])
            thread = threading.Thread(target=holder.commit)
            thread.start()
            time.sleep(0.1)  # the holder now occupies the only slot
            shed.insert("items", [(2, 2)])
            # shed at least once, then admitted
            verdict = shed.commit(attempts=40)
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert verdict["committed"] and verdict["applied_rows"] == 1
            assert server.metrics()["admission"]["shed_total"] >= 1
            first, *retries = range(len(shed._sock.sends))
            assert [t for t, _ in shed._sock.frames(first)] == [
                p.T_INSERT,
                p.T_COMMIT,
            ]
            assert retries
            for retry in retries:
                (ftype, spec), = shed._sock.frames(retry)
                assert ftype == p.T_COMMIT
                assert "guard" not in p.decode_json(spec)
            assert server_stats(server)["stage_frames"] == 2
            assert base_rows(server) == [(1, 1), (2, 2)]
        finally:
            holder.close_socket()
            shed.close_socket()
            server.shutdown(drain_timeout=5)

    def test_expired_commit_keeps_the_rows_that_travelled_with_it(
        self, server, client
    ):
        client.insert("items", [(1, 1)])
        with pytest.raises(DeadlineExceeded):
            client.commit(timeout=0.0, retry=False)
        assert base_rows(server) == []
        assert client.query(ALL_ITEMS).rows == [(1, 1)]
        assert client.commit()["applied_rows"] == 1


class TestConnectionLoss:
    def test_insert_on_a_closed_client_raises_at_once(self, client):
        client.close()
        with pytest.raises(ConnectionLost):
            client.insert("items", [(1, 1)])
        with pytest.raises(ConnectionLost):
            client.delete("items", [(1, 1)])

    @pytest.mark.parametrize("answered", [1, 2], ids=["mid-gather", "verdict"])
    def test_connection_dropped_before_the_verdict_is_never_a_verdict(
        self, answered
    ):
        faults = FaultInjector()
        server = make_engine().listen(faults=faults)
        # server.read fires before HELLO and before every later frame:
        # the drop lands behind ``answered`` staging frames
        faults.drop_connection("server.read", times=1, after=1 + answered)
        client = TintinClient(*server.address, timeout=5, retries=0)
        try:
            client.insert("items", [(1, 1)])
            client.insert("items", [(2, 2)])
            with pytest.raises(ConnectionLost):
                client.commit(retry=False)
            assert base_rows(server) == []
        finally:
            client.close_socket()
            server.shutdown(drain_timeout=5)

    def test_staged_state_is_never_silently_reconnected_away(self, client):
        client.insert("items", [(1, 1)])
        client._sock.shutdown(socket.SHUT_RDWR)
        with pytest.raises(ConnectionLost):
            client.health()  # would retry on a fresh session if idle


class TestMalformedFrames:
    def test_garbage_staging_payload_is_answered_then_disconnected(
        self, server, client
    ):
        good = p.encode_events_payload("items", [(1, 1)])
        first = client._frame(p.T_INSERT, good)
        garbage = client._frame(p.T_INSERT, b"\xff\xff\xff garbage")
        commit = client._send(p.T_COMMIT, p.encode_json({"guard": 2}))
        assert client._wait(first)[0] == p.T_OK
        ftype, payload = client._wait(garbage)
        assert ftype == p.T_ERROR
        with pytest.raises(ProtocolError, match="malformed events payload"):
            client._raise_error(payload)
        # a peer that sends garbage is cut off: the COMMIT behind it is
        # never processed
        with pytest.raises(ConnectionLost):
            client._wait(commit)
        assert base_rows(server) == []
        assert server_stats(server)["errors_total"] == 1

    def test_bad_hello_magic_is_answered_not_ignored(self, server):
        client = TintinClient(*server.address, timeout=5, connect=False)
        client._sock = socket.create_connection(server.address, timeout=5)
        client._rfile = client._sock.makefile("rb")
        try:
            with pytest.raises(ProtocolError, match="magic"):
                client._request(
                    p.T_HELLO,
                    p.encode_json({"magic": "nope", "version": 2}),
                )
        finally:
            client.close_socket()

    def test_non_numeric_guard_is_a_protocol_error(self, client):
        with pytest.raises(ProtocolError, match="guard"):
            client._request(p.T_COMMIT, p.encode_json({"guard": "all"}))


class TestBoundedBuffers:
    def test_client_window_sits_inside_the_server_queue(self):
        assert client_module._WINDOW_FRAMES + 1 < server_module._QUEUE_FRAMES
        assert client_module._WINDOW_BYTES < server_module._QUEUE_BYTES

    def test_ten_thousand_deferred_inserts_stay_inside_both_bounds(self):
        server = make_engine().listen(commit_workers=1)
        client = TintinClient(*server.address, timeout=30)
        client._sock = RecordingSocket(client._sock)
        try:
            (conn,) = server._connections
            for key in range(10_000):
                client.insert("items", [(key, 1)])
                assert len(client._out) <= client_module._WINDOW_BYTES
                assert len(client._deferred) <= client_module._WINDOW_FRAMES
            verdict = client.commit()
            assert verdict["committed"] and verdict["applied_rows"] == 10_000
            assert len(base_rows(server)) == 10_000
            assert client.flushes <= 2 + 10_000 // client_module._WINDOW_FRAMES
            assert max(map(len, client._sock.sends)) <= (
                client_module._WINDOW_BYTES + 64
            )
            assert conn.queue.peak_frames <= client_module._WINDOW_FRAMES + 1
            assert conn.queue.peak_bytes <= server_module._QUEUE_BYTES
            stats = server_stats(server)
            assert stats["stage_frames"] == 10_000
            assert stats["stage_runs"] < 10_000 // 4
        finally:
            client.close_socket()
            server.shutdown(drain_timeout=5)

    def test_early_gather_raises_a_staging_error_from_insert(self, client):
        client.insert("no_such_table", [(1, 1)])
        with pytest.raises(ExecutionError, match="no_such_table"):
            for key in range(client_module._WINDOW_FRAMES + 1):
                client.insert("items", [(key, 1)])
        # the insert that raised staged nothing; the window before it did
        assert len(client.query(ALL_ITEMS)) == client_module._WINDOW_FRAMES - 1

    def test_a_peer_that_never_reads_is_held_at_the_queue_bound(
        self, server, client
    ):
        """The worker is stalled (staging needs the scheduler's read
        lock); a peer pipelines more frames than the queue holds and
        reads nothing.  The read loop stops at the bound, the rest
        waits in the socket, and everything is answered afterwards."""
        frames = server_module._QUEUE_FRAMES + 400
        (conn,) = server._connections
        lock = server.tintin.sessions.scheduler.rwlock
        lock.acquire_write()
        try:
            ids = [
                client._frame(
                    p.T_INSERT, p.encode_events_payload("items", [(key, 1)])
                )
                for key in range(frames)
            ]
            client._flush()
            deadline = time.monotonic() + 5
            while (
                conn.queue.peak_frames < server_module._QUEUE_FRAMES
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            time.sleep(0.1)  # room for an overshoot to show
            assert conn.queue.peak_frames == server_module._QUEUE_FRAMES
        finally:
            lock.release_write()
        for request_id in ids:
            assert client._wait(request_id)[0] == p.T_OK
        assert client.commit()["applied_rows"] == frames
        assert conn.queue.peak_frames == server_module._QUEUE_FRAMES
        assert conn.queue.peak_bytes <= server_module._QUEUE_BYTES


# -- network ≡ in-process ---------------------------------------------------

rows_strategy = st.lists(
    # mostly acceptable rows; qty -1 violates the assertion at commit
    st.tuples(st.integers(0, 7), st.sampled_from((1, 2, 3, 1, 2, 3, 1, 2, 3, -1))),
    min_size=1,
    max_size=3,
)
kind_strategy = st.sampled_from(("insert", "insert", "delete"))
stage_strategy = st.tuples(kind_strategy, st.just("items"), rows_strategy)
failing_stage_strategy = st.one_of(
    st.tuples(kind_strategy, st.just("no_such_table"), rows_strategy),
    st.tuples(kind_strategy, st.just("items"), st.just([(1,)])),  # arity
)
sync_strategy = st.sampled_from(
    (("query",), ("discard",), ("commit",), ("commit",))
)
script_strategy = st.lists(
    # of ten steps: six stage, one fails to stage, three answer
    st.tuples(
        st.integers(0, 9), stage_strategy, failing_stage_strategy, sync_strategy
    ).map(lambda pick: pick[1 if pick[0] < 6 else 2 if pick[0] < 7 else 3]),
    min_size=3,
    max_size=16,
)


def run_in_process(session, script):
    """What a caller sees step by step, and — per stretch between two
    calls that answer — the first staging error raised in it."""
    seen, errors, first_error = [], [], None
    for op in script:
        if op[0] in ("insert", "delete"):
            try:
                getattr(session, op[0])(op[1], op[2])
            except ReproError as exc:
                first_error = first_error or str(exc)
            continue
        if first_error is not None:
            errors.append(first_error)
            first_error = None
        if op[0] == "query":
            seen.append(sorted(session.query(ALL_ITEMS).rows))
        elif op[0] == "discard":
            session.discard()
        else:
            result = session.commit()
            seen.append(
                (
                    result.committed,
                    result.applied_rows,
                    [str(v) for v in result.violations],
                    result.constraint_error,
                )
            )
    return seen, errors


def run_over_the_wire(client, script):
    """The same script through a client: a deferred staging error
    surfaces from the next call that answers, which is then repeated
    (a discard was executed even so)."""
    seen, errors = [], []

    def answering(call):
        try:
            return call()
        except ExecutionError as exc:
            errors.append(str(exc))
            return call()

    for op in script:
        if op[0] in ("insert", "delete"):
            getattr(client, op[0])(op[1], op[2])
        elif op[0] == "query":
            seen.append(sorted(answering(lambda: client.query(ALL_ITEMS)).rows))
        elif op[0] == "discard":
            answering(client.discard)
        else:
            verdict = answering(client.commit)
            seen.append(
                (
                    verdict["committed"],
                    verdict["applied_rows"],
                    verdict["violations"],
                    verdict["constraint_error"],
                )
            )
    return seen, errors


@pytest.fixture(scope="module")
def twins():
    """One served engine and one in-process twin for every example;
    each example empties both through its own interface first."""
    server = make_engine().listen()
    local = make_engine()
    yield server, local
    server.shutdown(drain_timeout=5)
    local.close()


@given(script_strategy)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_client_script_equals_in_process_session(twins, script):
    server, local = twins
    session = local.create_session()
    with TintinClient(*server.address, timeout=10) as client:
        for stale in (session, client):
            stale.delete("items", stale.query(ALL_ITEMS).rows)
            stale.commit()
        # the closing query brings out what the script left deferred
        script = [*script, ("query",)]
        expected = run_in_process(session, script)
        assert run_over_the_wire(client, script) == expected
    session.expire()
    assert base_rows(server) == sorted(local.db.query(ALL_ITEMS).rows)
