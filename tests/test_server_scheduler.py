"""The commit scheduler: leader election, group batching, the serial
policy, the read/write lock, and the differential guarantee — N
sessions committing sequentially and concurrently must accept/reject
exactly the same updates and produce the same final state."""

import threading

import pytest

from repro import Database, Tintin
from repro.server.locks import ReadWriteLock
from tests.splice_oracle import query_spliced

ASSERTIONS = (
    "CREATE ASSERTION atLeastOneItem CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE NOT EXISTS ("
    "SELECT * FROM items AS i WHERE i.order_id = o.id)))",
    "CREATE ASSERTION itemHasOrder CHECK (NOT EXISTS ("
    "SELECT * FROM items AS i WHERE NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE o.id = i.order_id)))",
    "CREATE ASSERTION positiveQty CHECK (NOT EXISTS ("
    "SELECT * FROM items AS i WHERE i.qty < 1))",
)


def build_tintin(**serve_opts) -> Tintin:
    db = Database("scheduler-test")
    db.execute("CREATE TABLE orders (id INTEGER PRIMARY KEY)")
    db.execute(
        "CREATE TABLE items (order_id INTEGER, n INTEGER, qty INTEGER, "
        "PRIMARY KEY (order_id, n), "
        "FOREIGN KEY (order_id) REFERENCES orders (id))"
    )
    tintin = Tintin(db)
    tintin.install()
    for sql in ASSERTIONS:
        tintin.add_assertion(sql)
    if serve_opts:
        tintin.serve(**serve_opts)
    return tintin


def scripted_updates(workers: int, rounds: int):
    """A deterministic per-worker update script with planted violations.

    Worker ``w`` owns the disjoint order-key range ``w*1000 + round``,
    so any interleaving of accepted updates commutes — the basis of the
    sequential/concurrent differential.
    """
    script = {}
    for w in range(workers):
        updates = []
        for r in range(rounds):
            key = w * 1000 + r
            if r % 4 == 3:
                # planted violation: an order with no items
                updates.append({"orders": [(key,)]})
            elif r % 4 == 2:
                # planted violation: an item with qty 0
                updates.append(
                    {"orders": [(key,)], "items": [(key, 1, 0)]}
                )
            else:
                updates.append(
                    {
                        "orders": [(key,)],
                        "items": [(key, 1, 5), (key, 2, 7)],
                    }
                )
        script[w] = updates
    return script


def run_script(tintin: Tintin, script, concurrent: bool):
    """Apply the script; returns {(worker, round): committed} outcomes."""
    outcomes = {}

    def run_worker(w, updates):
        session = tintin.create_session()
        for r, update in enumerate(updates):
            for table, rows in update.items():
                session.insert(table, rows)
            outcomes[(w, r)] = session.commit().committed

    if concurrent:
        threads = [
            threading.Thread(target=run_worker, args=item)
            for item in script.items()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    else:
        for w, updates in script.items():
            run_worker(w, updates)
    return outcomes


def table_state(db: Database) -> dict:
    return {
        name: sorted(db.table(name).rows_snapshot())
        for name in ("orders", "items")
    }


class TestDifferential:
    @pytest.mark.parametrize("policy", ["group", "serial"])
    def test_sequential_and_concurrent_agree(self, policy):
        script = scripted_updates(workers=6, rounds=8)

        sequential = build_tintin(policy="serial")
        seq_outcomes = run_script(sequential, script, concurrent=False)

        concurrent = build_tintin(policy=policy, gather_seconds=0.002)
        conc_outcomes = run_script(concurrent, script, concurrent=True)

        assert seq_outcomes == conc_outcomes
        assert table_state(sequential.db) == table_state(concurrent.db)
        # the planted violations were all rejected, the rest committed
        rejected = {k for k, ok in seq_outcomes.items() if not ok}
        assert rejected == {
            (w, r) for w in range(6) for r in range(8) if r % 4 in (2, 3)
        }


class TestFootprints:
    def test_only_multi_member_windows_build_footprints(self, monkeypatch):
        from repro.server.scheduler import _PendingCommit

        tintin = build_tintin()
        scheduler = tintin.sessions.scheduler
        built = []
        real = scheduler._footprint

        def spy(inserts, deletes):
            built.append(sorted(inserts))
            return real(inserts, deletes)

        monkeypatch.setattr(scheduler, "_footprint", spy)
        session = tintin.create_session()
        session.insert("orders", [(1,)])
        session.insert("items", [(1, 1, 5)])
        assert session.commit().committed
        assert built == []  # a window of one is never partitioned
        pendings = []
        for key in (2, 3):
            member = tintin.create_session()
            member.insert("orders", [(key,)])
            member.insert("items", [(key, 1, 5)])
            inserts, deletes = member.events.snapshot()
            member.events.truncate()
            pending = _PendingCommit(
                session=member,
                inserts=inserts,
                deletes=deletes,
                transactions=member.transactions,
            )
            scheduler._queue.append(pending)
            pendings.append(pending)
        scheduler._process_batch()
        assert len(built) == 2
        assert all(p.result.committed for p in pendings)
        assert pendings[0].result.group_size == 2


class TestConcurrentReaderDifferential:
    def test_staged_readers_during_group_commits(self):
        """N reader threads, each holding staged events, query through
        the overlay-merge path while writers drive group commits.
        Every observed snapshot must be self-consistent: committed
        base state (the assertions hold in every committed state) plus
        exactly the reader's own staged rows — and at quiescence each
        reader's result must equal the single-threaded splice oracle.
        """
        readers, writers, rounds = 4, 3, 12
        tintin = build_tintin(policy="group", gather_seconds=0.001)

        reader_sessions = []
        for index in range(readers):
            session = tintin.create_session()
            key = 900_000 + index
            session.insert("orders", [(key,)])
            session.insert("items", [(key, 1, 5)])
            reader_sessions.append((key, session))

        itemless = (
            "SELECT * FROM orders AS o WHERE NOT EXISTS ("
            "SELECT * FROM items AS i WHERE i.order_id = o.id)"
        )
        stop = threading.Event()
        anomalies = []

        def reader(key, session):
            own = f"SELECT * FROM orders AS o WHERE o.id = {key}"
            while not stop.is_set():
                if session.query(itemless).rows:
                    anomalies.append((key, "itemless witness"))
                if sorted(session.query(own).rows) != [(key,)]:
                    anomalies.append((key, "own staged row invisible"))

        def writer(worker):
            session = tintin.create_session()
            for round_no in range(rounds):
                key = worker * 1000 + round_no
                session.insert("orders", [(key,)])
                session.insert("items", [(key, 1, 5)])
                assert session.commit().committed

        reader_threads = [
            threading.Thread(target=reader, args=item)
            for item in reader_sessions
        ]
        writer_threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(writers)
        ]
        for t in reader_threads + writer_threads:
            t.start()
        for t in writer_threads:
            t.join()
        stop.set()
        for t in reader_threads:
            t.join()
        assert anomalies == []
        assert len(tintin.db.table("orders")) == writers * rounds
        # quiescent differential: overlay reads == the splice oracle
        for _, session in reader_sessions:
            for sql in ("SELECT * FROM orders", "SELECT * FROM items"):
                assert sorted(session.query(sql).rows) == sorted(
                    query_spliced(session, sql).rows
                )


class TestGroupCommit:
    def test_batches_form_under_concurrency(self):
        tintin = build_tintin(gather_seconds=0.05)
        barrier = threading.Barrier(8)
        results = {}

        def client(k):
            session = tintin.create_session()
            session.insert("orders", [(k,)])
            session.insert("items", [(k, 1, 5)])
            barrier.wait()
            results[k] = session.commit()

        threads = [
            threading.Thread(target=client, args=(k,)) for k in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r.committed for r in results.values())
        stats = tintin.sessions.scheduler.stats
        # with an explicit gather window all 8 land in very few batches
        assert stats.max_group_size >= 2
        assert stats.group_fast_path >= 2
        assert max(r.group_size for r in results.values()) >= 2

    def test_serial_policy_never_groups(self):
        tintin = build_tintin(policy="serial", gather_seconds=0.05)
        barrier = threading.Barrier(4)
        results = {}

        def client(k):
            session = tintin.create_session()
            session.insert("orders", [(k,)])
            session.insert("items", [(k, 1, 5)])
            barrier.wait()
            results[k] = session.commit()

        threads = [
            threading.Thread(target=client, args=(k,)) for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = tintin.sessions.scheduler.stats
        assert stats.group_fast_path == 0
        assert stats.serial_commits == 4
        assert all(r.group_size == 1 for r in results.values())

    def test_default_session_serializes_through_scheduler(self):
        tintin = build_tintin()
        tintin.create_session()  # activate the server layer
        db = tintin.db
        db.execute("INSERT INTO orders VALUES (1)")
        db.execute("INSERT INTO items VALUES (1, 1, 5)")
        result = tintin.safe_commit()
        assert result.committed
        assert tintin.sessions.scheduler.stats.commits == 1
        assert len(db.table("orders")) == 1

    def test_scheduler_preserves_default_staged_events(self):
        tintin = build_tintin()
        db = tintin.db
        # the default (trigger-captured) session has staged an update...
        db.execute("INSERT INTO orders VALUES (50)")
        db.execute("INSERT INTO items VALUES (50, 1, 5)")
        # ...while another session commits through the scheduler
        session = tintin.create_session()
        session.insert("orders", [(60,)])
        session.insert("items", [(60, 1, 5)])
        assert session.commit().committed
        # the default session's events survived the commit window
        assert len(db.table("ins_orders")) == 1
        assert tintin.safe_commit().committed
        assert sorted(db.table("orders").rows_snapshot()) == [(50,), (60,)]


class TestReadWriteLock:
    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order = []
        lock.acquire_write()

        def reader():
            with lock.read_locked():
                order.append("read")

        thread = threading.Thread(target=reader)
        thread.start()
        thread.join(timeout=0.05)
        assert order == []  # reader blocked while writer holds the lock
        order.append("write-done")
        lock.release_write()
        thread.join()
        assert order == ["write-done", "read"]

    def test_readers_share(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(3, timeout=2.0)

        def reader():
            with lock.read_locked():
                inside.wait()  # all three readers hold the lock at once

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        state = []

        def writer():
            lock.acquire_write()
            state.append("wrote")
            lock.release_write()

        def late_reader():
            with lock.read_locked():
                state.append("late-read")

        w = threading.Thread(target=writer)
        w.start()
        while not lock._writers_waiting:
            pass
        r = threading.Thread(target=late_reader)
        r.start()
        r.join(timeout=0.05)
        assert state == []  # the late reader queued behind the writer
        lock.release_read()
        w.join()
        r.join()
        assert state == ["wrote", "late-read"]
