"""Session isolation: private staging, snapshot reads, expiry, and the
edge cases the multi-session design must get right (overlapping staged
deletes, expiry with staged events, violation attribution in a mixed
commit window)."""

import threading

import pytest

from repro import Database, Tintin
from repro.errors import ExecutionError, SessionExpired
from repro.server.scheduler import _PendingCommit
from tests.splice_oracle import query_spliced

ASSERTION = (
    "CREATE ASSERTION atLeastOneItem CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE NOT EXISTS ("
    "SELECT * FROM items AS i WHERE i.order_id = o.id)))"
)

MAX_THREE_ITEMS = (
    "CREATE ASSERTION maxThreeItems CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE "
    "(SELECT COUNT(*) FROM items AS i WHERE i.order_id = o.id) > 3))"
)


def build_tintin(*assertions) -> Tintin:
    db = Database("server-test")
    db.execute("CREATE TABLE orders (id INTEGER PRIMARY KEY)")
    db.execute(
        "CREATE TABLE items (order_id INTEGER, n INTEGER, "
        "PRIMARY KEY (order_id, n), "
        "FOREIGN KEY (order_id) REFERENCES orders (id))"
    )
    tintin = Tintin(db)
    tintin.install()
    for sql in assertions or (ASSERTION,):
        tintin.add_assertion(sql)
    return tintin


def commit_order(tintin: Tintin, key: int, items: int = 1):
    session = tintin.create_session()
    session.insert("orders", [(key,)])
    session.insert("items", [(key, n) for n in range(1, items + 1)])
    result = session.commit()
    assert result.committed, result
    return result


def inject(scheduler, session):
    """Queue a session's staged update without processing it."""
    inserts, deletes = session.staged.snapshot()
    session.staged.truncate()
    pending = _PendingCommit(
        session=session,
        inserts=inserts,
        deletes=deletes,
        transactions=session.transactions,
    )
    scheduler._queue.append(pending)
    return pending


class TestIsolation:
    def test_staged_events_invisible_to_other_sessions(self):
        tintin = build_tintin()
        s1 = tintin.create_session()
        s2 = tintin.create_session()
        s1.execute("INSERT INTO orders VALUES (1)")
        assert len(s1.query("SELECT * FROM orders")) == 1
        assert len(s2.query("SELECT * FROM orders")) == 0
        assert s2.rows("orders") == []
        # the global event tables stay empty: staging is private
        assert len(tintin.db.table("ins_orders")) == 0

    def test_read_your_writes_includes_staged_deletes(self):
        tintin = build_tintin()
        commit_order(tintin, 1)
        session = tintin.create_session()
        session.delete("items", [(1, 1)])
        session.insert("items", [(1, 2)])
        mine = session.query("SELECT * FROM items")
        assert sorted(mine.rows) == [(1, 2)]
        # other sessions (and the base tables) are untouched
        other = tintin.create_session()
        assert sorted(other.query("SELECT * FROM items").rows) == [(1, 1)]
        assert tintin.db.table("items").rows_snapshot() == [(1, 1)]

    def test_splice_oracle_restores_base_exactly(self):
        tintin = build_tintin()
        commit_order(tintin, 1)
        before = sorted(tintin.db.table("orders").rows_snapshot())
        session = tintin.create_session()
        session.insert("orders", [(2,)])
        session.delete("orders", [(1,)])
        # the splice differential oracle mutates and restores ...
        query_spliced(session, "SELECT * FROM orders")
        assert sorted(tintin.db.table("orders").rows_snapshot()) == before
        # ... while the production overlay read never touches base at all
        stamp = tintin.db.data_version()
        assert sorted(session.query("SELECT * FROM orders").rows) == [(2,)]
        assert tintin.db.data_version() == stamp

    def test_data_version_stamps_commits_and_reads(self):
        tintin = build_tintin()
        db = tintin.db
        before = db.data_version()
        commit_order(tintin, 1)
        committed = db.data_version()
        assert committed > before  # a commit stamps the base tables
        session = tintin.create_session()
        assert len(session.query("SELECT * FROM orders")) == 1
        # a plain snapshot read leaves no trace: equal stamps prove the
        # read observed one stable version of the base data
        assert db.data_version() == committed

    def test_commit_makes_update_visible_to_all(self):
        tintin = build_tintin()
        s1 = tintin.create_session()
        s2 = tintin.create_session()
        s1.execute("INSERT INTO orders VALUES (7)")
        s1.execute("INSERT INTO items VALUES (7, 1)")
        assert s1.commit().committed
        assert len(s2.query("SELECT * FROM orders")) == 1

    def test_update_stages_delete_plus_insert(self):
        tintin = build_tintin()
        commit_order(tintin, 1)
        session = tintin.create_session()
        session.execute("UPDATE items SET n = 5 WHERE order_id = 1")
        counts = session.pending_counts()
        assert counts["items"] == (1, 1)
        assert session.commit().committed
        assert tintin.db.table("items").rows_snapshot() == [(1, 5)]

    def test_session_rejects_ddl(self):
        tintin = build_tintin()
        session = tintin.create_session()
        with pytest.raises(ExecutionError):
            session.execute("CREATE TABLE t (x INTEGER)")

    def test_dml_text_parsed_once(self):
        tintin = build_tintin()
        db = tintin.db
        session = tintin.create_session()
        session.execute("INSERT INTO orders VALUES (1)")
        before = db.plan_cache_stats.dml_ast_hits
        session.execute("INSERT INTO orders VALUES (1)")  # staged no-op
        assert db.plan_cache_stats.dml_ast_hits == before + 1


class TestOverlappingDeletes:
    def test_two_sessions_delete_the_same_row(self):
        tintin = build_tintin()
        commit_order(tintin, 1)
        commit_order(tintin, 2)
        s1 = tintin.create_session()
        s2 = tintin.create_session()
        # both stage a delete of order 2 (and its item) while it exists
        for s in (s1, s2):
            s.delete("items", [(2, 1)])
            s.delete("orders", [(2,)])
        r1 = s1.commit()
        r2 = s2.commit()
        assert r1.committed and r2.committed
        # the first delete wins; the second applies as a no-op
        assert r1.applied_rows == 2
        assert r2.applied_rows == 0
        assert sorted(tintin.db.table("orders").rows_snapshot()) == [(1,)]

    def test_overlapping_footprints_are_incompatible(self):
        """Two members of one window deleting the same order: the first
        delete wins and the second applies as a no-op, while a
        key-disjoint third member commits beside them."""
        tintin = build_tintin()
        commit_order(tintin, 1)
        commit_order(tintin, 2)
        scheduler = tintin.sessions.scheduler
        sessions = []
        for _ in range(2):
            session = tintin.create_session()
            session.delete("items", [(2, 1)])
            session.delete("orders", [(2,)])
            sessions.append(session)
        fresh = tintin.create_session()
        fresh.insert("orders", [(9,)])
        fresh.insert("items", [(9, 1)])
        sessions.append(fresh)
        pendings = [inject(scheduler, s) for s in sessions]
        scheduler._process_batch()
        assert all(p.result.committed for p in pendings)
        assert [p.result.applied_rows for p in pendings] == [2, 0, 2]
        assert sorted(tintin.db.table("orders").rows_snapshot()) == [
            (1,),
            (9,),
        ]

    def test_stake_vs_reference_collision_is_incompatible(self):
        """One window: a member deleting order 5, then a member adding
        an item to order 5.  FIFO applies the delete first, so the item
        then references no order and is rejected."""
        tintin = build_tintin()
        commit_order(tintin, 5)
        scheduler = tintin.sessions.scheduler
        remover = tintin.create_session()
        remover.delete("items", [(5, 1)])
        remover.delete("orders", [(5,)])
        adder = tintin.create_session()
        adder.insert("items", [(5, 2)])
        first, second = [inject(scheduler, s) for s in (remover, adder)]
        scheduler._process_batch()
        assert first.result.committed
        assert not second.result.committed
        assert second.result.constraint_error
        assert tintin.db.table("orders").rows_snapshot() == []
        assert tintin.db.table("items").rows_snapshot() == []

    def test_shared_quantified_parent_serializes(self):
        """Two sessions editing the same order's items in one window:
        under atLeastOneItem one session's insert must not mask the
        other's delete-the-last-item violation."""
        tintin = build_tintin()
        commit_order(tintin, 1)  # order 1 with item (1, 1)
        s_del = tintin.create_session()
        s_ins = tintin.create_session()
        s_del.delete("items", [(1, 1)])   # removes order 1's only item
        s_ins.insert("items", [(1, 2)])   # adds a new item to order 1
        scheduler = tintin.sessions.scheduler
        p_del, p_ins = [inject(scheduler, s) for s in (s_del, s_ins)]
        scheduler._process_batch()
        # FIFO semantics: the delete (first) violates and is rejected,
        # the insert then commits — never "both commit" via a union
        r_del, r_ins = p_del.result, p_ins.result
        assert not r_del.committed and r_del.violations
        assert r_del.violations[0].assertion == "atLeastOneItem"
        assert r_ins.committed
        assert sorted(tintin.db.table("items").rows_snapshot()) == [
            (1, 1),
            (1, 2),
        ]

    def test_unquantified_shared_parent_stays_groupable(self):
        """Orders sharing a customer parent that no negation quantifies
        over share one window, and both commit."""
        db = Database("cust")
        db.execute("CREATE TABLE customer (id INTEGER PRIMARY KEY)")
        db.execute(
            "CREATE TABLE orders (id INTEGER PRIMARY KEY, cid INTEGER, "
            "FOREIGN KEY (cid) REFERENCES customer (id))"
        )
        tintin = Tintin(db)
        tintin.install()
        tintin.add_assertion(
            "CREATE ASSERTION orderHasCustomer CHECK (NOT EXISTS ("
            "SELECT * FROM orders AS o WHERE NOT EXISTS ("
            "SELECT * FROM customer AS c WHERE c.id = o.cid)))"
        )
        boot = tintin.create_session()
        boot.insert("customer", [(1,)])
        assert boot.commit().committed
        scheduler = tintin.sessions.scheduler
        sessions = []
        for key in (10, 11):
            session = tintin.create_session()
            session.insert("orders", [(key, 1)])
            sessions.append(session)
        pendings = [inject(scheduler, s) for s in sessions]
        scheduler._process_batch()
        assert all(p.result.committed for p in pendings)
        assert scheduler.stats.max_group_size == 2
        assert len(db.table("orders")) == 2


class TestExpiry:
    def test_expired_session_discards_staged_events(self):
        tintin = build_tintin()
        session = tintin.create_session()
        session.insert("orders", [(1,)])
        dropped = session.expire()
        assert dropped == 1
        assert not session.has_pending_events()
        # nothing leaked anywhere: base and global event tables empty
        assert len(tintin.db.table("orders")) == 0
        assert len(tintin.db.table("ins_orders")) == 0

    def test_operations_on_expired_session_raise(self):
        tintin = build_tintin()
        session = tintin.create_session()
        session.expire()
        with pytest.raises(SessionExpired):
            session.insert("orders", [(1,)])
        with pytest.raises(SessionExpired):
            session.query("SELECT * FROM orders")
        with pytest.raises(SessionExpired):
            session.commit()

    def test_manager_forgets_expired_sessions(self):
        tintin = build_tintin()
        session = tintin.create_session()
        assert tintin.sessions.active_count == 1
        session.expire()
        assert tintin.sessions.active_count == 0
        with pytest.raises(SessionExpired):
            tintin.sessions.get(session.session_id)

    def test_ttl_expiry_with_staged_events(self):
        tintin = build_tintin()
        session = tintin.create_session(ttl=30.0)
        session.insert("orders", [(1,)])
        session.last_used -= 60.0  # simulate 60s of idleness
        with pytest.raises(SessionExpired):
            session.commit()
        assert not session.has_pending_events()

    def test_expire_idle_sweep(self):
        tintin = build_tintin()
        idle = tintin.create_session()
        busy = tintin.create_session()
        idle.insert("orders", [(1,)])
        idle.last_used -= 120.0
        expired = tintin.sessions.expire_idle(60.0)
        assert expired == [idle.session_id]
        assert busy.expired is False
        assert tintin.sessions.active_count == 1

    def test_expire_idle_skips_session_with_commit_in_flight(self):
        """A session reaped while its commit is queued must not have
        its staged events discarded mid-validation: the commit pins
        the session, and the idle sweep skips pinned sessions."""
        tintin = build_tintin()
        session = tintin.create_session()
        session.insert("orders", [(1,)])
        session.insert("items", [(1, 1)])
        scheduler = tintin.sessions.scheduler

        # hold the leader lock so the commit stays queued (in flight)
        scheduler._leader_lock.acquire()
        result_box = {}

        def committer():
            result_box["result"] = session.commit()

        thread = threading.Thread(target=committer)
        thread.start()
        try:
            # wait until the request is queued (the session is pinned)
            for _ in range(2000):
                if session.pinned and scheduler._queue:
                    break
                threading.Event().wait(0.001)
            assert session.pinned
            # an aggressive sweep (everything counts as idle) must not
            # reap the session whose commit is being decided
            reaped = tintin.sessions.expire_idle(0.0)
            assert session.session_id not in reaped
            assert not session.expired
        finally:
            scheduler._leader_lock.release()
        thread.join(timeout=10)
        assert result_box["result"].committed
        assert sorted(tintin.db.table("orders").rows_snapshot()) == [(1,)]

    def test_direct_expire_during_commit_leaves_staged_events_alone(self):
        """Even an explicit ``expire()`` racing a queued commit must
        not discard the events the request owns — the commit decision
        stands; the session merely dies afterwards."""
        tintin = build_tintin()
        session = tintin.create_session()
        session.insert("orders", [(1,)])
        session.insert("items", [(1, 1)])
        scheduler = tintin.sessions.scheduler
        scheduler._leader_lock.acquire()
        result_box = {}

        def committer():
            result_box["result"] = session.commit()

        thread = threading.Thread(target=committer)
        thread.start()
        try:
            for _ in range(2000):
                if session.pinned and scheduler._queue:
                    break
                threading.Event().wait(0.001)
            dropped = session.expire()
            assert dropped == 0  # the queued request owns the events
        finally:
            scheduler._leader_lock.release()
        thread.join(timeout=10)
        assert result_box["result"].committed
        assert sorted(tintin.db.table("orders").rows_snapshot()) == [(1,)]
        assert session.expired  # the session is unusable afterwards


class TestViolationAttribution:
    def test_mixed_batch_attributes_violation_to_offender(self):
        tintin = build_tintin()
        scheduler = tintin.sessions.scheduler
        good1 = tintin.create_session()
        bad = tintin.create_session()
        good2 = tintin.create_session()
        good1.insert("orders", [(1,)])
        good1.insert("items", [(1, 1)])
        bad.insert("orders", [(2,)])  # no items: violates the assertion
        good2.insert("orders", [(3,)])
        good2.insert("items", [(3, 1)])
        pendings = [
            inject(scheduler, s) for s in (good1, bad, good2)
        ]
        scheduler._process_batch()
        results = [p.result for p in pendings]
        assert results[0].committed and results[2].committed
        assert not results[1].committed
        assert results[1].violations
        assert results[1].violations[0].assertion == "atLeastOneItem"
        # one window decided all three, each member on its own
        assert scheduler.stats.max_group_size == 3
        assert sorted(tintin.db.table("orders").rows_snapshot()) == [
            (1,),
            (3,),
        ]

    def test_aggregate_groups_serialize_per_order(self):
        tintin = build_tintin(ASSERTION, MAX_THREE_ITEMS)
        commit_order(tintin, 1, items=1)
        scheduler = tintin.sessions.scheduler
        s1 = tintin.create_session()
        s2 = tintin.create_session()
        s1.insert("items", [(1, 10)])  # order 1 now at 2 items
        s2.insert("items", [(1, 20), (1, 21)])  # would push it to 4
        pendings = [inject(scheduler, s) for s in (s1, s2)]
        scheduler._process_batch()
        assert pendings[0].result.committed
        assert not pendings[1].result.committed
        assert pendings[1].result.violations[0].assertion == "maxThreeItems"
        assert len(tintin.db.table("items")) == 2

    def test_constraint_error_attributed_in_group(self):
        tintin = build_tintin()
        commit_order(tintin, 1)
        scheduler = tintin.sessions.scheduler
        s1 = tintin.create_session()
        s2 = tintin.create_session()
        s1.insert("orders", [(2,)])
        s1.insert("items", [(2, 1)])
        # duplicate PK against committed data: passes assertion checks,
        # fails on apply — must reject only the offending session
        s2.insert("items", [(1, 1), (9, 9)])
        inserts, deletes = s2.staged.snapshot()
        # bypass net-staging to force the duplicate through
        inserts["items"] = [(1, 1)]
        p1 = inject(scheduler, s1)
        p2 = _PendingCommit(
            session=s2,
            inserts=inserts,
            deletes={},
            transactions=s2.transactions,
        )
        scheduler._queue.append(p2)
        scheduler._process_batch()
        assert p1.result.committed
        assert not p2.result.committed
        assert "duplicate key" in p2.result.constraint_error


class TestConcurrentClients:
    def test_parallel_sessions_all_commit(self):
        tintin = build_tintin()
        results = {}
        barrier = threading.Barrier(8)

        def client(k):
            session = tintin.create_session()
            session.insert("orders", [(k,)])
            session.insert("items", [(k, 1)])
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
        assert len(tintin.db.table("orders")) == 8
        stats = tintin.sessions.scheduler.stats
        assert stats.commits == 8

    def test_readers_see_before_or_after_never_between(self):
        tintin = build_tintin()
        commit_order(tintin, 1)
        stop = threading.Event()
        bad_states = []
        # in every *committed* state the assertion holds, so a reader
        # that could observe a half-applied commit (order in, item not
        # yet) would see witnesses from this query
        itemless = (
            "SELECT * FROM orders AS o WHERE NOT EXISTS ("
            "SELECT * FROM items AS i WHERE i.order_id = o.id)"
        )

        def reader():
            session = tintin.create_session()
            while not stop.is_set():
                witnesses = session.query(itemless).rows
                if witnesses:
                    bad_states.append(witnesses)

        thread = threading.Thread(target=reader)
        thread.start()
        for key in range(2, 20):
            commit_order(tintin, key)
        stop.set()
        thread.join()
        assert bad_states == []
