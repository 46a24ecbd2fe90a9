"""The two-phase-commit participant, in-process.

``prepare_events`` / ``adopt_prepared`` / ``decide_prepared`` are
otherwise reached only through spawned shard workers
(``test_shard_router.py``, ``test_shard_crash_matrix.py``).  These
tests drive the participant side of one engine directly: a prepare is
the commit unit stopped after its log stage with the undo log held
open, so it must honour everything the unit honours — both deadline
gates, the ``scheduler.validate`` fault point, the spans, the WAL
counters — and leave nothing behind when it votes no.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import Database, Tintin
from repro.net import FaultInjector
from repro.obs import RecordingTracer
from repro.obs.trace import CommitObs

ORDERS_DDL = "CREATE TABLE orders (id INTEGER PRIMARY KEY, total DOUBLE)"
ITEMS_DDL = (
    "CREATE TABLE items (order_id INTEGER, n INTEGER, "
    "PRIMARY KEY (order_id, n), "
    "FOREIGN KEY (order_id) REFERENCES orders (id))"
)
AT_LEAST_ONE = (
    "CREATE ASSERTION atLeastOneItem CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE NOT EXISTS ("
    "SELECT * FROM items AS i WHERE i.order_id = o.id)))"
)
EVERY_ORDER_HAS_BIG_ITEM = (
    "CREATE ASSERTION everyOrderHasBigItem CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE o.total > 100 AND NOT EXISTS ("
    "SELECT * FROM items AS i WHERE i.order_id = o.id AND i.n >= 5)))"
)


def build(path=None) -> Tintin:
    """An engine (durable when ``path`` is given) holding orders 1-2,
    committed through the scheduler so delta plans had a chance to arm."""
    tintin = Tintin.open(str(path)) if path is not None else Tintin(Database("2pc"))
    tintin.db.execute(ORDERS_DDL)
    tintin.db.execute(ITEMS_DDL)
    tintin.install()
    tintin.add_assertion(AT_LEAST_ONE)
    tintin.add_assertion(EVERY_ORDER_HAS_BIG_ITEM)
    for key in (1, 2):
        session = tintin.create_session()
        session.insert("orders", [(key, 10.0)])
        session.insert("items", [(key, 1)])
        assert session.commit().committed
    return tintin


def state(db: Database) -> dict:
    return {
        t.schema.name: sorted(t.rows_snapshot())
        for t in db.catalog.tables(namespace="main")
    }


def arming(tintin: Tintin) -> list[bool]:
    return [c.delta_armed for c in tintin.safe_commit_proc.compiled]


def order(key: int) -> tuple[dict, dict]:
    return {"orders": [(key, 10.0)], "items": [(key, 1)]}, {}


class TestYesVote:
    def test_holds_undo_log_open_and_refuses_windows_until_decided(self):
        tintin = build()
        scheduler = tintin.sessions.scheduler
        vote = scheduler.prepare_events("g1", *order(7))
        assert vote.committed and vote.applied_rows == 2
        assert scheduler.has_prepared
        _, _, txn = scheduler._prepared["g1"]
        assert txn.in_transaction  # the undo log is held open
        # the tentative apply is in the base tables already
        assert tintin.db.table("orders").contains_row((7, 10.0))

        session = tintin.create_session()
        session.insert("orders", [(8, 10.0)])
        session.insert("items", [(8, 1)])
        outcome = {}
        thread = threading.Thread(
            target=lambda: outcome.setdefault("result", session.commit())
        )
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive(), "an ordinary window ran beside a prepare"
        assert not tintin.db.table("orders").contains_row((8, 10.0))
        assert scheduler.stats.commits == 2  # the two set-up commits

        decided = scheduler.decide_prepared("g1", True)
        assert decided.committed
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert outcome["result"].committed
        assert not scheduler.has_prepared
        assert not txn.in_transaction
        assert {7, 8} <= {row[0] for row in tintin.db.table("orders").scan()}

    def test_second_prepare_is_voted_down_not_queued(self):
        tintin = build()
        scheduler = tintin.sessions.scheduler
        assert scheduler.prepare_events("g1", *order(7)).committed
        before = state(tintin.db)
        second = scheduler.prepare_events("g2", *order(8))
        assert not second.committed
        assert "participant busy" in second.constraint_error
        assert state(tintin.db) == before
        assert list(scheduler._prepared) == ["g1"]
        with pytest.raises(ValueError):
            scheduler.prepare_events("g1", *order(9))
        assert scheduler.decide_prepared("g1", False) is not None

    def test_duplicate_decide_is_an_idempotent_none(self):
        tintin = build()
        scheduler = tintin.sessions.scheduler
        assert scheduler.prepare_events("g1", *order(7)).committed
        assert scheduler.decide_prepared("g1", True).committed
        after = state(tintin.db)
        assert scheduler.decide_prepared("g1", True) is None
        assert scheduler.decide_prepared("g1", False) is None
        assert scheduler.decide_prepared("never-prepared", True) is None
        assert state(tintin.db) == after

    def test_abort_restores_the_exact_pre_prepare_rows(self):
        tintin = build()
        scheduler = tintin.sessions.scheduler
        before = state(tintin.db)
        # an update with deletes and inserts: retire order 1, add order 7
        inserts, deletes = order(7)
        deletes = {"items": [(1, 1)], "orders": [(1, 10.0)]}
        assert scheduler.prepare_events("g1", inserts, deletes).committed
        assert state(tintin.db) != before
        verdict = scheduler.decide_prepared("g1", False)
        assert not verdict.committed
        assert "aborted by coordinator" in verdict.constraint_error
        assert state(tintin.db) == before
        assert scheduler.stats.prepared_aborts == 1
        # the engine is usable again, and still consistent
        assert tintin.full_check_commit().committed


class TestNoVoteLeavesNothingBehind:
    def check_untouched(self, inserts, deletes, expect):
        tintin = build()
        scheduler = tintin.sessions.scheduler
        # the default session has staged an update of its own; a
        # prepare's window must hand it back unchanged
        tintin.db.execute("INSERT INTO orders VALUES (50, 1.0)")
        tintin.db.execute("INSERT INTO items VALUES (50, 1)")
        base, staged, armed = (
            state(tintin.db),
            tintin.events.snapshot_events(),
            arming(tintin),
        )
        vote = scheduler.prepare_events("g1", inserts, deletes)
        assert not vote.committed
        expect(vote)
        assert not scheduler.has_prepared
        assert state(tintin.db) == base
        assert tintin.events.snapshot_events() == staged
        # derived state may be dropped (always sound), never gained
        assert all(was or not now for was, now in zip(armed, arming(tintin)))
        assert scheduler.stats.prepares == 0
        return tintin, armed

    def test_assertion_violating_prepare(self):
        def expect(vote):
            assert [v.assertion for v in vote.violations] == ["atLeastOneItem"]

        tintin, armed = self.check_untouched(
            {"orders": [(7, 10.0)]}, {}, expect
        )
        # nothing was applied or undone: the arming is exactly as it was
        assert arming(tintin) == armed

    def test_constraint_violating_prepare(self):
        def expect(vote):
            assert not vote.violations
            assert "duplicate key" in vote.constraint_error

        # same PK as committed order 1, different payload: passes the
        # views, fails the tentative apply — which must be undone
        self.check_untouched(
            {"orders": [(1, 99.0), (7, 10.0)], "items": [(7, 1)]}, {}, expect
        )


class TestAdoption:
    @pytest.mark.parametrize("verdict", [True, False])
    def test_adopt_then_decide_equals_prepare_then_decide(self, verdict):
        inserts = {"orders": [(7, 10.0)], "items": [(7, 1), (7, 2)]}
        deletes = {"items": [(2, 1)], "orders": [(2, 10.0)]}
        prepared, adopted = build(), build()
        assert prepared.sessions.scheduler.prepare_events(
            "g1", inserts, deletes
        ).committed
        adopted.sessions.scheduler.adopt_prepared("g1", inserts, deletes)
        assert state(prepared.db) == state(adopted.db)
        assert adopted.sessions.scheduler.has_prepared
        results = [
            engine.sessions.scheduler.decide_prepared("g1", verdict)
            for engine in (prepared, adopted)
        ]
        assert results[0] == results[1]
        assert state(prepared.db) == state(adopted.db)
        assert (7 in {r[0] for r in adopted.db.table("orders").scan()}) is verdict
        for engine in (prepared, adopted):
            assert engine.full_check_commit().committed

    def test_adopting_a_known_gid_is_an_error(self):
        tintin = build()
        scheduler = tintin.sessions.scheduler
        assert scheduler.prepare_events("g1", *order(7)).committed
        with pytest.raises(ValueError):
            scheduler.adopt_prepared("g1", *order(7))


class TestUnitParity:
    """What falls out of a prepare being the shared commit unit."""

    def test_prepare_counts_its_own_record(self, tmp_path):
        tintin = build(tmp_path / "engine")
        scheduler = tintin.sessions.scheduler
        wal, before = tintin.durability.wal.stats, scheduler.stats.snapshot()
        wal_before = wal.snapshot()
        assert scheduler.prepare_events("g1", *order(7)).committed
        mid = scheduler.stats.snapshot()
        assert mid["wal_appends"] - before["wal_appends"] == 1
        assert mid["wal_fsyncs"] - before["wal_fsyncs"] == 1
        assert scheduler.decide_prepared("g1", True).committed
        after, wal_after = scheduler.stats.snapshot(), wal.snapshot()
        # a prepared commit is two records and ONE fsync — the prepare
        # record's, which is the yes vote.  The decide record is
        # appended unsynced: the coordinator's fsynced decision log
        # resolves a lost decide, and the next fsync on this log makes
        # it durable before any later state.  The scheduler's counters
        # say what the log itself counted.
        assert after["wal_appends"] - before["wal_appends"] == 2
        assert after["wal_fsyncs"] - before["wal_fsyncs"] == 1
        assert wal_after["appends"] - wal_before["appends"] == 2
        assert wal_after["fsyncs"] - wal_before["fsyncs"] == 1
        tintin.close()

    def test_deadline_lapsing_mid_validation_is_a_no_vote(self):
        tintin = build()
        scheduler = tintin.sessions.scheduler
        faults = FaultInjector()
        faults.install(tintin)
        faults.delay("scheduler.validate", 0.3)
        before = state(tintin.db)
        vote = scheduler.prepare_events(
            "g1", *order(7), deadline=time.monotonic() + 0.1
        )
        assert not vote.committed and vote.deadline_expired
        assert faults.fired["scheduler.validate"] == 1
        assert faults.fired["scheduler.prepare"] == 1
        assert not scheduler.has_prepared
        assert state(tintin.db) == before
        assert scheduler.stats.deadline_expired == 1
        # already past its deadline: cancelled before validation runs
        faults.clear()
        late = scheduler.prepare_events(
            "g2", *order(7), deadline=time.monotonic() - 1.0
        )
        assert late.deadline_expired and late.checked_views == 0
        assert faults.fired["scheduler.validate"] == 1

    def test_unloggable_prepare_is_a_no_vote_that_rolls_back(self, tmp_path):
        tintin = build(tmp_path / "engine")
        scheduler = tintin.sessions.scheduler
        faults = FaultInjector()
        faults.install(tintin)
        faults.fail("wal.before_fsync", lambda: OSError("disk died"), times=1)
        before = state(tintin.db)
        vote = scheduler.prepare_events("g1", *order(7))
        assert not vote.committed
        assert "prepare logging failed" in vote.constraint_error
        assert "disk died" in vote.constraint_error
        assert not scheduler.has_prepared
        assert state(tintin.db) == before
        assert scheduler.stats.prepares == 0
        del tintin  # crash: the vote must not be in the log either
        reopened = Tintin.open(str(tmp_path / "engine"))
        assert not reopened.recovery_report.in_doubt
        assert state(reopened.db) == before
        reopened.close()

    def test_prepare_emits_the_unit_spans_under_its_own(self, tmp_path):
        tintin = build(tmp_path / "engine")
        scheduler = tintin.sessions.scheduler
        tracer = RecordingTracer()
        obs = CommitObs(tracer)
        assert scheduler.prepare_events("g1", *order(7), obs=obs).committed
        assert scheduler.decide_prepared("g1", True, obs=obs).committed
        obs.finish("committed")
        spans = {s.name: s for s in tracer.spans()}
        assert {
            "validate",
            "apply",
            "wal.append",
            "wal.fsync",
            "prepare",
            "decide",
            "commit",
        } <= set(spans)
        assert any(name.startswith("check.") for name in spans)
        prepare = spans["prepare"]
        for stage in ("validate", "apply", "wal.append", "wal.fsync"):
            assert prepare.start <= spans[stage].start
            assert spans[stage].end <= prepare.end
        tintin.close()


def test_window_failure_finishes_the_scheduler_owned_trace(monkeypatch):
    """With tracing on and no caller-owned obs, ``commit_events``
    creates the trace — and must finish it even when the window dies,
    or the root span never reaches the tracer."""
    tintin = build()
    tracer = RecordingTracer()
    tintin.set_tracer(tracer)

    def broken_apply(inserts, deletes):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(tintin.db, "apply_batch", broken_apply)
    session = tintin.create_session()
    session.insert("orders", [(7, 10.0)])
    session.insert("items", [(7, 1)])
    with pytest.raises(RuntimeError):
        session.commit()
    roots = [s for s in tracer.spans() if s.name == "commit"]
    assert len(roots) == 1
    assert roots[0].attrs["verdict"] == "error"
