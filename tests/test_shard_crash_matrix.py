"""The two-phase-commit crash matrix.

Every ugly interleaving a distributed commit can die in, parametrized
like ``test_durability_recovery.py``'s single-engine matrix:

* participant death after voting yes — resolved from the
  coordinator's decision log at restart, both ways (commit present,
  abort absent);
* coordinator death between prepare and decision — presumed abort:
  a fresh router over the same directories rolls every prepared slice
  back;
* coordinator death after the decision fsync but before any decide
  reached a participant — the transaction still commits everywhere;
* a torn prepare record (crash mid-fsync) — the vote never became
  durable, so recovery reports nothing in-doubt and the transaction
  aborts cleanly;
* checkpointing is refused while a shard holds a prepared,
  undecided transaction (the prepare record is its only yes vote);
* a full-cluster power cut preserves exactly the acked commits.

Workers crash via the ``("crash",)`` command — ``os._exit(1)`` with
no flush, close or checkpoint, the same power-cut semantics the
durability suite uses.
"""

from __future__ import annotations

import os

import pytest

from repro.durability import wal_path, wal_scan_count
from repro.errors import ShardError
from repro.shard import ShardedTintin

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


def build(directory: str, shards: int = 2) -> ShardedTintin:
    engine = ShardedTintin(str(directory), shards=shards, shard_keys=KEYS)
    engine.execute(ORDERS_DDL)
    engine.execute(ITEMS_DDL)
    engine.install()
    engine.add_assertion(ASSERTION)
    return engine


def reopen(directory: str, shards: int = 2) -> ShardedTintin:
    engine = ShardedTintin(str(directory), shards=shards, shard_keys=KEYS)
    engine.declare(ORDERS_DDL)
    engine.declare(ITEMS_DDL)
    return engine


def order_ids(engine) -> list[int]:
    return sorted(
        row[0] for row in engine.query("SELECT * FROM orders AS o").rows
    )


def crash(engine, shard_id: int) -> None:
    """Power-cut one worker; the handle is marked down."""
    with pytest.raises(ShardError):
        engine.handles[shard_id].call("crash")
    assert not engine.handles[shard_id].alive


def events_for(key: int) -> tuple[dict, dict]:
    return {"orders": [(key, 1.0)], "items": [(key, 1)]}, {}


def prepare_on(engine, shard_id: int, gid: str, key: int) -> None:
    inserts, deletes = events_for(key)
    payload = engine.handles[shard_id].call(
        "prepare", gid, inserts, deletes, None
    )
    assert payload["committed"], payload  # the yes vote


def log_decision(engine, gid: str) -> None:
    """What the coordinator does at its commit point."""
    engine._decision_log.append_decide(gid, True)
    engine._decision_log.sync()
    engine._decided.add(gid)


# -- participant death ------------------------------------------------------


@pytest.mark.parametrize(
    "decided", [True, False], ids=["decided-commit", "presumed-abort"]
)
def test_participant_death_after_prepare(tmp_path, decided):
    """A shard that voted yes and died recovers in-doubt, and the
    router resolves it from the decision log: commit when the
    coordinator had decided, abort when it had not."""
    engine = build(tmp_path)
    try:
        gid = "gid-participant-death"
        prepare_on(engine, 0, gid, key=2)
        if decided:
            log_decision(engine, gid)
        crash(engine, 0)
        before = engine.stats.snapshot()["in_doubt_resolved"]
        hello = engine.restart_shard(0)
        assert hello["recovered"]
        assert engine.stats.snapshot()["in_doubt_resolved"] == before + 1
        ids = order_ids(engine)
        assert (2 in ids) == decided
        # the shard is fully operational again either way
        session = engine.create_session()
        session.insert("orders", [(4, 1.0)])
        session.insert("items", [(4, 1)])
        assert session.commit().committed
    finally:
        engine.close()


def test_participant_crash_again_before_resolution(tmp_path):
    """Crashing again while still in doubt re-reports the same gid:
    the prepare record survives any number of restarts until a
    decision resolves it."""
    engine = build(tmp_path)
    try:
        gid = "gid-twice-in-doubt"
        prepare_on(engine, 0, gid, key=2)
        crash(engine, 0)
        handle = engine.handles[0]
        handle.reap()
        hello = handle.spawn(
            engine._ctx, engine._durability_mode, engine._gather_seconds
        )
        assert hello["in_doubt"] == [gid]
        # crash once more *without* resolving
        crash(engine, 0)
        engine.restart_shard(0)  # now resolves (presumed abort)
        assert 2 not in order_ids(engine)
    finally:
        engine.close()


def test_spawn_timeout_raises_instead_of_hanging(tmp_path):
    """A worker that never reports in (wedged bootstrap) is terminated
    and surfaced as a ShardError, not an indefinite hang."""
    engine = build(tmp_path)
    try:
        crash(engine, 0)
        handle = engine.handles[0]
        handle.reap()
        with pytest.raises(ShardError, match="did not report in"):
            handle.spawn(
                engine._ctx,
                engine._durability_mode,
                engine._gather_seconds,
                timeout=0.0,
            )
        handle.reap()  # discard the terminated attempt
        engine.restart_shard(0)  # and a real restart still works
        assert engine.handles[0].alive
    finally:
        engine.close()


def test_dead_participant_fails_prepare_and_aborts_survivors(tmp_path):
    """A cross-shard commit against a down participant must fail
    cleanly: the live shard's prepared slice rolls back, the dead
    shard is skipped on the metrics page, and a restart heals it."""
    engine = build(tmp_path)
    try:
        crash(engine, 1)
        # the scrape skips the dead shard instead of erroring
        lines = engine.metrics_collectors[0].collect()
        assert not any('shard="1"' in line for line in lines)
        session = engine.create_session()
        session.insert("orders", [(2, 1.0), (3, 1.0)])  # shards 0 and 1
        session.insert("items", [(2, 1), (3, 1)])
        result = session.commit()
        assert not result.committed
        assert "failed during prepare" in (result.constraint_error or "")
        engine.restart_shard(1)
        assert order_ids(engine) == []  # shard 0's slice rolled back
        session = engine.create_session()
        session.insert("orders", [(2, 1.0), (3, 1.0)])
        session.insert("items", [(2, 1), (3, 1)])
        assert session.commit().committed
    finally:
        engine.close()


# -- coordinator death ------------------------------------------------------


@pytest.mark.parametrize(
    "decision_logged", [False, True], ids=["before-decision", "after-decision"]
)
def test_coordinator_death_mid_two_phase(tmp_path, decision_logged):
    """The whole site dies between the prepares and the decides.  A
    fresh router over the same directories must converge both shards
    to the same verdict: abort when no decision was logged (presumed
    abort), commit when the decision fsync had happened."""
    engine = build(tmp_path)
    gid = "gid-coordinator-death"
    prepare_on(engine, 0, gid, key=2)
    prepare_on(engine, 1, gid, key=3)
    if decision_logged:
        log_decision(engine, gid)
    crash(engine, 0)
    crash(engine, 1)
    engine.close()  # reaps dead workers, closes the decision log

    recovered = reopen(tmp_path)
    try:
        assert recovered.stats.snapshot()["in_doubt_resolved"] == 2
        ids = order_ids(recovered)
        assert (ids == [2, 3]) if decision_logged else (ids == [])
    finally:
        recovered.close()


# -- torn prepare records ---------------------------------------------------


def test_torn_prepare_record_means_no_vote(tmp_path):
    """A crash mid-write can tear the prepare record.  A torn tail is
    truncated at recovery — the shard never voted, nothing is
    in-doubt, and the transaction aborts by presumption."""
    engine = build(tmp_path)
    try:
        gid = "gid-torn-prepare"
        prepare_on(engine, 0, gid, key=2)
        crash(engine, 0)
        # tear the tail of the shard's WAL: cut into the last frame
        path = wal_path(engine.handles[0].directory)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 7)
        handle0 = engine.handles[0]
        handle0.reap()
        hello = handle0.spawn(
            engine._ctx, engine._durability_mode, engine._gather_seconds
        )
        assert hello["in_doubt"] == []
        assert 2 not in order_ids(engine)
        # and the log accepts new commits after the truncation
        session = engine.create_session()
        session.insert("orders", [(4, 1.0)])
        session.insert("items", [(4, 1)])
        assert session.commit().committed
    finally:
        engine.close()


# -- checkpoint discipline --------------------------------------------------


def test_checkpoint_refused_while_in_doubt(tmp_path):
    """A checkpoint truncates the WAL; while a prepared transaction is
    pending, its prepare record is the only evidence of the yes vote,
    so the worker must refuse."""
    engine = build(tmp_path)
    try:
        gid = "gid-checkpoint-block"
        prepare_on(engine, 0, gid, key=2)
        with pytest.raises(ShardError, match="checkpoint refused"):
            engine.handles[0].call("checkpoint")
        # resolving the transaction lifts the refusal
        engine.handles[0].call("decide", gid, False)
        engine.handles[0].call("checkpoint")
    finally:
        engine.close()


# -- full-cluster power cut -------------------------------------------------


def test_acked_commits_survive_full_cluster_crash(tmp_path):
    """Every commit acknowledged before a whole-cluster power cut is
    present after recovery; everything else (rejected, never
    submitted) is absent — across both routing paths."""
    engine = build(tmp_path)
    acked: list[int] = []
    # single-shard commits
    for key in (2, 3, 4, 5):
        session = engine.create_session()
        session.insert("orders", [(key, float(key))])
        session.insert("items", [(key, 1)])
        if session.commit().committed:
            acked.append(key)
    # a cross-shard 2PC commit
    session = engine.create_session()
    session.insert("orders", [(10, 1.0), (11, 1.0)])
    session.insert("items", [(10, 1), (11, 1)])
    assert session.commit().committed
    acked.extend([10, 11])
    # a rejected cross-shard batch (13 has no item) — must NOT survive
    session = engine.create_session()
    session.insert("orders", [(12, 1.0), (13, 1.0)])
    session.insert("items", [(12, 1)])
    assert not session.commit().committed
    assert sorted(acked) == order_ids(engine)
    crash(engine, 0)
    crash(engine, 1)
    engine.close()

    # the coordinator reads coord/decisions.wal exactly once per open:
    # the scan that rebuilds the decided set is also the log's resume
    # point (the shards scan their own logs in their own processes)
    scans = wal_scan_count()
    recovered = reopen(tmp_path)
    try:
        assert wal_scan_count() - scans == 1
        assert len(recovered._decided) == 1  # the one cross-shard commit
        assert recovered._decision_log.last_seq == 1
        assert order_ids(recovered) == sorted(acked)
    finally:
        recovered.close()
