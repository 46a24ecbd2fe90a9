"""Crash recovery: committed-prefix restoration under injected crashes.

The acceptance contract (ISSUE 4): after a simulated crash at *any*
record boundary — and with a torn (mid-record) tail — reopening
restores exactly the committed prefix, ``full_check_commit`` reports
no violations, and a differential against the uncrashed run matches.

The differential is honest: the expected states are snapshotted from
the *live* engine right after each commit, not reconstructed from the
log, so a codec or replay bug cannot cancel itself out.
"""

from __future__ import annotations

import os
import shutil
import struct
import threading
import time
import zlib

import pytest

from repro import Database, Tintin, recover
from repro.durability import (
    WAL_MAGIC,
    WriteAheadLog,
    build_checkpoint_payload,
    decode_decide,
    decode_prepare,
    encode_batch,
    encode_record,
    load_checkpoint,
    read_wal,
    wal_path,
    write_checkpoint,
)
from repro.errors import DurabilityError, RecoveryError, WALCorruptionError

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


def state(db: Database) -> dict:
    return {
        t.schema.name: sorted(t.rows_snapshot())
        for t in db.catalog.tables(namespace="main")
    }


def build_durable(path: str, mode: str = "batch", two_phase: bool = False):
    """A durable engine with schema + assertion; returns it plus the
    per-commit state snapshots (``snapshots[k]`` = state after the
    k-th committed batch; ``snapshots`` also carries the pre-commit
    setup state at index -1 conceptually — returned separately).

    ``two_phase`` appends the participant's 2PC records: a prepare
    decided commit (a committed batch, snapshotted), one decided
    abort, and a last one left in doubt.
    """
    tintin = Tintin.open(path, durability=mode)
    db = tintin.db
    db.execute(ORDERS_DDL)
    db.execute(ITEMS_DDL)
    tintin.install()
    tintin.add_assertion(AT_LEAST_ONE)
    setup_state = state(db)
    snapshots = []
    # three single-session commits (trigger capture -> safeCommit)
    for k in (1, 2, 3):
        db.execute(f"INSERT INTO orders VALUES ({k}, {k * 10}.5)")
        db.execute(f"INSERT INTO items VALUES ({k}, 1)")
        assert tintin.safe_commit().committed
        snapshots.append(state(db))
    # a rejected update: no WAL record, no state change
    db.execute("INSERT INTO orders VALUES (99, 1.0)")
    assert not tintin.safe_commit().committed
    # two session commits through the scheduler (sequential, so the
    # WAL order matches the snapshot order deterministically)
    for k in (4, 5):
        session = tintin.create_session()
        session.insert("orders", [(k, 5.0)])
        session.insert("items", [(k, 1), (k, 2)])
        assert session.commit().committed
        snapshots.append(state(db))
    # an update through a session, deleting an earlier order
    session = tintin.create_session()
    session.delete("items", [(1, 1)])
    session.delete("orders", [(1, 10.5)])
    assert session.commit().committed
    snapshots.append(state(db))
    stats = tintin.durability.stats
    assert stats.logged_batches == len(snapshots)
    if two_phase:
        scheduler = tintin.sessions.scheduler
        for gid, key, verdict in (("g-commit", 6, True), ("g-abort", 7, False)):
            events = {"orders": [(key, 6.0)], "items": [(key, 1)]}
            assert scheduler.prepare_events(gid, events, {}).committed
            scheduler.decide_prepared(gid, verdict)
            if verdict:
                snapshots.append(state(db))
        # the last prepare's fsync (the yes vote) also makes the
        # unsynced decides before it durable
        events = {"orders": [(8, 6.0)], "items": [(8, 1)]}
        assert scheduler.prepare_events("g-open", events, {}).committed
    return tintin, setup_state, snapshots


def framed(payload: bytes) -> bytes:
    return struct.pack(">II", len(payload), zlib.crc32(payload)) + payload


def frame_spans(raw: bytes) -> list[tuple[int, int]]:
    spans = []
    position = len(WAL_MAGIC)
    while position < len(raw):
        length = struct.unpack_from(">I", raw, position)[0]
        end = position + 8 + length
        spans.append((position, end))
        position = end
    return spans


def crash_copy(source: str, target: str, wal_size: int) -> str:
    """Copy the durability dir, truncating the WAL to ``wal_size``."""
    shutil.copytree(source, target)
    with open(wal_path(target), "r+b") as handle:
        handle.truncate(wal_size)
    return target


def wal_outcome(directory: str) -> tuple[int, set[str]]:
    """How many committed batches the (possibly torn) WAL holds — batch
    records and commit decides — and which prepared gids it leaves
    undecided."""
    scan = read_wal(wal_path(directory))
    committed, undecided = 0, set()
    for r in scan.records:
        if r.type == "batch":
            committed += 1
        elif r.type == "prepare":
            undecided.add(decode_prepare(scan.data, r.start, r.end)[0])
        elif r.type == "decide":
            gid, commit, _ = decode_decide(scan.data, r.start, r.end)
            undecided.discard(gid)
            committed += commit
    return committed, undecided


def n_setup_records(directory: str) -> int:
    """The JSON control records: every DDL of the set-up."""
    scan = read_wal(wal_path(directory))
    return sum(1 for r in scan.records if r.fields is not None)


@pytest.mark.parametrize("two_phase", [False, True], ids=["batches", "2pc"])
@pytest.mark.parametrize("mode", ["batch", "commit"])
def test_crash_at_every_record_boundary(tmp_path, mode, two_phase):
    source = str(tmp_path / "primary")
    tintin, setup_state, snapshots = build_durable(
        source, mode=mode, two_phase=two_phase
    )
    raw = open(wal_path(source), "rb").read()
    spans = frame_spans(raw)
    setup_records = n_setup_records(source)
    del tintin  # simulated crash of the primary — never closed

    for index, (start, end) in enumerate(spans):
        target = str(tmp_path / f"boundary-{index}")
        crash_copy(source, target, end)
        recovered, report = recover(target)
        assert report.torn_tail is None
        batches, undecided = wal_outcome(target)
        assert report.batches_replayed == batches
        assert set(report.in_doubt) == undecided
        if index + 1 >= setup_records:
            # full setup intact: state must equal the live snapshot
            expected = snapshots[batches - 1] if batches else setup_state
            assert state(recovered.db) == expected, (
                f"crash after record {index} restored the wrong state"
            )
            # every installed EDC still holds on the recovered state
            assert recovered.full_check_commit().committed
            assert list(recovered.assertions) == ["atLeastOneItem"]


@pytest.mark.parametrize("two_phase", [False, True], ids=["batches", "2pc"])
def test_crash_mid_record_torn_tail(tmp_path, two_phase):
    source = str(tmp_path / "primary")
    tintin, setup_state, snapshots = build_durable(source, two_phase=two_phase)
    raw = open(wal_path(source), "rb").read()
    spans = frame_spans(raw)
    setup_records = n_setup_records(source)
    del tintin

    for index, (start, end) in enumerate(spans):
        for cut in {start + 3, start + 8, (start + end) // 2, end - 1}:
            if cut <= start or cut >= end:
                continue
            target = str(tmp_path / f"torn-{index}-{cut}")
            crash_copy(source, target, cut)
            recovered, report = recover(target)
            # the half-written record is reported and dropped — the
            # state is exactly the previous record's committed prefix
            assert report.torn_tail is not None
            batches, undecided = wal_outcome(target)
            assert set(report.in_doubt) == undecided
            if index >= setup_records:
                assert state(recovered.db) == (
                    snapshots[batches - 1] if batches else setup_state
                )
                assert recovered.full_check_commit().committed


def test_recovered_engine_keeps_committing(tmp_path):
    """Recovery is not read-only archaeology: the reopened engine keeps
    accepting (and durably logging) new commits, including through
    sessions, and survives a second crash."""
    source = str(tmp_path / "primary")
    tintin, _, snapshots = build_durable(source)
    del tintin

    reopened = Tintin.open(source)
    assert state(reopened.db) == snapshots[-1]
    session = reopened.create_session()
    session.insert("orders", [(50, 1.0)])
    session.insert("items", [(50, 1)])
    assert session.commit().committed
    expected = state(reopened.db)
    del reopened  # second crash

    final, report = recover(source)
    assert state(final.db) == expected
    assert final.full_check_commit().committed


def test_seq_continuity_across_checkpoint_close_reopen(tmp_path):
    """The regression that loses data silently: checkpoint truncates
    the WAL, the engine is closed and reopened in a 'new process'
    (fresh WriteAheadLog over the compacted file), new commits are
    acknowledged, then a crash.  Without the truncate marker carrying
    the sequence high-water mark, the new records restart at seq 1 and
    replay skips them as checkpoint-covered."""
    source = str(tmp_path / "primary")
    tintin, _, snapshots = build_durable(source)
    tintin.close()  # checkpoint + WAL truncation + log handle closed

    reopened = Tintin.open(source)  # fresh WAL object over the file
    db = reopened.db
    db.execute("INSERT INTO orders VALUES (60, 6.0)")
    db.execute("INSERT INTO items VALUES (60, 1)")
    assert reopened.safe_commit().committed  # acknowledged durable
    expected = state(db)
    del reopened  # crash

    recovered, report = recover(source)
    assert report.batches_replayed == 1
    assert state(recovered.db) == expected
    assert recovered.db.table("orders").contains_row((60, 6.0))


def test_flush_failure_rejects_and_never_becomes_durable(
    tmp_path, monkeypatch
):
    """When the group fsync fails, the members are rejected ('log
    flush failed'), the WAL tail is rolled back, and no later flush or
    shutdown can make the rejected commit durable."""
    import repro.durability.wal as wal_module

    source = str(tmp_path / "primary")
    tintin, _, snapshots = build_durable(source)
    session = tintin.create_session()
    session.insert("orders", [(70, 7.0)])
    session.insert("items", [(70, 1)])

    real_fsync = wal_module.os.fsync

    def broken_fsync(fd):
        raise OSError("I/O error")

    monkeypatch.setattr(wal_module.os, "fsync", broken_fsync)
    try:
        result = session.commit()
        assert not result.committed
        assert "log flush failed" in (result.constraint_error or "")
    except OSError:
        pass  # the leader's caller may see the raw flush error instead
    finally:
        monkeypatch.setattr(wal_module.os, "fsync", real_fsync)

    del tintin  # crash (the log is poisoned anyway)
    recovered, _ = recover(source)
    # the rejected commit is NOT in the durable state
    assert not recovered.db.table("orders").contains_row((70, 7.0))
    assert state(recovered.db) == snapshots[-1]


def test_seq_survives_crash_between_truncation_and_marker(tmp_path):
    """The truncate marker is not crash-atomic with the file
    truncation: simulate a crash that left the WAL header-only right
    after a checkpoint.  The manager must re-seed the sequence from
    the checkpoint, so post-crash commits replay instead of being
    skipped as checkpoint-covered."""
    from repro.durability import WAL_MAGIC

    source = str(tmp_path / "primary")
    tintin, _, snapshots = build_durable(source)
    tintin.close()  # checkpoint + truncation + marker
    # crash artifact: the truncation reached disk, the marker did not
    with open(wal_path(source), "wb") as handle:
        handle.write(WAL_MAGIC)

    reopened = Tintin.open(source)
    db = reopened.db
    db.execute("INSERT INTO orders VALUES (61, 6.0)")
    db.execute("INSERT INTO items VALUES (61, 1)")
    assert reopened.safe_commit().committed
    expected = state(db)
    del reopened  # crash again

    recovered, report = recover(source)
    assert report.batches_replayed == 1  # NOT skipped
    assert state(recovered.db) == expected


def test_torn_wal_creation_is_recoverable(tmp_path):
    """A zero-byte (or partial-header) wal.log — the crash hit during
    initial creation — must not make the directory unopenable."""
    from repro.durability import WAL_MAGIC

    for artifact in (b"", WAL_MAGIC[:3]):
        target = str(tmp_path / f"torn-{len(artifact)}")
        os.makedirs(target)
        with open(wal_path(target), "wb") as handle:
            handle.write(artifact)
        tintin = Tintin.open(target)  # reinitializes the torn log
        db = tintin.db
        db.execute(ORDERS_DDL)
        db.execute(ITEMS_DDL)
        tintin.install()
        db.execute("INSERT INTO orders VALUES (1, 1.0)")
        db.execute("INSERT INTO items VALUES (1, 1)")
        assert tintin.safe_commit().committed
        expected = state(db)
        del tintin
        recovered, _ = recover(target)
        assert state(recovered.db) == expected


def test_bootstrap_checkpoints_immediately(tmp_path):
    """Tintin.open(db=...) must never acknowledge a durable commit
    that recovery cannot replay: the bootstrap writes a checkpoint up
    front, so a crash before any user checkpoint() still recovers."""
    db = Database("seeded")
    db.execute(ORDERS_DDL)
    db.execute(ITEMS_DDL)
    db.execute("INSERT INTO orders VALUES (1, 1.0)")
    db.execute("INSERT INTO items VALUES (1, 1)")
    source = str(tmp_path / "primary")
    tintin = Tintin.open(source, durability="commit", db=db)
    tintin.install()
    tintin.add_assertion(AT_LEAST_ONE)
    db.execute("INSERT INTO orders VALUES (2, 2.0)")
    db.execute("INSERT INTO items VALUES (2, 1)")
    assert tintin.safe_commit().committed  # acknowledged durable
    expected = state(db)
    del tintin  # crash: the user never called checkpoint()

    recovered, report = recover(source)
    assert report.checkpoint_used
    assert state(recovered.db) == expected
    assert recovered.db.table("orders").contains_row((2, 2.0))
    assert recovered.full_check_commit().committed


def test_checkpoint_bounds_replay(tmp_path):
    source = str(tmp_path / "primary")
    tintin, _, snapshots = build_durable(source)
    tintin.checkpoint()
    assert wal_outcome(source)[0] == 0  # WAL compacted
    db = tintin.db
    db.execute("INSERT INTO orders VALUES (70, 7.0)")
    db.execute("INSERT INTO items VALUES (70, 1)")
    assert tintin.safe_commit().committed
    expected = state(db)
    del tintin

    recovered, report = recover(source)
    assert report.checkpoint_used
    assert report.batches_replayed == 1  # only the post-checkpoint tail
    assert state(recovered.db) == expected
    assert recovered.full_check_commit().committed


def test_crash_between_checkpoint_and_wal_truncation(tmp_path):
    """The nasty window: checkpoint durably renamed, WAL not yet
    truncated — every logged batch is ALSO inside the checkpoint.
    Replay must skip the covered prefix instead of double-applying."""
    source = str(tmp_path / "primary")
    tintin, _, snapshots = build_durable(source)
    # write the checkpoint exactly as Tintin.checkpoint would, but
    # crash before the truncation step
    payload = build_checkpoint_payload(tintin, tintin.durability.wal.last_seq)
    write_checkpoint(source, payload)
    expected = state(tintin.db)
    del tintin

    recovered, report = recover(source)
    assert report.checkpoint_used
    assert report.batches_replayed == 0  # all covered by the checkpoint
    assert state(recovered.db) == expected
    assert recovered.full_check_commit().committed


def test_concurrent_group_commits_recover(tmp_path):
    """Commits racing through the group-commit scheduler: whatever the
    scheduler acknowledged must be on disk after a crash, byte-for-byte
    equal to the live state (records that shared an fsync replay
    correctly)."""
    source = str(tmp_path / "primary")
    tintin = Tintin.open(source, durability="batch")
    db = tintin.db
    db.execute(ORDERS_DDL)
    db.execute(ITEMS_DDL)
    tintin.install()
    tintin.add_assertion(AT_LEAST_ONE)
    tintin.serve(gather_seconds=0.0005)

    def worker(worker_id: int) -> None:
        session = tintin.create_session()
        for round_no in range(5):
            key = worker_id * 1000 + round_no
            session.insert("orders", [(key, 1.0)])
            session.insert("items", [(key, 1)])
            assert session.commit().committed

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats = tintin.sessions.scheduler.stats
    assert stats.wal_appends > 0
    assert stats.wal_fsyncs <= stats.wal_appends  # group fsync sharing
    expected = state(db)
    del tintin

    recovered, report = recover(source)
    assert state(recovered.db) == expected
    assert recovered.full_check_commit().committed
    assert len(recovered.db.table("orders")) == 30


@pytest.mark.parametrize("mode", ["batch", "commit"])
def test_concurrent_sessions_fsyncs_by_mode(tmp_path, mode):
    """Four sessions committing at once: ``batch`` durability shares
    fsyncs across the group (fewer fsyncs than commits), ``commit``
    durability pays exactly one fsync per commit."""
    tintin = Tintin.open(str(tmp_path / mode), durability=mode)
    tintin.db.execute(ORDERS_DDL)
    tintin.db.execute(ITEMS_DDL)
    tintin.install()
    tintin.add_assertion(AT_LEAST_ONE)
    tintin.serve(gather_seconds=0.002)
    sessions, rounds = 4, 16
    barrier = threading.Barrier(sessions)

    def worker(worker_id: int) -> None:
        session = tintin.create_session()
        barrier.wait()
        for round_no in range(rounds):
            key = worker_id * 1000 + round_no
            session.insert("orders", [(key, 1.0)])
            session.insert("items", [(key, 1)])
            assert session.commit().committed

    threads = [
        threading.Thread(target=worker, args=(w,)) for w in range(sessions)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    commits = sessions * rounds
    stats = tintin.sessions.scheduler.stats
    assert stats.commits == commits
    if mode == "commit":
        assert stats.wal_fsyncs == commits
    else:
        assert stats.wal_fsyncs < commits
    tintin.close()


def test_staged_but_uncommitted_events_are_not_durable(tmp_path):
    """Only safeCommit-accepted batches survive a crash — a session's
    staged events and the global capture tables are volatile by
    design (exactly the paper's transaction boundary)."""
    source = str(tmp_path / "primary")
    tintin, _, snapshots = build_durable(source)
    session = tintin.create_session()
    session.insert("orders", [(80, 8.0)])  # staged, never committed
    tintin.db.execute("INSERT INTO orders VALUES (81, 9.0)")  # captured
    del tintin

    recovered, _ = recover(source)
    assert state(recovered.db) == snapshots[-1]
    orders = recovered.db.table("orders")
    assert not orders.contains_row((80, 8.0))
    assert not orders.contains_row((81, 9.0))


def test_ddl_and_assertion_drop_replay(tmp_path):
    source = str(tmp_path / "primary")
    tintin, _, _ = build_durable(source)
    db = tintin.db
    db.execute("CREATE TABLE audit (id INTEGER PRIMARY KEY, note VARCHAR)")
    tintin.drop_assertion("atLeastOneItem")
    expected = state(db)
    del tintin

    recovered, report = recover(source)
    assert report.ddl_replayed >= 2
    assert state(recovered.db) == expected
    assert recovered.db.catalog.has_table("audit")
    assert "atLeastOneItem" not in recovered.assertions
    # the dropped assertion's EDC violation views are gone too (aux
    # views survive by design — they are shareable between assertions)
    assert not recovered.safe_commit_proc.compiled


def test_commit_mode_fsyncs_per_commit(tmp_path):
    source = str(tmp_path / "primary")
    tintin, _, snapshots = build_durable(source, mode="commit")
    manager = tintin.durability
    assert manager.stats.logged_batches == 6
    del tintin
    recovered, _ = recover(source)
    assert state(recovered.db) == snapshots[-1]


def test_unknown_durability_mode_refused(tmp_path):
    """Only ``commit`` and ``batch`` exist: any other mode is refused
    before the directory is created."""
    source = tmp_path / "primary"
    with pytest.raises(DurabilityError) as info:
        Tintin.open(str(source), durability="off")
    assert "commit" in str(info.value) and "batch" in str(info.value)
    assert not source.exists()


def test_bootstrap_from_populated_database(tmp_path):
    db = Database("seeded")
    db.execute(ORDERS_DDL)
    db.execute(ITEMS_DDL)
    db.execute("INSERT INTO orders VALUES (1, 1.0)")
    db.execute("INSERT INTO items VALUES (1, 1)")
    source = str(tmp_path / "primary")
    tintin = Tintin.open(source, durability="batch", db=db)
    tintin.install()
    tintin.add_assertion(AT_LEAST_ONE)
    tintin.checkpoint()  # compacts; open() already checkpointed the load
    expected = state(db)
    del tintin
    recovered, _ = recover(source)
    assert state(recovered.db) == expected

    # a directory that already holds state refuses a bootstrap db
    with pytest.raises(DurabilityError):
        Tintin.open(source, db=Database("other"))


def test_user_views_survive_recovery(tmp_path):
    """Views created through SQL (not assertion machinery) are WAL-
    logged as printed SQL and checkpointed, so recovery rebuilds them
    and the catalog shape signature verifies."""
    source = str(tmp_path / "primary")
    tintin, _, snapshots = build_durable(source)
    db = tintin.db
    db.execute(
        "CREATE VIEW big_orders AS SELECT o.id FROM orders AS o "
        "WHERE o.total > 20"
    )
    expected_rows = sorted(db.query("SELECT * FROM big_orders AS b").rows)
    del tintin  # crash: the view exists only in the WAL

    recovered, _ = recover(source)
    assert recovered.db.catalog.has_view("big_orders")
    assert (
        sorted(recovered.db.query("SELECT * FROM big_orders AS b").rows)
        == expected_rows
    )

    # checkpoint + drop + crash: the drop is replayed too
    reopened = Tintin.open(source)
    reopened.checkpoint()
    reopened.db.execute("DROP VIEW big_orders")
    del reopened
    final, _ = recover(source)
    assert not final.db.catalog.has_view("big_orders")
    assert final.full_check_commit().committed


def test_committed_groups_survive_later_window_failure(tmp_path, monkeypatch):
    """A window of several members: when a later member's apply dies
    on an engine error, the earlier members — already applied and
    WAL-appended — are flushed and acknowledged as committed, not
    swallowed by the window-failure rejection."""
    source = str(tmp_path / "primary")
    tintin = Tintin.open(source, durability="batch")
    db = tintin.db
    db.execute(ORDERS_DDL)
    db.execute(ITEMS_DDL)
    tintin.install()
    scheduler = tintin.sessions.scheduler

    first = tintin.create_session()
    first.insert("orders", [(1, 1.0)])
    first.insert("items", [(1, 1)])
    second = tintin.create_session()
    # same PK, different payload: whichever applies second fails
    second.insert("orders", [(1, 2.0)])
    second.insert("items", [(1, 2)])

    real_apply = db.apply_batch
    calls = {"n": 0}

    def failing_second_apply(inserts, deletes):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise RuntimeError("disk on fire")
        return real_apply(inserts, deletes)

    monkeypatch.setattr(db, "apply_batch", failing_second_apply)

    outcomes: dict[str, object] = {}

    def run(name, session):
        try:
            outcomes[name] = session.commit()
        except BaseException as exc:
            outcomes[name] = exc

    gate = threading.Event()
    real_process = scheduler._process_batch

    def gated_process():
        # hold leadership until both requests are queued, so they
        # share one window
        gate.wait(timeout=5)
        return real_process()

    monkeypatch.setattr(scheduler, "_process_batch", gated_process)
    threads = [
        threading.Thread(target=run, args=("first", first)),
        threading.Thread(target=run, args=("second", second)),
    ]
    for thread in threads:
        thread.start()
    time.sleep(0.1)  # both requests enqueue behind the gated leader
    gate.set()
    for thread in threads:
        thread.join(timeout=10)

    # FIFO: first applies before second's apply dies.  First
    # must NEVER see a false rejection — its outcome is either its
    # committed result, or (when it happened to lead the window) the
    # raw window exception, but its decided result is committed=True
    # and its rows are durable either way.
    first_outcome = outcomes["first"]
    if isinstance(first_outcome, BaseException):
        assert isinstance(first_outcome, RuntimeError)
        assert first.commits == 0  # result never surfaced to the session
    else:
        assert first_outcome.committed, outcomes
    second_outcome = outcomes["second"]
    if not isinstance(second_outcome, BaseException):
        assert not second_outcome.committed, outcomes
    # the committed member's rows are in the base tables AND durable
    monkeypatch.setattr(db, "apply_batch", real_apply)
    assert db.table("orders").rows_snapshot() == [(1, 1.0)]
    expected = {n: sorted(db.table(n).rows_snapshot()) for n in ("orders", "items")}
    del tintin
    recovered, _ = recover(source)
    assert {
        n: sorted(recovered.db.table(n).rows_snapshot())
        for n in ("orders", "items")
    } == expected


# -- window flush crash points ----------------------------------------------


def test_window_flush_crash_between_append_and_fsync(tmp_path, monkeypatch):
    """The window appended its WAL record and released the write lock;
    the crash hits before its leader's fsync.  The client was never
    acknowledged (its ack waits on the flush), so the
    recovered state must NOT contain the batch — and once the flush
    lands and the ack is delivered, the same batch must be durable."""
    source = str(tmp_path / "primary")
    tintin, _, snapshots = build_durable(source)
    manager = tintin.durability
    scheduler = tintin.sessions.scheduler

    gate = threading.Event()
    release = threading.Event()
    real_sync = manager.sync

    def gated_sync():
        gate.set()
        assert release.wait(timeout=10), "test gate never released"
        real_sync()

    monkeypatch.setattr(manager, "sync", gated_sync)

    session = tintin.create_session()
    session.insert("orders", [(90, 9.0)])
    session.insert("items", [(90, 1)])
    outcome: dict[str, object] = {}
    thread = threading.Thread(
        target=lambda: outcome.setdefault("result", session.commit())
    )
    thread.start()
    assert gate.wait(timeout=10)  # record appended, fsync still pending
    thread.join(timeout=0.05)
    assert thread.is_alive(), "the ack must still be waiting on the flush"
    # crash NOW: the appended frame sits in the log's userspace buffer,
    # exactly what a process death between append and fsync leaves
    pre_fsync = str(tmp_path / "pre-fsync")
    shutil.copytree(source, pre_fsync)
    recovered, _ = recover(pre_fsync)
    assert state(recovered.db) == snapshots[-1]
    assert not recovered.db.table("orders").contains_row((90, 9.0))
    # let the flush land: the commit is acknowledged and durable
    release.set()
    thread.join(timeout=10)
    assert outcome["result"].committed
    post_fsync = str(tmp_path / "post-fsync")
    shutil.copytree(source, post_fsync)
    recovered2, _ = recover(post_fsync)
    assert recovered2.db.table("orders").contains_row((90, 9.0))
    assert state(recovered2.db) == state(tintin.db)


def test_window_flush_fsync_failure_with_backlog(tmp_path, monkeypatch):
    """A failing fsync with a backlog: every member of every affected
    window is rejected or errored — never acknowledged — the WAL rolls
    back its unsynced frames and poisons itself, and recovery restores
    exactly the pre-backlog state.  The fault is injected at the
    ``os.fsync`` level so the log's real rollback machinery runs, and
    the windows are forced into a backlog (``max_batch=1`` with both
    requests pre-queued) so the first window's flush fails with the
    second already waiting behind it."""
    import repro.durability.wal as wal_module

    source = str(tmp_path / "primary")
    tintin, _, snapshots = build_durable(source)
    scheduler = tintin.sessions.scheduler
    monkeypatch.setattr(scheduler, "max_batch", 1)

    def broken_fsync(fd):
        raise OSError("I/O error (injected)")

    monkeypatch.setattr(wal_module.os, "fsync", broken_fsync)

    gate = threading.Event()
    real_process = scheduler._process_batch

    def gated_process():
        # hold leadership until both requests are queued, so the first
        # window flushes with a backlog behind it
        gate.wait(timeout=10)
        return real_process()

    monkeypatch.setattr(scheduler, "_process_batch", gated_process)

    outcomes: dict[str, object] = {}

    def commit_order(name: str, key: int) -> None:
        session = tintin.create_session()
        session.insert("orders", [(key, 1.0)])
        session.insert("items", [(key, 1)])
        try:
            outcomes[name] = session.commit()
        except BaseException as exc:  # a leader may see the raw error
            outcomes[name] = exc

    threads = [
        threading.Thread(target=commit_order, args=("first", 91)),
        threading.Thread(target=commit_order, args=("second", 92)),
    ]
    for thread in threads:
        thread.start()
    time.sleep(0.1)  # both requests enqueue behind the gated leader
    gate.set()
    for thread in threads:
        thread.join(timeout=10)

    for name in ("first", "second"):
        outcome = outcomes[name]
        if isinstance(outcome, BaseException):
            # the flush propagates the raw I/O error to the window
            # leader — still never an acknowledgement
            assert isinstance(outcome, (OSError, DurabilityError)), outcome
        else:
            assert not outcome.committed, f"{name} was acknowledged"

    del tintin  # crash; the rolled-back frames must not resurrect
    recovered, _ = recover(source)
    assert state(recovered.db) == snapshots[-1]
    assert not recovered.db.table("orders").contains_row((91, 1.0))
    assert not recovered.db.table("orders").contains_row((92, 1.0))


def test_window_flush_poisoned_log_rejects_later_windows(tmp_path, monkeypatch):
    """After a failed flush rolled back and poisoned the WAL, every
    later window is rejected too — a rejected commit can never become
    durable behind the client's back."""
    import repro.durability.wal as wal_module
    from repro.errors import DurabilityError

    source = str(tmp_path / "primary")
    tintin, _, snapshots = build_durable(source)

    real_fsync = wal_module.os.fsync

    def broken_fsync(fd):
        raise OSError("I/O error (injected)")

    monkeypatch.setattr(wal_module.os, "fsync", broken_fsync)
    session = tintin.create_session()
    session.insert("orders", [(93, 1.0)])
    session.insert("items", [(93, 1)])
    try:
        result = session.commit()
        assert not result.committed
        assert "log flush failed" in (result.constraint_error or "")
    except OSError:
        pass  # the window leader may see the raw flush error instead
    monkeypatch.setattr(wal_module.os, "fsync", real_fsync)

    # the log is poisoned: the next window dies on the append and the
    # member is rejected (or its leader sees the DurabilityError)
    later = tintin.create_session()
    later.insert("orders", [(94, 1.0)])
    later.insert("items", [(94, 1)])
    try:
        outcome = later.commit()
        assert not outcome.committed
    except DurabilityError:
        pass

    del tintin  # crash; the rejected commits must not be on disk
    recovered, _ = recover(source)
    assert state(recovered.db) == snapshots[-1]
    assert not recovered.db.table("orders").contains_row((93, 1.0))
    assert not recovered.db.table("orders").contains_row((94, 1.0))


def test_backlogged_windows_each_flush_inline(tmp_path, monkeypatch):
    """Backlogged windows each flush inline, and everything
    acknowledged is durable: with requests already queued behind it a
    window's leader still issues that window's own fsync — one per
    window, no flush thread."""
    source = str(tmp_path / "primary")
    tintin, _, _ = build_durable(source)
    scheduler = tintin.sessions.scheduler
    monkeypatch.setattr(scheduler, "max_batch", 1)  # one window per request

    gate = threading.Event()
    real_process = scheduler._process_batch

    def gated_process():
        # hold leadership until all requests are queued: every window
        # but the last then has a backlog behind it
        gate.wait(timeout=10)
        return real_process()

    monkeypatch.setattr(scheduler, "_process_batch", gated_process)
    base_fsyncs = scheduler.stats.wal_fsyncs

    def commit_order(key: int) -> None:
        session = tintin.create_session()
        session.insert("orders", [(key, 1.0)])
        session.insert("items", [(key, 1)])
        assert session.commit().committed

    threads = [
        threading.Thread(target=commit_order, args=(key,))
        for key in (95, 96, 97)
    ]
    for thread in threads:
        thread.start()
    time.sleep(0.1)  # all three requests enqueue behind the gated leader
    gate.set()
    for thread in threads:
        thread.join(timeout=10)
    assert scheduler.stats.wal_fsyncs - base_fsyncs == 3, (
        "each one-member window must issue its own fsync"
    )
    assert not any(
        thread.name == "tintin-log-writer" for thread in threading.enumerate()
    ), "the scheduler starts no flush thread"
    # and everything acknowledged is durable
    expected = state(tintin.db)
    del tintin
    recovered, _ = recover(source)
    assert state(recovered.db) == expected
    for key in (95, 96, 97):
        assert recovered.db.table("orders").contains_row((key, 1.0))


# -- single-pass open --------------------------------------------------------


def test_durable_open_scans_once(tmp_path):
    """The single-pass-open regression: ``Tintin.open`` on an existing
    directory performs exactly ONE full WAL scan and at most one
    checkpoint parse — recovery's scan is handed to the manager, which
    must not re-derive ``last_seq``/``wal_seq`` from disk."""
    from repro.durability import checkpoint_load_count, wal_scan_count

    source = str(tmp_path / "primary")
    tintin, _, snapshots = build_durable(source)
    wal_seq = tintin.durability.wal.last_seq
    del tintin  # crash: WAL only, no checkpoint

    scans, parses = wal_scan_count(), checkpoint_load_count()
    reopened = Tintin.open(source)
    assert wal_scan_count() - scans == 1
    assert checkpoint_load_count() - parses == 0  # no checkpoint exists
    assert state(reopened.db) == snapshots[-1]
    # the manager's WAL resumed exactly where recovery's scan ended
    assert reopened.durability.wal.last_seq == wal_seq
    report = reopened.recovery_report
    assert report is not None
    assert report.wal_valid_length == os.path.getsize(wal_path(source))
    reopened.close()  # checkpoint + truncate

    scans, parses = wal_scan_count(), checkpoint_load_count()
    again = Tintin.open(source)
    assert wal_scan_count() - scans == 1
    assert checkpoint_load_count() - parses == 1  # the one recovery parse
    assert state(again.db) == snapshots[-1]
    again.close()

    # a fresh directory needs no scan and no parse at all
    scans, parses = wal_scan_count(), checkpoint_load_count()
    fresh = Tintin.open(str(tmp_path / "fresh"))
    assert wal_scan_count() - scans == 0
    assert checkpoint_load_count() - parses == 0
    fresh.close(checkpoint=False)


def test_single_pass_open_truncates_torn_tail(tmp_path):
    """The reopen-for-append half of the single pass: the torn tail
    recovery's scan reported is truncated by the manager WITHOUT
    re-reading the log, and new commits append cleanly after it."""
    source = str(tmp_path / "primary")
    tintin, _, snapshots = build_durable(source)
    raw = open(wal_path(source), "rb").read()
    spans = frame_spans(raw)
    del tintin
    start, end = spans[-1]
    cut = (start + end) // 2  # tear the last record in half
    with open(wal_path(source), "r+b") as handle:
        handle.truncate(cut)

    reopened = Tintin.open(source)
    assert reopened.recovery_report.torn_tail is not None
    assert os.path.getsize(wal_path(source)) == start  # tail gone
    db = reopened.db
    db.execute("INSERT INTO orders VALUES (60, 6.0)")
    db.execute("INSERT INTO items VALUES (60, 1)")
    assert reopened.safe_commit().committed
    expected = state(db)
    del reopened

    recovered, report = recover(source)
    assert report.torn_tail is None  # the tail was cleanly truncated
    assert state(recovered.db) == expected


def test_recovery_rejects_backwards_sequences(tmp_path):
    """recovery_report's seq-monotonicity verification survives the
    single-pass refactor: a record whose seq goes backwards refuses."""
    source = str(tmp_path / "primary")
    tintin, _, _ = build_durable(source)
    del tintin
    with open(wal_path(source), "ab") as handle:
        handle.write(framed(encode_batch(1, {}, {})))
    with pytest.raises(RecoveryError):
        recover(source)


def test_recovery_rejects_forged_shape_signature(tmp_path):
    """recovery_report's catalog-shape verification survives the
    single-pass refactor: a checkpoint whose recorded signature does
    not match the rebuilt catalog refuses."""
    source = str(tmp_path / "primary")
    tintin, _, _ = build_durable(source)
    tintin.close()  # durable checkpoint
    checkpoint = load_checkpoint(source)
    checkpoint["shape_signature"] = "forged"
    write_checkpoint(source, checkpoint)
    with pytest.raises(RecoveryError):
        recover(source)


# -- parallel checkpoint restore ---------------------------------------------


def test_parallel_checkpoint_restore(tmp_path, monkeypatch):
    """Per-table row loading during checkpoint restore runs on a
    thread pool (tables are independent once created in FK order) and
    restores exactly the serial result, row-count verification
    included."""
    import repro.durability.recovery as recovery_module

    source = str(tmp_path / "primary")
    tintin, _, _ = build_durable(source)
    db = tintin.db
    db.execute("CREATE TABLE audit (id INTEGER PRIMARY KEY, note VARCHAR)")
    for k in range(50):
        db.insert_rows("audit", [(k, f"note-{k}")], bypass_triggers=True)
    tintin.checkpoint()
    expected = state(db)
    del tintin

    monkeypatch.setattr(recovery_module, "PARALLEL_RESTORE_MIN_ROWS", 0)
    # the pool engages whenever the host has cores to use; force it on
    # single-core CI boxes too (correctness is core-count independent)
    monkeypatch.setattr(recovery_module.os, "cpu_count", lambda: 4)
    recovered, report = recover(source)
    assert report.restore_workers > 1  # the pool actually engaged
    assert state(recovered.db) == expected
    assert recovered.full_check_commit().committed

    # row-count verification still fires on the parallel path
    checkpoint = load_checkpoint(source)
    checkpoint["row_counts"]["audit"] = 9999
    write_checkpoint(source, checkpoint)
    with pytest.raises(RecoveryError):
        recover(source)


def test_recovery_rejects_batch_naming_an_unknown_table(tmp_path):
    """A batch record naming a table the replayed catalog does not hold
    refuses recovery loudly (log/catalog divergence)."""
    source = str(tmp_path / "primary")
    tintin, _, _ = build_durable(source)
    del tintin
    wal = WriteAheadLog(wal_path(source))
    wal.append_batch({"phantom": [(1, 2)]}, {})
    wal.sync()
    wal.close()
    with pytest.raises(RecoveryError, match="phantom"):
        recover(source)


def test_prepare_decide_replay_and_in_doubt(tmp_path):
    """2PC records replay by gid: a commit decide applies its prepare
    (and its counts are verified), an abort discards it, a repeated
    decide is ignored, and a prepare with no decide is in doubt."""
    source = str(tmp_path / "primary")
    tintin, _, snapshots = build_durable(source)
    manager = tintin.durability
    manager.log_prepare("g-commit", {"orders": [(71, 1.0)]}, {})
    manager.log_prepare("g-abort", {"orders": [(72, 1.0)]}, {})
    manager.log_prepare("g-open", {}, {"items": [(2, 1)]})
    manager.log_decide(
        "g-commit", True, {"orders": len(snapshots[-1]["orders"]) + 1}
    )
    manager.log_decide("g-abort", False)
    manager.log_decide("g-commit", True)  # a duplicate resolution
    manager.sync()  # appends are unsynced; the caller owes the fsync
    del tintin

    recovered, report = recover(source)
    assert (report.prepares_seen, report.decides_seen) == (3, 3)
    assert report.in_doubt == {"g-open": ({}, {"items": [(2, 1)]})}
    expected = snapshots[-1]
    expected["orders"] = sorted(expected["orders"] + [(71, 1.0)])
    assert state(recovered.db) == expected


def test_recovery_rejects_replay_constraint_violation(tmp_path):
    """A batch whose replay the engine itself rejects (duplicate PK:
    the log and the data disagree) refuses recovery loudly."""
    source = str(tmp_path / "primary")
    tintin, _, _ = build_durable(source)
    del tintin
    wal = WriteAheadLog(wal_path(source))
    # order 2 already exists: replaying this insert violates the PK
    wal.append_batch({"orders": [(2, 99.0)]}, {})
    wal.sync()
    wal.close()
    with pytest.raises(RecoveryError):
        recover(source)


# -- earlier generations are refused, never half-read ------------------------


def _json_frame(kind: str) -> bytes:
    body = {"ins": {"orders": [[9, 9.0]]}, "del": {}}
    if kind == "decide":
        body = {"verdict": "commit"}
    if kind != "batch":
        body["gid"] = "g"
    return encode_record({"type": kind, "seq": 99, **body})


@pytest.mark.parametrize(
    "artifact",
    ["generation-1", "generation-2", "batch", "prepare", "decide"],
)
def test_pre_v2_logs_are_refused_and_left_untouched(tmp_path, artifact):
    """A generation-1 or generation-2 header, or a JSON frame typed
    batch / prepare / decide, is a committed record in a layout this
    build cannot read.  Skipping it would drop acknowledged commits and
    treating it as a torn tail would truncate them, so every way of
    opening the log raises — naming what it found — and not one byte
    of the file changes."""
    source = str(tmp_path / "primary")
    tintin, _, _ = build_durable(source)
    del tintin
    path = wal_path(source)
    raw = open(path, "rb").read()
    if artifact.startswith("generation-"):
        generation = int(artifact[-1])
        old = WAL_MAGIC[:-1] + bytes([generation]) + raw[len(WAL_MAGIC) :]
        match = (
            f"format generation {generation}; this build reads "
            f"generation {WAL_MAGIC[-1]} only"
        )
    else:
        old = raw + _json_frame(artifact)
        match = f"{artifact} record seq=99 .* pre-v2 JSON layout"
    with open(path, "wb") as handle:
        handle.write(old)
    for opener in (
        lambda: read_wal(path),
        lambda: WriteAheadLog(path),
        lambda: recover(source),
        lambda: Tintin.open(source),
    ):
        with pytest.raises(WALCorruptionError, match=match):
            opener()
        assert open(path, "rb").read() == old


def test_report_and_metrics_surfaces(tmp_path):
    """The human-facing surfaces ride along: RecoveryReport.__str__,
    the manager/WAL stat snapshots, and the closed flag."""
    source = str(tmp_path / "primary")
    tintin, _, _ = build_durable(source)
    manager = tintin.durability
    assert manager.mode == "batch"
    assert manager.stats.snapshot()["logged_batches"] > 0
    wal = manager.wal.stats.snapshot()
    assert wal["appends"] > 0 and wal["bytes_written"] > 0
    assert not manager.closed
    del tintin

    recovered, report = recover(source)
    text = str(report)
    assert "recovered from WAL" in text
    assert f"{report.batches_replayed} batch(es)" in text

    reopened = Tintin.open(source)
    reopened.close()
    assert reopened.durability is None  # detached on close
    crashed, report2 = recover(source)
    assert report2.checkpoint_used
    assert str(report2).startswith("recovered from checkpoint + WAL")


def test_recovery_verifies_batch_row_counts(tmp_path):
    """A WAL whose batch claims row counts the replay cannot reproduce
    is rejected loudly instead of silently diverging."""
    source = str(tmp_path / "primary")
    tintin, _, _ = build_durable(source)
    del tintin
    # forge: append a batch record claiming an impossible count
    wal = WriteAheadLog(wal_path(source))
    wal.append_batch(
        {"orders": [(500, 1.0)], "items": [(500, 1)]},
        {},
        counts={"orders": 9999, "items": 9999},
    )
    wal.sync()
    wal.close()
    with pytest.raises(RecoveryError):
        recover(source)
