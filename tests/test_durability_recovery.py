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
    DurabilityManager,
    WriteAheadLog,
    build_checkpoint_payload,
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


def build_durable(path: str, mode: str = "batch", fmt: str = "ordinal"):
    """A durable engine with schema + assertion; returns it plus the
    per-commit state snapshots (``snapshots[k]`` = state after the
    k-th committed batch; ``snapshots`` also carries the pre-commit
    setup state at index -1 conceptually — returned separately).

    ``fmt`` says which form the batch records take: ``"ordinal"`` (what
    a bound engine writes), ``"named"``, or ``"mixed"`` (ordinal first,
    named from mid-log on).  There is no format selector to flip:
    named records come from the condition that produces them in
    production — the unlogged-DDL window, simulated by bumping the
    catalog version without logging a DDL record, which keeps the
    manager off ordinals until the next logged DDL.
    """
    tintin = Tintin.open(path, durability=mode)
    db = tintin.db
    db.execute(ORDERS_DDL)
    db.execute(ITEMS_DDL)
    tintin.install()
    tintin.add_assertion(AT_LEAST_ONE)
    if fmt == "named":
        db.catalog.bump_version()
    setup_state = state(db)
    snapshots = []
    # three single-session commits (trigger capture -> safeCommit)
    for k in (1, 2, 3):
        db.execute(f"INSERT INTO orders VALUES ({k}, {k * 10}.5)")
        db.execute(f"INSERT INTO items VALUES ({k}, 1)")
        assert tintin.safe_commit().committed
        snapshots.append(state(db))
    if fmt == "mixed":
        # the window opens: every batch from here on is in the named form
        db.catalog.bump_version()
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
    assert stats.named_records == {
        "ordinal": 0,
        "named": len(snapshots),
        "mixed": len(snapshots) - 3,
    }[fmt]
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


def committed_prefix_length(directory: str) -> int:
    """How many committed batch records the (possibly torn) WAL holds."""
    scan = read_wal(wal_path(directory))
    return sum(1 for r in scan.records if r.type == "batch")


def n_setup_records(directory: str) -> int:
    scan = read_wal(wal_path(directory))
    return sum(1 for r in scan.records if r.type != "batch")


@pytest.mark.parametrize("fmt", ["ordinal", "named", "mixed"])
@pytest.mark.parametrize("mode", ["batch", "commit"])
def test_crash_at_every_record_boundary(tmp_path, mode, fmt):
    source = str(tmp_path / "primary")
    tintin, setup_state, snapshots = build_durable(source, mode=mode, fmt=fmt)
    raw = open(wal_path(source), "rb").read()
    spans = frame_spans(raw)
    setup_records = n_setup_records(source)
    del tintin  # simulated crash of the primary — never closed

    for index, (start, end) in enumerate(spans):
        target = str(tmp_path / f"boundary-{index}")
        crash_copy(source, target, end)
        recovered, report = recover(target)
        assert report.torn_tail is None
        batches = committed_prefix_length(target)
        assert report.batches_replayed == batches
        if index + 1 >= setup_records:
            # full setup intact: state must equal the live snapshot
            expected = snapshots[batches - 1] if batches else setup_state
            assert state(recovered.db) == expected, (
                f"crash after record {index} restored the wrong state"
            )
            # every installed EDC still holds on the recovered state
            assert recovered.full_check_commit().committed
            assert list(recovered.assertions) == ["atLeastOneItem"]


@pytest.mark.parametrize("fmt", ["ordinal", "named", "mixed"])
def test_crash_mid_record_torn_tail(tmp_path, fmt):
    source = str(tmp_path / "primary")
    tintin, setup_state, snapshots = build_durable(source, fmt=fmt)
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
            batches = committed_prefix_length(target)
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
    assert committed_prefix_length(source) == 0  # WAL compacted
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
    equal to the live state (combined group records replay correctly)."""
    source = str(tmp_path / "primary")
    tintin = Tintin.open(source, durability="batch")
    db = tintin.db
    db.execute(ORDERS_DDL)
    db.execute(ITEMS_DDL)
    tintin.install()
    tintin.add_assertion(AT_LEAST_ONE)
    tintin.serve(policy="group", gather_seconds=0.0005)

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


def test_off_mode_checkpoint_only(tmp_path):
    source = str(tmp_path / "primary")
    tintin = Tintin.open(source, durability="off")
    db = tintin.db
    db.execute(ORDERS_DDL)
    db.execute(ITEMS_DDL)
    tintin.install()
    tintin.add_assertion(AT_LEAST_ONE)
    db.execute("INSERT INTO orders VALUES (1, 1.0)")
    db.execute("INSERT INTO items VALUES (1, 1)")
    assert tintin.safe_commit().committed
    checkpointed = state(db)
    tintin.checkpoint()
    # post-checkpoint commit: volatile in off mode
    db.execute("INSERT INTO orders VALUES (2, 2.0)")
    db.execute("INSERT INTO items VALUES (2, 1)")
    assert tintin.safe_commit().committed
    del tintin

    recovered, report = recover(source)
    assert report.checkpoint_used
    assert report.batches_replayed == 0
    assert state(recovered.db) == checkpointed
    assert recovered.full_check_commit().committed


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
    """A window holding several groups: when a later group's apply
    dies on an engine error, the earlier groups' members — already
    applied and WAL-appended — are flushed and acknowledged as
    committed, not swallowed by the window-failure rejection."""
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
    # same PK, different payload: incompatible footprints, so the two
    # requests land in separate groups of one window
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

    # FIFO: first's group applies before second's group dies.  First
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
    # the committed group's rows are in the base tables AND durable
    monkeypatch.setattr(db, "apply_batch", real_apply)
    assert db.table("orders").rows_snapshot() == [(1, 1.0)]
    expected = {n: sorted(db.table(n).rows_snapshot()) for n in ("orders", "items")}
    del tintin
    recovered, _ = recover(source)
    assert {
        n: sorted(recovered.db.table(n).rows_snapshot())
        for n in ("orders", "items")
    } == expected


# -- log-writer thread crash points -----------------------------------------


def test_log_writer_crash_between_append_and_fsync(tmp_path, monkeypatch):
    """The window appended its WAL record and handed it to the
    log-writer thread; the crash hits before the fsync.  The client
    was never acknowledged (its ack waits on the flush), so the
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


def test_log_writer_fsync_failure_mid_burst(tmp_path, monkeypatch):
    """A failing fsync mid-burst: every member of every affected
    window is rejected or errored — never acknowledged — the WAL rolls
    back its unsynced frames and poisons itself, and recovery restores
    exactly the pre-burst state.  The fault is injected at the
    ``os.fsync`` level so the log's real rollback machinery runs, and
    the windows are forced into a backlog (``max_batch=1`` with both
    requests pre-queued) so one window rides the log-writer thread
    while the other flushes inline."""
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
        # window sees a backlog and routes its flush to the writer
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
            # an inline flush propagates the raw I/O error to the
            # window leader — still never an acknowledgement
            assert isinstance(outcome, (OSError, DurabilityError)), outcome
        else:
            assert not outcome.committed, f"{name} was acknowledged"

    del tintin  # crash; the rolled-back frames must not resurrect
    recovered, _ = recover(source)
    assert state(recovered.db) == snapshots[-1]
    assert not recovered.db.table("orders").contains_row((91, 1.0))
    assert not recovered.db.table("orders").contains_row((92, 1.0))


def test_log_writer_poisoned_log_rejects_later_windows(tmp_path, monkeypatch):
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


def test_log_writer_coalesces_windows_under_burst(tmp_path, monkeypatch):
    """Windows submitted while one flush is in flight are drained as a
    single burst and share ONE fsync — the cross-window batching the
    log-writer thread exists for.  Driven at the LogWriter level so
    the burst timing is deterministic."""
    from repro.core.safe_commit import CommitResult
    from repro.server.scheduler import LogWriter, SchedulerStats

    source = str(tmp_path / "primary")
    tintin, _, _ = build_durable(source)
    manager = tintin.durability

    gate = threading.Event()
    release = threading.Event()
    real_sync = manager.sync

    def gated_first_sync():
        if not release.is_set():
            gate.set()
            assert release.wait(timeout=10)
        real_sync()

    monkeypatch.setattr(manager, "sync", gated_first_sync)

    class _Member:
        def __init__(self):
            self.result = None
            self.done = threading.Event()

    stats = SchedulerStats()
    writer = LogWriter(stats)
    members = [_Member() for _ in range(3)]
    ok = CommitResult(committed=True)
    writer.submit(manager, [(members[0], ok)])  # flush goes in flight
    assert gate.wait(timeout=10)
    # two more windows queue behind the stuck flush
    writer.submit(manager, [(members[1], ok)])
    writer.submit(manager, [(members[2], ok)])
    release.set()
    for member in members:
        assert member.done.wait(timeout=10)
        assert member.result.committed  # acks waited on their fsync
    writer.stop()
    assert stats.writer_windows == 3
    assert stats.writer_flushes == 2, (
        "windows 2+3 queued behind window 1's fsync must share one flush"
    )
    tintin.close()


def test_backlog_routes_flushes_to_log_writer(tmp_path, monkeypatch):
    """The scheduler's adaptive flush: a window with requests already
    queued behind it (burst pressure) hands its fsync to the log-writer
    thread and immediately processes the next window; with no backlog
    the leader flushes inline.  Everything acknowledged is durable."""
    source = str(tmp_path / "primary")
    tintin, _, _ = build_durable(source)
    scheduler = tintin.sessions.scheduler
    monkeypatch.setattr(scheduler, "max_batch", 1)  # one window per request

    gate = threading.Event()
    real_process = scheduler._process_batch

    def gated_process():
        # hold leadership until all requests are queued: every window
        # but the last then sees a backlog and rides the writer
        gate.wait(timeout=10)
        return real_process()

    monkeypatch.setattr(scheduler, "_process_batch", gated_process)
    base_windows = scheduler.stats.writer_windows

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
    assert scheduler.stats.writer_windows - base_windows >= 2, (
        "backlogged windows must flush through the log-writer thread"
    )
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


def test_recovery_rejects_unresolvable_ordinal(tmp_path):
    """An ordinal-form batch record whose table ordinal the replayed
    catalog cannot resolve refuses recovery loudly (log/catalog
    divergence)."""
    source = str(tmp_path / "primary")
    tintin, _, _ = build_durable(source)
    del tintin
    wal = WriteAheadLog(wal_path(source))
    record = wal.append_batch(
        {"phantom": [(1, 2)]}, {}, ordinal_of=lambda name: 99
    )
    assert not record["named"]
    wal.sync()
    wal.close()
    with pytest.raises(RecoveryError):
        recover(source)


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


def test_unlogged_ddl_window_writes_named_records(tmp_path):
    """Ordinals are only meaningful if every catalog change before the
    batch is already in the log.  In the race window where a DDL's
    catalog mutation has landed but its WAL record has not (the DDL
    listener fires after the catalog commit and can lose the manager-
    lock race to a batch append), the batch must be written in the
    named form — immune to ordinal skew at replay."""
    source = str(tmp_path / "primary")
    tintin, _, _ = build_durable(source)
    manager = tintin.durability
    db = tintin.db
    # simulate the window: version bumped, DDL record not yet logged
    db.catalog.bump_version()
    manager.append_batch({"orders": [(71, 1.0)]}, {})
    manager.log_prepare("g1", {"orders": [(73, 1.0)]}, {})
    manager.log_decide("g1", True, {"orders": 6})
    assert manager.stats.named_records == 3
    # the pending DDL record lands: the ordinal form resumes
    manager.log_ddl("install", tables=[])
    manager.append_batch({"orders": [(72, 1.0)]}, {})
    assert manager.stats.named_records == 3
    del tintin
    # both forms replay, each against the catalog it was written under
    recovered, report = recover(source)
    orders = recovered.db.table("orders")
    for key in (71, 72, 73):
        assert orders.contains_row((key, 1.0))
    assert report.prepares_seen == report.decides_seen == 1


def test_unbound_manager_writes_named_records(tmp_path):
    """A manager nobody bound a catalog to has no ordinals to offer:
    whatever it logs is in the named form, and reads back."""
    manager = DurabilityManager(str(tmp_path / "standalone"))
    manager.append_batch({"orders": [(1, 1.0)]}, {}, {"orders": 1})
    assert manager.stats.snapshot()["named_records"] == 1
    assert manager.metrics()["named_records"] == 1
    manager.close()
    scan = read_wal(wal_path(str(tmp_path / "standalone")))
    assert [(r.type, r.seq) for r in scan.records] == [("batch", 1)]


# -- the pre-v2 generation is refused, never half-read -----------------------


def _json_frame(kind: str) -> bytes:
    body = {"ins": {"orders": [[9, 9.0]]}, "del": {}}
    if kind == "decide":
        body = {"verdict": "commit"}
    if kind != "batch":
        body["gid"] = "g"
    return encode_record({"type": kind, "seq": 99, **body})


@pytest.mark.parametrize(
    "artifact", ["header", "batch", "prepare", "decide"]
)
def test_pre_v2_logs_are_refused_and_left_untouched(tmp_path, artifact):
    """A generation-1 header, or a JSON frame typed batch / prepare /
    decide, is a committed record in a layout this build cannot read.
    Skipping it would drop acknowledged commits and treating it as a
    torn tail would truncate them, so every way of opening the log
    raises — and not one byte of the file changes."""
    source = str(tmp_path / "primary")
    tintin, _, _ = build_durable(source)
    del tintin
    path = wal_path(source)
    raw = open(path, "rb").read()
    if artifact == "header":
        old = WAL_MAGIC[:-1] + b"\x01" + raw[len(WAL_MAGIC) :]
    else:
        old = raw + _json_frame(artifact)
    with open(path, "wb") as handle:
        handle.write(old)
    for opener in (
        lambda: read_wal(path),
        lambda: WriteAheadLog(path),
        lambda: recover(source),
        lambda: Tintin.open(source),
    ):
        with pytest.raises(WALCorruptionError, match="pre-v2"):
            opener()
        assert open(path, "rb").read() == old


def test_report_and_metrics_surfaces(tmp_path):
    """The human-facing surfaces ride along: RecoveryReport.__str__,
    the manager/WAL stat snapshots, and the closed flag."""
    source = str(tmp_path / "primary")
    tintin, _, _ = build_durable(source)
    manager = tintin.durability
    metrics = manager.metrics()
    assert metrics["mode"] == "batch"
    assert metrics["logged_batches"] > 0
    assert metrics["appends"] > 0 and metrics["bytes_written"] > 0
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
