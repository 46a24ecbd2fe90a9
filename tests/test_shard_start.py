"""How a sharded engine starts its workers, and what a worker loads.

``ShardedTintin`` starts every worker before it waits for any hello, so
the workers' interpreter boots, imports and — at a reopen — checkpoint
restores and WAL replays overlap.  These tests pin that *order* (every
``ShardHandle.start`` before the first ``await_hello``), never a timing;
show that a start that fails leaves no worker running and the decision
log closed, so a retried open over the same directory works; and hold
the worker to importing the engine only, with the one ``CommitResult``
wire shape that the network front end and the shard pipe share.
"""

from __future__ import annotations

import multiprocessing
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.safe_commit import CommitResult, Violation, deadline_result
from repro.durability import WriteAheadLog, wal_path
from repro.errors import ShardError
from repro.shard import ShardedTintin
from repro.shard.router import ShardHandle

ORDERS_DDL = "CREATE TABLE orders (id INTEGER PRIMARY KEY, total DOUBLE)"
KEYS = {"orders": "id"}


def open_engine(directory, shards: int = 3) -> ShardedTintin:
    return ShardedTintin(str(directory), shards=shards, shard_keys=KEYS)


def commit_order(engine, key: int):
    session = engine.create_session()
    session.insert("orders", [(key, 1.0)])
    return session.commit()


def shard_workers() -> list[str]:
    return [
        child.name
        for child in multiprocessing.active_children()
        if child.name.startswith("tintin-shard-")
    ]


@pytest.fixture
def start_log(monkeypatch):
    """Every ``ShardHandle.start`` / ``await_hello`` as (op, shard)."""
    events: list[tuple[str, int]] = []
    start, await_hello = ShardHandle.start, ShardHandle.await_hello

    def logged_start(self, *args, **kwargs):
        events.append(("start", self.shard_id))
        return start(self, *args, **kwargs)

    def logged_await_hello(self, *args, **kwargs):
        events.append(("hello", self.shard_id))
        return await_hello(self, *args, **kwargs)

    monkeypatch.setattr(ShardHandle, "start", logged_start)
    monkeypatch.setattr(ShardHandle, "await_hello", logged_await_hello)
    return events


STARTED_TOGETHER = [("start", 0), ("start", 1), ("start", 2)] + [
    ("hello", 0),
    ("hello", 1),
    ("hello", 2),
]


# -- concurrent start -------------------------------------------------------


def test_every_worker_starts_before_any_hello_is_awaited(tmp_path, start_log):
    engine = open_engine(tmp_path)
    try:
        assert start_log == STARTED_TOGETHER
        assert all(handle.alive for handle in engine.handles)
    finally:
        engine.close()


def test_a_reopen_with_an_in_doubt_gid_starts_every_worker_first(
    tmp_path, start_log
):
    engine = open_engine(tmp_path)
    engine.execute(ORDERS_DDL)
    engine.install()
    assert commit_order(engine, 4).committed
    payload = engine.handles[1].call(
        "prepare", "gid-in-doubt", {"orders": [(7, 1.0)]}, {}, None
    )
    assert payload["committed"]  # shard 1's yes vote, never decided
    engine.close()  # the prepared shard skips its checkpoint
    start_log.clear()

    reopened = open_engine(tmp_path)
    try:
        assert start_log == STARTED_TOGETHER
        assert reopened.stats.snapshot()["in_doubt_resolved"] == 1
        rows = reopened.query("SELECT * FROM orders").rows
        assert rows == [(4, 1.0)]  # presumed abort rolled 7 back
        reopened.declare(ORDERS_DDL)
        assert commit_order(reopened, 7).committed
    finally:
        reopened.close()


def test_spawn_is_start_then_await_hello(tmp_path, start_log):
    engine = open_engine(tmp_path, shards=2)
    try:
        start_log.clear()
        engine.restart_shard(1)
        assert start_log == [("start", 1), ("hello", 1)]
        assert engine.handles[1].alive
    finally:
        engine.close()


# -- a failed start ---------------------------------------------------------


def test_a_failed_start_leaves_nothing_running(tmp_path, monkeypatch):
    closed: list[str] = []
    log_close = WriteAheadLog.close
    await_hello = ShardHandle.await_hello

    def close_logged(self):
        closed.append(self.path)
        return log_close(self)

    def shard_1_never_reports(self, *args, **kwargs):
        if self.shard_id == 1:
            raise ShardError("shard 1 did not report in")
        return await_hello(self, *args, **kwargs)

    monkeypatch.setattr(WriteAheadLog, "close", close_logged)
    monkeypatch.setattr(ShardHandle, "await_hello", shard_1_never_reports)
    with pytest.raises(ShardError, match="shard 1 did not report in"):
        open_engine(tmp_path)
    assert shard_workers() == []
    assert [Path(path).name for path in closed] == ["decisions.wal"]
    monkeypatch.undo()

    engine = open_engine(tmp_path)
    try:
        engine.execute(ORDERS_DDL)
        engine.install()
        assert commit_order(engine, 5).committed
        assert engine.query("SELECT * FROM orders").rows == [(5, 1.0)]
    finally:
        engine.close()
    assert shard_workers() == []


def test_a_worker_that_dies_while_opening_fails_the_start(tmp_path):
    engine = open_engine(tmp_path, shards=2)
    engine.close()
    with open(wal_path(str(tmp_path / "shard1")), "r+b") as handle:
        handle.write(b"NOT-A-WAL")  # shard 1's engine cannot open
    with pytest.raises(ShardError, match="shard 1 exited before its hello"):
        open_engine(tmp_path, shards=2)
    assert shard_workers() == []


# -- what a worker imports --------------------------------------------------


def test_the_worker_imports_the_engine_and_nothing_of_the_network():
    src = str(Path(repro.__file__).resolve().parent.parent)
    script = (
        "import sys; sys.path.insert(0, %r)\n"
        "import repro.shard.worker\n"
        "from repro.core.tintin import Tintin\n"
        "loaded = [m for m in sys.modules\n"
        "          if m == 'asyncio' or m.startswith(('asyncio.', 'repro.net'))]\n"
        "print(sorted(loaded))" % src
    )
    loaded = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
    )
    assert loaded.stdout.strip() == "[]"


# -- the CommitResult wire shape --------------------------------------------

RESULTS = {
    "committed": CommitResult(
        committed=True,
        applied_rows=3,
        checked_views=2,
        skipped_views=5,
        group_size=2,
    ),
    "violations": CommitResult(
        committed=False,
        violations=[
            Violation("atLeastOneItem", "edc_1", ["id"], [(7,)]),
            Violation("noDupes", "edc_2", ["id", "n"], [(3, 1), (3, 2)]),
        ],
        checked_views=4,
    ),
    "constraint_error": CommitResult(
        committed=False,
        constraint_error="PRIMARY KEY violation on orders",
    ),
    "deadline_expired": deadline_result(),
}


def reference_payload(result) -> dict:
    """The dict the network front end sent for a result before the
    shape moved onto ``CommitResult``, key for key."""
    return {
        "committed": result.committed,
        "applied_rows": result.applied_rows,
        "checked_views": result.checked_views,
        "skipped_views": result.skipped_views,
        "group_size": result.group_size,
        "deadline_expired": result.deadline_expired,
        "constraint_error": result.constraint_error,
        "violations": [str(v) for v in result.violations],
    }


@pytest.mark.parametrize("kind", sorted(RESULTS))
def test_the_payload_round_trips(kind):
    result = RESULTS[kind]
    payload = result.payload()
    assert payload == reference_payload(result)
    assert list(payload) == list(reference_payload(result))
    rebuilt = CommitResult.from_payload(payload)
    # violations cross as display strings; every other field as is
    assert rebuilt.violations == [str(v) for v in result.violations]
    rebuilt.violations = result.violations
    assert rebuilt == result
    assert CommitResult.from_payload(payload).payload() == payload
