"""E12 (shard-per-process scale-out) — throughput past the GIL.

E8 showed group commit amortizing validation across sessions *inside*
one process; this experiment scales *out*: N worker processes, each a
full engine owning one hash partition, behind the shard router.  The
sweep drives S clients against S shards with shard-local commits (the
partitioning's fast path) and measures aggregate committed
throughput.  Because every worker overlaps its commit window's
blocking portion (the group-commit gather nap plus the WAL fsync)
with the other workers' CPU work, aggregate throughput scales with
the shard count even on a single core — and on real multi-core
hardware the CPU portions overlap too.

As in E8, the gather window is *fixed across the sweep*: this is one
server configuration under varying shard counts, so the 1-shard row
pays the same per-window nap the 4-shard rows pay.

What is asserted:

* every shard-local commit of the sweep is accepted;
* a differential: the same mixed schedule (single-shard, cross-shard
  2PC, violating, conflicting) accepts/rejects identically and leaves
  the same rows on a sharded engine as on a sequential reference;
* a full-cluster power cut preserves exactly the acked commits.

The 1 -> 4 shard speedup is measured and printed, never asserted: a
same-run wall-clock ratio on a shared host is not a test.  Speed
claims are made with ``perfbench/``.  Set ``E12_SMOKE=1`` (CI) for a
reduced sweep; the full-size report is written under pytest's tmp dir.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time

from repro import Database, Tintin
from repro.bench import write_json_baseline
from repro.shard import ShardedTintin

SMOKE = os.environ.get("E12_SMOKE") == "1"

SHARD_SWEEP = (1, 4) if SMOKE else (1, 2, 4)
COMMITS_PER_CLIENT = 12 if SMOKE else 32

#: the per-shard group-commit gather window (see E8's GATHER_SECONDS):
#: each commit window naps ~a quarter of this before draining, and in
#: ``batch`` durability mode adds one fsync — the blocking slice that
#: overlaps across worker processes.  Fixed across the whole sweep.
GATHER_SECONDS = 0.008

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
KEY_BASE = 1_000_000


def build_sharded(directory: str, shards: int) -> ShardedTintin:
    engine = ShardedTintin(
        directory,
        shards=shards,
        shard_keys=KEYS,
        gather_seconds=GATHER_SECONDS,
    )
    engine.execute(ORDERS_DDL)
    engine.execute(ITEMS_DDL)
    engine.install()
    engine.add_assertion(ASSERTION)
    return engine


def shard_local_keys(client: int, shards: int, count: int) -> list[int]:
    """Keys that all hash to shard ``client`` — the client's commits
    never leave its shard, so the sweep measures the fast path."""
    return [KEY_BASE + client + n * shards for n in range(count)]


def drive_clients(engine: ShardedTintin, shards: int, per_client: int):
    """One thread per shard, each committing shard-local orders;
    returns (total_committed, elapsed_seconds)."""
    committed = [0] * shards
    barrier = threading.Barrier(shards + 1)

    def client(index: int) -> None:
        session = engine.create_session()
        keys = shard_local_keys(index, shards, per_client)
        barrier.wait()
        for key in keys:
            session.insert("orders", [(key, 1.0)])
            session.insert("items", [(key, 1)])
            if session.commit().committed:
                committed[index] += 1

    threads = [
        threading.Thread(target=client, args=(index,))
        for index in range(shards)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return sum(committed), elapsed


def run_sweep_point(shards: int, repeats: int = 2) -> dict:
    """Best-of-N for one shard count (fresh cluster each repeat)."""
    best = None
    for _ in range(repeats):
        directory = tempfile.mkdtemp(prefix=f"e12-{shards}-")
        engine = build_sharded(directory, shards)
        try:
            total, elapsed = drive_clients(
                engine, shards, COMMITS_PER_CLIENT
            )
            assert total == shards * COMMITS_PER_CLIENT, (
                "shard-local commits must all be accepted"
            )
            point = {
                "shards": shards,
                "commits": total,
                "seconds": elapsed,
                "commits_per_second": total / elapsed,
            }
            if (
                best is None
                or point["commits_per_second"]
                > best["commits_per_second"]
            ):
                best = point
        finally:
            engine.close()
            shutil.rmtree(directory, ignore_errors=True)
    return best


# -- sequential vs sharded differential -------------------------------------


def build_schedule(rounds: int) -> list[tuple[dict, dict]]:
    """A mixed schedule: shard-local inserts, cross-shard 2PC batches,
    planted assertion violations and duplicate-key conflicts."""
    schedule: list[tuple[dict, dict]] = []
    for n in range(rounds):
        key = 2000 + n
        schedule.append(
            ({"orders": [(key, 1.0)], "items": [(key, 1)]}, {})
        )
        if n % 3 == 0:  # cross-shard pair
            a, b = 3000 + 2 * n, 3001 + 2 * n
            schedule.append(
                (
                    {
                        "orders": [(a, 1.0), (b, 1.0)],
                        "items": [(a, 1), (b, 1)],
                    },
                    {},
                )
            )
        if n % 4 == 1:  # violating: an itemless order
            schedule.append(({"orders": [(4000 + n, 1.0)]}, {}))
        if n % 5 == 2:  # duplicate key conflict
            schedule.append(
                ({"orders": [(2000, 9.0)], "items": [(2000, 9)]}, {})
            )
    return schedule


def run_differential(rounds: int = 10) -> dict:
    db = Database("e12ref")
    db.execute(ORDERS_DDL)
    db.execute(ITEMS_DDL)
    reference = Tintin(db)
    reference.install()
    reference.add_assertion(ASSERTION)

    directory = tempfile.mkdtemp(prefix="e12-diff-")
    sharded = build_sharded(directory, shards=4)
    try:
        schedule = build_schedule(rounds)
        verdicts = []
        for inserts, deletes in schedule:
            ref_session = reference.create_session()
            shard_session = sharded.create_session()
            for table, rows in inserts.items():
                ref_session.insert(table, rows)
                shard_session.insert(table, rows)
            for table, rows in deletes.items():
                ref_session.delete(table, rows)
                shard_session.delete(table, rows)
            ref_result = ref_session.commit()
            shard_result = shard_session.commit()
            assert ref_result.committed == shard_result.committed, (
                inserts,
                ref_result,
                shard_result,
            )
            verdicts.append(shard_result.committed)
        reference_rows = sorted(
            db.execute("SELECT * FROM orders AS o").rows
        )
        sharded_rows = sorted(
            sharded.query("SELECT * FROM orders AS o").rows
        )
        assert reference_rows == sharded_rows, (
            "sharded execution diverged from the sequential reference"
        )
        return {
            "updates": len(verdicts),
            "rejected": verdicts.count(False),
            "sequential_equals_sharded": True,
        }
    finally:
        sharded.close()
        shutil.rmtree(directory, ignore_errors=True)


# -- crash recovery of acked commits ----------------------------------------


def run_crash_recovery() -> dict:
    """Power-cut every worker after a mixed workload; a fresh cluster
    over the same directories must hold exactly the acked rows."""
    from repro.errors import ShardError

    directory = tempfile.mkdtemp(prefix="e12-crash-")
    engine = build_sharded(directory, shards=2)
    acked: list[int] = []
    try:
        for key in range(5000, 5008):  # shard-local
            session = engine.create_session()
            session.insert("orders", [(key, 1.0)])
            session.insert("items", [(key, 1)])
            if session.commit().committed:
                acked.append(key)
        session = engine.create_session()  # cross-shard 2PC
        session.insert("orders", [(5010, 1.0), (5011, 1.0)])
        session.insert("items", [(5010, 1), (5011, 1)])
        assert session.commit().committed
        acked.extend([5010, 5011])
        for handle in engine.handles:
            try:
                handle.call("crash")
            except ShardError:
                pass
        engine.close()

        recovered = ShardedTintin(
            directory, shards=2, shard_keys=KEYS
        )
        try:
            recovered.declare(ORDERS_DDL)
            recovered.declare(ITEMS_DDL)
            survivors = sorted(
                row[0]
                for row in recovered.query(
                    "SELECT * FROM orders AS o"
                ).rows
            )
            assert survivors == sorted(acked), (
                "recovery lost or invented acked commits"
            )
        finally:
            recovered.close()
        return {"acked": len(acked), "recovered": len(acked)}
    finally:
        shutil.rmtree(directory, ignore_errors=True)


# -- the report -------------------------------------------------------------


def test_e12_differential(benchmark):
    summary = benchmark.pedantic(run_differential, rounds=1, iterations=1)
    assert summary["sequential_equals_sharded"]
    assert summary["rejected"] > 0, "planted conflicts were exercised"


def test_e12_crash_recovery(benchmark):
    summary = benchmark.pedantic(
        run_crash_recovery, rounds=1, iterations=1
    )
    assert summary["recovered"] == summary["acked"]


def test_e12_report(benchmark, baseline_path):
    def sweep():
        return [run_sweep_point(shards) for shards in SHARD_SWEEP]

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    differential = run_differential(rounds=6)
    print()
    print("E12: shard-per-process scale-out — commits/sec by shard count")
    for point in results:
        print(
            f"  {point['shards']} shard(s): "
            f"{point['commits_per_second']:10.1f} commits/s "
            f"({point['commits']} commits in {point['seconds']:.3f}s)"
        )
    by_shards = {point["shards"]: point for point in results}
    top = max(SHARD_SWEEP)
    speedup = (
        by_shards[top]["commits_per_second"]
        / by_shards[1]["commits_per_second"]
    )
    print(f"  speedup 1 -> {top} shards: x{speedup:.2f}")
    payload = {
        "experiment": "e12_shard",
        "gather_seconds": GATHER_SECONDS,
        "commits_per_client": COMMITS_PER_CLIENT,
        "sweep": results,
        "speedup": speedup,
        "differential": differential,
    }
    if not SMOKE:
        write_json_baseline(baseline_path("BENCH_shard.json"), payload)
