"""E8 (multi-session concurrency) — group commit under client threads.

The paper's safeCommit validates one staged update at a time.  The
server subsystem gives every client its own staging area and serializes
only validate-and-apply, batching compatible (key-disjoint) updates
into one violation-view pass and one combined apply.  This experiment
sweeps the session count over a mixed TPC-H update workload (RF1-style
order insertions + RF2-style deletions of each session's own earlier
orders) and measures aggregate committed throughput.

What is asserted:

* a differential proof that N sessions committing sequentially and
  concurrently accept/reject the exact same updates and leave the
  database in the same state (with planted violations in the mix);
* with 8 sessions each holding staged events and running an OLTP read
  mix (cheap dimension lookups + a pending-update check), the
  overlay-merge read path causes not a single plan-cache invalidation
  or ``data_version`` bump;
* with tracing disabled, no commit allocates observation state.

Throughput (sessions sweep, overlay vs splice reads, tracing on vs
off) is measured and printed, never asserted: a same-run wall-clock
ratio on a shared host is not a test.  Speed claims are made with
``perfbench/``.  Set ``E8_SMOKE=1`` (CI) for a reduced sweep; the
full-size report is written under pytest's tmp dir.
"""

from __future__ import annotations

import os
import random

from repro import Database, Tintin
from repro.bench import (
    concurrency_payload,
    concurrency_table,
    durability_line,
    measure_concurrent_throughput,
    measure_staged_read_throughput,
    plan_cache_line,
    staged_read_payload,
    staged_read_table,
    write_json_baseline,
)
from repro.tpch import (
    AGGREGATE_ASSERTIONS,
    COMPLEXITY_SUITE,
    EVERY_ORDER_HAS_MAX_ITEM,
    TPCHGenerator,
    tpch_database,
)

def _bound_assertion(k: int) -> str:
    """One of a family of distinct business-rule assertions (cf. E7's
    qtyBound views): no cheap order carries an oversized line item."""
    return (
        f"CREATE ASSERTION e8Bound{k} CHECK (NOT EXISTS ("
        f"SELECT * FROM orders AS o, lineitem AS l "
        f"WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity > {60 + k} "
        f"AND o.o_totalprice > {500 + k}))"
    )


#: 7 EDC-compiled assertions + 2 aggregates + 8 bound variants: a
#: production-like rule set whose validation pass dominates the cost of
#: a small commit — the share the group-commit fast path amortizes.
#: The doubly-nested ``everyOrderHasMaxItem`` stress case is included
#: (PR 8): its >100ms full views run once at arming and the seeded
#: delta plans take over for the measured window, so deep denials now
#: cost the same sub-millisecond checks as the rest of the suite.
E8_ASSERTIONS = tuple(
    spec.sql
    for spec in COMPLEXITY_SUITE
    + (EVERY_ORDER_HAS_MAX_ITEM,)
    + AGGREGATE_ASSERTIONS
) + tuple(_bound_assertion(k) for k in range(8))

SMOKE = os.environ.get("E8_SMOKE") == "1"

SCALE = 0.002
SESSION_SWEEP = (1, 4) if SMOKE else (1, 2, 4, 8)
TOTAL_COMMITS = 64 if SMOKE else 128
#: each worker's order keys live in a private range: updates are
#: pairwise key-disjoint, so the group-commit fast path is available
KEY_BASE = 10_000_000
KEY_STRIDE = 1_000_000


#: the server's group-commit window: how long a commit leader waits for
#: other sessions' requests to join its batch.  Fixed across the whole
#: sweep (the 1-session row pays it too — this is one server
#: configuration under varying client counts, the same trade
#: MySQL's ``binlog_group_commit_sync_delay`` makes).
GATHER_SECONDS = 0.0008


def arm_delta_pipeline(tintin: Tintin) -> None:
    """Arm the delta pipeline before the measured window: one validated
    warm-up commit promotes every seeded EDC (and warms the aggregate
    memos), so sweeps measure steady-state incremental checking rather
    than the one-time full passes that follow installation."""
    db = tintin.db
    customer = next(iter(db.table("customer").scan()))[0]
    partsupp = db.table("partsupp").rows_snapshot()[0]
    db.execute(f"INSERT INTO orders VALUES (9999999, {customer}, 500.0)")
    db.execute(
        "INSERT INTO lineitem VALUES "
        f"(9999999, 1, {partsupp[0]}, {partsupp[1]}, 10)"
    )
    warmup = tintin.safe_commit()
    assert warmup.committed, warmup


def build_server(policy: str = "group") -> Tintin:
    db = tpch_database("e8")
    TPCHGenerator(SCALE, seed=42).populate(db)
    tintin = Tintin(db)
    tintin.install()
    # validation is the dominant per-commit cost the group-commit fast
    # path amortizes (and aggregate group-key compatibility is
    # exercised: every session grows only its own orders)
    for sql in E8_ASSERTIONS:
        tintin.add_assertion(sql)
    arm_delta_pipeline(tintin)
    tintin.serve(policy=policy, gather_seconds=GATHER_SECONDS)
    return tintin


def build_scripts(
    db: Database,
    workers: int,
    rounds: int,
    plant_violations: bool = False,
    seed: int = 11,
) -> dict[int, list[dict]]:
    """Precomputed per-worker update scripts (no RNG inside the timed
    loop).  Each round is one proposed update: mostly an RF1-style new
    order with two lineitems; every third round additionally deletes
    the worker's oldest surviving order (RF2-style); with
    ``plant_violations`` every fifth round stages an itemless order,
    which ``atLeastOneLineItem`` must reject."""
    rng = random.Random(seed)
    partsupp = db.table("partsupp").rows_snapshot()
    customers = [row[0] for row in db.table("customer").scan()]
    scripts: dict[int, list[dict]] = {}
    for worker in range(workers):
        updates: list[dict] = []
        owned: list[tuple[tuple, list[tuple]]] = []
        for round_no in range(rounds):
            key = KEY_BASE + worker * KEY_STRIDE + round_no
            customer = rng.choice(customers)
            if plant_violations and round_no % 5 == 4:
                updates.append(
                    {
                        "inserts": {"orders": [(key, customer, 40.0)]},
                        "deletes": {},
                    }
                )
                continue
            ps = rng.choice(partsupp)
            items = [(key, 1, ps[0], ps[1], 5)]
            order = (key, customer, 100.0)
            update = {
                "inserts": {"orders": [order], "lineitem": items},
                "deletes": {},
            }
            if round_no % 3 == 2 and owned:
                victim_order, victim_items = owned.pop(0)
                update["deletes"] = {
                    "orders": [victim_order],
                    "lineitem": victim_items,
                }
            owned.append((order, items))
            updates.append(update)
        scripts[worker] = updates
    return scripts


def make_stage(scripts: dict[int, list[dict]]):
    def stage(session, worker: int, round_no: int) -> None:
        update = scripts[worker][round_no]
        for table, rows in update["inserts"].items():
            session.insert(table, rows)
        for table, rows in update["deletes"].items():
            session.delete(table, rows)

    return stage


def run_sweep_point(sessions: int, repeats: int = 3):
    """Best-of-N measurement of one session count (fresh server each
    time, so thread-scheduling noise cannot understate a point)."""
    best = None
    tintin = None
    per_session = TOTAL_COMMITS // sessions
    for _ in range(repeats):
        tintin = build_server()
        scripts = build_scripts(tintin.db, sessions, per_session)
        result = measure_concurrent_throughput(
            tintin, sessions, per_session, make_stage(scripts)
        )
        assert result.rejected == 0, "the mixed refresh workload is valid"
        if best is None or result.commits_per_second > best.commits_per_second:
            best = result
    return tintin, best


def run_differential(workers: int = 6, rounds: int = 10):
    """Sequential vs concurrent execution of one scripted workload."""

    def run(policy: str, concurrent: bool):
        import threading

        tintin = build_server(policy=policy)
        scripts = build_scripts(
            tintin.db, workers, rounds, plant_violations=True
        )
        stage = make_stage(scripts)
        outcomes: dict[tuple[int, int], bool] = {}

        def run_worker(worker: int) -> None:
            session = tintin.create_session()
            for round_no in range(rounds):
                stage(session, worker, round_no)
                outcomes[(worker, round_no)] = session.commit().committed

        if concurrent:
            threads = [
                threading.Thread(target=run_worker, args=(w,))
                for w in range(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        else:
            for worker in range(workers):
                run_worker(worker)
        state = {
            name: sorted(tintin.db.table(name).rows_snapshot())
            for name in ("orders", "lineitem")
        }
        return outcomes, state

    seq_outcomes, seq_state = run("serial", concurrent=False)
    conc_outcomes, conc_state = run("group", concurrent=True)
    assert seq_outcomes == conc_outcomes, (
        "sequential and concurrent commits diverged on accept/reject"
    )
    assert seq_state == conc_state, (
        "sequential and concurrent commits left different final states"
    )
    rejected = sum(1 for ok in seq_outcomes.values() if not ok)
    assert rejected == workers * (rounds // 5), "planted violations caught"
    return {
        "workers": workers,
        "rounds": rounds,
        "updates": len(seq_outcomes),
        "rejected": rejected,
        "sequential_equals_concurrent": True,
    }


#: ISSUE 3 staged-read comparison: 8 sessions, each holding a staged
#: multi-order update, run a 90/10 OLTP read mix (cheap dimension
#: lookups + one pending-update check).  The splice baseline pays the
#: full splice-in/splice-out of every staged row on *every* read and
#: serializes all readers behind the write lock; the overlay-merge
#: path merges at scan time under the shared lock.
READ_SESSIONS = 8
STAGED_ORDERS = 48 if SMOKE else 96
READS_PER_SESSION = 40 if SMOKE else 80

READ_SCRIPT = tuple(
    f"SELECT * FROM customer AS c WHERE c.c_custkey = {key}"
    for key in (11, 42, 77, 123, 200)
) + tuple(
    f"SELECT * FROM nation AS n WHERE n.n_nationkey = {key}"
    for key in (3, 7, 14, 21)
) + (
    "SELECT o.o_orderkey, l.l_linenumber FROM orders AS o, lineitem AS l "
    f"WHERE l.l_orderkey = o.o_orderkey AND o.o_orderkey >= {KEY_BASE}",
)


def stage_reader_sessions(tintin: Tintin, count: int, orders_each: int):
    """One session per reader, each staging a private multi-order
    update (orders + two lineitems each, RF1-style)."""
    rng = random.Random(7)
    partsupp = tintin.db.table("partsupp").rows_snapshot()
    customers = [row[0] for row in tintin.db.table("customer").scan()]
    sessions = []
    for worker in range(count):
        session = tintin.create_session()
        for i in range(orders_each):
            key = KEY_BASE + worker * KEY_STRIDE + i
            ps = rng.choice(partsupp)
            session.insert("orders", [(key, rng.choice(customers), 100.0)])
            session.insert(
                "lineitem",
                [(key, 1, ps[0], ps[1], 5), (key, 2, ps[0], ps[1], 3)],
            )
        sessions.append(session)
    return sessions


def run_staged_reads():
    """Overlay-merge vs splice-baseline aggregate read throughput."""
    tintin = build_server()
    sessions = stage_reader_sessions(tintin, READ_SESSIONS, STAGED_ORDERS)
    # warm up both paths (plan cache, lazily built indexes) so the
    # measurement compares steady-state executors, not first-touch work
    for sql in READ_SCRIPT:
        sessions[0].query(sql)
        sessions[0].query_spliced(sql)
    overlay = measure_staged_read_throughput(
        tintin, sessions, READS_PER_SESSION, READ_SCRIPT, mode="overlay"
    )
    splice = measure_staged_read_throughput(
        tintin, sessions, READS_PER_SESSION, READ_SCRIPT, mode="splice"
    )
    return overlay, splice


_STAGED_READS: dict = {}


def test_differential_sequential_vs_concurrent(benchmark):
    summary = benchmark.pedantic(run_differential, rounds=1, iterations=1)
    assert summary["sequential_equals_concurrent"]


def test_e8_staged_reads(benchmark):
    overlay, splice = benchmark.pedantic(
        run_staged_reads, rounds=1, iterations=1
    )
    _STAGED_READS["payload"] = staged_read_payload(overlay, splice)
    print()
    print("E8: staged-event reads — overlay-merge vs splice baseline")
    print(staged_read_table(overlay, splice))
    # overlay reads are pure: no base-table mutation, no plan churn
    assert overlay.data_version_delta == 0
    assert overlay.plan_cache_invalidations == 0


def run_tracing_overhead(sessions: int = 4):
    """A/B of one sweep point: the stock engine (tracing disabled,
    the default) against the same workload under an enabled in-memory
    tracer.  The disabled run doubles as the structural zero-overhead
    proof — the obs factory, the single decision point every commit
    passes, is spied on and must return None throughout."""
    from repro.obs import RecordingTracer

    per_session = TOTAL_COMMITS // sessions

    tintin = build_server()
    allocated = []
    original = tintin._make_obs

    def spy(*args, **kwargs):
        obs = original(*args, **kwargs)
        if obs is not None:
            allocated.append(obs)
        return obs

    tintin._make_obs = spy
    scripts = build_scripts(tintin.db, sessions, per_session)
    disabled = measure_concurrent_throughput(
        tintin, sessions, per_session, make_stage(scripts)
    )
    assert not allocated, "disabled tracing allocated observation state"

    tintin = build_server()
    tracer = RecordingTracer()
    tintin.set_tracer(tracer)
    scripts = build_scripts(tintin.db, sessions, per_session)
    enabled = measure_concurrent_throughput(
        tintin, sessions, per_session, make_stage(scripts)
    )
    assert tracer.spans(), "enabled tracing recorded nothing"
    return disabled, enabled


def test_e8_tracing_overhead(benchmark):
    disabled, enabled = benchmark.pedantic(
        run_tracing_overhead, rounds=1, iterations=1
    )
    print()
    print("E8: tracing overhead — disabled (default) vs RecordingTracer")
    print(f"  disabled {disabled.commits_per_second:10.1f} commits/s")
    print(
        f"  enabled  {enabled.commits_per_second:10.1f} commits/s "
        f"(x{disabled.commits_per_second / enabled.commits_per_second:.2f})"
    )
    # the disabled path was proven allocation-free above; the ratio is
    # printed for the record, not asserted
    assert enabled.commits > 0


def test_e8_report(benchmark, baseline_path):
    def sweep():
        results = []
        last_tintin = None
        for sessions in SESSION_SWEEP:
            tintin, result = run_sweep_point(sessions)
            last_tintin = tintin
            results.append(result)
        return results, last_tintin

    (results, tintin) = benchmark.pedantic(sweep, rounds=1, iterations=1)
    db = tintin.db
    differential = run_differential(workers=4, rounds=5)
    print()
    print("E8: multi-session group commit — aggregate commits/sec by sessions")
    print(concurrency_table(results))
    print(plan_cache_line(db))
    print(durability_line(tintin))
    payload = concurrency_payload(results, differential, db)
    if "payload" not in _STAGED_READS:
        _STAGED_READS["payload"] = staged_read_payload(*run_staged_reads())
    payload["staged_reads"] = _STAGED_READS["payload"]
    assert [r.sessions for r in results] == list(SESSION_SWEEP)
    if not SMOKE:
        write_json_baseline(baseline_path("BENCH_concurrency.json"), payload)
