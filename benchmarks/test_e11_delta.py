"""E11 (PR 8) — delta-aware checking: seeded delta plans vs full views.

The deep denials (``everyOrderHasMaxItem`` and friends) compile to one
or more *seeded* EDCs whose full views scan whole base tables — the
one shape the event-driven translation of §3 cannot make incremental
on its own.  PR 8 adds a second compilation product per EDC: a delta
plan seeded from the staged insertion/deletion overlay and pruned with
a semi-join against the touched keys.  The delta plan arms after one
clean full evaluation and stays armed while the commit path can prove
nothing moved underneath it (catalog version + base-table data
versions, re-stamped on every apply).

Two claims, both checked here:

* **Speedup** — with the delta plan armed, checking a mixed refresh
  against the triple-nested ``everyOrderHasMaxItem`` at the E2 scale
  is at least ``ACCEPTANCE_SPEEDUP``× faster than the full prepared
  view (toggled via ``safe_commit_proc.delta_enabled``, the
  differential oracle).
* **Equivalence** — a scripted random DML churn (valid inserts,
  witness-removing deletes, planted violations, a catalog-drift DDL,
  and a crash/recovery boundary) produces verdict-for-verdict and
  state-for-state identical results on a delta-enabled engine and a
  full-plan oracle engine.

Set ``E11_SMOKE=1`` (CI) for a reduced run with a relaxed speedup bar;
the committed numbers live in ``BENCH_delta.json``.
"""

from __future__ import annotations

import os
import random

from repro import Database, Tintin, recover
from repro.bench import series_table, time_call, write_json_baseline
from repro.tpch import (
    BIG_ORDER_HAS_BIG_ITEM,
    EVERY_ORDER_HAS_MAX_ITEM,
    MAX_SEVEN_LINEITEMS,
    TPCHGenerator,
    UpdateGenerator,
    tpch_database,
)

SMOKE = os.environ.get("E11_SMOKE") == "1"

SCALE = 0.002 if SMOKE else 0.008
UPDATE_ORDERS = 20
ACCEPTANCE_SPEEDUP = 5.0 if SMOKE else 10.0

#: The sweep: the headline triple-nested denial plus two informative
#: rows (a doubly-nested seeded denial and a memoized COUNT aggregate).
SWEEP = (EVERY_ORDER_HAS_MAX_ITEM, BIG_ORDER_HAS_BIG_ITEM, MAX_SEVEN_LINEITEMS)
HEADLINE = EVERY_ORDER_HAS_MAX_ITEM.name


def build_armed(assertions, scale=SCALE, seed=42):
    """TPC-H engine with ``assertions`` installed, delta plans armed
    via one clean warm-up commit, and a mixed refresh staged."""
    db = tpch_database()
    TPCHGenerator(scale, seed).populate(db)
    tintin = Tintin(db)
    tintin.install()
    for spec in assertions:
        tintin.add_assertion(spec.sql)
    # the arming commit: one FK-valid order with a line item.  The
    # full views run once here; ``note_applied`` promotes every clean
    # seeded EDC to armed and stamps the base-table versions.
    customer = next(iter(db.table("customer").scan()))[0]
    part, supp = db.table("partsupp").rows_snapshot()[0][:2]
    db.execute(f"INSERT INTO orders VALUES (9999999, {customer}, 500.0)")
    db.execute(f"INSERT INTO lineitem VALUES (9999999, 1, {part}, {supp}, 10)")
    arming = tintin.safe_commit()
    assert arming.committed, arming
    UpdateGenerator(db, seed=seed + 1).mixed_refresh(UPDATE_ORDERS).stage(db)
    return tintin


def measure(spec):
    """(delta_seconds, full_seconds, armed) for one assertion."""
    tintin = build_armed((spec,))
    proc = tintin.safe_commit_proc
    armed = any(c.delta_armed for c in proc.compiled)
    delta = time_call(tintin.check_pending, repeat=3)
    result = tintin.check_pending()
    assert result.committed, result
    # same staged batch, full prepared views — the differential oracle
    proc.delta_enabled = False
    try:
        full = time_call(tintin.check_pending, repeat=3)
        oracle = tintin.check_pending()
    finally:
        proc.delta_enabled = True
    assert oracle.committed == result.committed
    return delta, full, armed


def test_e11_report(benchmark, baseline_path):
    """Regenerate the delta-vs-full table (printed to stdout)."""

    def build_rows():
        rows = []
        for spec in SWEEP:
            delta, full, armed = measure(spec)
            rows.append((spec.name, delta, full, armed))
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    print()
    print(
        f"E11: delta-aware checking "
        f"(scale={SCALE}, {UPDATE_ORDERS} refresh orders)"
    )
    print(series_table("assertion", [(n, d, f) for n, d, f, _ in rows]))
    headline = {n: (d, f, armed) for n, d, f, armed in rows}[HEADLINE]
    delta, full, armed = headline
    assert armed, "the seeded delta plan never armed"
    speedup = full / delta
    print(f"headline {HEADLINE}: {speedup:.1f}x (bar {ACCEPTANCE_SPEEDUP}x)")
    assert speedup >= ACCEPTANCE_SPEEDUP, (
        f"{HEADLINE}: delta {delta:.4f}s vs full {full:.4f}s "
        f"= {speedup:.1f}x < {ACCEPTANCE_SPEEDUP}x"
    )
    payload = {
        "experiment": "E11 delta-aware checking",
        "scale": SCALE,
        "update_orders": UPDATE_ORDERS,
        "acceptance_speedup": ACCEPTANCE_SPEEDUP,
        "smoke": SMOKE,
        "rows": [
            {
                "assertion": name,
                "delta_seconds": round(d, 6),
                "full_seconds": round(f, 6),
                "speedup": round(f / d, 2),
                "delta_armed": armed,
            }
            for name, d, f, armed in rows
        ],
    }
    if not SMOKE:
        write_json_baseline(baseline_path("BENCH_delta.json"), payload)


# -- differential: delta engine vs full-plan oracle -------------------------
#
# A small orders/items schema keeps the scripted churn fast while still
# compiling a triple-nested seeded denial and a memoized aggregate.

ORDERS_DDL = "CREATE TABLE orders (id INTEGER PRIMARY KEY, total DOUBLE)"
ITEMS_DDL = (
    "CREATE TABLE items (order_id INTEGER, n INTEGER, qty INTEGER, "
    "PRIMARY KEY (order_id, n), "
    "FOREIGN KEY (order_id) REFERENCES orders (id))"
)
MAX_ITEM = (
    "CREATE ASSERTION everyOrderHasMaxItem CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE NOT EXISTS ("
    "SELECT * FROM items AS i WHERE i.order_id = o.id "
    "AND NOT EXISTS (SELECT * FROM items AS j "
    "WHERE j.order_id = i.order_id AND j.qty > i.qty))))"
)
COUNT_CAP = (
    "CREATE ASSERTION atMostThreeItems CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE "
    "(SELECT COUNT(*) FROM items AS i WHERE i.order_id = o.id) > 3))"
)

STEPS = 40 if SMOKE else 60
CRASH_STEP = STEPS // 2


def _setup(tintin: Tintin) -> None:
    db = tintin.db
    db.execute(ORDERS_DDL)
    db.execute(ITEMS_DDL)
    tintin.install()
    tintin.add_assertion(MAX_ITEM)
    tintin.add_assertion(COUNT_CAP)


def _state(db: Database) -> dict:
    return {
        t.schema.name: sorted(t.rows_snapshot())
        for t in db.catalog.tables(namespace="main")
        if t.schema.name in ("orders", "items")
    }


def _script(steps: int):
    """Deterministic op sequence with known expected verdicts.

    Yields ``(expected_committed, statements)`` pairs; a shadow model
    of applied state keeps the witness-removing ops well-targeted.
    """
    rng = random.Random(11)
    orders: dict[int, list[int]] = {}
    next_id = 1
    for step in range(steps):
        live = sorted(k for k, items in orders.items() if items)
        op = rng.choice(
            ("new", "new", "new", "add", "strip", "drop", "empty", "flood", "ddl")
        )
        if op in ("add", "strip", "drop", "flood") and not live:
            op = "new"
        if op == "new":
            oid, next_id = next_id, next_id + 1
            count = rng.randint(1, 3)
            stmts = [f"INSERT INTO orders VALUES ({oid}, {oid * 10}.0)"]
            stmts += [
                f"INSERT INTO items VALUES ({oid}, {n}, {rng.randint(1, 9)})"
                for n in range(1, count + 1)
            ]
            orders[oid] = list(range(1, count + 1))
            yield True, stmts
        elif op == "add":
            oid = rng.choice(live)
            items = orders[oid]
            if len(items) >= 3:
                yield False, [
                    f"INSERT INTO items VALUES ({oid}, {max(items) + 1}, 5)"
                ]
            else:
                n = max(items) + 1
                items.append(n)
                yield True, [f"INSERT INTO items VALUES ({oid}, {n}, 5)"]
        elif op == "strip":
            # delete every item of a live order: the order loses its
            # maximal item — rejected via the seeded delete-side EDC
            oid = rng.choice(live)
            yield False, [
                f"DELETE FROM items WHERE order_id = {oid} AND n = {n}"
                for n in orders[oid]
            ]
        elif op == "drop":
            oid = rng.choice(live)
            stmts = [
                f"DELETE FROM items WHERE order_id = {oid} AND n = {n}"
                for n in orders[oid]
            ]
            stmts.append(f"DELETE FROM orders WHERE id = {oid}")
            del orders[oid]
            yield True, stmts
        elif op == "empty":
            # a new order with no items violates the triple-nested denial
            oid, next_id = next_id, next_id + 1
            yield False, [f"INSERT INTO orders VALUES ({oid}, 1.0)"]
        elif op == "flood":
            # blow past the COUNT cap — the aggregate memo must see it
            oid = rng.choice(live)
            base = max(orders[oid]) + 1
            needed = 4 - len(orders[oid]) + 1
            yield False, [
                f"INSERT INTO items VALUES ({oid}, {base + k}, 2)"
                for k in range(needed)
            ]
        else:  # ddl — catalog drift must disarm the delta plans
            yield None, [f"CREATE TABLE scratch_{step} (x INTEGER)"]


def _run(tintin: Tintin, delta: bool, crash_dir: str | None = None):
    """Run the script; returns (verdict list, final state, engine)."""
    tintin.safe_commit_proc.delta_enabled = delta
    verdicts = []
    for step, (expected, stmts) in enumerate(_script(STEPS)):
        if crash_dir is not None and step == CRASH_STEP:
            del tintin  # simulated crash — never closed
            tintin, report = recover(crash_dir)
            assert report.batches_replayed > 0
            proc = tintin.safe_commit_proc
            proc.delta_enabled = delta
            # recovery rebuilds delta/memo state as a derived cache:
            # everything starts cold and disarmed
            assert not any(c.delta_armed for c in proc.compiled)
        for stmt in stmts:
            tintin.db.execute(stmt)
        if expected is None:  # DDL only, nothing staged
            continue
        result = tintin.safe_commit()
        verdicts.append(
            (result.committed, sorted(v.assertion for v in result.violations))
        )
        assert result.committed == expected, (
            f"step {step}: expected committed={expected}, got {result}"
        )
    return verdicts, _state(tintin.db), tintin


def test_e11_differential(tmp_path):
    """Delta-enabled engine == full-plan oracle, across crash/recovery."""
    oracle = Tintin(Database("oracle"))
    _setup(oracle)
    oracle_verdicts, oracle_state, _ = _run(oracle, delta=False)

    path = str(tmp_path / "delta-engine")
    subject = Tintin.open(path, durability="commit")
    _setup(subject)
    verdicts, state, subject = _run(subject, delta=True, crash_dir=path)

    assert verdicts == oracle_verdicts
    assert state == oracle_state
    # the run exercised the armed fast path and re-armed after the
    # crash: seeded plans must be live again at the end
    assert any(c.delta_armed for c in subject.safe_commit_proc.compiled)
    # planted violations of every flavour actually fired
    rejected = [names for committed, names in verdicts if not committed]
    assert any("everyOrderHasMaxItem" in names for names in rejected)
    assert any("atMostThreeItems" in names for names in rejected)
