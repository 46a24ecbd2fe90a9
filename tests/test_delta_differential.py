"""Differential fuzzing of the delta-aware check pipeline (PR 8).

Hypothesis generates random DML churn — valid inserts, witness-removing
deletes, planted violations, catalog-drift DDL, trigger-bypassing base
writes, and recovery-style state resets — and drives it through two
engines built identically:

* the **subject**, with delta plans enabled (the stock engine), and
* the **oracle**, forced onto the full prepared-view path by
  :class:`FullPlanSafeCommit`.

Every commit must produce the same verdict and the same violation set
on both; the final base-table states must be identical; and a closing
``full_check_commit`` on the subject must be clean.  A second property
replays the same churn across a *real* crash/recovery boundary (WAL
replay, derived delta-plan state rebuilt from cold), and a fixed
seeded churn does the same with every op flavour guaranteed to fire.

The schema is the small orders/items pair with a triple-nested seeded
denial (``everyOrderHasMaxItem``) and a COUNT aggregate
(``atMostThreeItems``) so every delta-path flavour is on the table.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, Tintin, recover
from repro.core.safe_commit import SafeCommit

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


class FullPlanSafeCommit(SafeCommit):
    """``safeCommit`` without the seeded delta path: no delta plan is
    ever trusted, so every view runs its full prepared plan.  Test-side
    oracle — the engine itself has no such switch."""

    def _delta_stamp_valid(self, db):
        return False


def build_engine(tintin: Tintin, delta: bool) -> Tintin:
    if not delta:
        tintin.safe_commit_proc = FullPlanSafeCommit()
    db = tintin.db
    db.execute(ORDERS_DDL)
    db.execute(ITEMS_DDL)
    tintin.install()
    tintin.add_assertion(MAX_ITEM)
    tintin.add_assertion(COUNT_CAP)
    return tintin


def state(db: Database) -> dict:
    return {
        name: sorted(db.table(name).rows_snapshot())
        for name in ("orders", "items")
    }


# -- op strategies ----------------------------------------------------------
#
# Ops carry raw integers; the interpreter resolves them against a shadow
# model of the applied state, so every generated sequence is meaningful
# and its expected verdict is known by construction.

_pick = st.integers(0, 99)
op_strategy = st.one_of(
    st.tuples(st.just("new"), st.integers(0, 3)),  # 0 items => violation
    st.tuples(st.just("add"), _pick, st.integers(1, 9)),
    st.tuples(st.just("strip"), _pick),  # remove every item => violation
    st.tuples(st.just("drop"), _pick),  # remove order + items => clean
    st.tuples(st.just("flood"), _pick),  # push COUNT past the cap
    st.just(("ddl",)),  # catalog drift: disarm + fall back
    st.just(("bulk",)),  # trigger-bypassing base write: stamp drift
    st.just(("reset",)),  # recovery-style derived-state rebuild
)
ops_strategy = st.lists(op_strategy, min_size=1, max_size=25)

# ``bulk`` writes bypass the capture triggers, so they are invisible to
# the WAL — a crash legitimately loses them.  The recovery property
# fuzzes the durable subset only.
durable_op_strategy = st.one_of(
    st.tuples(st.just("new"), st.integers(0, 3)),
    st.tuples(st.just("add"), _pick, st.integers(1, 9)),
    st.tuples(st.just("strip"), _pick),
    st.tuples(st.just("drop"), _pick),
    st.tuples(st.just("flood"), _pick),
    st.just(("ddl",)),
    st.just(("reset",)),
)
durable_ops_strategy = st.lists(durable_op_strategy, min_size=1, max_size=25)


def run_ops(tintin: Tintin, ops, crash_dir: str | None = None,
            crash_at: int | None = None):
    """Interpret ``ops``; returns (verdicts, final state, engine).

    ``verdicts`` is one ``(committed, violated names)`` pair per
    checked commit.  With ``crash_dir``/``crash_at`` set, the engine is
    abandoned before op ``crash_at`` and rebuilt via :func:`recover` —
    the delta-plan state must come back cold and correct.
    """
    orders: dict[int, list[int]] = {}
    next_id = 1
    ddl_count = 0
    verdicts = []
    for index, op in enumerate(ops):
        if crash_at is not None and index == crash_at:
            del tintin  # simulated crash — never closed
            tintin, _report = recover(crash_dir)
            assert not any(
                c.delta_armed for c in tintin.safe_commit_proc.compiled
            ), "recovery must rebuild delta state from cold"
        db = tintin.db
        tag = op[0]
        live = sorted(k for k, items in orders.items() if items)
        expected = True
        if tag == "new":
            count = op[1]
            oid, next_id = next_id, next_id + 1
            db.execute(f"INSERT INTO orders VALUES ({oid}, {oid}.0)")
            for n in range(1, count + 1):
                db.execute(f"INSERT INTO items VALUES ({oid}, {n}, {n})")
            if count:
                orders[oid] = list(range(1, count + 1))
            else:
                expected = False
        elif tag in ("add", "strip", "drop", "flood"):
            if not live:
                continue
            oid = live[op[1] % len(live)]
            items = orders[oid]
            if tag == "add":
                db.execute(
                    f"INSERT INTO items VALUES "
                    f"({oid}, {max(items) + 1}, {op[2]})"
                )
                if len(items) >= 3:
                    expected = False
                else:
                    items.append(max(items) + 1)
            elif tag == "strip":
                for n in items:
                    db.execute(
                        f"DELETE FROM items "
                        f"WHERE order_id = {oid} AND n = {n}"
                    )
                expected = False
            elif tag == "drop":
                for n in items:
                    db.execute(
                        f"DELETE FROM items "
                        f"WHERE order_id = {oid} AND n = {n}"
                    )
                db.execute(f"DELETE FROM orders WHERE id = {oid}")
                del orders[oid]
            else:  # flood past the COUNT cap
                base = max(items) + 1
                for k in range(4 - len(items) + 1):
                    db.execute(
                        f"INSERT INTO items VALUES ({oid}, {base + k}, 2)"
                    )
                expected = False
        elif tag == "ddl":
            db.execute(f"CREATE TABLE scratch_{ddl_count} (x INTEGER)")
            ddl_count += 1
            continue  # nothing staged, nothing to check
        elif tag == "bulk":
            # invariant-preserving direct write around the triggers:
            # bumps the base data_version without a note_applied stamp
            oid, next_id = next_id, next_id + 1
            db.insert_rows("orders", [(oid, 1.0)], bypass_triggers=True)
            db.insert_rows("items", [(oid, 1, 5)], bypass_triggers=True)
            orders[oid] = [1]
            continue
        else:  # reset — what recovery does to derived state
            tintin.safe_commit_proc.reset_delta_state()
            continue
        result = tintin.safe_commit()
        names = sorted(v.assertion for v in result.violations)
        verdicts.append((result.committed, names))
        assert result.committed == expected, (
            f"op {index} {op}: expected committed={expected}, "
            f"got {result.committed} ({names})"
        )
    return verdicts, state(tintin.db), tintin


@given(ops_strategy)
@settings(max_examples=60, deadline=None)
def test_delta_pipeline_matches_full_oracle(ops):
    oracle = build_engine(Tintin(Database("oracle")), delta=False)
    subject = build_engine(Tintin(Database("subject")), delta=True)
    oracle_verdicts, oracle_state, _ = run_ops(oracle, ops)
    verdicts, final_state, subject = run_ops(subject, ops)
    assert verdicts == oracle_verdicts
    assert final_state == oracle_state
    # the delta shortcuts never leave a violation behind
    assert subject.full_check_commit().committed


@given(durable_ops_strategy, st.integers(0, 24))
@settings(max_examples=15, deadline=None)
def test_delta_pipeline_survives_recovery(tmp_path_factory, ops, crash_pos):
    oracle = build_engine(Tintin(Database("oracle")), delta=False)
    oracle_verdicts, oracle_state, _ = run_ops(oracle, ops)

    path = str(tmp_path_factory.mktemp("delta") / "engine")
    subject = build_engine(Tintin.open(path, durability="commit"), delta=True)
    crash_at = crash_pos % len(ops)
    verdicts, final_state, subject = run_ops(
        subject, ops, crash_dir=path, crash_at=crash_at
    )
    assert verdicts == oracle_verdicts
    assert final_state == oracle_state
    assert subject.full_check_commit().committed


def scripted_ops(steps: int = 40, seed: int = 11) -> list[tuple]:
    """A fixed churn over the durable op vocabulary: mostly new orders,
    plus witness-adding, witness-removing, violating and catalog-drift
    ops in proportions that make every flavour fire."""
    rng = random.Random(seed)
    ops: list[tuple] = []
    for _ in range(steps):
        tag = rng.choice(
            ("new", "new", "new", "add", "strip", "drop", "empty", "flood", "ddl")
        )
        if tag == "new":
            ops.append(("new", rng.randint(1, 3)))
        elif tag == "empty":  # an itemless order violates the denial
            ops.append(("new", 0))
        elif tag == "add":
            ops.append(("add", rng.randrange(100), 5))
        elif tag == "ddl":
            ops.append(("ddl",))
        else:
            ops.append((tag, rng.randrange(100)))
    return ops


def test_scripted_churn_matches_full_oracle_across_a_crash(tmp_path):
    """Delta engine == full-plan oracle over the fixed churn, crashed
    and recovered half way: the delta plans come back cold, re-arm on
    clean commits, and planted violations of both assertions fire."""
    ops = scripted_ops()
    oracle = build_engine(Tintin(Database("oracle")), delta=False)
    oracle_verdicts, oracle_state, _ = run_ops(oracle, ops)

    path = str(tmp_path / "engine")
    subject = build_engine(Tintin.open(path, durability="commit"), delta=True)
    verdicts, final_state, subject = run_ops(
        subject, ops, crash_dir=path, crash_at=len(ops) // 2
    )
    assert verdicts == oracle_verdicts
    assert final_state == oracle_state
    assert any(c.delta_armed for c in subject.safe_commit_proc.compiled)
    rejected = [names for committed, names in verdicts if not committed]
    assert any("everyOrderHasMaxItem" in names for names in rejected)
    assert any("atMostThreeItems" in names for names in rejected)
