"""Differential fuzzing of the delta-aware check pipeline.

Hypothesis generates random DML churn — valid inserts, witness-removing
deletes, planted violations, catalog DDL and invariant-preserving
trigger-bypassing base writes — and drives it through two engines
built identically:

* the **subject**, the stock engine, whose guard-mode EDC runs its
  seeded delta plan, and
* the **oracle**, forced onto the full view by
  :class:`FullPlanSafeCommit`.

Every commit must produce the same verdict and the same violation set
on both; the final base-table states must be identical; and a closing
``full_check_commit`` on the subject must be clean.  Every run ends
with a commit that wakes the seeded EDC, and each test asserts that
the subject ran the delta plan and the oracle never did — so neither
side can silently fall onto the other's path.  A second property
replays the same churn across a *real* crash/recovery boundary (WAL
replay; the recovered engine's first waking commit runs the delta
plan), and a fixed seeded churn does the same with every op flavour
guaranteed to fire.

The schema is the small orders/items pair with a triple-nested seeded
denial (``everyOrderHasMaxItem``) and a COUNT aggregate
(``atMostThreeItems``) so every delta-path flavour is on the table.
"""

from __future__ import annotations

import random

from dataclasses import replace

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


#: the profile label of the seeded EDC's delta plan
DELTA_LABEL = "everyOrderHasMaxItem3.delta"
#: the same EDC checked through its full view
FULL_LABEL = "everyOrderHasMaxItem3"
#: a commit that wakes the seeded EDC (an item is inserted), ending
#: every run so that each one checks through it at least once
WAKE = ("new", 1)


class FullPlanSafeCommit(SafeCommit):
    """``safeCommit`` without the seeded delta path: every EDC is
    registered without its delta plan, so the seeded one runs its full
    view.  Test-side oracle — the engine itself has no such switch."""

    def register(self, compiled):
        super().register(replace(compiled, delta_prepared=None))


def build_engine(tintin: Tintin, delta: bool) -> Tintin:
    if not delta:
        tintin.safe_commit_proc = FullPlanSafeCommit()
    tintin.enable_profiling()
    db = tintin.db
    db.execute(ORDERS_DDL)
    db.execute(ITEMS_DDL)
    tintin.install()
    tintin.add_assertion(MAX_ITEM)
    tintin.add_assertion(COUNT_CAP)
    return tintin


def seeded_checks(tintin: Tintin) -> tuple[int, int]:
    """``(delta plan runs, full view runs)`` of the seeded EDC so far."""
    profile = tintin.profile()
    return tuple(
        profile.get(label, {}).get("checks", 0)
        for label in (DELTA_LABEL, FULL_LABEL)
    )


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
    st.just(("ddl",)),  # catalog change
    st.just(("bulk",)),  # trigger-bypassing, invariant-preserving write
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
)
durable_ops_strategy = st.lists(durable_op_strategy, min_size=1, max_size=25)


def run_ops(tintin: Tintin, ops, crash_dir: str | None = None,
            crash_at: int | None = None):
    """Interpret ``ops`` then :data:`WAKE`; returns (verdicts, final
    state, engine, delta plan runs, full view runs).

    ``verdicts`` is one ``(committed, violated names)`` pair per
    checked commit.  With ``crash_dir``/``crash_at`` set, the engine is
    abandoned before op ``crash_at`` and rebuilt via :func:`recover`;
    the recovered engine's first commit that wakes the seeded EDC must
    run its delta plan.
    """
    orders: dict[int, list[int]] = {}
    next_id = 1
    ddl_count = 0
    verdicts = []
    delta_runs = full_runs = 0
    recovered = False
    for index, op in enumerate([*ops, WAKE]):
        if crash_at is not None and index == crash_at:
            delta, full = seeded_checks(tintin)
            delta_runs, full_runs = delta_runs + delta, full_runs + full
            del tintin  # simulated crash — never closed
            tintin, _report = recover(crash_dir)
            tintin.enable_profiling()
            recovered = True
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
            # invariant-preserving direct write around the triggers
            oid, next_id = next_id, next_id + 1
            db.insert_rows("orders", [(oid, 1.0)], bypass_triggers=True)
            db.insert_rows("items", [(oid, 1, 5)], bypass_triggers=True)
            orders[oid] = [1]
            continue
        result = tintin.safe_commit()
        names = sorted(v.assertion for v in result.violations)
        verdicts.append((result.committed, names))
        assert result.committed == expected, (
            f"op {index} {op}: expected committed={expected}, "
            f"got {result.committed} ({names})"
        )
        if recovered and sum(seeded_checks(tintin)):
            assert seeded_checks(tintin) == (1, 0), (
                "the recovered engine's first waking commit must run "
                "the delta plan"
            )
            recovered = False
    assert not recovered, "no commit woke the seeded EDC after recovery"
    delta, full = seeded_checks(tintin)
    return (
        verdicts,
        state(tintin.db),
        tintin,
        delta_runs + delta,
        full_runs + full,
    )


def assert_paths(subject_runs: tuple, oracle_runs: tuple) -> None:
    """The subject checked through the delta plan only, the oracle
    through the full view only."""
    assert subject_runs[0] >= 1 and subject_runs[1] == 0, subject_runs
    assert oracle_runs[0] == 0 and oracle_runs[1] >= 1, oracle_runs


@given(ops_strategy)
@settings(max_examples=60, deadline=None)
def test_delta_pipeline_matches_full_oracle(ops):
    oracle = build_engine(Tintin(Database("oracle")), delta=False)
    subject = build_engine(Tintin(Database("subject")), delta=True)
    oracle_verdicts, oracle_state, _, *oracle_runs = run_ops(oracle, ops)
    verdicts, final_state, subject, *subject_runs = run_ops(subject, ops)
    assert verdicts == oracle_verdicts
    assert final_state == oracle_state
    assert_paths(subject_runs, oracle_runs)
    # the delta shortcuts never leave a violation behind
    assert subject.full_check_commit().committed


@given(durable_ops_strategy, st.integers(0, 24))
@settings(max_examples=15, deadline=None)
def test_delta_pipeline_survives_recovery(tmp_path_factory, ops, crash_pos):
    oracle = build_engine(Tintin(Database("oracle")), delta=False)
    oracle_verdicts, oracle_state, _, *oracle_runs = run_ops(oracle, ops)

    path = str(tmp_path_factory.mktemp("delta") / "engine")
    subject = build_engine(Tintin.open(path, durability="commit"), delta=True)
    crash_at = crash_pos % len(ops)
    verdicts, final_state, subject, *subject_runs = run_ops(
        subject, ops, crash_dir=path, crash_at=crash_at
    )
    assert verdicts == oracle_verdicts
    assert final_state == oracle_state
    assert_paths(subject_runs, oracle_runs)
    assert subject.full_check_commit().committed


def scripted_ops(steps: int = 40, seed: int = 11) -> list[tuple]:
    """A fixed churn over the durable op vocabulary: mostly new orders,
    plus witness-adding, witness-removing, violating and catalog DDL
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
    """Delta engine == full-view oracle over the fixed churn, crashed
    and recovered half way: the recovered engine checks through its
    delta plan from its first waking commit on, and planted violations
    of both assertions fire."""
    ops = scripted_ops()
    oracle = build_engine(Tintin(Database("oracle")), delta=False)
    oracle_verdicts, oracle_state, _, *oracle_runs = run_ops(oracle, ops)

    path = str(tmp_path / "engine")
    subject = build_engine(Tintin.open(path, durability="commit"), delta=True)
    verdicts, final_state, subject, *subject_runs = run_ops(
        subject, ops, crash_dir=path, crash_at=len(ops) // 2
    )
    assert verdicts == oracle_verdicts
    assert final_state == oracle_state
    assert_paths(subject_runs, oracle_runs)
    rejected = [names for committed, names in verdicts if not committed]
    assert any("everyOrderHasMaxItem" in names for names in rejected)
    assert any("atMostThreeItems" in names for names in rejected)
