"""Route equivalence: every way to commit runs the same commit unit.

One seeded script — accepts, assertion rejects, PK/FK rejects, an
empty update, delete-then-reinsert — is run through each route the
engine offers (stored procedure, default session beside sessions,
``Session.commit`` under both policies and under per-commit
durability, a grouped window, 2PC prepare + decide).  Each must yield
the same verdict per step, the same final tables and, after
``close(checkpoint=False)`` + ``Tintin.open``, the same replayed state.
"""

from __future__ import annotations

import random

import pytest

from repro import Database, Tintin
from repro.server.scheduler import _PendingCommit

ORDERS_DDL = "CREATE TABLE orders (id INTEGER PRIMARY KEY, total DOUBLE)"
ITEMS_DDL = (
    "CREATE TABLE items (order_id INTEGER, n INTEGER, "
    "PRIMARY KEY (order_id, n), "
    "FOREIGN KEY (order_id) REFERENCES orders (id))"
)
ASSERTIONS = (
    "CREATE ASSERTION atLeastOneItem CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE NOT EXISTS ("
    "SELECT * FROM items AS i WHERE i.order_id = o.id)))",
    "CREATE ASSERTION maxThreeItems CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE (SELECT COUNT(*) FROM items AS i "
    "WHERE i.order_id = o.id) > 3))",
)


def script(seed: int) -> list[list[tuple[str, str, list[tuple]]]]:
    """Steps of ``(op, table, rows)`` staging calls; each step is one
    proposed update.  Keys and payloads come from the seed, the shape
    (which steps must be rejected, and why) does not."""
    rng = random.Random(seed)
    a, b, c, d = rng.sample(range(10, 1000), 4)

    def total() -> float:
        return float(rng.randrange(1, 500))

    ta, tb = total(), total()
    return [
        # accepts
        [("ins", "orders", [(a, ta)]), ("ins", "items", [(a, 1), (a, 2)])],
        [("ins", "orders", [(b, tb)]), ("ins", "items", [(b, 1)])],
        # assertion rejects: an itemless order; a fourth-and-fifth item
        [("ins", "orders", [(c, total())])],
        [("ins", "items", [(a, 3), (a, 4)])],
        # PK reject: a committed key with another payload
        [("ins", "orders", [(a, ta + 1.0)])],
        # FK reject: an item of an order nobody has
        [("ins", "items", [(d, 1)])],
        # the empty update
        [],
        # delete-then-reinsert cancels; the rest of the update applies
        [
            ("del", "items", [(a, 2)]),
            ("ins", "items", [(a, 2)]),
            ("del", "items", [(b, 1)]),
            ("ins", "items", [(b, 7)]),
        ],
        # assertion reject by deletion: the last item of an order
        [("del", "items", [(b, 7)])],
        # retire an order with its items; admit a new one
        [
            ("del", "items", [(a, 1), (a, 2)]),
            ("del", "orders", [(a, ta)]),
            ("ins", "orders", [(c, total())]),
            ("ins", "items", [(c, 1)]),
        ],
    ]


#: per step: committed?, and the assertions a rejection must name
EXPECTED = [
    (True, []),
    (True, []),
    (False, ["atLeastOneItem"]),
    (False, ["maxThreeItems"]),
    (False, []),
    (False, []),
    (True, []),
    (True, []),
    (False, ["atLeastOneItem"]),
    (True, []),
]


def verdict(result) -> tuple:
    return (
        result.committed,
        sorted(v.assertion for v in result.violations),
        result.applied_rows,
        result.checked_views,
        result.skipped_views,
    )


def state(db: Database) -> dict:
    return {
        t.schema.name: sorted(t.rows_snapshot())
        for t in db.catalog.tables(namespace="main")
    }


def stage_default(tintin, step) -> None:
    for op, table, rows in step:
        if op == "ins":
            tintin.db.insert_rows(table, rows)
        else:
            tintin.db.delete_rows(table, rows)


def stage_session(tintin, step):
    session = tintin.create_session()
    for op, table, rows in step:
        (session.insert if op == "ins" else session.delete)(table, rows)
    return session


# -- the routes: (engine options, per-step commit) --------------------------


def stored_procedure(tintin, step, index):
    assert not tintin.serving
    stage_default(tintin, step)
    return tintin.db.call("safeCommit")


def default_session_beside_sessions(tintin, step, index):
    assert tintin.sessions is not None and tintin.serving
    stage_default(tintin, step)
    return tintin.safe_commit()


def session_commit(tintin, step, index):
    return stage_session(tintin, step).commit()


def grouped_window(tintin, step, index):
    """The step shares one window with an empty companion request:
    compatible with anything, so the pair takes the group route (and a
    rejected union replays serially)."""
    scheduler = tintin.sessions.scheduler
    session = stage_session(tintin, step)
    members = []
    for events in (session.events.snapshot(), ({}, {})):
        member = _PendingCommit(
            session=None,
            inserts=events[0],
            deletes=events[1],
            footprint=scheduler._footprint(*events),
            transactions=session.transactions,
        )
        scheduler._queue.append(member)
        members.append(member)
    session.events.truncate()
    scheduler._process_batch()
    assert all(member.done.is_set() for member in members)
    assert members[1].result.committed
    if members[0].result.committed:
        assert members[0].result.group_size == 2
    return members[0].result


def prepare_and_decide(tintin, step, index):
    scheduler = tintin.sessions.scheduler
    session = stage_session(tintin, step)
    inserts, deletes = session.events.snapshot()
    session.discard()
    vote = scheduler.prepare_events(f"g{index}", inserts, deletes)
    if vote.committed:
        assert scheduler.decide_prepared(f"g{index}", True).committed
    assert not scheduler.has_prepared
    return vote


ROUTES = {
    "stored_procedure": ({}, stored_procedure),
    "default_session": ({}, default_session_beside_sessions),
    "serial_policy": ({"policy": "serial"}, session_commit),
    "group_policy": ({}, session_commit),
    "grouped_window": ({}, grouped_window),
    "per_commit_durability": ({"durability": "commit"}, session_commit),
    "prepare_decide": ({}, prepare_and_decide),
}


def run_route(name: str, path: str, seed: int):
    options, commit = ROUTES[name]
    tintin = Tintin.open(path, durability=options.get("durability", "batch"))
    tintin.db.execute(ORDERS_DDL)
    tintin.db.execute(ITEMS_DDL)
    tintin.install()
    for sql in ASSERTIONS:
        tintin.add_assertion(sql)
    if "policy" in options:
        tintin.serve(policy=options["policy"])
    verdicts = [
        verdict(commit(tintin, step, index))
        for index, step in enumerate(script(seed))
    ]
    final = state(tintin.db)
    assert not tintin.events.has_pending_events()
    tintin.close(checkpoint=False)
    reopened = Tintin.open(path)
    try:
        assert not reopened.recovery_report.in_doubt
        replayed = state(reopened.db)
        assert reopened.full_check_commit().committed
    finally:
        reopened.close()
    return verdicts, final, replayed


@pytest.mark.parametrize("seed", [7, 2016])
def test_every_route_decides_applies_and_replays_alike(tmp_path, seed):
    outcomes = {
        name: run_route(name, str(tmp_path / name), seed) for name in ROUTES
    }
    reference = outcomes["stored_procedure"]
    verdicts, final, replayed = reference
    assert [(v[0], v[1]) for v in verdicts] == EXPECTED
    assert replayed == final
    for name, outcome in outcomes.items():
        assert outcome[0] == verdicts, f"{name}: verdicts differ"
        assert outcome[1] == final, f"{name}: final tables differ"
        assert outcome[2] == final, f"{name}: replayed state differs"


def test_stored_procedure_takes_the_scheduler_window_once_serving():
    """The paper's call must be safe in every state: with sessions
    serving, ``db.call("safeCommit")`` is the same entry as
    ``tintin.safe_commit()`` — it goes through the scheduler's
    exclusive window instead of validating and applying beside it."""
    tintin = Tintin(Database("routes"))
    tintin.db.execute(ORDERS_DDL)
    tintin.db.execute(ITEMS_DDL)
    tintin.install()
    for sql in ASSERTIONS:
        tintin.add_assertion(sql)
    tintin.create_session()
    stats = tintin.sessions.scheduler.stats
    results = []
    for key, commit in (
        (1, lambda: tintin.db.call("safeCommit")),
        (2, tintin.safe_commit),
    ):
        tintin.db.execute(f"INSERT INTO orders VALUES ({key}, 5.0)")
        tintin.db.execute(f"INSERT INTO items VALUES ({key}, 1)")
        before = stats.commits
        results.append(commit())
        assert stats.commits == before + 1
    assert results[0].committed
    assert verdict(results[0]) == verdict(results[1])
    # ... and for a rejection
    rejections = []
    for key, commit in (
        (3, lambda: tintin.db.call("safeCommit")),
        (4, tintin.safe_commit),
    ):
        tintin.db.execute(f"INSERT INTO orders VALUES ({key}, 5.0)")
        rejections.append(commit())
    assert not rejections[0].committed
    assert verdict(rejections[0]) == verdict(rejections[1])
    assert len(tintin.db.table("orders")) == 2
