"""Threaded multi-client demo: sessions, snapshot reads, group commit.

Four clients hammer one TINTIN instance concurrently.  Each owns a
:class:`repro.server.Session` — a private staging area mirroring the
paper's event tables — so nobody observes anyone else's uncommitted
update.  Commits funnel through the serialized scheduler: a commit
window validates and applies its members one by one, in arrival order,
and the committed ones share one fsync (group commit).  One client
repeatedly proposes an invalid update and gets each one rejected with
the offending assertion, while everyone else keeps committing.

Run:  PYTHONPATH=src python examples/multi_client.py
"""

import tempfile
import threading

from repro import Tintin

CLIENTS = 4
ROUNDS = 10


def build_shop(directory: str) -> Tintin:
    tintin = Tintin.open(directory, durability="batch")
    db = tintin.db
    db.execute("CREATE TABLE orders (id INTEGER PRIMARY KEY)")
    db.execute(
        "CREATE TABLE items (order_id INTEGER, n INTEGER, qty INTEGER, "
        "PRIMARY KEY (order_id, n), "
        "FOREIGN KEY (order_id) REFERENCES orders (id))"
    )
    tintin.install()
    tintin.add_assertion(
        "CREATE ASSERTION atLeastOneItem CHECK (NOT EXISTS ("
        "SELECT * FROM orders AS o WHERE NOT EXISTS ("
        "SELECT * FROM items AS i WHERE i.order_id = o.id)))"
    )
    tintin.add_assertion(
        "CREATE ASSERTION positiveQty CHECK (NOT EXISTS ("
        "SELECT * FROM items AS i WHERE i.qty < 1))"
    )
    # a small gather window lets concurrent commits share a window
    tintin.serve(gather_seconds=0.001)
    return tintin


def well_behaved_client(tintin: Tintin, client: int, log: list) -> None:
    session = tintin.create_session()
    for round_no in range(ROUNDS):
        key = client * 1000 + round_no
        session.execute(f"INSERT INTO orders VALUES ({key})")
        session.execute(f"INSERT INTO items VALUES ({key}, 1, 5)")
        # read-your-writes: the staged order is already visible *here*
        mine = session.query(
            f"SELECT * FROM orders WHERE id = {key}"
        )
        assert len(mine) == 1
        result = session.commit()
        log.append(f"client {client} round {round_no}: {result}")


def rule_breaking_client(tintin: Tintin, client: int, log: list) -> None:
    session = tintin.create_session()
    for round_no in range(ROUNDS):
        key = client * 1000 + round_no
        # an order with no items: atLeastOneItem must reject it
        session.execute(f"INSERT INTO orders VALUES ({key})")
        result = session.commit()
        verdict = result.violations[0] if result.violations else result
        log.append(f"client {client} round {round_no}: REJECTED — {verdict}")


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        tintin = build_shop(directory)
        try:
            run(tintin)
        finally:
            tintin.close()


def run(tintin: Tintin) -> None:
    logs: dict[int, list] = {c: [] for c in range(CLIENTS)}
    workers = []
    for client in range(CLIENTS):
        target = (
            rule_breaking_client if client == CLIENTS - 1 else well_behaved_client
        )
        workers.append(
            threading.Thread(target=target, args=(tintin, client, logs[client]))
        )
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()

    for client in range(CLIENTS):
        print(f"--- client {client} ---")
        for line in logs[client][:3]:
            print(" ", line)
        if len(logs[client]) > 3:
            print(f"  ... {len(logs[client]) - 3} more")

    db = tintin.db
    stats = tintin.sessions.scheduler.stats
    print("\n--- server ---")
    print(
        f"{len(db.table('orders'))} orders committed; "
        f"{(CLIENTS - 1) * ROUNDS} expected from well-behaved clients"
    )
    print(
        f"scheduler: {stats.commits} commits in {stats.batches} windows "
        f"(largest {stats.max_group_size}); {stats.wal_appends} WAL "
        f"records made durable by {stats.wal_fsyncs} fsyncs"
    )
    assert len(db.table("orders")) == (CLIENTS - 1) * ROUNDS


if __name__ == "__main__":
    main()
