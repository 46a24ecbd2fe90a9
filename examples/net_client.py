"""Remote sessions over the network front end.

Starts a TINTIN server on a loopback port, runs remote sessions
through the binary protocol, then forces an overload to show
load shedding with ``retry_after`` handling, and finishes with a
graceful drain.

Run:  PYTHONPATH=src python examples/net_client.py
"""

import threading
import time

from repro.core import Tintin
from repro.errors import OverloadError
from repro.minidb import Database
from repro.net import FaultInjector, TintinClient


def build_engine() -> Tintin:
    db = Database("shop")
    db.execute("CREATE TABLE stock (sku INT NOT NULL, qty INT)")
    tintin = Tintin(db)
    tintin.install()
    tintin.add_assertion(
        "CREATE ASSERTION nonNegativeStock CHECK (NOT EXISTS ("
        "SELECT * FROM stock AS s WHERE s.qty < 0))"
    )
    return tintin


def main() -> None:
    tintin = build_engine()
    faults = FaultInjector()  # used below to force a tiny overload
    server = tintin.listen(max_depth=1, commit_workers=1, faults=faults)
    host, port = server.address
    print(f"server listening on {host}:{port}")

    # -- a normal remote session ------------------------------------------
    client = TintinClient(host, port, priority=1)
    print(f"connected: session {client.session_id}")
    client.insert("stock", [(1, 10), (2, 4)])  # deferred: sent with the commit
    verdict = client.commit(timeout=5.0)
    print(f"commit #1: committed={verdict['committed']} "
          f"applied={verdict['applied_rows']}")

    # read-your-writes plus the committed state, over the wire
    client.execute("UPDATE stock SET qty = qty - 1 WHERE sku = 1")
    rows = client.query("SELECT sku, qty FROM stock")
    print(f"staged view: {rows.rows}")
    verdict = client.commit()
    print(f"commit #2: committed={verdict['committed']}")

    # a rejected update: the assertion stops negative stock
    client.execute("UPDATE stock SET qty = qty - 100 WHERE sku = 2")
    verdict = client.commit()
    print(f"commit #3: committed={verdict['committed']} "
          f"violations={verdict['violations']}")

    # -- forced overload ---------------------------------------------------
    # stall the scheduler for a moment so commits pile into the
    # (deliberately tiny) admission queue; the surplus is shed with a
    # retry-after hint instead of queueing without bound
    faults.delay("scheduler.window", 0.4, times=1)
    holder = TintinClient(host, port)
    holder.insert("stock", [(3, 7)])
    background = threading.Thread(target=holder.commit)
    background.start()
    time.sleep(0.1)  # the holder now owns the only admission slot

    client.insert("stock", [(4, 1)])
    try:
        client.commit(retry=False)  # see the raw overload verdict
    except OverloadError as exc:
        print(f"shed: {exc} (retry_after={exc.retry_after:.3f}s)")
        time.sleep(exc.retry_after)
        # the retry-aware path does this loop for you.  The retry
        # sends the COMMIT frame alone: the insert travelled with the
        # shed commit and was staged then — staging happens outside
        # admission — so the row is committed once, not staged twice
        verdict = client.commit(timeout=5.0)
        print(f"retried commit: committed={verdict['committed']}")
    background.join()

    print(f"health: {client.health()}")
    shed = client.metrics()["admission"]["shed_total"]
    print(f"admission shed_total: {shed}")

    # -- graceful shutdown -------------------------------------------------
    client.close()
    holder.close()
    drained = server.shutdown()  # stop accepting, drain, close engine
    print(f"graceful shutdown drained cleanly: {drained}")
    final = tintin.db.query("SELECT sku, qty FROM stock").rows
    print(f"final state: {sorted(final)}")


if __name__ == "__main__":
    main()
