"""The shard worker: one full TINTIN engine behind a pipe.

Each worker is a separate OS process (spawned, never forked — the
router's host process is threaded) owning one shard's catalog,
scheduler, write-ahead log and checkpoint set rooted at its own
directory.  The router speaks a tuple protocol over a
``multiprocessing`` pipe; every request gets exactly one reply, in
request order: ``("ok", payload)`` or ``("error", type_name,
message)``.  That is what lets the router scatter a request to every
shard and gather the replies afterwards — a pipe never falls out of
step, whatever a request's outcome.

Deadlines cross the pipe as *relative* remaining seconds, never as
absolute instants: each process has its own ``time.monotonic()``
origin, so an absolute monotonic deadline from the router would be
meaningless here (and a wall-clock deadline would break under an
NTP step).

Two-phase commit discipline enforced here:

* a ``prepare`` answers only after its prepare record is fsynced —
  the durable record is the yes vote;
* a ``decide`` appends its record **unsynced** and answers at once:
  the coordinator's fsynced decision log resolves a lost decide, and
  the next fsync on this shard's WAL (any later commit's, prepare's or
  checkpoint's) makes it durable before anything that follows it;
* at bootstrap, every in-doubt transaction recovery reports (a WAL
  prepare record with no decide — including one whose decide was
  lost) is re-adopted as prepared, and its gid is surfaced in the
  hello payload so the router can resolve it against the
  coordinator's decision log;
* ``checkpoint`` is refused while a prepared transaction is pending —
  a checkpoint truncates the WAL, and the prepare record *is* this
  shard's yes vote;
* ``close`` skips its final checkpoint under the same condition, so
  the vote survives a clean shutdown into the next recovery.
"""

from __future__ import annotations

import os
import time


def shard_worker_main(
    conn,
    directory: str,
    shard_id: int,
    durability: str = "batch",
    gather_seconds: float = 0.0,
) -> None:
    """Process entry point: open the shard's engine, serve the pipe."""
    # imports happen post-spawn so the child builds its own module state
    from ..core.tintin import Tintin
    from ..net.server import commit_result_payload

    tintin = Tintin.open(directory, durability=durability)
    scheduler = tintin.sessions.scheduler
    scheduler.gather_seconds = gather_seconds
    report = tintin.recovery_report
    in_doubt: list[str] = []
    if report is not None:
        for gid in sorted(getattr(report, "in_doubt", {})):
            inserts, deletes = report.in_doubt[gid]
            scheduler.adopt_prepared(gid, inserts, deletes)
            in_doubt.append(gid)
    conn.send(
        (
            "hello",
            {
                "shard": shard_id,
                "in_doubt": in_doubt,
                "recovered": report is not None,
            },
        )
    )

    running = True
    while running:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            # router went away; fall through to a clean engine close
            break
        command = message[0]
        try:
            if command == "crash":
                # simulate a power cut: no close, no checkpoint, no
                # flush — recovery must rebuild from WAL alone
                os._exit(1)
            elif command == "execute":
                result = tintin.db.execute(message[1])
                if hasattr(result, "columns"):
                    reply = (list(result.columns), list(result.rows))
                else:
                    reply = result
                conn.send(("ok", reply))
            elif command == "install":
                conn.send(("ok", tintin.install()))
            elif command == "assertion":
                conn.send(("ok", tintin.add_assertion(message[1]).name))
            elif command == "commit":
                _, inserts, deletes, remaining = message
                deadline = (
                    None
                    if remaining is None
                    else time.monotonic() + remaining
                )
                result = scheduler.commit_events(
                    inserts, deletes, deadline=deadline
                )
                conn.send(("ok", commit_result_payload(result)))
            elif command == "prepare":
                _, gid, inserts, deletes, remaining = message
                deadline = (
                    None
                    if remaining is None
                    else time.monotonic() + remaining
                )
                result = scheduler.prepare_events(
                    gid, inserts, deletes, deadline=deadline
                )
                conn.send(("ok", commit_result_payload(result)))
            elif command == "decide":
                _, gid, verdict = message
                result = scheduler.decide_prepared(gid, verdict)
                conn.send(
                    (
                        "ok",
                        None
                        if result is None
                        else commit_result_payload(result),
                    )
                )
            elif command == "query":
                with scheduler.rwlock.read_locked():
                    result = tintin.db.execute(message[1])
                conn.send(
                    ("ok", (list(result.columns), list(result.rows)))
                )
            elif command == "checkpoint":
                if scheduler.has_prepared:
                    conn.send(
                        (
                            "error",
                            "ShardError",
                            "checkpoint refused: a prepared transaction "
                            "is in doubt and its WAL prepare record is "
                            "the only evidence of this shard's yes vote",
                        )
                    )
                else:
                    tintin.checkpoint()
                    conn.send(("ok", None))
            elif command == "stats":
                conn.send(("ok", scheduler.stats.snapshot()))
            elif command == "close":
                tintin.close(checkpoint=not scheduler.has_prepared)
                conn.send(("ok", None))
                running = False
            else:
                conn.send(
                    ("error", "ShardError", f"unknown command {command!r}")
                )
        except BaseException as exc:
            try:
                conn.send(("error", type(exc).__name__, str(exc)))
            except (BrokenPipeError, OSError):
                break
    else:
        conn.close()
        return
    # EOF path: the router vanished without a close command
    if tintin.durability is not None:
        tintin.close(checkpoint=not scheduler.has_prepared)
    conn.close()
