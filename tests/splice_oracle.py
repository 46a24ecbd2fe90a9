"""The splice read path: the reference the overlay-merge executor is
checked against.

Before overlay-merge reads existed, a session read its own staged
events by splicing them physically into the base tables under the
exclusive lock, running the query, and undoing the splice.  No other
session can read or commit in between, and base state is bit-identical
afterwards (undo replay) — but every reader is serialized and
``data_version`` stamps move.  The engine reads through
:meth:`repro.server.Session.query`; this module keeps the old path for
the differential tests only.
"""

from __future__ import annotations

from repro.errors import ConstraintViolation
from repro.minidb.storage import Table


def query_spliced(session, sql: str):
    """Run ``sql`` for ``session`` with its staged events spliced into
    the base tables, then restore them."""
    session._check_alive()
    if not session.has_pending_events():
        with session.scheduler.rwlock.read_locked():
            return session.db.query(sql)
    with session.scheduler.rwlock.write_locked():
        undo: list[tuple[str, Table, tuple]] = []
        try:
            _splice_in(session, undo)
            return session.db.query(sql)
        finally:
            _splice_out(undo)


def _splice_in(session, undo: list[tuple[str, Table, tuple]]) -> None:
    inserts, deletes = session.staged.snapshot()
    for name, rows in deletes.items():
        base = session.db.table(name)
        for row in rows:
            if base.delete_row(row):
                undo.append(("deleted", base, row))
            # a concurrent commit may have removed the row since it
            # was staged; the snapshot then simply lacks it
    for name, rows in inserts.items():
        base = session.db.table(name)
        for row in rows:
            try:
                base.insert(row)
            except ConstraintViolation:
                # another session committed the same key since
                # staging; the snapshot shows the committed row.
                # Anything else (type error, index corruption) is a
                # real failure and must propagate, not silently drop
                # the row from the snapshot.
                continue
            undo.append(("inserted", base, row))


def _splice_out(undo: list[tuple[str, Table, tuple]]) -> None:
    for action, base, row in reversed(undo):
        if action == "inserted":
            base.delete_row(row)
        else:
            base.insert(row)
