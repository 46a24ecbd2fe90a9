"""Checkpoints: atomic full-state snapshots that bound WAL replay.

A checkpoint is one JSON document holding everything needed to rebuild
the engine without replaying history: every ``main``-namespace table
(schema + rows, in creation order so foreign-key validation succeeds on
reload), whether capture is installed and on which tables, the installed
assertions' source SQL (recovery re-runs the compilation pipeline, so
the EDC views never need to be serialized), the catalog shape
signature, and the WAL sequence number the snapshot covers.

Atomicity is write-to-temp-then-rename: the temp file is fsynced, then
``os.replace`` swaps it in, then the directory is fsynced.  A crash at
any point leaves either the old checkpoint or the new one — never a
half-written file.  After a successful checkpoint the caller truncates
the WAL; a crash *between* rename and truncation is harmless because
replay skips records with ``seq <= wal_seq``.

Deliberately **not** checkpointed: global event tables and per-session
staging areas.  Staged-but-uncommitted updates are not durable — only
``safeCommit``-accepted batches are, exactly the transaction-boundary
semantics the paper's safeCommit defines.
"""

from __future__ import annotations

import json
import os
from typing import Optional, TYPE_CHECKING

from ..errors import DurabilityError, RecoveryError
from .wal import _fsync_directory, _nan_guard

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.tintin import Tintin

#: current checkpoint document format
CHECKPOINT_FORMAT = 1

CHECKPOINT_FILE = "checkpoint.json"

#: how many times :func:`load_checkpoint` parsed a checkpoint document
#: in this process — the single-pass-open regression asserts the delta
_load_count = 0


def checkpoint_load_count() -> int:
    """Process-lifetime count of checkpoint parses."""
    return _load_count


def _json_rows(rows) -> list[list]:
    """Rows as JSON-ready lists (tuples do not survive JSON), with the
    WAL codec's NaN refusal applied: a checkpoint must never hold a
    value the log would have rejected."""
    payload = []
    for row in rows:
        for value in row:
            if isinstance(value, float):
                _nan_guard(value)
        payload.append(list(row))
    return payload


def build_checkpoint_payload(tintin: "Tintin", wal_seq: int) -> dict:
    """Snapshot the engine as a JSON-ready checkpoint document.

    The caller must hold whatever lock excludes concurrent commits
    (the scheduler's write lock when the server layer is active);
    concurrent *DDL* is excluded here, by building the whole payload
    under the catalog's own lock — so the tables, views, version,
    shape signature and ``wal_seq`` are one consistent cut.
    """
    db = tintin.db
    with db.catalog._lock:
        return _build_checkpoint_locked(tintin, wal_seq)


def _build_checkpoint_locked(tintin: "Tintin", wal_seq: int) -> dict:
    db = tintin.db
    tables = []
    for table in db.catalog.tables(namespace=None):
        if table.namespace != "main":
            continue  # event/session staging is not durable state
        tables.append(
            {
                "schema": table.schema.to_dict(),
                "namespace": table.namespace,
                "rows": _json_rows(table.rows_snapshot()),
            }
        )
    # creation order, not name order: children must be re-created after
    # the parents their foreign keys reference
    tables = _in_creation_order(db, tables)
    return {
        "format": CHECKPOINT_FORMAT,
        "database": db.name,
        "wal_seq": wal_seq,
        "catalog_version": db.catalog.version,
        "shape_signature": db.catalog.shape_signature(),
        "tables": tables,
        # an installed engine may capture no table (none yet, or its
        # captured tables were dropped): it still owns the safeCommit
        # procedure the shape signature counts
        "installed": tintin.installed,
        "captured": list(tintin.events.captured_tables),
        "assertions": [
            {"sql": a.sql} for a in tintin.assertions.values()
        ],
        # every view, in creation order, as printed SQL.  Assertion-
        # generated views are re-created by assertion replay and are
        # simply skipped at restore time; this list is what brings
        # *user* views back (and lets the shape signature verify).
        "views": _views_payload(db),
        "row_counts": {
            t["schema"]["name"]: len(t["rows"]) for t in tables
        },
    }


def _in_creation_order(db, tables: list[dict]) -> list[dict]:
    """Order serialized tables so every FK parent precedes its children
    (creation order is FK-topological; see
    :meth:`Catalog.tables_in_creation_order`)."""
    created = [
        t.schema.name
        for t in db.catalog.tables_in_creation_order(namespace="main")
    ]
    rank = {name.lower(): i for i, name in enumerate(created)}
    return sorted(tables, key=lambda t: rank[t["schema"]["name"].lower()])


def _views_payload(db) -> list[dict]:
    from ..sqlparser.printer import print_query

    # the catalog's internal dict preserves creation order, so views
    # that build on earlier views restore in a working order
    return [
        {"name": v.name, "sql": print_query(v.query)}
        for v in db.catalog._views.values()
    ]


def checkpoint_path(directory: str) -> str:
    return os.path.join(directory, CHECKPOINT_FILE)


def write_checkpoint(directory: str, payload: dict) -> str:
    """Durably install ``payload`` as the directory's checkpoint.

    The document is encoded in one ``json.dumps`` call and written in
    one write: a one-shot ``dumps`` runs json's C encoder, where
    ``json.dump`` to a file always takes the pure-Python
    ``iterencode`` path.  The bytes are the same either way.
    """
    final = checkpoint_path(directory)
    temp = final + ".tmp"
    text = json.dumps(payload, separators=(",", ":"))
    with open(temp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, final)
    _fsync_directory(directory)
    return final


def load_checkpoint(directory: str) -> Optional[dict]:
    """Read and validate the directory's checkpoint (None if absent)."""
    global _load_count
    path = checkpoint_path(directory)
    if not os.path.exists(path):
        return None
    _load_count += 1
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise DurabilityError(f"unreadable checkpoint {path!r}: {exc}") from exc
    if not isinstance(payload, dict) or "format" not in payload:
        raise DurabilityError(f"checkpoint {path!r} is not a checkpoint document")
    if payload["format"] != CHECKPOINT_FORMAT:
        raise DurabilityError(
            f"checkpoint {path!r} has format {payload['format']}, "
            f"this build reads format {CHECKPOINT_FORMAT}"
        )
    for table in payload.get("tables", ()):
        name = table["schema"]["name"]
        expected = payload.get("row_counts", {}).get(name)
        if expected is not None and expected != len(table["rows"]):
            raise RecoveryError(
                f"checkpoint row-count mismatch for table {name!r}: "
                f"recorded {expected}, found {len(table['rows'])}"
            )
    return payload
