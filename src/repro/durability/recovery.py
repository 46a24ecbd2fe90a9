"""Crash recovery: checkpoint load + redo replay of the WAL tail.

Recovery is redo-only (the classic ARIES simplification for a log that
holds only *committed* batches): load the latest checkpoint if one
exists, then re-apply every WAL record whose sequence the checkpoint
does not cover, in order, through the very same machinery that applied
it the first time — DDL through the catalog, assertions through the
full TINTIN compilation pipeline, and committed event batches through
``Database.apply_batch``.  There is nothing to undo: a batch only
reaches the log after validation succeeded and the apply committed.

The recovery pass is the durable open's *only* disk read: the
:class:`RecoveryReport` carries the checkpoint's ``wal_seq``, the
highest WAL sequence, and the log's decodable prefix length, and
``Tintin.open`` hands all of it to the :class:`~repro.durability
.manager.DurabilityManager` — which therefore neither re-parses the
checkpoint nor re-scans the WAL.  One checkpoint parse, one log scan,
per open.

Checkpoint restore creates the tables in FK (creation) order and loads
each table's rows in one pass of its generated row writer
(:meth:`Table.load_rows <repro.minidb.storage.Table.load_rows>`).
Binary records name their tables, so replay decodes each one on its
own, in place in the scanned file.

Verification is built in rather than bolted on:

* the checkpoint's per-table row counts are compared against the rows
  actually loaded;
* the checkpoint's catalog :meth:`shape_signature
  <repro.minidb.catalog.Catalog.shape_signature>` is recomputed after
  the rebuild — if assertion re-compilation produced different views
  (version skew between writer and reader), recovery refuses;
* ``batch`` records carry the per-table row counts observed right
  after the original apply; replay re-verifies each one;
* record sequences must be strictly increasing, and a damaged record
  is only tolerated at the very tail of the log (torn write).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Optional

from ..errors import DatabaseError, DurabilityError, RecoveryError
from ..minidb.database import Database
from ..minidb.schema import TableSchema
from .checkpoint import load_checkpoint
from .wal import (
    WalRecord,
    WalScan,
    decode_batch,
    decode_decide,
    decode_prepare,
    read_wal,
)

WAL_FILE = "wal.log"


def wal_path(directory: str) -> str:
    return os.path.join(directory, WAL_FILE)


def has_durable_state(directory: str) -> bool:
    """Whether the directory holds anything to recover from."""
    from .checkpoint import checkpoint_path

    return os.path.exists(checkpoint_path(directory)) or os.path.exists(
        wal_path(directory)
    )


@dataclass
class RecoveryReport:
    """What one recovery pass found and did.

    Beyond the human-facing summary, the report is the single-pass
    open's handoff: ``checkpoint_seq``, ``last_seq``,
    ``wal_valid_length`` and ``wal_file_length`` tell the durability
    manager everything a reopen-for-append needs, so it never touches
    the checkpoint or scans the log a second time.
    """

    directory: str
    checkpoint_used: bool = False
    checkpoint_seq: int = 0
    records_seen: int = 0
    records_replayed: int = 0
    batches_replayed: int = 0
    rows_applied: int = 0
    ddl_replayed: int = 0
    torn_tail: Optional[str] = None
    torn_bytes: int = 0
    last_seq: int = 0
    seconds: float = 0.0
    tables: dict[str, int] = field(default_factory=dict)
    #: decodable prefix length of ``wal.log`` (None: no file on disk)
    wal_valid_length: Optional[int] = None
    #: on-disk byte size of ``wal.log`` the scan saw (None: no file)
    wal_file_length: Optional[int] = None
    #: 2PC prepare records replayed (whether or not later decided)
    prepares_seen: int = 0
    #: 2PC decide records replayed
    decides_seen: int = 0
    #: prepares with no decide by log's end — *in doubt*: the events
    #: were durably voted yes but the coordinator's verdict never
    #: reached this log.  ``{gid: (inserts, deletes)}``; the shard
    #: router resolves each against the coordinator's decision log
    #: (commit found → apply, absent → presumed abort) before the
    #: engine serves traffic.
    in_doubt: dict[str, tuple[dict, dict]] = field(default_factory=dict)

    def __str__(self) -> str:
        source = "checkpoint + WAL" if self.checkpoint_used else "WAL"
        tail = (
            f", torn tail truncated ({self.torn_tail}, {self.torn_bytes}B)"
            if self.torn_tail
            else ""
        )
        return (
            f"recovered from {source}: {self.records_replayed} record(s) "
            f"replayed ({self.batches_replayed} batch(es), "
            f"{self.rows_applied} row change(s), {self.ddl_replayed} DDL) "
            f"in {self.seconds * 1000:.1f}ms{tail}"
        )


def recover(
    directory: str, optimize: bool = True
) -> tuple["Tintin", RecoveryReport]:  # noqa: F821
    """Rebuild a :class:`~repro.core.tintin.Tintin` engine from disk.

    Pure function of the on-disk state: it does **not** attach a
    durability manager to the result (``Tintin.open`` layers that on
    top).  Raises :class:`RecoveryError` when verification fails and
    :class:`~repro.errors.WALCorruptionError` when the log is foreign
    or of the pre-v2 generation.
    """
    from ..core.tintin import Tintin  # local: core imports durability

    start = time.perf_counter()
    report = RecoveryReport(directory=directory)
    checkpoint = load_checkpoint(directory)
    path = wal_path(directory)
    scan = WalScan()
    if os.path.exists(path):
        scan = read_wal(path)
        report.wal_valid_length = scan.valid_length
        report.wal_file_length = scan.valid_length + scan.torn_bytes
    report.records_seen = len(scan.records)
    report.torn_tail = scan.tail_error
    report.torn_bytes = scan.torn_bytes

    name = "db"
    if checkpoint is not None:
        name = checkpoint.get("database", name)
    elif scan.records and scan.records[0].type == "open":
        name = scan.records[0].fields.get("database", name)
    db = Database(name)
    tintin = Tintin(db, optimize=optimize)

    checkpoint_seq = 0
    if checkpoint is not None:
        checkpoint_seq = checkpoint.get("wal_seq", 0)
        _restore_checkpoint(tintin, checkpoint, report)
        report.checkpoint_used = True
        report.checkpoint_seq = checkpoint_seq

    last_seq = checkpoint_seq
    for record in scan.records:
        seq = record.seq
        if seq <= checkpoint_seq:
            continue  # the checkpoint already covers this record
        if seq <= last_seq:
            raise RecoveryError(
                f"WAL sequence went backwards at record {seq} "
                f"(after {last_seq}) — the log is inconsistent"
            )
        last_seq = seq
        _replay_record(tintin, record, report, scan.data)
        report.records_replayed += 1
    report.last_seq = (
        max(last_seq, scan.records[-1].seq) if scan.records else last_seq
    )

    report.tables = {
        t.schema.name: len(t) for t in db.catalog.tables(namespace="main")
    }
    report.seconds = time.perf_counter() - start
    return tintin, report


# -- checkpoint restoration -------------------------------------------------


def _restore_checkpoint(
    tintin, checkpoint: dict, report: RecoveryReport
) -> None:
    db = tintin.db
    # tables are created in FK (creation) order — add_table validates
    # referenced parents exist — and each is loaded before the next
    expected_counts = checkpoint.get("row_counts", {})
    for entry in checkpoint.get("tables", ()):
        schema = TableSchema.from_dict(entry["schema"])
        table = db.catalog.add_table(schema, entry.get("namespace", "main"))
        loaded = table.load_rows(entry["rows"])
        expected = expected_counts.get(schema.name)
        if expected is not None and loaded != expected:
            raise RecoveryError(
                f"table {schema.name!r}: checkpoint recorded "
                f"{expected} row(s), loaded {loaded}"
            )
    captured = checkpoint.get("captured", ())
    if captured or checkpoint.get("installed"):
        tintin.install(list(captured))
    # the premise check ran when each assertion was first installed;
    # the restored state may hold bypass-loaded rows it never saw
    for entry in checkpoint.get("assertions", ()):
        tintin._install_assertion(entry["sql"])
    # user views: whatever assertion replay did not already re-create
    from ..sqlparser.parser import parse_statement

    for entry in checkpoint.get("views", ()):
        if not db.catalog.has_view(entry["name"]):
            db.create_view(entry["name"], parse_statement(entry["sql"]).query)
    signature = checkpoint.get("shape_signature")
    if signature is not None and db.catalog.shape_signature() != signature:
        raise RecoveryError(
            "catalog shape after checkpoint restore does not match the "
            "signature the checkpoint recorded — writer/reader version skew?"
        )


# -- WAL replay -------------------------------------------------------------


def _replay_record(
    tintin, record: WalRecord, report: RecoveryReport, data: bytes
) -> None:
    db = tintin.db
    kind, seq, start, end, fields = record
    if fields is None:
        # a binary frame: decode its span of the file in place
        try:
            if kind == "batch":
                inserts, deletes, counts = decode_batch(data, start, end)
            elif kind == "prepare":
                gid, inserts, deletes, _ = decode_prepare(data, start, end)
            else:  # "decide"
                gid, commit, counts = decode_decide(data, start, end)
        except DurabilityError as exc:
            raise RecoveryError(
                f"{kind} record seq={seq} cannot be decoded: {exc}"
            ) from exc
        if kind == "batch":
            _replay_batch(tintin, seq, inserts, deletes, counts, report)
        elif kind == "prepare":
            _replay_prepare(gid, seq, inserts, deletes, report)
        else:
            _replay_decide(tintin, gid, seq, commit, counts, report)
        return
    if kind in ("open", "checkpoint", "truncate"):
        # informational markers: the database name was read up front,
        # checkpointed state lives in the checkpoint file, and the
        # truncate marker only carries the sequence high-water mark
        # across compaction
        return
    if kind == "create_table":
        schema = TableSchema.from_dict(fields["schema"])
        db.catalog.add_table(schema, fields.get("namespace", "main"))
    elif kind == "drop_table":
        db.catalog.drop_table(fields["name"], if_exists=True)
    elif kind == "create_view":
        from ..sqlparser.parser import parse_statement

        db.create_view(fields["name"], parse_statement(fields["sql"]).query)
    elif kind == "drop_view":
        db.catalog.drop_view(fields["name"], if_exists=True)
    elif kind == "install":
        tintin.install(list(fields["tables"]))
    elif kind == "assertion_add":
        tintin._install_assertion(fields["sql"])
    elif kind == "assertion_drop":
        tintin.drop_assertion(fields["name"])
    else:
        raise RecoveryError(f"unknown WAL record type {kind!r} (seq={seq})")
    report.ddl_replayed += 1


def _replay_prepare(gid, seq, inserts, deletes, report: RecoveryReport) -> None:
    """Stash a prepared-but-undecided batch.  Nothing is applied yet —
    the prepare is only the durable yes vote; the events wait in
    ``report.in_doubt`` until a decide record (or, past the log's end,
    the router's resolution against the coordinator) settles them."""
    if gid in report.in_doubt:
        raise RecoveryError(
            f"prepare record seq={seq} repeats gid {gid!r} while it is "
            "still undecided — the log is inconsistent"
        )
    report.prepares_seen += 1
    report.in_doubt[gid] = (inserts, deletes)


def _replay_decide(
    tintin, gid, seq, commit, counts, report: RecoveryReport
) -> None:
    """Settle a prepared batch: apply it on a commit verdict, discard
    it on abort.  A decide for a gid with no pending prepare is a
    duplicate resolution (the router re-decides idempotently after a
    crash mid-resolution) and is ignored."""
    report.decides_seen += 1
    pending = report.in_doubt.pop(gid, None)
    if pending is None:
        return
    if commit:
        inserts, deletes = pending
        _replay_batch(tintin, seq, inserts, deletes, counts, report)


def _replay_batch(
    tintin, seq, inserts, deletes, counts, report: RecoveryReport
) -> None:
    db = tintin.db
    try:
        applied = db.apply_batch(inserts, deletes)
    except DatabaseError as exc:  # a constraint, or a table it lacks
        raise RecoveryError(
            f"replay of committed batch seq={seq} was "
            f"rejected by the engine: {exc} — the log and the data "
            "disagree"
        ) from exc
    report.batches_replayed += 1
    report.rows_applied += applied
    if counts:
        for table_name, expected in counts.items():
            actual = len(db.table(table_name))
            if actual != expected:
                raise RecoveryError(
                    f"after replaying batch seq={seq}, table "
                    f"{table_name!r} holds {actual} row(s) but the log "
                    f"recorded {expected}"
                )
