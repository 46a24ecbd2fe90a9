"""The durability manager: one directory, one WAL, one checkpoint.

A :class:`DurabilityManager` is the attachment point between the
in-memory engine and disk.  It owns the directory layout
(``wal.log`` + ``checkpoint.json``), the open log handle, and the
durability *mode*:

``"commit"``
    every committed batch is appended **and fsynced individually**, in
    commit order, before the client is acknowledged — the classic
    per-transaction durability protocol.  The commit scheduler
    degenerates to strict one-at-a-time processing in this mode,
    because the WAL order *is* the commit order and each commit's
    acknowledgement waits on its own fsync;
``"batch"``
    group commit: each member of a commit window appends its own
    record, and the window's leader issues **one fsync** for all of
    them.

DDL (schema, capture installation, assertion add/drop) is always
synced immediately in both modes: it is rare, and replay
correctness depends on it strictly preceding the batches that assume
it.

Committed batches are logged as binary records that spell their
table names, so a record means the same thing whatever the catalog
looks like when it is written or replayed.  How a record is laid out
on disk is :mod:`~repro.durability.wal`'s business alone.

When ``Tintin.open`` recovered the engine from disk, it hands the
recovery report to the constructor: the report already carries the
checkpoint's ``wal_seq`` and the log's decodable prefix, so the
manager opens the WAL for append *without* re-parsing the checkpoint
or re-scanning the log — a durable open reads each on-disk structure
exactly once.
"""

from __future__ import annotations

import os
import threading
from typing import Optional, TYPE_CHECKING

from ..errors import DurabilityError
from ..minidb.schema import TableSchema
from ..obs.metrics import StatsBlock
from .checkpoint import (
    build_checkpoint_payload,
    load_checkpoint,
    write_checkpoint,
)
from .recovery import RecoveryReport, wal_path
from .wal import WalResume, WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.tintin import Tintin

DURABILITY_MODES = ("commit", "batch")


def touched_counts(db, inserts: dict, deletes: dict) -> dict[str, int]:
    """Per-table row counts right after a batch applied.

    Stored in the batch's WAL record; recovery re-verifies each one
    after replaying the batch, catching any divergence between the log
    and the data it claims to describe.
    """
    names = []
    for source in (inserts, deletes):
        for name, rows in source.items():
            if rows and name not in names:
                names.append(name)
    return {name: len(db.table(name)) for name in names}


class DurabilityStats(StatsBlock):
    """Manager-level counters (the WAL adds its own byte-level stats)."""

    COUNTERS = ("checkpoints", "logged_batches", "logged_ddl")
    PREFIX = "tintin_durability"
    HELP = {
        "checkpoints": "Checkpoints written",
        "logged_batches": "Committed batch records appended to the WAL",
        "logged_ddl": "DDL records appended to the WAL",
    }


class DurabilityManager:
    """Owns a durability directory and its write-ahead log."""

    def __init__(
        self,
        directory: str,
        mode: str = "batch",
        recovered: Optional[RecoveryReport] = None,
    ):
        if mode not in DURABILITY_MODES:
            raise DurabilityError(
                f"unknown durability mode {mode!r} "
                f"(expected one of {', '.join(DURABILITY_MODES)})"
            )
        self.directory = directory
        self.mode = mode
        os.makedirs(directory, exist_ok=True)
        # opening the WAL truncates an existing torn tail, and sequence
        # numbering continues.  Seq continuity across compaction does not
        # depend on the truncate marker alone: a crash between the file
        # truncation and the marker's fsync would otherwise restart
        # numbering below the checkpoint's high-water mark and make
        # replay skip new records as already covered — so the resume
        # seq is the max over the log's records and the checkpoint's
        # wal_seq, whichever way it is derived.
        if recovered is not None:
            # single-pass open: recovery just parsed the checkpoint and
            # scanned the log; reuse its outcome instead of re-reading
            resume = None
            if recovered.wal_valid_length is not None:
                resume = WalResume(
                    valid_length=recovered.wal_valid_length,
                    file_length=recovered.wal_file_length or 0,
                    last_seq=max(
                        recovered.last_seq, recovered.checkpoint_seq
                    ),
                )
            self.wal = WriteAheadLog(wal_path(directory), resume=resume)
            self.wal.advance_seq(recovered.checkpoint_seq)
        else:
            self.wal = WriteAheadLog(wal_path(directory))
            checkpoint = load_checkpoint(directory)
            if checkpoint is not None:
                self.wal.advance_seq(checkpoint.get("wal_seq", 0))
        self.stats = DurabilityStats()
        #: serializes appends/syncs from concurrent writers (the commit
        #: scheduler's window is already exclusive, but DDL and the
        #: single-session facade can race it)
        self._lock = threading.Lock()
        #: fault-injection hook (``repro.net.faults.FaultInjector.fire``
        #: when installed): fired before the durability-critical steps
        #: so tests can delay or fail an fsync deterministically.  None
        #: in production.
        self.fault_hook = None

    def _fault(self, point: str, **ctx) -> None:
        hook = self.fault_hook
        if hook is not None:
            hook(point, **ctx)

    # -- logging -----------------------------------------------------------

    def log_open(self, database: str) -> None:
        """Stamp a fresh log with the database name (header record)."""
        with self._lock:
            if self.wal.last_seq == 0:
                self.wal.append("open", database=database)
                self.wal.sync()

    def log_ddl(self, event: str, **payload) -> None:
        """Record one DDL event; always synced immediately."""
        with self._lock:
            schema = payload.get("schema")
            if isinstance(schema, TableSchema):
                payload["schema"] = schema.to_dict()
            self.wal.append(event, **payload)
            self.wal.sync()
            self.stats.bump(logged_ddl=1)

    def _append(self, append, args: tuple, **fault_ctx) -> None:
        """Append one record through ``append`` — the log's bound
        ``append_batch``, ``append_prepare`` or ``append_decide`` —
        under the lock, unsynced, firing the ``wal.after_append`` fault
        point."""
        with self._lock:
            append(*args)
            if append == self.wal.append_batch:
                self.stats.bump(logged_batches=1)
            self._fault("wal.after_append", **fault_ctx)

    def append_batch(
        self, inserts: dict, deletes: dict, counts: Optional[dict] = None
    ) -> None:
        """Append one committed batch record, unsynced.

        The caller issues the durability fsync through :meth:`sync` —
        inline for the single-session route, from the scheduler's
        window flush otherwise (one fsync per window; a window of one
        in ``commit`` mode).
        """
        self._append(self.wal.append_batch, (inserts, deletes, counts))

    def sync(self) -> None:
        """Make every appended record durable (the group fsync)."""
        with self._lock:
            self._fault("wal.before_fsync")
            self.wal.sync()

    # -- two-phase commit ---------------------------------------------------

    def log_prepare(
        self,
        gid: str,
        inserts: dict,
        deletes: dict,
        counts: Optional[dict] = None,
    ) -> None:
        """Append one 2PC prepare record, unsynced — once fsynced, the
        durable yes vote.  A participant must never vote yes on a
        prepare the disk could still lose: the caller owes a
        :meth:`sync` before it answers."""
        self._append(
            self.wal.append_prepare,
            (gid, inserts, deletes, counts),
            gid=gid,
            record="prepare",
        )

    def log_decide(
        self,
        gid: str,
        verdict: bool,
        counts: Optional[dict] = None,
    ) -> None:
        """Append one 2PC decide record (the coordinator's verdict as
        seen by this participant), unsynced — see
        ``CommitScheduler.decide_prepared`` for why that is sound."""
        self._append(
            self.wal.append_decide, (gid, verdict, counts), gid=gid, record="decide"
        )

    # -- checkpoints -------------------------------------------------------

    def checkpoint(self, tintin: "Tintin") -> dict:
        """Write a full snapshot, then truncate (compact) the WAL.

        The caller must exclude concurrent commits (``Tintin.checkpoint``
        takes the scheduler's write lock when the server layer is
        active); this method only sequences the disk steps: durable
        checkpoint first, WAL truncation second, so a crash in between
        loses nothing — replay skips records the checkpoint covers.
        """
        with self._lock:
            payload = build_checkpoint_payload(tintin, self.wal.last_seq)
            write_checkpoint(self.directory, payload)
            self.wal.truncate()
            self.stats.bump(checkpoints=1)
        return payload

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self.wal.close()

    @property
    def closed(self) -> bool:
        return self.wal.closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DurabilityManager({self.directory!r}, mode={self.mode!r}, "
            f"seq={self.wal.last_seq})"
        )
