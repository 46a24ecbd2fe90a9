"""The durability manager: one directory, one WAL, one checkpoint.

A :class:`DurabilityManager` is the attachment point between the
in-memory engine and disk.  It owns the directory layout
(``wal.log`` + ``checkpoint.json``), the open log handle, and the
durability *mode*:

``"off"``
    nothing is logged; explicit :meth:`checkpoint` calls are the only
    durability (bulk-load-then-checkpoint, or none at all);
``"commit"``
    every committed batch is appended **and fsynced individually**, in
    commit order, before the client is acknowledged — the classic
    per-transaction durability protocol.  The commit scheduler
    degenerates to strict one-at-a-time processing in this mode,
    because the WAL order *is* the commit order and each commit's
    acknowledgement waits on its own fsync;
``"batch"``
    group commit: the scheduler appends **one combined record per
    commit group** and the fsyncs are batched — one per window when
    flushed inline, fewer under bursty load when the scheduler's
    log-writer thread coalesces windows.

DDL (schema, capture installation, assertion add/drop) is always
synced immediately in both durable modes: it is rare, and replay
correctness depends on it strictly preceding the batches that assume
it.

Committed batches are logged as binary records in the *ordinal form*
(typed columns, tables referenced by schema ordinal) whenever the
engine's catalog is bound — :meth:`bind_db` supplies it, and the
ordinal map is memoized on the catalog version so DDL invalidates it.
A record the ordinal form cannot express, every record of a manager
without a bound catalog, and every record appended inside the
unlogged-DDL window (see :meth:`_append`) is written in the *named
form* instead; ``stats.named_records`` counts them.  How either form
is laid out on disk is :mod:`~repro.durability.wal`'s business alone.

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
from ..minidb.schema import TableSchema, normalize
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
    from ..minidb.database import Database

DURABILITY_MODES = ("off", "commit", "batch")


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

    COUNTERS = ("checkpoints", "logged_batches", "logged_ddl", "named_records")
    PREFIX = "tintin_durability"
    HELP = {
        "checkpoints": "Checkpoints written",
        "logged_batches": "Committed batch records appended to the WAL",
        "logged_ddl": "DDL records appended to the WAL",
        "named_records": (
            "Batch/prepare/decide records the ordinal form could not "
            "express, written in the named form"
        ),
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
        # the WAL is opened in every mode (an existing torn tail gets
        # truncated, and sequence numbering continues), but "off" never
        # appends to it.  Seq continuity across compaction does not
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
        #: the engine's database, for schema-ordinal resolution (bound
        #: by ``Tintin._attach_durability``; a standalone manager logs
        #: named-form records)
        self._db: Optional["Database"] = None
        self._ordinal_version = -1
        self._ordinals: dict[str, int] = {}
        #: the catalog version as of the last WAL-logged DDL — the
        #: ordinal form is only safe when the live catalog matches it
        #: (see :meth:`_append`)
        self._ddl_synced_version = -1
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

    # -- introspection -----------------------------------------------------

    @property
    def durable(self) -> bool:
        """Whether committed batches are being logged at all."""
        return self.mode != "off"

    def metrics(self) -> dict:
        payload = {"mode": self.mode, "directory": self.directory}
        payload.update(self.stats.snapshot())
        payload.update(self.wal.stats.snapshot())
        return payload

    # -- schema ordinals ---------------------------------------------------

    def bind_db(self, db: "Database") -> None:
        """Give the manager the catalog that resolves schema ordinals
        (enables the ordinal form)."""
        self._db = db
        # everything in the catalog as of binding is (or will be)
        # covered by the checkpoint/recovery state, not by pending DDL
        # records — ordinal encoding is safe from here
        self._ddl_synced_version = db.catalog.version

    def _ordinal_of(self, name: str) -> Optional[int]:
        """The table's position in the catalog's creation-ordered
        ``main``-namespace list (memoized on the catalog version, so
        any DDL rebuilds the map).  Callers hold ``self._lock``."""
        catalog = self._db.catalog
        if catalog.version != self._ordinal_version:
            # read the version first: racing DDL can only make the memo
            # *stale* (rebuilt next call), never wrong for this version
            version = catalog.version
            self._ordinals = {
                normalize(t.schema.name): i
                for i, t in enumerate(
                    catalog.tables_in_creation_order(namespace="main")
                )
            }
            self._ordinal_version = version
        return self._ordinals.get(normalize(name))

    # -- logging -----------------------------------------------------------

    def log_open(self, database: str) -> None:
        """Stamp a fresh log with the database name (header record)."""
        if not self.durable:
            return
        with self._lock:
            if self.wal.last_seq == 0:
                self.wal.append("open", database=database)
                self.wal.sync()

    def log_ddl(self, event: str, **payload) -> None:
        """Record one DDL event; always synced immediately."""
        if not self.durable:
            return
        with self._lock:
            schema = payload.get("schema")
            if isinstance(schema, TableSchema):
                payload["schema"] = schema.to_dict()
            self.wal.append(event, **payload)
            self.wal.sync()
            self.stats.bump(logged_ddl=1)
            if self._db is not None:
                # the catalog state this DDL produced is now in the
                # log; batches may reference it by ordinal again
                self._ddl_synced_version = self._db.catalog.version

    def _append(self, kind: str, args: tuple, sync: bool, **fault_ctx) -> None:
        """Append one ``kind`` (batch / prepare / decide) record under
        the lock, firing the fault points; fsync now when ``sync``."""
        if not self.durable:
            return
        with self._lock:
            # ordinals are positions in the catalog's table list, so a
            # record's ordinals are only meaningful if every catalog
            # change before it is already in the log.  A live catalog
            # NEWER than the last logged DDL means a DDL's mutation has
            # landed but its WAL record has not (the listener fires
            # after the catalog commit and may lose the race for this
            # lock) — encoding ordinals now would let replay resolve
            # them against the wrong table list.  Write the named form
            # for exactly that window; the pending log_ddl resyncs the
            # version right behind us.
            ordinal_of = (
                self._ordinal_of
                if self._db is not None
                and self._db.catalog.version == self._ddl_synced_version
                else None
            )
            record = getattr(self.wal, "append_" + kind)(
                *args, ordinal_of=ordinal_of
            )
            if kind == "batch":
                self.stats.bump(logged_batches=1)
            if record["named"]:
                self.stats.bump(named_records=1)
            self._fault("wal.after_append", **fault_ctx)
            if sync:
                self._fault("wal.before_fsync", **fault_ctx)
                self.wal.sync()

    def append_batch(
        self,
        inserts: dict,
        deletes: dict,
        counts: Optional[dict] = None,
        sync: bool = True,
    ) -> None:
        """Append one committed batch record; optionally fsync now.

        The commit unit always passes ``sync=False``; its caller issues
        the durability fsync through :meth:`sync` — inline for the
        single-session route and ``commit`` mode (one fsync per
        commit), from the scheduler's flush in ``batch`` mode (one
        fsync per window, or per burst of windows).
        """
        self._append("batch", (inserts, deletes, counts), sync)

    def sync(self) -> None:
        """Make every appended record durable (the group fsync)."""
        if not self.durable:
            return
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
            "prepare",
            (gid, inserts, deletes, counts),
            False,
            gid=gid,
            record="prepare",
        )

    def log_decide(
        self,
        gid: str,
        verdict: bool,
        counts: Optional[dict] = None,
        sync: bool = True,
    ) -> None:
        """Append one 2PC decide record (the coordinator's verdict as
        seen by this participant); fsynced when ``sync``.  The
        participant passes ``sync=False`` (see
        ``CommitScheduler.decide_prepared`` for why that is sound)."""
        self._append(
            "decide", (gid, verdict, counts), sync, gid=gid, record="decide"
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
