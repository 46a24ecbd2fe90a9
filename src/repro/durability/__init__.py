"""Durability: write-ahead logging, checkpoints and crash recovery.

The in-memory engine becomes restart-safe through three cooperating
pieces:

* :mod:`~repro.durability.wal` — the length-prefixed, checksummed,
  versioned redo log (torn-tail tolerant);
* :mod:`~repro.durability.checkpoint` — atomic full-state snapshots
  (write-to-temp-then-rename) that bound replay and let the WAL be
  truncated;
* :mod:`~repro.durability.recovery` — checkpoint load + redo replay of
  the WAL tail through the engine's own ``apply_batch``/assertion
  pipeline, with row-count and catalog-shape verification.

Entry points: ``Tintin.open(path, durability=...)`` attaches a
:class:`DurabilityManager` (recovering first if the directory holds
state), ``tintin.checkpoint()`` snapshots and compacts,
``tintin.close()`` releases the log.  :func:`recover` is the pure
rebuild-from-disk function the tests and tools use directly.
"""

from .checkpoint import (
    CHECKPOINT_FILE,
    CHECKPOINT_FORMAT,
    build_checkpoint_payload,
    checkpoint_load_count,
    checkpoint_path,
    load_checkpoint,
    write_checkpoint,
)
from .manager import DURABILITY_MODES, DurabilityManager, DurabilityStats
from .recovery import (
    RecoveryReport,
    WAL_FILE,
    has_durable_state,
    recover,
    wal_path,
)
from .wal import (
    BATCH_V2_TAG,
    DECIDE_V2_TAG,
    PREPARE_V2_TAG,
    WAL_MAGIC,
    WalRecord,
    WalResume,
    WalScan,
    WalStats,
    WriteAheadLog,
    decode_batch,
    decode_decide,
    decode_prepare,
    encode_batch,
    encode_decide,
    encode_prepare,
    encode_record,
    read_wal,
    scan_frames,
    wal_scan_count,
)

__all__ = [
    "BATCH_V2_TAG",
    "CHECKPOINT_FILE",
    "CHECKPOINT_FORMAT",
    "DECIDE_V2_TAG",
    "DURABILITY_MODES",
    "DurabilityManager",
    "DurabilityStats",
    "PREPARE_V2_TAG",
    "RecoveryReport",
    "WAL_FILE",
    "WAL_MAGIC",
    "WalRecord",
    "WalResume",
    "WalScan",
    "WalStats",
    "WriteAheadLog",
    "build_checkpoint_payload",
    "checkpoint_load_count",
    "checkpoint_path",
    "decode_batch",
    "decode_decide",
    "decode_prepare",
    "encode_batch",
    "encode_decide",
    "encode_prepare",
    "encode_record",
    "has_durable_state",
    "load_checkpoint",
    "read_wal",
    "recover",
    "scan_frames",
    "wal_path",
    "wal_scan_count",
    "write_checkpoint",
]
