"""The WAL file: round trips, damage detection, reopen and fsync rules.

Arbitrary rows — unicode, None, booleans, wide integers, floats —
written through :class:`WriteAheadLog` read back identically; a
corrupted checksum or a truncated tail is *detected* (scanning stops),
never mis-parsed into a bogus record; a foreign or pre-v2 file is
refused, never overwritten.  (The record codec itself is pinned by
``test_durability_codec_v2.py``.)
"""

from __future__ import annotations

import os
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, Tintin
from repro.durability import (
    WAL_MAGIC,
    WriteAheadLog,
    build_checkpoint_payload,
    decode_batch,
    read_wal,
)
from repro.errors import DurabilityError, WALCorruptionError

# -- strategies -------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False),  # ±inf included: legal DOUBLE values
    st.text(max_size=40),
)

rows = st.lists(
    st.tuples(scalars, scalars, scalars), min_size=0, max_size=8
)

table_names = st.sampled_from(["orders", "lineitem", "ünïcode_tbl", "t2"])

event_dicts = st.dictionaries(table_names, rows, max_size=3)


def batch_events(scan, record) -> dict:
    """The inserts of one scanned ``batch`` record."""
    return decode_batch(scan.data, record.start, record.end)[0]


# -- round-trip properties --------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(event_dicts, event_dicts), min_size=1, max_size=5))
def test_file_round_trip(tmp_path_factory, batches):
    path = str(tmp_path_factory.mktemp("wal") / "wal.log")
    wal = WriteAheadLog(path)
    for inserts, deletes in batches:
        wal.append_batch(inserts, deletes)
    wal.sync()
    wal.close()
    scan = read_wal(path)
    assert scan.tail_error is None
    assert [r.seq for r in scan.records] == list(range(1, len(batches) + 1))
    for record, (inserts, deletes) in zip(scan.records, batches):
        got_ins, got_del, counts = decode_batch(
            scan.data, record.start, record.end
        )
        assert got_ins == {t: r for t, r in inserts.items() if r}
        assert got_del == {t: r for t, r in deletes.items() if r}
        assert counts is None


def test_checkpoint_rows_keep_infinity():
    """The checkpoint's rows obey the log's value rule: ±infinity
    becomes durable (NaN never reaches a stored row, see below)."""
    db = Database("db")
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x DOUBLE)")
    db.insert_rows("t", [(1, float("inf")), (2, float("-inf"))])
    tintin = Tintin(db)
    (entry,) = build_checkpoint_payload(tintin, 0)["tables"]
    assert sorted(entry["rows"]) == [(1, float("inf")), (2, float("-inf"))]


def test_nan_reaches_no_stored_row():
    """A checkpoint writes the stored rows as they are, so it holds no
    NaN only because no table does (NaN breaks replay's row-equality
    checks): every route that stores a row refuses one."""
    from repro.errors import TypeCheckError

    nan = float("nan")
    db = Database("db")
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x DOUBLE)")
    db.insert_rows("t", [(1, 1e308)])
    table = db.table("t")
    writes = [
        lambda: db.insert_rows("t", [(2, 2.5), (3, nan)]),
        lambda: db.apply_batch({"t": [(2, 2.5), (3, nan)]}, {}),
        lambda: table.load_rows([[2, 2.5], [3, nan]]),
        # inf - inf: the new value is computed, not spelled
        lambda: db.execute("UPDATE t SET x = x * 10 - x * 10"),
    ]
    for write in writes:
        with pytest.raises(TypeCheckError, match="NaN"):
            write()
        assert all(x == x for _, x in table.rows_snapshot())
    assert table.rows_snapshot()[0] == (1, 1e308)


# -- damage detection -------------------------------------------------------


def _frames(data: bytes, offset: int) -> list[tuple[int, int]]:
    """(start, end) byte ranges of each frame in ``data``."""
    spans = []
    position = offset
    while position < len(data):
        length = struct.unpack_from(">I", data, position)[0]
        end = position + 8 + length
        spans.append((position, end))
        position = end
    return spans


def _write_wal(path: str, n_records: int = 4) -> bytes:
    wal = WriteAheadLog(path)
    for i in range(n_records):
        wal.append_batch({"t": [(i, f"row-{i}", None)]}, {})
    wal.sync()
    wal.close()
    with open(path, "rb") as handle:
        return handle.read()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_truncated_tail_detected(tmp_path_factory, data):
    path = str(tmp_path_factory.mktemp("wal") / "wal.log")
    raw = _write_wal(path)
    spans = _frames(raw, len(WAL_MAGIC))
    cut = data.draw(
        st.integers(min_value=len(WAL_MAGIC), max_value=len(raw) - 1)
    )
    with open(path, "wb") as handle:
        handle.write(raw[:cut])
    scan = read_wal(path)
    intact = [span for span in spans if span[1] <= cut]
    assert len(scan.records) == len(intact)
    assert scan.valid_length == (intact[-1][1] if intact else len(WAL_MAGIC))
    if cut == (intact[-1][1] if intact else len(WAL_MAGIC)):
        assert scan.tail_error is None  # cut exactly on a boundary
    else:
        assert scan.tail_error is not None
        assert scan.torn_bytes == cut - (
            intact[-1][1] if intact else len(WAL_MAGIC)
        )
    # the intact prefix still decodes to the original records
    for i, record in enumerate(scan.records):
        assert batch_events(scan, record) == {"t": [(i, f"row-{i}", None)]}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_corrupted_checksum_detected(tmp_path_factory, data):
    path = str(tmp_path_factory.mktemp("wal") / "wal.log")
    raw = _write_wal(path)
    spans = _frames(raw, len(WAL_MAGIC))
    victim = data.draw(st.integers(min_value=0, max_value=len(spans) - 1))
    start, end = spans[victim]
    # flip one payload byte (past the 8-byte frame header)
    position = data.draw(st.integers(min_value=start + 8, max_value=end - 1))
    corrupted = bytearray(raw)
    corrupted[position] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(corrupted))
    scan = read_wal(path)
    # scanning stops AT the damaged frame: the records before it are
    # intact, the damage is reported, nothing after it is mis-parsed
    assert len(scan.records) == victim
    assert scan.tail_error is not None
    assert scan.valid_length == start


def test_foreign_header_rejected(tmp_path):
    path = tmp_path / "not-a-wal.log"
    path.write_bytes(b"GARBAGE!" + b"x" * 64)
    with pytest.raises(WALCorruptionError):
        read_wal(str(path))
    # opening for append must refuse too — never overwrite a foreign
    # file, even one shorter than the 8-byte header
    short = tmp_path / "short.log"
    short.write_bytes(b"abc")
    with pytest.raises(WALCorruptionError):
        WriteAheadLog(str(short))
    assert short.read_bytes() == b"abc"  # untouched


def test_torn_creation_artifacts_reinitialize(tmp_path):
    for artifact in (b"", WAL_MAGIC[:5]):
        path = tmp_path / f"torn-{len(artifact)}.log"
        path.write_bytes(artifact)
        wal = WriteAheadLog(str(path))
        wal.append_batch({"t": [(1,)]}, {})
        wal.sync()
        wal.close()
        assert [r.seq for r in read_wal(str(path)).records] == [1]


@pytest.mark.parametrize("generation", [1, 2, WAL_MAGIC[-1] + 1])
def test_other_format_generations_rejected(tmp_path, generation):
    path = tmp_path / "wal.log"
    path.write_bytes(WAL_MAGIC[:-1] + bytes([generation]))
    with pytest.raises(
        WALCorruptionError,
        match=f"generation {generation}; this build reads generation 3 only",
    ):
        read_wal(str(path))


# -- reopen semantics -------------------------------------------------------


def test_reopen_truncates_torn_tail_and_resumes_seq(tmp_path):
    path = str(tmp_path / "wal.log")
    raw = _write_wal(path, n_records=3)
    with open(path, "wb") as handle:
        handle.write(raw + b"\x00\x00\x00\x40partial")  # torn append
    wal = WriteAheadLog(path)
    assert wal.stats.truncations == 1
    assert wal.last_seq == 3
    record = wal.append_batch({"t": [(9, "x", True)]}, {})
    assert record["seq"] == 4
    wal.sync()
    wal.close()
    scan = read_wal(path)
    assert scan.tail_error is None
    assert [r.seq for r in scan.records] == [1, 2, 3, 4]


def test_sync_counts_are_explicit(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal.log"))
    for i in range(5):
        wal.append_batch({"t": [(i,)]}, {})
    before = wal.stats.fsyncs
    wal.sync()
    assert wal.stats.appends == 5
    assert wal.stats.fsyncs == before + 1  # five appends, one fsync
    wal.close()


def test_truncate_preserves_sequence(tmp_path):
    path = str(tmp_path / "wal.log")
    wal = WriteAheadLog(path)
    wal.append_batch({"t": [(1,)]}, {})
    wal.sync()
    wal.truncate()  # writes a seq-carrying "truncate" marker (seq 2)
    record = wal.append_batch({"t": [(2,)]}, {})
    assert record["seq"] == 3  # numbering survives compaction
    wal.sync()
    wal.close()
    assert os.path.getsize(path) > len(WAL_MAGIC)
    scan = read_wal(path)
    assert [(r.type, r.seq) for r in scan.records] == [
        ("truncate", 2),
        ("batch", 3),
    ]
    # the marker is what makes a FRESH open of the compacted log
    # resume numbering instead of restarting at 1 (restarting would
    # make replay skip new records as checkpoint-covered: data loss)
    reopened = WriteAheadLog(path)
    assert reopened.last_seq == 3
    reopened.close()


def test_close_is_idempotent_and_syncs_pending(tmp_path):
    path = str(tmp_path / "wal.log")
    wal = WriteAheadLog(path)
    wal.append_batch({"t": [(1,)]}, {})
    assert not wal.closed
    wal.close()  # implicit sync of the unsynced frame
    assert wal.closed
    wal.close()  # second close is a no-op
    scan = read_wal(path)
    assert [r.seq for r in scan.records] == [1]
    assert wal.stats.snapshot()["appends"] == 1


def test_sync_on_closed_log_is_a_clean_error(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal.log"))
    wal.close()
    with pytest.raises(DurabilityError):
        wal.sync()


def test_failed_fsync_poisons_log_and_rolls_back(tmp_path, monkeypatch):
    """A failed flush must not leave the unsynced frames buffered — a
    later sync or close would make a commit the client was told FAILED
    durable after all.  The tail is rolled back and the log refuses
    further writes (the fsyncgate discipline)."""
    import repro.durability.wal as wal_module
    from repro.errors import DurabilityError

    path = str(tmp_path / "wal.log")
    wal = WriteAheadLog(path)
    wal.append_batch({"t": [(1,)]}, {})
    wal.sync()
    wal.append_batch({"t": [(2,)]}, {})

    real_fsync = wal_module.os.fsync

    def broken_fsync(fd):
        raise OSError("I/O error")

    monkeypatch.setattr(wal_module.os, "fsync", broken_fsync)
    with pytest.raises(OSError):
        wal.sync()
    monkeypatch.setattr(wal_module.os, "fsync", real_fsync)

    # the log is poisoned: no further appends or syncs
    with pytest.raises(DurabilityError):
        wal.append_batch({"t": [(3,)]}, {})
    with pytest.raises(DurabilityError):
        wal.sync()
    wal.close()  # must not resurrect the rolled-back frame

    scan = read_wal(path)
    assert [r.seq for r in scan.records] == [1]  # record 2 is gone
