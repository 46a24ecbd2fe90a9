"""The binary WAL record codec: total, exact, and pinned to its bytes.

The contract: *any* batch — unicode, None, booleans, arbitrary-
precision integers, floats including ±infinity, ≥ 128 tables, > 255
columns, row counts ≥ 2^32, tables no catalog knows — encodes (the
encoder never declines), and ``encode → frame → scan_frames → decode``
returns values *exactly* equal to the input (same value, same Python
type, same float bit pattern), for ``batch``, ``prepare`` and
``decide`` records alike.  NaN is refused; a corpus of hand-picked
adversarial payloads and the wide records (≥ 128 tables, 256 columns,
counts ≥ 2^32, ints beyond i64) pin the edges; and four golden frames
pin the generation-3 bytes.
Frame-level behavior is covered too: control and binary frames mix in
one log, and damaged binary frames are detected, never mis-parsed.
"""

from __future__ import annotations

import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.durability import (
    BATCH_V2_TAG,
    DECIDE_V2_TAG,
    WAL_MAGIC,
    WriteAheadLog,
    decode_batch,
    decode_decide,
    decode_prepare,
    encode_batch,
    encode_decide,
    encode_prepare,
    read_wal,
    scan_frames,
)
from repro.durability.wal import decode_tagged_rows, encode_tagged_rows
from repro.errors import DurabilityError

TABLES = ["orders", "lineitem", "ünïcode_tbl", "t3", "t4", "t5", "t6", "t7"]
#: more table names than one byte of block count holds
WIDE_TABLES = TABLES + [f"w{i:03d}" for i in range(160)]


def _framed(payload: bytes) -> bytes:
    return struct.pack(">II", len(payload), zlib.crc32(payload)) + payload


# -- strategies -------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),  # beyond i64 too
    st.floats(allow_nan=False),  # ±inf included: legal DOUBLE values
    st.text(max_size=40),
)

#: numeric-only values: these must take the fixed-stride mode
numeric_scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
)


def _rows(values, max_arity=4, max_rows=8):
    """Uniform-arity tables (the engine's rows)."""
    return st.integers(min_value=1, max_value=max_arity).flatmap(
        lambda arity: st.lists(
            st.tuples(*([values] * arity)), min_size=0, max_size=max_rows
        )
    )


#: what an engine logs all day: few tables, narrow rows
event_dicts = st.dictionaries(st.sampled_from(TABLES), _rows(scalars), max_size=3)
numeric_event_dicts = st.dictionaries(
    st.sampled_from(TABLES), _rows(numeric_scalars), max_size=3
)

#: the wide end: any table name, ≥ 128 touched tables, > 255 columns
any_table = st.one_of(
    st.sampled_from(WIDE_TABLES), st.text(min_size=1, max_size=12)
)
wild_event_dicts = st.one_of(
    event_dicts,
    st.dictionaries(any_table, _rows(scalars), max_size=4),
    st.dictionaries(  # ≥ 128 tables in one section
        st.sampled_from(WIDE_TABLES),
        st.just([(1,)]),
        min_size=130,
        max_size=140,
    ),
    st.dictionaries(  # > 255 columns, both modes
        any_table,
        st.one_of(
            st.just([tuple(range(300))]),
            st.just([tuple([None] * 257)]),
        ),
        min_size=1,
        max_size=2,
    ),
)

counts_dicts = st.one_of(
    st.none(),
    st.dictionaries(
        st.sampled_from(TABLES),
        st.integers(min_value=0, max_value=2**32 - 1),
        max_size=3,
    ),
)
wild_counts_dicts = st.one_of(
    counts_dicts,
    st.dictionaries(
        any_table, st.integers(min_value=0, max_value=2**70), max_size=4
    ),
)

gids = st.text(max_size=20)


# -- exact equality ---------------------------------------------------------


def assert_identical(got, expected):
    """Equality that a plain ``==`` is too forgiving for: the types
    must match (True != 1 here) and floats must match bit-for-bit
    (0.0 != -0.0 here)."""
    assert type(got) is type(expected), (got, expected)
    if isinstance(got, float):
        assert struct.pack(">d", got) == struct.pack(">d", expected)
    else:
        assert got == expected


def assert_rows_identical(got_rows: list, expected_rows: list):
    assert len(got_rows) == len(expected_rows)
    for got_row, expected_row in zip(got_rows, expected_rows):
        assert isinstance(got_row, tuple)
        assert len(got_row) == len(expected_row)
        for a, b in zip(got_row, expected_row):
            assert_identical(a, b)


def assert_events_identical(got: dict, expected: dict):
    expected = {t: rows for t, rows in expected.items() if rows}
    assert set(got) == set(expected)
    for table, got_rows in got.items():
        assert_rows_identical(got_rows, expected[table])


def scanned(payload: bytes, kind: str, seq: int):
    """Frame the payload, scan it back, and return the scanned bytes
    plus the record's span — the scanner must report the type and seq
    without decoding a row."""
    assert isinstance(payload, bytes), "an encoder declined a record"
    blob = _framed(payload)
    records, valid_length, tail = scan_frames(blob)
    assert tail is None and valid_length == len(blob)
    (record,) = records
    assert (record.type, record.seq, record.fields) == (kind, seq, None)
    return blob, record.start, record.end


def batch_round_trip(seq, inserts, deletes, counts=None):
    payload = encode_batch(seq, inserts, deletes, counts)
    blob, start, end = scanned(payload, "batch", seq)
    return decode_batch(blob, start, end)


def assert_all_kinds_round_trip(inserts, deletes, counts, gid="g"):
    """The batch, and a prepare and both decides carrying the same
    body, come back exactly as they went in."""
    got_ins, got_del, got_counts = batch_round_trip(7, inserts, deletes, counts)
    assert_events_identical(got_ins, inserts)
    assert_events_identical(got_del, deletes)
    assert got_counts == counts

    payload = encode_prepare(8, gid, inserts, deletes, counts)
    blob, start, end = scanned(payload, "prepare", 8)
    got_gid, got_ins, got_del, got_counts = decode_prepare(blob, start, end)
    assert got_gid == gid and got_counts == counts
    assert_events_identical(got_ins, inserts)
    assert_events_identical(got_del, deletes)

    for verdict in (True, False):
        payload = encode_decide(9, gid, verdict, counts)
        blob, start, end = scanned(payload, "decide", 9)
        assert decode_decide(blob, start, end) == (gid, verdict, counts)


# -- the total-codec property -----------------------------------------------


@settings(max_examples=200, deadline=None)
@given(wild_event_dicts, wild_event_dicts, wild_counts_dicts, gids)
def test_codec_is_total_and_exact(inserts, deletes, counts, gid):
    """Whatever the batch, every record kind encodes, survives the
    frame scanner and decodes to exactly the input."""
    assert_all_kinds_round_trip(inserts, deletes, counts, gid)


@settings(max_examples=150, deadline=None)
@given(numeric_event_dicts, numeric_event_dicts)
def test_numeric_batches_take_fixed_stride_mode(inserts, deletes):
    """All-numeric batches (the OLTP shape the fixed-stride mode exists
    for) round-trip exactly — narrowest-int column codes included."""
    got_ins, got_del, _ = batch_round_trip(1, inserts, deletes)
    assert_events_identical(got_ins, inserts)
    assert_events_identical(got_del, deletes)


# -- the wide end -----------------------------------------------------------


@pytest.mark.parametrize(
    "inserts, deletes, counts",
    [
        ({"orders": [tuple(range(256))]}, {}, None),  # 256 columns, fixed
        ({"orders": [tuple([None] * 256)]}, {}, None),  # 256 columns, tagged
        ({"orders": [(None,), tuple([None] * 256)]}, {}, None),  # one wide row
        ({"orders": [tuple(range(255))]}, {}, None),  # 255 columns
        ({n: [(1,)] for n in WIDE_TABLES[:130]}, {}, None),  # ≥ 128 blocks
        ({}, {n: [(1,)] for n in WIDE_TABLES[:128]}, None),  # ...deletes too
        ({"orders": [(1,)]}, {}, {n: 1 for n in WIDE_TABLES[:128]}),
        ({"orders": [(1,)]}, {}, {"orders": 2**32}),  # row count ≥ 2^32
        ({"orders": [(1,)]}, {}, {"orders": 2**32 - 1, "t7": 2**70}),
        ({"orders": [(2**63,), (-(2**63) - 1,)]}, {}, None),  # beyond i64
        ({"orders": [(2**200, -(2**200))]}, {}, None),
        ({"ünïcode_tbl": [(1,)], "": [(2,)]}, {}, {"ünïcode_tbl": 1, "": 1}),
        ({"t" * 200: [(1,)]}, {"t" * 200: [("x",)]}, {"t" * 200: 1}),
    ],
    ids=[
        "wide-fixed",
        "wide-tagged",
        "wide-ragged",
        "255-columns",
        "many-insert-tables",
        "many-delete-tables",
        "many-counts",
        "big-count",
        "huge-count",
        "beyond-i64",
        "arbitrary-precision",
        "odd-names",
        "long-name",
    ],
)
def test_wide_records_round_trip(inserts, deletes, counts):
    assert_all_kinds_round_trip(inserts, deletes, counts)


# -- adversarial corpus -----------------------------------------------------

ADVERSARIAL_ROWS = [
    [],  # no rows at all
    [()],  # one zero-arity row (tagged mode: struct cannot stride it)
    [("",)],  # empty string
    [("x",)],  # 1-byte string
    [("\x00",)],  # NUL byte in a string
    [("ü" * 1000,)],  # multi-byte UTF-8, multi-byte varint length
    [("𐍈𝄞",)],  # astral-plane code points
    [("a" * 70000,)],  # length needs a 3-byte varint
    [(None,)],
    [(True,), (False,)],
    [(0,), (-1,)],
    [(127,), (-128,)],  # i8 boundaries
    [(128,), (-129,)],  # force i16
    [(32767,), (-32768,)],  # i16 boundaries
    [(32768,), (-32769,)],  # force i32
    [(2**31 - 1,), (-(2**31),)],  # i32 boundaries
    [(2**31,), (-(2**31) - 1,)],  # force i64
    [(2**63 - 1,), (-(2**63),)],  # i64 boundaries (fixed mode's edge)
    [(2**63,), (-(2**63) - 1,)],  # beyond i64: tagged varint
    [(2**200, -(2**200))],  # arbitrary precision
    [(float("inf"), float("-inf"))],
    [(0.0,), (-0.0,)],  # signed zero must keep its sign bit
    [(5e-324,), (1.7976931348623157e308,)],  # subnormal + max double
    [(1, 2.5, "mixed", None, True)],  # every tag in one row
    [(1,), (2.5,)],  # mixed column type: must fall to tagged mode
    [(1,), (1, 2)],  # ragged arity: tagged mode carries it per row
    [tuple(range(255))],  # 255 columns (one byte of column count)
    [(k,) for k in range(200)],  # 2-byte row-count varint, fixed mode
    [(str(k),) for k in range(200)],  # ...and tagged mode
]


@pytest.mark.parametrize("rows", ADVERSARIAL_ROWS, ids=repr)
def test_adversarial_payloads(rows):
    inserts = {"orders": rows}
    got_ins, got_del, _ = batch_round_trip(9, inserts, {})
    assert_events_identical(got_ins, inserts)
    assert got_del == {}


#: rows wider than one byte of column count: their varint arity takes
#: two bytes
WIDE_ROWS = [
    [tuple(range(300))],
    [tuple([None] * 257)],
    [(None,), tuple(["x"] * 200)],
]


@pytest.mark.parametrize("rows", ADVERSARIAL_ROWS + WIDE_ROWS, ids=repr)
def test_tagged_block_is_exact_and_is_the_mode_1_block(rows):
    """``encode_tagged_rows`` is the network row codec and the WAL's
    mode-1 table block at once: it round-trips exactly on its own
    (reporting where it ended inside a larger buffer), and a batch
    whose rows take the tagged mode carries its bytes verbatim."""
    block = encode_tagged_rows(rows)
    got, end = decode_tagged_rows(b"\xaa" + block + b"\xff", 1)
    assert end == 1 + len(block)
    assert_rows_identical(got, rows)
    payload = encode_batch(1, {"t": rows}, {})
    if not rows:
        assert payload == bytes([BATCH_V2_TAG, 1, 0, 0, 0])
    elif payload[6] == 1:  # tag, seq, flags, one block, name "t", mode
        assert payload[7:] == block + b"\x00"  # then no delete blocks


def test_nan_rejected():
    bad = {"orders": [(float("nan"),)]}
    with pytest.raises(DurabilityError):
        encode_batch(1, bad, {}, None)
    # NaN smuggled into a numeric column (fixed-mode candidate) too
    bad_fixed = {"orders": [(1.5,), (float("nan"),)]}
    with pytest.raises(DurabilityError):
        encode_batch(1, bad_fixed, {}, None)
    with pytest.raises(DurabilityError):
        encode_prepare(1, "g", {}, bad, None)


def test_non_scalar_values_and_negative_counts_are_refused():
    with pytest.raises(DurabilityError):
        encode_batch(1, {"orders": [(b"bytes",)]}, {}, None)
    # no varint holds -1
    with pytest.raises(DurabilityError):
        encode_batch(1, {"orders": [(1,)]}, {}, {"orders": -1})
    with pytest.raises(DurabilityError):
        encode_decide(1, "g", True, {"orders": -1})


def test_multi_entry_counts_round_trip_and_bounds():
    payload = encode_batch(
        1,
        {"orders": [(1,)], "lineitem": [(2,)]},
        {},
        {"orders": 10, "lineitem": 20},
    )
    _, _, counts = decode_batch(payload)
    assert counts == {"orders": 10, "lineitem": 20}
    assert list(counts) == ["orders", "lineitem"]  # logged order kept
    # a counts section cut inside its last entry is loud
    with pytest.raises(DurabilityError):
        decode_batch(payload[:-1])
    # ...and so is one claiming more entries than it holds
    bad = bytearray(payload)
    bad[payload.index(b"\x02\x06orders\x0a")] = 3
    with pytest.raises(DurabilityError):
        decode_batch(bytes(bad))


# -- golden bytes -----------------------------------------------------------
#
# Four generation-3 frames (hex of length + CRC + payload).  These are
# the on-disk format of every log this build writes: it must read
# these bytes and write these bytes.  The first one, spelled out:
#
#   b2 07 01            batch, seq 7, flags: counts follow
#   02                  two insert blocks
#   06 "orders" 00      name, mode 0 (fixed stride)
#   02 "bd" 02          two columns (i8, double), two rows
#   01 4025000000000000 02 4034800000000000
#   05 "items" 00 02 "bb" 02  01 01  02 01
#   00                  no delete blocks
#   02 06 "orders" 02 05 "items" 02   two counts entries

GOLDEN = [
    (  # fixed-stride inserts into two tables, with counts
        "00000042827cd025b2070102066f7264657273000262640201402500000000"
        "0000024034800000000000056974656d730002626202010102010002066f72"
        "6465727302056974656d7302",
        decode_batch,
        (
            {"orders": [(1, 10.5), (2, 20.5)], "items": [(1, 1), (2, 1)]},
            {},
            {"orders": 2, "items": 2},
        ),
        lambda ins, dele, counts: encode_batch(7, ins, dele, counts),
    ),
    (  # tagged rows with a NULL and strings, a delete block, 2-byte seq
        "0000002d48207de0b2ac020001056e6f746573010203030200050668c3a96c"
        "6c6f03030402050001056974656d7300026262010101",
        decode_batch,
        (
            {"notes": [(1, None, "héllo"), (2, True, "")]},
            {"items": [(1, 1)]},
            None,
        ),
        lambda ins, dele, counts: encode_batch(300, ins, dele, counts),
    ),
    (  # a prepare
        "0000002caff82a31b30904672d31370001066f72646572730002626401033f"
        "f000000000000001056974656d7300026262010201",
        decode_prepare,
        ("g-17", {"orders": [(3, 1.0)]}, {"items": [(2, 1)]}, None),
        lambda gid, ins, dele, counts: encode_prepare(9, gid, ins, dele, counts),
    ),
    (  # a commit decide with counts
        "000000199ead748fb40a0104672d31370102066f726465727303056974656d"
        "7301",
        decode_decide,
        ("g-17", True, {"orders": 3, "items": 1}),
        lambda gid, verdict, counts: encode_decide(10, gid, verdict, counts),
    ),
]


def test_golden_frames_decode_and_reencode_to_identical_bytes():
    blob = b"".join(bytes.fromhex(frame) for frame, *_ in GOLDEN)
    records, valid_length, tail = scan_frames(blob)
    assert tail is None and valid_length == len(blob)
    assert [(r.type, r.seq) for r in records] == [
        ("batch", 7),
        ("batch", 300),
        ("prepare", 9),
        ("decide", 10),
    ]
    for (frame, decode, expected, reencode), record in zip(GOLDEN, records):
        decoded = decode(blob, record.start, record.end)
        assert decoded == expected
        assert _framed(reencode(*decoded)).hex() == frame


# -- logs and headers -------------------------------------------------------


def test_control_and_binary_frames_mix_in_one_log(tmp_path):
    path = str(tmp_path / "wal.log")
    wal = WriteAheadLog(path)
    wal.append("open", database="db")
    first = wal.append_batch({"orders": [(1, 2)]}, {})
    wal.append("install", tables=["orders"])
    wal.append_batch({"ghost": [(5, None)]}, {})
    wal.append_batch({"orders": [(6,)]}, {})
    wal.append_prepare("g1", {"orders": [(7,)]}, {})
    wal.append_decide("g1", True, {"orders": 3})
    wal.append_decide("g2", False)
    wal.sync()
    wal.close()
    assert first == {"type": "batch", "seq": 2}
    scan = read_wal(path)
    assert [r.type for r in scan.records] == [
        "open",
        "batch",
        "install",
        "batch",
        "batch",
        "prepare",
        "decide",
        "decide",
    ]
    assert [r.seq for r in scan.records] == list(range(1, 9))
    assert [r.fields is None for r in scan.records] == [
        False,
        True,
        False,
        True,
        True,
        True,
        True,
        True,
    ]
    assert scan.records[2].fields["tables"] == ["orders"]

    def span(k):
        return scan.data, scan.records[k].start, scan.records[k].end

    assert decode_batch(*span(1))[0] == {"orders": [(1, 2)]}
    assert decode_batch(*span(3))[0] == {"ghost": [(5, None)]}
    assert decode_batch(*span(4))[0] == {"orders": [(6,)]}
    assert decode_prepare(*span(5))[:2] == ("g1", {"orders": [(7,)]})
    assert decode_decide(*span(6)) == ("g1", True, {"orders": 3})
    assert decode_decide(*span(7)) == ("g2", False, None)


def test_fresh_logs_carry_the_generation_3_header(tmp_path):
    path = str(tmp_path / "wal.log")
    WriteAheadLog(path).close()
    with open(path, "rb") as handle:
        assert handle.read() == WAL_MAGIC
    assert WAL_MAGIC == b"TNTWAL\x00\x03"


# -- damage detection on binary frames --------------------------------------


def test_corrupted_binary_frame_stops_the_scan(tmp_path):
    path = str(tmp_path / "wal.log")
    wal = WriteAheadLog(path)
    wal.append_batch({"orders": [(1, 2, 3)]}, {})
    wal.append_batch({"orders": [(4, 5, 6)]}, {})
    wal.sync()
    wal.close()
    raw = open(path, "rb").read()
    corrupted = bytearray(raw)
    corrupted[-2] ^= 0xFF  # flip a byte inside the second frame's payload
    with open(path, "wb") as handle:
        handle.write(bytes(corrupted))
    scan = read_wal(path)
    assert len(scan.records) == 1  # scanning stopped at the damage
    assert scan.tail_error == "checksum mismatch"


@pytest.mark.parametrize(
    "bogus",
    [
        bytes([BATCH_V2_TAG, 1, 0, 1, 0, 9]),  # table-block mode 9
        bytes([BATCH_V2_TAG, 1, 2, 0, 0]),  # flags bit 1 is reserved
        bytes([BATCH_V2_TAG, 1, 4, 0, 0]),  # ...and so is bit 2
        bytes([BATCH_V2_TAG, 1, 0, 1, 0, 1, 1, 1, 9]),  # value tag 9
        bytes([DECIDE_V2_TAG, 1, 7, 1, 0x67, 0]),  # verdict byte 7
        bytes([BATCH_V2_TAG, 1, 0, 1, 5, 0x61]),  # table name overruns
        bytes([BATCH_V2_TAG, 1, 1, 0, 0, 3, 0, 0]),  # counts overrun
        bytes([BATCH_V2_TAG, 1, 0, 1, 0, 0, 1, 0x62, 5, 1]),  # 5 rows, 1 held
    ],
    ids=[
        "mode",
        "flags-bit-1",
        "flags-bit-2",
        "value-tag",
        "verdict",
        "name-overrun",
        "counts",
        "rows-overrun",
    ],
)
def test_wellformed_crc_with_malformed_binary_payload_is_detected(bogus):
    # a payload whose CRC is fine but whose body lies about its shape:
    # the scan's header parse accepts it — a passing CRC means this is
    # an encoder bug, not a torn write — and the full decode refuses it
    # loudly at replay time
    blob = _framed(bogus)
    (record,), _, tail = scan_frames(blob)
    assert tail is None
    decode = decode_decide if bogus[0] == DECIDE_V2_TAG else decode_batch
    with pytest.raises(DurabilityError):
        decode(blob, record.start, record.end)


def test_a_decoder_refuses_another_kinds_record():
    prepare = encode_prepare(1, "g", {"orders": [(1,)]}, {})
    with pytest.raises(DurabilityError):
        decode_batch(prepare)
    with pytest.raises(DurabilityError):
        decode_decide(prepare)


def test_truncated_v2_header_stops_the_scan():
    # a frame torn inside the seq varint fails even the header parse
    bogus = bytes([BATCH_V2_TAG, 0xFF])
    records, valid_length, tail = scan_frames(_framed(bogus))
    assert records == []
    assert tail == "undecodable payload"


def test_truncated_fixed_stride_block_is_detected():
    # a fixed-stride block claiming more rows than the payload holds
    good = encode_batch(1, {"orders": [(1, 2)]}, {})
    bogus = good[:-1]  # drop the last row byte
    with pytest.raises(DurabilityError):
        decode_batch(bogus)
    # ...and trailing garbage past a complete decode is refused too
    with pytest.raises(DurabilityError):
        decode_batch(good + b"\x00")
    # ...also when the garbage is the next frame of a larger buffer
    with pytest.raises(DurabilityError):
        decode_batch(good + good, 0, len(good) - 1)


def test_unknown_payload_format_byte_stops_the_scan():
    records, valid_length, tail = scan_frames(_framed(b"\x99whatever"))
    assert records == []
    assert tail == "unknown payload format"
