"""The binary WAL record codec: total, exact, and pinned to its bytes.

The contract: *any* batch — unicode, None, booleans, arbitrary-
precision integers, floats including ±infinity, ≥ 128 tables, > 255
columns, row counts ≥ 2^32, tables no catalog knows — encodes (the
encoder never declines), and ``encode → frame → scan_frames → decode``
returns values *exactly* equal to the input (same value, same Python
type, same float bit pattern), for ``batch``, ``prepare`` and
``decide`` records alike.  The ordinal form and the named form of one
batch decode equal; NaN is refused by both; a corpus of hand-picked
adversarial payloads pins the edges; and four frames captured from the
commit before the named form existed pin the ordinal form's bytes.
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
from repro.errors import DurabilityError

# -- ordinal fixture --------------------------------------------------------

TABLES = ["orders", "lineitem", "ünïcode_tbl", "t3", "t4", "t5", "t6", "t7"]
#: a catalog wider than the ordinal form's 128-table reach
WIDE_TABLES = TABLES + [f"w{i:03d}" for i in range(160)]
#: exact-match on purpose: a generated name like "ORDERS" is simply
#: not in this catalog, so it must come back spelled as it went in
ordinal_of = {name: i for i, name in enumerate(WIDE_TABLES)}.get


def _framed(payload: bytes) -> bytes:
    return struct.pack(">II", len(payload), zlib.crc32(payload)) + payload


def flags_of(payload: bytes) -> int:
    """The flags byte of a binary payload, found by walking the header
    the way the layout table in ``wal.py`` spells it (test-side on
    purpose: an independent reading of the format)."""
    tag, i = payload[0], 1
    while payload[i] >= 0x80:  # seq varint
        i += 1
    i += 1
    if tag == DECIDE_V2_TAG:
        i += 1  # verdict byte
    if tag != BATCH_V2_TAG:
        assert payload[i] < 0x80, "test gids stay under 128 bytes"
        i += 1 + payload[i]
    return payload[i]


def is_named(payload: bytes) -> bool:
    return bool(flags_of(payload) & 2)


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


#: what a bound engine logs all day: few known tables, narrow rows
event_dicts = st.dictionaries(st.sampled_from(TABLES), _rows(scalars), max_size=3)
numeric_event_dicts = st.dictionaries(
    st.sampled_from(TABLES), _rows(numeric_scalars), max_size=3
)

#: everything the ordinal form cannot say: tables beyond ordinal 127 or
#: in no catalog at all, ≥ 128 touched tables, > 255 columns
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


def assert_events_identical(got: dict, expected: dict):
    expected = {t: rows for t, rows in expected.items() if rows}
    assert set(got) == set(expected)
    for table, got_rows in got.items():
        expected_rows = expected[table]
        assert len(got_rows) == len(expected_rows)
        for got_row, expected_row in zip(got_rows, expected_rows):
            assert isinstance(got_row, tuple)
            assert len(got_row) == len(expected_row)
            for a, b in zip(got_row, expected_row):
                assert_identical(a, b)


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


def batch_round_trip(seq, inserts, deletes, counts=None, resolver=ordinal_of):
    payload = encode_batch(seq, inserts, deletes, counts, resolver)
    blob, start, end = scanned(payload, "batch", seq)
    return decode_batch(blob, WIDE_TABLES, start, end), is_named(payload)


# -- the total-codec property -----------------------------------------------


@settings(max_examples=200, deadline=None)
@given(wild_event_dicts, wild_event_dicts, wild_counts_dicts, gids)
def test_codec_is_total_and_exact(inserts, deletes, counts, gid):
    """Whatever the batch, every record kind encodes, survives the
    frame scanner and decodes to exactly the input."""
    (got_ins, got_del, got_counts), _ = batch_round_trip(
        7, inserts, deletes, counts
    )
    assert_events_identical(got_ins, inserts)
    assert_events_identical(got_del, deletes)
    assert got_counts == counts

    payload = encode_prepare(8, gid, inserts, deletes, counts, ordinal_of)
    blob, start, end = scanned(payload, "prepare", 8)
    got_gid, got_ins, got_del, got_counts = decode_prepare(
        blob, WIDE_TABLES, start, end
    )
    assert got_gid == gid and got_counts == counts
    assert_events_identical(got_ins, inserts)
    assert_events_identical(got_del, deletes)

    for verdict in (True, False):
        payload = encode_decide(9, gid, verdict, counts, ordinal_of)
        blob, start, end = scanned(payload, "decide", 9)
        assert decode_decide(blob, WIDE_TABLES, start, end) == (
            gid,
            verdict,
            counts,
        )


@settings(max_examples=200, deadline=None)
@given(event_dicts, event_dicts, counts_dicts)
def test_ordinal_and_named_forms_decode_equal(inserts, deletes, counts):
    """One batch through both forms: the bound engine's ordinal form
    and the catalog-free named form carry the same events."""
    ordinal, ordinal_named = batch_round_trip(3, inserts, deletes, counts)
    named, named_named = batch_round_trip(
        3, inserts, deletes, counts, resolver=None
    )
    assert not ordinal_named, "an everyday batch must take the ordinal form"
    assert named_named
    assert_events_identical(ordinal[0], named[0])
    assert_events_identical(ordinal[1], named[1])
    assert ordinal[2] == named[2] == counts


@settings(max_examples=150, deadline=None)
@given(numeric_event_dicts, numeric_event_dicts)
def test_numeric_batches_take_fixed_stride_mode(inserts, deletes):
    """All-numeric batches (the OLTP shape the fixed-stride mode exists
    for) round-trip exactly — narrowest-int column codes included."""
    (got_ins, got_del, _), named = batch_round_trip(1, inserts, deletes)
    assert not named
    assert_events_identical(got_ins, inserts)
    assert_events_identical(got_del, deletes)


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
    [tuple(range(255))],  # the ordinal form's widest row
    [(k,) for k in range(200)],  # 2-byte row-count varint, fixed mode
    [(str(k),) for k in range(200)],  # ...and tagged mode
]


@pytest.mark.parametrize("resolver", [ordinal_of, None], ids=["ordinal", "named"])
@pytest.mark.parametrize("rows", ADVERSARIAL_ROWS, ids=repr)
def test_adversarial_payloads(rows, resolver):
    inserts = {"orders": rows}
    (got_ins, got_del, _), named = batch_round_trip(
        9, inserts, {}, resolver=resolver
    )
    assert named == (resolver is None)
    assert_events_identical(got_ins, inserts)
    assert got_del == {}


@pytest.mark.parametrize("resolver", [ordinal_of, None], ids=["ordinal", "named"])
def test_nan_rejected_by_both_forms(resolver):
    bad = {"orders": [(float("nan"),)]}
    with pytest.raises(DurabilityError):
        encode_batch(1, bad, {}, None, resolver)
    # NaN smuggled into a numeric column (fixed-mode candidate) too
    bad_fixed = {"orders": [(1.5,), (float("nan"),)]}
    with pytest.raises(DurabilityError):
        encode_batch(1, bad_fixed, {}, None, resolver)
    with pytest.raises(DurabilityError):
        encode_prepare(1, "g", {}, bad, None, resolver)


def test_non_scalar_values_and_negative_counts_are_refused():
    with pytest.raises(DurabilityError):
        encode_batch(1, {"orders": [(b"bytes",)]}, {}, None, ordinal_of)
    # -1 is outside the ordinal form's u32 and no varint holds it
    with pytest.raises(DurabilityError):
        encode_batch(1, {"orders": [(1,)]}, {}, {"orders": -1}, ordinal_of)


# -- what pushes a record to the named form ---------------------------------


@pytest.mark.parametrize(
    "inserts, counts",
    [
        ({"orders": [tuple(range(256))]}, None),  # arity > u8, fixed mode
        ({"orders": [tuple([None] * 256)]}, None),  # arity > u8, tagged mode
        ({"orders": [(None,), tuple([None] * 256)]}, None),  # one wide row
        ({"no_such_table": [(1,)]}, None),  # not in the catalog
        ({"w150": [(1,)]}, None),  # ordinal ≥ 128
        ({name: [(1,)] for name in WIDE_TABLES[:128]}, None),  # ≥ 128 blocks
        ({"orders": [(1,)]}, {"orders": 2**32}),  # count beyond u32
        ({"orders": [(1,)]}, {"no_such_table": 1}),
        ({"orders": [(1,)]}, {n: 1 for n in WIDE_TABLES[:128]}),
    ],
    ids=[
        "wide-fixed",
        "wide-tagged",
        "wide-ragged",
        "unknown-table",
        "high-ordinal",
        "many-tables",
        "big-count",
        "unknown-count-table",
        "many-counts",
    ],
)
def test_inexpressible_records_take_the_named_form(inserts, counts):
    (got_ins, _, got_counts), named = batch_round_trip(1, inserts, {}, counts)
    assert named
    assert_events_identical(got_ins, inserts)
    assert got_counts == counts
    # the decide carrying the same counts follows the same rule
    if counts is not None:
        payload = encode_decide(2, "g", True, counts, ordinal_of)
        assert is_named(payload)
        assert decode_decide(payload) == ("g", True, counts)


def test_the_ordinal_form_reaches_its_limits_exactly():
    # 127 blocks, ordinal 127, 255 columns, a u32-max count: still ordinal
    inserts = {name: [(1,)] for name in WIDE_TABLES[:127]}
    inserts[WIDE_TABLES[127]] = []  # empty tables write no block
    deletes = {WIDE_TABLES[127]: [tuple(range(255))]}
    counts = {WIDE_TABLES[127]: 2**32 - 1}
    (got_ins, got_del, got_counts), named = batch_round_trip(
        1, inserts, deletes, counts
    )
    assert not named
    assert_events_identical(got_ins, inserts)
    assert_events_identical(got_del, deletes)
    assert got_counts == counts


def test_unresolvable_ordinal_is_loud():
    payload = encode_batch(1, {"t7": [(1,)]}, {}, None, ordinal_of)
    with pytest.raises(DurabilityError):
        decode_batch(payload, TABLES[:3])  # catalog too small: ord 7
    # without a table list the ordinals come back raw (the scan-level
    # view); replay always passes the catalog's list
    ins, _, _ = decode_batch(payload)
    assert ins == {7: [(1,)]}


def test_multi_entry_counts_resolution_and_bounds():
    payload = encode_batch(
        1,
        {"orders": [(1,)], "lineitem": [(2,)]},
        {},
        {"orders": 10, "lineitem": 20},
        ordinal_of,
    )
    _, _, counts = decode_batch(payload, TABLES)
    assert counts == {TABLES[0]: 10, TABLES[1]: 20}
    _, _, raw = decode_batch(payload)
    assert raw == {0: 10, 1: 20}
    # counts referencing an ordinal beyond the catalog are loud
    tall = encode_batch(1, {"t7": [(1,)]}, {}, {"t7": 3}, ordinal_of)
    with pytest.raises(DurabilityError):
        decode_batch(tall, TABLES[:3])
    # ...including when only the COUNTS ordinal is unresolvable (a
    # hand-corrupted pair: the last 5 payload bytes are ord + u32)
    bad = bytearray(
        encode_batch(9, {"lineitem": [(1, 2.0)]}, {}, {"lineitem": 4}, ordinal_of)
    )
    bad[-5] = 100
    with pytest.raises(DurabilityError):
        decode_batch(bytes(bad), TABLES)


# -- golden bytes -----------------------------------------------------------
#
# Four frames exactly as the commit BEFORE the named form existed wrote
# them (hex of length + CRC + payload).  The ordinal form is the hot
# path and the on-disk format of every existing log: this build must
# read these bytes and write these bytes.

GOLDEN_TABLES = ["orders", "items", "notes"]


def _golden_ordinal(name):
    return GOLDEN_TABLES.index(name) if name in GOLDEN_TABLES else None


GOLDEN = [
    (  # fixed-stride inserts into two tables, with counts
        "000000323fd8da4db207010200000262640201402500000000000002403480"
        "000000000001000262620201010201000200000000020100000002",
        decode_batch,
        (
            {"orders": [(1, 10.5), (2, 20.5)], "items": [(1, 1), (2, 1)]},
            {},
            {"orders": 2, "items": 2},
        ),
        lambda ins, dele, counts: encode_batch(
            7, ins, dele, counts, _golden_ordinal
        ),
    ),
    (  # tagged rows with a NULL and strings, a delete block, 2-byte seq
        "00000023d8f33bfab2ac02000102010203030200050668c3a96c6c6f030304"
        "020500010100026262010101",
        decode_batch,
        (
            {"notes": [(1, None, "héllo"), (2, True, "")]},
            {"items": [(1, 1)]},
            None,
        ),
        lambda ins, dele, counts: encode_batch(
            300, ins, dele, counts, _golden_ordinal
        ),
    ),
    (  # a prepare
        "0000002151ef4e56b30904672d31370001000002626401033ff00000000000"
        "00010100026262010201",
        decode_prepare,
        ("g-17", {"orders": [(3, 1.0)]}, {"items": [(2, 1)]}, None),
        lambda gid, ins, dele, counts: encode_prepare(
            9, gid, ins, dele, counts, _golden_ordinal
        ),
    ),
    (  # a commit decide with counts
        "00000014c226a87fb40a0104672d3137010200000000030100000001",
        decode_decide,
        ("g-17", True, {"orders": 3, "items": 1}),
        lambda gid, verdict, counts: encode_decide(
            10, gid, verdict, counts, _golden_ordinal
        ),
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
        decoded = decode(blob, GOLDEN_TABLES, record.start, record.end)
        assert decoded == expected
        payload = reencode(*decoded)
        assert not is_named(payload)
        assert _framed(payload).hex() == frame


# -- logs and headers -------------------------------------------------------


def test_control_and_binary_frames_mix_in_one_log(tmp_path):
    path = str(tmp_path / "wal.log")
    wal = WriteAheadLog(path)
    wal.append("open", database="db")
    first = wal.append_batch({"orders": [(1, 2)]}, {}, ordinal_of=ordinal_of)
    wal.append("install", tables=["orders"])
    second = wal.append_batch({"ghost": [(5, None)]}, {}, ordinal_of=ordinal_of)
    third = wal.append_batch({"orders": [(6,)]}, {})  # no ordinals at all
    wal.append_prepare("g1", {"orders": [(7,)]}, {}, ordinal_of=ordinal_of)
    wal.append_decide("g1", True, {"orders": 3}, ordinal_of=ordinal_of)
    wal.append_decide("g2", False)
    wal.sync()
    wal.close()
    assert [r["named"] for r in (first, second, third)] == [False, True, True]
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
        return scan.data, TABLES, scan.records[k].start, scan.records[k].end

    assert decode_batch(*span(1))[0] == {"orders": [(1, 2)]}
    assert decode_batch(*span(3))[0] == {"ghost": [(5, None)]}
    assert decode_batch(*span(4))[0] == {"orders": [(6,)]}
    assert decode_prepare(*span(5))[:2] == ("g1", {"orders": [(7,)]})
    assert decode_decide(*span(6)) == ("g1", True, {"orders": 3})
    assert decode_decide(*span(7)) == ("g2", False, None)


def test_fresh_logs_carry_the_v2_header(tmp_path):
    path = str(tmp_path / "wal.log")
    WriteAheadLog(path).close()
    with open(path, "rb") as handle:
        assert handle.read() == WAL_MAGIC
    assert WAL_MAGIC[-1] == 2


# -- damage detection on binary frames --------------------------------------


def test_corrupted_binary_frame_stops_the_scan(tmp_path):
    path = str(tmp_path / "wal.log")
    wal = WriteAheadLog(path)
    wal.append_batch({"orders": [(1, 2, 3)]}, {}, ordinal_of=ordinal_of)
    wal.append_batch({"orders": [(4, 5, 6)]}, {}, ordinal_of=ordinal_of)
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
        bytes([BATCH_V2_TAG, 1, 4, 0, 0]),  # flags bit 2 does not exist
        bytes([BATCH_V2_TAG, 1, 0, 1, 0, 1, 1, 1, 9]),  # value tag 9
        bytes([DECIDE_V2_TAG, 1, 7, 1, 0x67, 0]),  # verdict byte 7
        bytes([BATCH_V2_TAG, 1, 2, 1, 5, 0x61]),  # named: name overruns
        bytes([BATCH_V2_TAG, 1, 1, 0, 0, 3, 0, 0]),  # counts overrun
        bytes([BATCH_V2_TAG, 1, 0, 1, 0, 0, 1, 0x62, 5, 1]),  # 5 rows, 1 held
    ],
    ids=[
        "mode",
        "flags",
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
        decode(blob, TABLES, record.start, record.end)


def test_a_decoder_refuses_another_kinds_record():
    prepare = encode_prepare(1, "g", {"orders": [(1,)]}, {}, None, ordinal_of)
    with pytest.raises(DurabilityError):
        decode_batch(prepare, TABLES)
    with pytest.raises(DurabilityError):
        decode_decide(prepare, TABLES)


def test_truncated_v2_header_stops_the_scan():
    # a frame torn inside the seq varint fails even the header parse
    bogus = bytes([BATCH_V2_TAG, 0xFF])
    records, valid_length, tail = scan_frames(_framed(bogus))
    assert records == []
    assert tail == "undecodable payload"


def test_truncated_fixed_stride_block_is_detected():
    # a fixed-stride block claiming more rows than the payload holds
    good = encode_batch(1, {"orders": [(1, 2)]}, {}, None, ordinal_of)
    bogus = good[:-1]  # drop the last row byte
    with pytest.raises(DurabilityError):
        decode_batch(bogus, TABLES)
    # ...and trailing garbage past a complete decode is refused too
    with pytest.raises(DurabilityError):
        decode_batch(good + b"\x00", TABLES)
    # ...also when the garbage is the next frame of a larger buffer
    with pytest.raises(DurabilityError):
        decode_batch(good + good, TABLES, 0, len(good) - 1)


def test_unknown_payload_format_byte_stops_the_scan():
    records, valid_length, tail = scan_frames(_framed(b"\x99whatever"))
    assert records == []
    assert tail == "unknown payload format"
