"""Checkpoint files stay byte-identical to the streamed encoding.

``write_checkpoint`` encodes the whole document with one ``json.dumps``
call (json's C encoder) and writes it in one write, where it used to
stream it with ``json.dump`` (json's pure-Python ``iterencode``).  The
bytes on disk must not move: ``CHECKPOINT_FORMAT`` is still 1, and a
state directory written by the streaming writer must reopen as before.
``tests/data/streamed_state`` is such a directory — a checkpoint plus a WAL
tail with one committed batch after it — written by the streaming
writer from the DDL and sessions :data:`EXPECTED` describes.
"""

from __future__ import annotations

import json
import os
import shutil

from repro import Tintin
from repro.durability import load_checkpoint, write_checkpoint
from repro.durability.checkpoint import CHECKPOINT_FILE, build_checkpoint_payload

STREAMED_STATE = os.path.join(os.path.dirname(__file__), "data", "streamed_state")

#: the tables the streamed state directory holds once its WAL tail replays
EXPECTED = {
    "customer": [
        (1, "Zoë", "2020-02-29", True),
        (2, 'say "hi"\\', None, False),
        (3, "plain", "1999-12-31", None),
    ],
    "orders": [
        (11, 2, 1e300, None),
        (12, None, float("inf"), "∞"),
        (13, 3, 250.0, "tail"),
    ],
    "tag": [("a", None), (None, 2.5), ("b", -0.0)],
}


def streamed(path: str, payload: dict) -> None:
    """The checkpoint encoding as the streaming writer produced it."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def test_checkpoint_bytes_equal_the_streamed_dump(tmp_path):
    directory = str(tmp_path / "state")
    tintin = Tintin.open(directory)
    db = tintin.db
    db.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, x DOUBLE, s VARCHAR, d DATE)"
    )
    db.insert_rows(
        "t",
        [
            (1, 0.1, "é \"q\" \\ \n ∞", "2020-01-31"),
            (2, float("inf"), None, None),
            (3, -0.0, "", "1999-12-01"),
            (2**70, 1e-300, "x" * 300, None),
        ],
    )
    payload = build_checkpoint_payload(tintin, 0)
    path = write_checkpoint(directory, payload)
    streamed(str(tmp_path / "streamed.json"), payload)
    assert read_bytes(path) == read_bytes(str(tmp_path / "streamed.json"))
    tintin.close(checkpoint=False)


def test_a_streamed_checkpoint_is_rewritten_byte_for_byte(tmp_path):
    payload = load_checkpoint(STREAMED_STATE)
    path = write_checkpoint(str(tmp_path), payload)
    assert read_bytes(path) == read_bytes(os.path.join(STREAMED_STATE, CHECKPOINT_FILE))


def test_a_streamed_state_directory_reopens_to_the_same_tables(tmp_path):
    directory = str(tmp_path / "state")
    shutil.copytree(STREAMED_STATE, directory)
    tintin = Tintin.open(directory)
    tables = {
        t.schema.name: t.rows_snapshot()
        for t in tintin.db.catalog.tables(namespace="main")
    }
    assert tables == EXPECTED
    assert [repr(v) for v in tables["tag"][2]] == ["'b'", "-0.0"]
    assert tintin.db.query("SELECT id FROM big").rows == [(11,), (12,), (13,)]
    assert tintin.full_check_commit().committed
    session = tintin.create_session()
    session.insert("orders", [(14, 1, -5.0, None)])
    assert not session.commit().committed  # positiveTotal came back
    tintin.close()
