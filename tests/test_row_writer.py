"""The generated row writer against the interpreted per-row path.

Hypothesis drives the same writes into two databases built from the
same DDL: the **subject** runs the engine (each table's generated
validator and writer, :mod:`repro.minidb.writer`), the **oracle** runs
the per-row path kept in ``tests/row_path_oracle.py``.  After every step
both must hold the same rows (value *and* type) under the same rowids,
the same unique and secondary index maps, the same ``data_version``
and ``_next_rowid``, and must have raised the same exception type with
the same message — so the state a failed write leaves behind is
compared too.

The tables cover a keyed parent with a UNIQUE key, a child with an FK
to that primary key, an FK to the non-PK UNIQUE key and a self-FK, and
a keyless table with a nullable composite UNIQUE key.  The values cover
bool into INTEGER, int-valued floats, NaN and ±infinity, over-long
VARCHARs, bad DATEs, NULLs, wrong arities and duplicate keys within a
batch and against stored rows.  The routes are ``insert_rows`` (with
and without an open transaction, then rolled back), ``apply_batch``
(deferred FKs, the batch rolled back on a violation) and ``load_rows``,
with secondary indexes built on demand between writes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConstraintViolation
from repro.minidb import Database
from repro.minidb.writer import APPLY, CHECK, INSERT, LOAD, VALIDATE, generate, row_code
from tests import row_path_oracle as interpreted

DDL = (
    "CREATE TABLE p (id INTEGER PRIMARY KEY, code VARCHAR(2) NOT NULL, "
    "score DOUBLE, born DATE, flag BOOLEAN, UNIQUE (code))",
    "CREATE TABLE c (id INTEGER PRIMARY KEY, pid INTEGER, pcode VARCHAR(2), "
    "boss INTEGER, note VARCHAR(3), "
    "FOREIGN KEY (pid) REFERENCES p (id), "
    "FOREIGN KEY (pcode) REFERENCES p (code), "
    "FOREIGN KEY (boss) REFERENCES c (id))",
    "CREATE TABLE k (a INTEGER, b DOUBLE, s VARCHAR(2), UNIQUE (a, s))",
)
TABLES = ("p", "c", "k")
#: the columns a secondary index may be built on, per table
INDEXABLE = {
    "p": [("score",), ("flag",), ("code", "id")],
    "c": [("pid",), ("note",), ("pid", "boss")],
    "k": [("b",), ("a",), ("a", "b", "s")],
}

ints = st.integers(0, 7)
#: values each column type accepts (an int-valued float and an int
#: into DOUBLE are coerced); NULL is one draw in four
GOOD = {
    "INTEGER": st.one_of(ints, st.just(2.0)),
    "DOUBLE": st.one_of(ints, st.sampled_from([0.5, 1.0, float("inf")])),
    "VARCHAR": st.text("abc", max_size=2),
    "DATE": st.sampled_from(["2020-01-31", "1999-12-01"]),
    "BOOLEAN": st.booleans(),
}
#: values each column type refuses
BAD = {
    "INTEGER": st.sampled_from([True, False, 2.5, "1", float("nan")]),
    "DOUBLE": st.sampled_from([float("nan"), True, "x"]),
    "VARCHAR": st.one_of(st.text("abc", min_size=4, max_size=5), ints),
    "DATE": st.sampled_from(["2020-13-01", "20-01-01", "x", 7]),
    "BOOLEAN": st.sampled_from([0, 1, "t"]),
}


def make_db() -> Database:
    db = Database("w")
    for ddl in DDL:
        db.execute(ddl)
    return db


def row_strategy(db: Database, name: str):
    """Rows of ``name``: mostly well-typed (so the constraint checks are
    reached), some as lists, and one batch in three holds a row with a
    refused value or the wrong arity."""
    columns = db.table(name).schema.columns
    kinds = [c.sql_type.kind for c in columns]
    good = st.tuples(
        *[st.one_of(st.none(), GOOD[k], GOOD[k], GOOD[k]) for k in kinds]
    )

    @st.composite
    def bad(draw):
        row = list(draw(good))
        if draw(st.booleans()):
            return tuple(row[:-1]) if draw(st.booleans()) else tuple(row) + (1,)
        position = draw(st.integers(0, len(row) - 1))
        row[position] = draw(BAD[kinds[position]])
        return tuple(row)

    clean = st.lists(st.one_of(good, good, good.map(list)), max_size=5)
    dirty = st.lists(st.one_of(good, good, bad()), min_size=1, max_size=5)
    return st.one_of(clean, clean, dirty)


SCHEMA = make_db()
ROWS = {name: row_strategy(SCHEMA, name) for name in TABLES}
table_names = st.sampled_from(TABLES)


@st.composite
def operations(draw):
    kind = draw(st.sampled_from(["insert", "insert_txn", "apply", "load", "index"]))
    name = draw(table_names)
    if kind == "index":
        return kind, name, draw(st.sampled_from(INDEXABLE[name]))
    if kind == "apply":
        inserts = {t: draw(ROWS[t]) for t in draw(st.sets(table_names, max_size=3))}
        deletes = {t: draw(st.integers(0, 2)) for t in draw(st.sets(table_names, max_size=2))}
        return kind, inserts, deletes
    return kind, name, draw(ROWS[name])


def typed(values) -> tuple:
    return tuple((type(v), v) for v in values)


def snapshot(db: Database) -> dict:
    state = {}
    for table in db.catalog.tables():
        state[table.name] = (
            table.data_version,
            table._next_rowid,
            {rowid: typed(row) for rowid, row in table._rows.items()},
            [
                (index.name, {typed(k): v for k, v in index._map.items()})
                for index in table.unique_indexes
            ],
            {
                positions: {typed(k): list(v) for k, v in index._map.items()}
                for positions, index in table.secondary_indexes.items()
            },
        )
    return state


def outcome(action):
    try:
        return "ok", action()
    except Exception as exc:  # compared, not swallowed
        detail = (exc.constraint, exc.table) if isinstance(exc, ConstraintViolation) else ()
        return type(exc), str(exc), detail


def first_rows(db: Database, deletes: dict) -> dict:
    """The batch's deletes: the first ``n`` stored rows of each table
    (the same rows on both sides while the states agree)."""
    return {t: db.table(t).rows_snapshot()[:n] for t, n in deletes.items()}


def step(subject: Database, oracle: Database, op) -> None:
    kind = op[0]
    if kind == "index":
        _, name, columns = op
        for db in (subject, oracle):
            db.table(name).ensure_secondary_index(columns)
        return
    if kind == "apply":
        _, inserts, deletes = op
        got = outcome(
            lambda: subject.apply_batch(inserts, first_rows(subject, deletes))
        )
        want = outcome(
            lambda: interpreted.apply_batch(oracle, inserts, first_rows(oracle, deletes))
        )
    elif kind == "load":
        _, name, rows = op
        got = outcome(lambda: subject.table(name).load_rows(rows))
        want = outcome(lambda: interpreted.load_rows(oracle.table(name), rows))
    else:
        _, name, rows = op
        in_txn = kind == "insert_txn"
        if in_txn:
            subject.begin()
            oracle.begin()
        got = outcome(lambda: subject.insert_rows(name, rows))
        want = outcome(lambda: interpreted.insert_rows(oracle, name, rows))
        assert got == want, op
        assert snapshot(subject) == snapshot(oracle), op
        if in_txn:
            subject.rollback()
            oracle.rollback()
    assert got == want, op
    assert snapshot(subject) == snapshot(oracle), op


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(operations(), min_size=1, max_size=8))
def test_generated_writer_matches_the_per_row_path(ops):
    subject, oracle = make_db(), make_db()
    for op in ops:
        step(subject, oracle, op)


def test_every_case_is_reached():
    """A fixed script through :func:`step` that reaches each check on
    each route, so a regression cannot hide behind a lucky draw."""
    subject, oracle = make_db(), make_db()
    script = [
        ("insert", "p", [(1, "a", 1, "2020-01-31", True), (2, "b", 2.0, None, None)]),
        ("insert", "p", [(3, "c", float("nan"), None, None)]),  # NaN
        ("insert", "p", [(3, "abc", 1.0, None, None)]),  # over-long VARCHAR
        ("insert", "p", [(3, "c", 1.0, "2020-13-01", None)]),  # bad DATE
        ("insert", "p", [(True, "c", 1.0, None, None)]),  # bool into INTEGER
        ("insert", "p", [(3.0, "c", 1.0, None, None)]),  # int-valued float
        ("insert", "p", [(4, None, 1.0, None, None)]),  # NOT NULL
        ("insert", "p", [(5, "d", 0.5, None, None), (5, "e", 0.5, None, None)]),
        ("insert", "p", [(6, "a", 0.5, None, None)]),  # duplicate UNIQUE
        ("index", "c", ("pid",)),
        ("insert", "c", [(1, 1, "a", None, "x"), (2, 9, None, None, None)]),  # FK
        ("insert", "c", [(3, None, "zz", None, None)]),  # FK to UNIQUE
        ("insert", "c", [(4, None, None, 4, None)]),  # self-FK, not yet there
        ("insert", "c", [(4, None, None, 1, None), (5, None, None, 4, None)]),
        ("insert_txn", "c", [(6, 2, "b", 5, "y"), (7, 3, None, None, None)]),
        ("apply", {"c": [(8, 9, None, None, None)]}, {}),  # deferred FK
        ("apply", {"c": [(9, 3, None, None, None)], "p": [(9, "z", 1, None, None)]}, {}),
        ("apply", {}, {"p": 1}),  # a delete that leaves children dangling
        ("load", "k", [(1, 1, "a"), (1, 2, "a")]),  # duplicate composite key
        ("load", "k", [(None, 1, "a"), (None, 1, "a"), [2, 2.5, None]]),
        ("load", "k", [(3, 1, "ab"), (3, "x", "ab")]),  # a type error mid-load
        ("index", "k", ("a", "b", "s")),
        ("insert", "k", [(4, 1, "b"), (4, 1, "b", 1)]),  # arity
    ]
    for op in script:
        step(subject, oracle, op)


def test_a_dropped_and_recreated_parent_is_probed_anew():
    """The writer's FK probes follow DDL: after the parent and child
    are dropped and created again under their names, a key only the
    old parent held no longer satisfies the child's FK."""
    subject, oracle = make_db(), make_db()
    for db in (subject, oracle):
        db.insert_rows("p", [(1, "a", 1.0, None, None)])
        db.insert_rows("c", [(1, 1, None, None, None)])
        db.execute("DROP TABLE c")
        db.execute("DROP TABLE p")
        db.execute(DDL[0])
        db.execute(DDL[1])
    step(subject, oracle, ("insert", "c", [(2, 1, None, None, None)]))
    step(subject, oracle, ("insert", "p", [(1, "a", 1.0, None, None)]))
    step(subject, oracle, ("insert", "c", [(2, 1, None, None, None)]))
    assert len(subject.table("c")) == 1


def test_an_update_checks_new_rows_like_an_insert():
    db = make_db()
    db.insert_rows("p", [(1, "a", 1.0, None, None)])
    db.insert_rows("c", [(1, 1, None, None, None)])
    with pytest.raises(ConstraintViolation, match="has no parent in p"):
        db.execute("UPDATE c SET pid = 7 WHERE id = 1")
    with pytest.raises(ConstraintViolation, match="NOT NULL column p.code"):
        db.execute("UPDATE p SET code = NULL WHERE id = 1")
    assert db.query("SELECT * FROM c").rows == [(1, 1, None, None, None)]


def test_writers_are_cached_until_their_stamp_moves():
    db = make_db()
    table = db.table("c")
    checker = db.checker
    functions = {m: row_code(table, m, checker) for m in (VALIDATE, LOAD, INSERT, APPLY, CHECK)}
    assert all(row_code(table, m, checker) is f for m, f in functions.items())
    # an index built on a first probe: only the writers that store move
    table.ensure_secondary_index(("note",))
    moved = {m for m, f in functions.items() if row_code(table, m, checker) is not f}
    assert moved == {LOAD, INSERT, APPLY}
    functions = {m: row_code(table, m, checker) for m in functions}
    # DDL elsewhere moves the catalog version: only the FK-probing ones
    db.execute("CREATE TABLE other (x INTEGER)")
    moved = {m for m, f in functions.items() if row_code(table, m, checker) is not f}
    assert moved == {INSERT, CHECK}


def test_generated_source_holds_no_ddl_text():
    db = Database("names")
    db.execute(
        "CREATE TABLE yak_parent (quokka INTEGER PRIMARY KEY, "
        "wombat VARCHAR(7) NOT NULL, UNIQUE (wombat))"
    )
    db.execute(
        "CREATE TABLE zebra_child (okapi INTEGER PRIMARY KEY, tapir DATE, "
        "ibex VARCHAR(9), FOREIGN KEY (ibex) REFERENCES yak_parent (wombat))"
    )
    for name in ("yak_parent", "zebra_child"):
        table = db.table(name)
        table.ensure_secondary_index(("okapi", "tapir") if name == "zebra_child" else ("wombat",))
        for mode in (VALIDATE, LOAD, INSERT, APPLY, CHECK):
            source, _ = generate(table, mode, db.checker.outgoing_fks(table))
            for word in ("yak", "quokka", "wombat", "zebra", "okapi", "tapir", "ibex"):
                assert word not in source
            assert "'" not in source and '"' not in source
