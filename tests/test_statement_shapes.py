"""Literal-free statement cache keys.

The statement cache is keyed by statement *shape* — the text with its
numeric and string literals lifted out — so ``… WHERE k = 4711`` and
``… WHERE k = 4712`` are one entry, parsed and planned once.  What this
file pins: one spelling is one entry, nothing of one call's constants
leaks into the next, and every hazard of splitting text with a regex
round-trips exactly as with ``plan_cache_enabled = False``.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, Tintin
from repro.errors import ExecutionError, ReproError, SQLSyntaxError
from repro.sqlparser import nodes as n
from repro.sqlparser.parser import parse_shape, parse_statement
from repro.sqlparser.shape import ShapeSplitter, statement_shape
from tests.shape_oracle import oracle_shape


def make_db() -> Database:
    db = Database("shapes")
    db.execute(
        "CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, "
        "o_total DOUBLE, o_note VARCHAR(40))"
    )
    db.execute("CREATE TABLE t1 (e8Bound1 INTEGER, x INTEGER, flag BOOLEAN)")
    db.insert_rows(
        "orders", [(key, key * 1.5, f"note {key}") for key in range(4700, 4720)]
    )
    db.insert_rows("t1", [(k, k % 3, k % 2 == 0) for k in range(10)])
    return db


def entries(db: Database) -> int:
    return len(db.plan_cache)


class TestStatementShape:
    def test_numbers_and_strings_are_lifted(self):
        assert statement_shape(
            "SELECT * FROM orders WHERE o_orderkey = 4711 AND o_note = 'x'"
        ) == ("SELECT * FROM orders WHERE o_orderkey = ? AND o_note = ?", (4711, "x"))
        assert statement_shape("INSERT INTO t VALUES (1, 2.5, 1e3, 'a''b')") == (
            "INSERT INTO t VALUES (?, ?, ?, ?)",
            (1, 2.5, 1000.0, "a'b"),
        )

    def test_spelling_does_not_reach_the_key(self):
        shapes = {
            statement_shape(sql)
            for sql in (
                "SELECT a FROM t WHERE k = 1",
                "  select a from t where k = 2\n",
                "SELECT  a\tFROM t\n  WHERE k  =  3  ",
                "Select a From t /* why */ Where k = 4 -- trailing",
            )
        }
        assert {shape for shape, _ in shapes} == {"SELECT a FROM t WHERE k = ?"}

    def test_identifier_case_and_string_contents_are_kept(self):
        # identifier case reaches result column names: a different shape
        assert statement_shape("SELECT A FROM t")[0] != statement_shape(
            "SELECT a FROM t"
        )[0]
        assert statement_shape("SELECT a FROM t WHERE s = 'Select  1 -- x'") == (
            "SELECT a FROM t WHERE s = ?",
            ("Select  1 -- x",),
        )

    def test_digits_inside_identifiers_are_not_numbers(self):
        assert statement_shape("SELECT e8Bound1, t1.x2 FROM t1 WHERE x2 = 3") == (
            "SELECT e8Bound1, t1.x2 FROM t1 WHERE x2 = ?",
            (3,),
        )

    def test_signs_null_and_booleans_stay_in_the_shape(self):
        assert statement_shape("SELECT a FROM t WHERE k = -5 AND j = +2.5") == (
            "SELECT a FROM t WHERE k = -? AND j = +?",
            (5, 2.5),
        )
        assert statement_shape(
            "SELECT a FROM t WHERE a = NULL OR b = TRUE OR c = false"
        ) == ("SELECT a FROM t WHERE a = NULL OR b = TRUE OR c = FALSE", ())

    def test_in_lists_of_different_lengths_are_different_shapes(self):
        two = statement_shape("SELECT a FROM t WHERE k IN (1, 2)")
        three = statement_shape("SELECT a FROM t WHERE k IN (1, 2, 3)")
        assert two == ("SELECT a FROM t WHERE k IN (?, ?)", (1, 2))
        assert three == ("SELECT a FROM t WHERE k IN (?, ?, ?)", (1, 2, 3))

    def test_what_is_left_as_written(self):
        for sql in (
            "CREATE TABLE v (s VARCHAR(25))",
            "DROP TABLE v",
            "CALL safeCommit(1)",
            "TRUNCATE TABLE v",
            "EXPLAIN SELECT 1 FROM t",
            "SELECT a FROM t WHERE k = ?",  # a user's ? is not a placeholder
        ):
            assert statement_shape(sql) is None, sql
        # ... but a ? inside a string literal is just a character
        assert statement_shape("SELECT a FROM t WHERE s = 'who?'") == (
            "SELECT a FROM t WHERE s = ?",
            ("who?",),
        )

    def test_shapes_parse_to_parameter_nodes(self):
        stmt = parse_shape("DELETE FROM t WHERE k = ? AND j = -?")
        assert stmt == n.Delete(
            "t",
            None,
            n.And(
                (
                    n.Comparison("=", n.ColumnRef("k"), n.Parameter(0)),
                    n.Comparison("=", n.ColumnRef("j"), n.Parameter(1, negated=True)),
                )
            ),
        )
        # user text never produces one
        with pytest.raises(SQLSyntaxError, match="unexpected character '\\?'"):
            parse_statement("DELETE FROM t WHERE k = ?")


class TestOneEntryPerShape:
    def test_select_constants_share_one_entry(self):
        db = make_db()
        first = db.query("SELECT o_orderkey, o_total FROM orders WHERE o_orderkey = 4711")
        second = db.query("SELECT o_orderkey, o_total FROM orders WHERE o_orderkey = 4712")
        assert first.rows == [(4711, 4711 * 1.5)]
        assert second.rows == [(4712, 4712 * 1.5)]  # nothing baked in
        stats = db.plan_cache_stats.snapshot()
        assert (stats["misses"], stats["hits"], entries(db)) == (1, 1, 1)

    def test_insert_delete_update_share_entries(self):
        db = make_db()
        assert db.execute("INSERT INTO orders VALUES (1, 1.5, 'a')") == 1
        assert db.execute("INSERT INTO orders VALUES (2, 2.5, 'it''s')") == 1
        assert db.execute("UPDATE orders SET o_total = 5 WHERE o_orderkey = 1") == 1
        assert db.execute("UPDATE orders SET o_total = 7 WHERE o_orderkey = 2") == 1
        assert db.query("SELECT * FROM orders WHERE o_orderkey < 3").rows == [
            (1, 5.0, "a"),
            (2, 7.0, "it's"),
        ]
        assert db.execute("DELETE FROM orders WHERE o_orderkey = 1") == 1
        assert db.execute("DELETE FROM orders WHERE o_orderkey = 2") == 1
        assert db.query("SELECT * FROM orders WHERE o_orderkey < 3").rows == []
        stats = db.plan_cache_stats.snapshot()
        assert (stats["dml_ast_misses"], stats["dml_ast_hits"]) == (3, 3)
        assert (stats["misses"], stats["hits"]) == (1, 1)
        assert entries(db) == 4

    def test_one_spelling_is_one_entry_everywhere(self):
        """db.execute, db.query and Session.execute share one lookup:
        whitespace runs and keyword case never make a second entry."""
        tintin = Tintin(make_db())
        tintin.install()
        db, session = tintin.db, tintin.create_session()
        spellings = [
            "SELECT o_total FROM orders WHERE o_orderkey = 4701",
            "SELECT o_total FROM orders WHERE o_orderkey = 4702\n",
            "  select o_total  from orders\n where o_orderkey = 4703",
        ]
        results = [
            db.execute(spellings[0]).rows,
            db.query(spellings[1]).rows,
            session.execute(spellings[2]).rows,
        ]
        assert results == [[(4701 * 1.5,)], [(4702 * 1.5,)], [(4703 * 1.5,)]]
        stats = db.plan_cache_stats.snapshot()
        assert (stats["misses"], stats["hits"], entries(db)) == (1, 2, 1)
        for spelling in spellings:
            assert spelling in db.plan_cache
        before = entries(db)
        for sql in (
            "DELETE FROM orders WHERE o_orderkey = 4701",
            "delete  from orders where o_orderkey = 4702 ",
        ):
            assert session.execute(sql) == 1
        assert entries(db) == before + 1
        assert sorted(session.pending_counts().items()) == [
            ("orders", (0, 2)),
            ("t1", (0, 0)),
        ]

    def test_session_dml_sees_its_own_constants(self):
        tintin = Tintin(make_db())
        tintin.install()
        session = tintin.create_session()
        session.execute("INSERT INTO orders VALUES (10, 1.0, 'ten')")
        session.execute("INSERT INTO orders VALUES (11, 2.0, 'eleven')")
        session.execute("UPDATE orders SET o_note = 'x' WHERE o_orderkey = 4700")
        session.execute("UPDATE orders SET o_note = 'y' WHERE o_orderkey = 4701")
        rows = session.query(
            "SELECT o_orderkey, o_note FROM orders WHERE o_orderkey < 4702"
        ).rows
        assert sorted(rows) == [(10, "ten"), (11, "eleven"), (4700, "x"), (4701, "y")]


#: statement scripts whose results (or errors) must be identical with
#: the cache on — every statement run twice, the second a shape hit —
#: and with ``plan_cache_enabled = False``
HAZARDS = [
    # string literals containing digits, quotes, ? and --
    "INSERT INTO orders VALUES (1, 10.5, 'order 66 of 99')",
    "INSERT INTO orders VALUES (2, 0.25, 'it''s -- not a comment')",
    "INSERT INTO orders VALUES (3, 3e2, 'what? 7')",
    "INSERT INTO orders VALUES (4, 4, '')",
    "SELECT * FROM orders WHERE o_note = 'order 66 of 99'",
    "SELECT * FROM orders WHERE o_note = 'it''s -- not a comment'",
    "SELECT * FROM orders WHERE o_note = 'what? 7' -- a real comment 12",
    "SELECT o_orderkey FROM orders WHERE o_note = ''",
    "SELECT o_orderkey, 'lit', 7 FROM orders WHERE o_orderkey < 3",
    # identifiers with digits
    "SELECT e8Bound1 FROM t1 WHERE e8Bound1 = 8",
    "SELECT t1.e8Bound1, t1.x FROM t1 WHERE t1.x = 1 AND e8Bound1 > 2",
    "UPDATE t1 SET x = 9 WHERE e8Bound1 = 4",
    # negative and decimal numbers
    "INSERT INTO t1 VALUES (-5, -0, TRUE)",
    "INSERT INTO orders VALUES (-7, -2.5, 'neg')",
    "SELECT * FROM t1 WHERE e8Bound1 = -5",
    "SELECT * FROM t1 WHERE e8Bound1 = - -8",
    "SELECT * FROM orders WHERE o_total = -2.50",
    "SELECT * FROM orders WHERE o_total < 1e1 AND o_total > -1.5E1",
    "SELECT o_orderkey - 1, o_total * -2 FROM orders WHERE o_orderkey <= 2",
    "SELECT * FROM t1 WHERE x = 2-1",
    # IN lists, BETWEEN
    "SELECT e8Bound1 FROM t1 WHERE e8Bound1 IN (1, 2)",
    "SELECT e8Bound1 FROM t1 WHERE e8Bound1 IN (1, 2, 3)",
    "SELECT e8Bound1 FROM t1 WHERE e8Bound1 NOT IN (1, 2, NULL)",
    "SELECT e8Bound1 FROM t1 WHERE e8Bound1 BETWEEN 2 AND 4",
    "SELECT e8Bound1 FROM t1 WHERE 3 BETWEEN x AND e8Bound1",
    # NULL / TRUE / FALSE are part of the shape
    "SELECT e8Bound1 FROM t1 WHERE flag = TRUE AND x = 0",
    "SELECT e8Bound1 FROM t1 WHERE flag = FALSE AND x = 0",
    "SELECT e8Bound1 FROM t1 WHERE x = NULL",
    "INSERT INTO t1 VALUES (20, NULL, FALSE)",
    "SELECT e8Bound1 FROM t1 WHERE x IS NULL",
    # subqueries carry the constants inward
    "SELECT o_orderkey FROM orders WHERE EXISTS "
    "(SELECT * FROM t1 WHERE t1.e8Bound1 = 3 AND orders.o_orderkey = 4703)",
    "SELECT e8Bound1 FROM t1 WHERE x IN (SELECT x FROM t1 WHERE e8Bound1 = 7)",
    "SELECT e8Bound1 FROM t1 WHERE (SELECT COUNT(*) FROM t1 AS u WHERE u.x = t1.x AND u.e8Bound1 > 2) > 2",
    "SELECT e8Bound1 FROM t1 WHERE x = 1 UNION SELECT o_orderkey FROM orders WHERE o_orderkey = 4705",
    "INSERT INTO t1 SELECT o_orderkey, 5, TRUE FROM orders WHERE o_orderkey = 4706",
    # DML
    "UPDATE orders SET o_total = o_total + 1.5, o_note = 'bumped 2' WHERE o_orderkey = 4707",
    "DELETE FROM orders WHERE o_orderkey = 4708",
    "DELETE FROM t1 WHERE e8Bound1 IN (0, 1) AND flag = TRUE",
    "SELECT * FROM orders WHERE o_orderkey > 4705 AND o_orderkey < 4710",
    # EXPLAIN ANALYZE of a parameterised shape executes with its constants
    "SELECT o_note FROM orders WHERE o_orderkey = 4709",
    # DDL and CALL are left as written
    "CREATE TABLE extra (v VARCHAR(25), w DECIMAL(10, 2))",
    "INSERT INTO extra VALUES ('twenty-five 25', 10.2)",
    "SELECT * FROM extra",
    "DROP TABLE extra",
    # errors surface as they would uncached
    "SELECT * FROM orders WHERE o_orderkey = 'seven'",
    "SELECT * FROM t1 WHERE x = 1 / 0",
    "SELECT * FROM orders WHERE o_note = -'abc'",
    "INSERT INTO orders VALUES (1, 1.0)",
    "INSERT INTO t1 VALUES ('one', 2, TRUE)",
    "SELECT * FROM nowhere WHERE k = 1",
    "DELETE FROM nowhere WHERE k = 1",
    "SELECT * FROM orders WHERE o_orderkey = ?",
    "SELECT * FROM orders WHERE o_orderkey = 1 AND",
    "SELECT 1 2 FROM orders WHERE",
    "SELECT * FROM orders WHERE o_note = 'unterminated 5",
    "SELECT * FROM orders /* unterminated 5",
    "INSERT INTO orders VALUES (1, 'x' 'y', 3)",
]


def run_script(cache_enabled: bool) -> list:
    db = make_db()
    db.plan_cache_enabled = cache_enabled
    db.create_procedure("echo", lambda _db, *args: list(args))
    outcomes = []
    for sql in HAZARDS + ["CALL echo(1, 'two 2', -3.5)"]:
        for _ in range(2):
            try:
                result = db.execute(sql)
                if hasattr(result, "rows"):
                    result = (result.columns, result.rows)
            except ReproError as error:
                result = (type(error).__name__, str(error))
            outcomes.append((sql, result))
    outcomes.append(
        {name: db.table(name).rows_snapshot() for name in ("orders", "t1")}
    )
    return outcomes


class TestHazardsRoundTrip:
    def test_cached_shapes_equal_fresh_statements(self):
        cached, fresh = run_script(True), run_script(False)
        for with_cache, without in zip(cached, fresh):
            assert with_cache == without
        assert len(cached) == len(fresh)

    def test_values_keep_their_types(self):
        db = make_db()
        db.execute("INSERT INTO orders VALUES (7, 3, '7')")  # int into DOUBLE
        db.execute("INSERT INTO orders VALUES (8, 4.0, '8.0')")
        rows = db.query("SELECT * FROM orders WHERE o_orderkey < 10").rows
        assert rows == [(7, 3.0, "7"), (8, 4.0, "8.0")]
        assert [type(v) for v in rows[0]] == [int, float, str]

    def test_explain_of_a_parameterised_shape(self):
        db = make_db()
        first = db.execute("EXPLAIN SELECT * FROM orders WHERE o_orderkey = 4711")
        assert "plan cache: miss" in first
        assert "-- shape: SELECT * FROM orders WHERE o_orderkey = ?" in first
        assert "IndexScan(orders AS orders on (o_orderkey) via PRIMARY KEY)" in first
        # another constant is the same entry — EXPLAIN reports exactly
        # the entry the query would use, and the query then hits it
        second = db.execute("EXPLAIN SELECT * FROM orders WHERE o_orderkey = 4712")
        assert "plan cache: hit" in second
        assert db.query("SELECT * FROM orders WHERE o_orderkey = 4713").rows == [
            (4713, 4713 * 1.5, "note 4713")
        ]
        assert db.plan_cache_stats.snapshot()["misses"] == 1
        analyzed = db.execute(
            "EXPLAIN ANALYZE SELECT * FROM orders WHERE o_orderkey = 4714"
        )
        assert "(actual rows=1" in analyzed and "(1 rows scanned)" in analyzed
        missing = db.execute(
            "EXPLAIN ANALYZE SELECT * FROM orders WHERE o_orderkey = 1"
        )
        assert "-- 0 rows in" in missing and "(0 rows scanned)" in missing
        with pytest.raises(ExecutionError):
            db.execute("EXPLAIN DELETE FROM orders WHERE o_orderkey = 1")

    def test_ddl_and_call_never_enter_the_cache(self):
        db = make_db()
        db.create_procedure("echo", lambda _db, *args: list(args))
        before = entries(db)
        assert db.execute("CALL echo(1, 'two')") == [1, "two"]
        db.execute("CREATE TABLE extra (v VARCHAR(25))")
        db.execute("DROP TABLE extra")
        assert entries(db) == before
        assert db.plan_cache_stats.snapshot() == {
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
            "evictions": 0,
            "dml_ast_hits": 0,
            "dml_ast_misses": 0,
        }

    def test_statements_that_fail_to_parse_or_plan_are_not_cached(self):
        db = make_db()
        for sql in (
            "SELECT * FROM orders WHERE o_orderkey = 1 AND",
            "SELECT * FROM nowhere WHERE k = 1",
        ):
            with pytest.raises(ReproError):
                db.execute(sql)
        assert entries(db) == 0
        # the syntax error carries the position in the text as written
        with pytest.raises(SQLSyntaxError) as caught:
            db.execute("SELECT *   FROM orders WHERE o_orderkey = 12345 AND")
        fresh = make_db()
        fresh.plan_cache_enabled = False
        with pytest.raises(SQLSyntaxError) as expected:
            fresh.execute("SELECT *   FROM orders WHERE o_orderkey = 12345 AND")
        assert str(caught.value) == str(expected.value)


class TestSharedEntries:
    def test_concurrent_executions_see_only_their_own_constants(self):
        """Two threads, one shape, different constants: the cached plan
        and AST are shared and immutable, the constants are not."""
        tintin = Tintin(make_db())
        tintin.install()
        db = tintin.db
        db.query("SELECT o_orderkey, o_note FROM orders WHERE o_orderkey = 4700")
        failures: list = []
        start = threading.Barrier(4)

        def reader(offset: int) -> None:
            session = tintin.create_session()
            start.wait(timeout=10)
            for step in range(400):
                key = 4700 + (offset + step) % 20
                sql = f"SELECT o_orderkey, o_note FROM orders WHERE o_orderkey = {key}"
                rows = (session.execute if step % 2 else db.query)(sql).rows
                if rows != [(key, f"note {key}")]:
                    failures.append((key, rows))

        def writer(offset: int) -> None:
            # staged DML resolves its WHERE against committed rows; the
            # session's own reads then see the staged result
            session = tintin.create_session()
            start.wait(timeout=10)
            read = "SELECT o_orderkey, o_total, o_note FROM orders WHERE o_orderkey = {}"
            for step in range(200):
                fresh = 100_000 * offset + step
                kept = 4700 + (offset + step) % 20
                session.execute(f"INSERT INTO orders VALUES ({fresh}, {fresh}.5, 'w{offset}')")
                session.execute(f"UPDATE orders SET o_total = {step} WHERE o_orderkey = {kept}")
                seen = [
                    session.query(read.format(fresh)).rows,
                    session.query(read.format(kept)).rows,
                ]
                gone = 4700 + (offset + step + 5) % 20
                session.execute(f"DELETE FROM orders WHERE o_orderkey = {gone}")
                seen.append(session.query(read.format(gone)).rows)
                if seen != [
                    [(fresh, fresh + 0.5, f"w{offset}")],
                    [(kept, float(step), f"note {kept}")],
                    [],
                ]:
                    failures.append((offset, step, seen))
                session.discard()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=reader, args=(1,)),
                threading.Thread(target=reader, args=(7,)),
                threading.Thread(target=writer, args=(1,)),
                threading.Thread(target=writer, args=(2,)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        # one SELECT shape for the readers, one for the writers' read,
        # one INSERT, one UPDATE, one DELETE
        assert entries(db) == 5

    def test_ddl_replans_the_shape_entry_once(self):
        db = make_db()
        sql = "SELECT o_total FROM orders WHERE o_orderkey = {}"
        db.query(sql.format(4701))
        db.execute("CREATE TABLE bump (x INTEGER)")
        assert "hit (stale, re-planning)" in db.execute("EXPLAIN " + sql.format(4702))
        assert db.query(sql.format(4703)).rows == [(4703 * 1.5,)]
        assert db.query(sql.format(4704)).rows == [(4704 * 1.5,)]
        stats = db.plan_cache_stats.snapshot()
        assert (stats["misses"], stats["invalidations"]) == (1, 1)

    def test_row_drift_replans_dml_victim_queries_once(self):
        db = make_db()
        delete = "DELETE FROM t1 WHERE e8Bound1 = {}"
        assert db.execute(delete.format(0)) == 1
        db.insert_rows("t1", [(k, k, False) for k in range(100, 1100)])  # >= 10x
        assert db.execute(delete.format(100)) == 1
        assert db.execute(delete.format(101)) == 1
        stats = db.plan_cache_stats.snapshot()
        assert (stats["dml_ast_misses"], stats["dml_ast_hits"]) == (1, 2)
        assert stats["invalidations"] == 1
        assert len(db.table("t1")) == 9 + 1000 - 2

    def test_dropped_tables_release_their_dml_entries(self):
        db = make_db()
        db.execute("DELETE FROM t1 WHERE e8Bound1 = 1")
        db.execute("DROP TABLE t1")
        db.query("SELECT * FROM orders WHERE o_orderkey = 1")  # triggers the prune
        assert "DELETE FROM t1 WHERE e8Bound1 = 2" not in db.plan_cache


# -- the skeleton path against the reference lifter -------------------------

_SPACES = st.sampled_from(["", " ", " ", "  ", "\t", "\n", " \r\n "])
_KINDS = st.sampled_from(
    ["SELECT", "select", "Insert", "dElEtE", "UPDATE", "  select", "\nUPDATE",
     "CREATE", "explain select", "selectx", "(SELECT"]
)
_WORDS = st.sampled_from(
    ["t1", "e8Bound1", "a$1", "x_2$", "_9", "col", "A", "e", "E", "e5", "abc",
     "from", "FROM", "wHeRe", "and", "Or", "null", "NULL", "true", "False",
     "values", "in", "set", "between", "not"]
)
_NUMBERS = st.one_of(
    st.integers(0, 10**15).map(str),
    st.builds("{}.{}".format, st.integers(0, 999), st.integers(0, 999)),
    st.builds(
        "{}{}{}{}".format,
        st.integers(0, 99),
        st.sampled_from(["e", "E"]),
        st.sampled_from(["", "+", "-"]),
        st.integers(0, 30),
    ),
    st.sampled_from(["0", "007", "1.5e3", "2.", "3e", "4E+", ".5"]),
)
_STRINGS = st.text(alphabet="ab 7?'-*/\"$\n.e", max_size=8).map(
    lambda body: "'" + body.replace("'", "''") + "'"
)
_OTHER = st.sampled_from(
    ["-- note 12\n", "--", "/* 3 */", "/*a'b 4*/", "/* open 5", '"a b"',
     '"x""1"', '"9"', "?", "$", "$1", "'", "=", ",", "(", ")", "-", "+", ".",
     "*", "<", ";"]
)
#: a token's kind: literals are redrawn per variant, the rest is the
#: template every variant shares
_TOKENS = st.lists(
    st.one_of(
        st.tuples(st.just("word"), _WORDS),
        st.tuples(st.just("number"), _NUMBERS),
        st.tuples(st.just("string"), _STRINGS),
        st.tuples(st.just("other"), _OTHER),
    ),
    max_size=14,
)


def _same(got, expected) -> bool:
    """Equal shapes and constants, each constant of the same type
    (``1 == 1.0 == True`` is not enough)."""
    if got is None or expected is None:
        return got is expected
    return got == expected and [type(c) for c in got[1]] == [
        type(c) for c in expected[1]
    ]


class TestSkeletonsAgreeWithTheOracle:
    """Whatever the text, the engine's split is the reference lifter's:
    on a skeleton's first sighting, on every later one, and for another
    text spelled the same with other constants (a skeleton hit)."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data(), _KINDS, _TOKENS, st.lists(_SPACES, min_size=15, max_size=15))
    def test_split_equals_the_oracle(self, data, kind, tokens, spaces):
        def spell(chosen) -> str:
            return kind + "".join(
                space + text for space, (_, text) in zip(spaces, chosen)
            )

        variants = [spell(tokens)]
        for _ in range(2):
            redrawn = [
                (k, data.draw(_NUMBERS if k == "number" else _STRINGS))
                if k in ("number", "string")
                else (k, text)
                for k, text in tokens
            ]
            variants.append(spell(redrawn))
        splitter = ShapeSplitter(4)
        for sql in variants + variants:
            expected = oracle_shape(sql)
            assert _same(statement_shape(sql), expected), sql
            assert _same(splitter(sql), expected), sql

    def test_hazards_the_mask_cannot_see(self):
        splitter = ShapeSplitter(8)
        for sql in (
            # a number after a bare $ is lifted; after a word's $ it is not
            "SELECT a FROM t WHERE k = $1",
            "SELECT a FROM t WHERE k = $2",
            "SELECT a$1 FROM t WHERE k = 3",
            # a user's ? makes two texts share one skeleton
            "SELECT a FROM t WHERE k = 4 AND j = 5",
            "SELECT a FROM t WHERE k = ? AND j = 6",
            "SELECT a FROM t WHERE k = 7 AND j = ?",
            # quotes and comments hide literals from the mask
            'SELECT "it\'s 8" FROM t WHERE k = 9',
            "SELECT a FROM t WHERE k = 10 -- and 'j' = 11",
            "SELECT a FROM t /* 12 */ WHERE k = 13",
            # an unterminated string
            "SELECT a FROM t WHERE s = 'open 14",
            "SELECT a FROM t WHERE s = 'open 15",
        ):
            for _ in range(2):
                assert _same(splitter(sql), oracle_shape(sql)), sql

    def test_texts_free_of_hazards_are_remembered(self):
        splitter = ShapeSplitter(8)
        for sql in (
            "SELECT e8Bound1, t12.x2 FROM t12 WHERE x2 = 3 AND s = 'it''s'",
            "INSERT INTO t12 VALUES (1, -2.5, 1e3, '')",
        ):
            splitter(sql)
        assert len(splitter) == 2

    def test_the_skeleton_map_is_bounded(self):
        splitter = ShapeSplitter(3)
        for column in range(10):
            splitter(f"SELECT c{column} FROM t WHERE k = {column}")
        assert len(splitter) == 3
        # the newest skeletons are the ones kept, and still answer
        assert splitter("SELECT c9 FROM t WHERE k = 99") == (
            "SELECT c9 FROM t WHERE k = ?",
            (99,),
        )

    def test_the_plan_cache_bounds_its_skeletons_by_its_capacity(self):
        db = Database(plan_cache_size=2)
        db.execute("CREATE TABLE t (k INTEGER, c0 INTEGER, c1 INTEGER, c2 INTEGER)")
        for column in range(3):
            for key in range(3):
                db.query(f"SELECT c{column} FROM t WHERE k = {key}")
        assert len(db.plan_cache.split) == 2
        assert len(db.plan_cache) == 2
