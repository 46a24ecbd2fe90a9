"""The generated executor (:mod:`repro.minidb.codegen`).

* Hypothesis differentials against the brute-force reference executor,
  over staged overlays, NULL probe keys and correlated subqueries
  nested three and more levels deep;
* error parity on incomparable types, including the family-core
  fallback of ``SafeCommit._run_family``;
* plans nested past CPython's 20-block limit;
* identifiers and literals that look like code stay data;
* EXPLAIN ANALYZE row counts equal those of the iterator executor this
  one replaced.
"""

from __future__ import annotations

import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.reference_executor import ReferenceExecutor
from tests.test_obs_profile import add_twins, make_engine
from tests.test_planner_differential import (
    _consts,
    _ops,
    _simple_conditions,
    bag,
    items_strategy,
    join_query,
    make_db,
    orders_strategy,
    single_table_query,
)
from repro.core import Tintin
from repro.errors import ExecutionError
from repro.minidb import Database
from repro.minidb.storage import TableOverlay
from repro.sqlparser import nodes as n
from repro.sqlparser.parser import parse_query

COLUMNS = {"o": ("ok", "ck"), "i": ("ik", "ok", "qty")}


# -- staged overlays ------------------------------------------------------------


def merged(base: list[tuple], inserts: list[tuple], deletes: list[tuple]):
    """What an overlay shows, computed directly: the base rows minus
    one copy per staged delete, then the staged inserts (neither test
    table has a unique key, so no insert is shadowed)."""
    pending = Counter(deletes)
    rows = []
    for row in base:
        if pending[row]:
            pending[row] -= 1
            continue
        rows.append(row)
    return rows + list(inserts)


@st.composite
def staged(draw, base_strategy, row_strategy):
    base = draw(base_strategy)
    deletes = draw(st.lists(st.sampled_from(base), max_size=3)) if base else []
    inserts = draw(st.lists(row_strategy, max_size=3))
    return base, inserts, deletes


_maybe_int = st.one_of(st.none(), st.integers(0, 5))
staged_orders = staged(orders_strategy, st.tuples(_maybe_int, _maybe_int))
staged_items = staged(
    items_strategy, st.tuples(st.integers(0, 9), _maybe_int, _maybe_int)
)


# -- correlated subqueries nested three and more deep -------------------------------


@st.composite
def nested_condition(draw, depth: int, outers: list, min_depth: int, max_depth: int):
    """A subquery predicate at nesting level ``depth``: ``[NOT] EXISTS``,
    ``[NOT] IN`` or a scalar COUNT/SUM comparison over ``o`` or ``i``,
    correlated (by equality — the index-probe forms — or by another
    comparison — the generic forms) with any enclosing binding, and
    itself holding the next level until ``min_depth`` is reached."""
    table = draw(st.sampled_from(sorted(COLUMNS)))
    binding = f"t{depth}"
    columns = st.sampled_from(COLUMNS[table])

    def ref(column):
        return n.ColumnRef(column, binding)

    parts = draw(st.lists(_simple_conditions(columns.map(ref)), max_size=1))
    outer_binding, outer_table = draw(st.sampled_from(outers))
    correlation = draw(st.sampled_from(["=", "=", "other", "none"]))
    if correlation != "none":
        op = "=" if correlation == "=" else draw(_ops)
        outer_column = n.ColumnRef(
            draw(st.sampled_from(COLUMNS[outer_table])), outer_binding
        )
        parts.append(n.Comparison(op, ref(draw(columns)), outer_column))
    if depth < min_depth or (depth < max_depth and draw(st.booleans())):
        parts.append(
            draw(
                nested_condition(
                    depth + 1, outers + [(binding, table)], min_depth, max_depth
                )
            )
        )
    where = n.conjoin(parts)
    from_items = (n.TableRef(table, binding),)
    kind = draw(st.sampled_from(["exists", "in", "count", "sum"]))
    negated = draw(st.booleans())
    if kind == "exists":
        return n.Exists(n.Select((n.Star(),), from_items, where), negated=negated)
    if kind == "in":
        subject = n.ColumnRef(
            draw(st.sampled_from(COLUMNS[outer_table])), outer_binding
        )
        query = n.Select((n.SelectItem(ref(draw(columns))),), from_items, where)
        return n.InSubquery(subject, query, negated=negated)
    argument = None if kind == "count" else ref(draw(columns))
    call = n.AggregateCall(kind.upper(), argument)
    query = n.Select((n.SelectItem(call),), from_items, where)
    return n.Comparison(draw(_ops), n.ScalarSubquery(query), draw(_consts))


def deep_query(min_depth: int, max_depth: int):
    return nested_condition(1, [("t0", "o")], min_depth, max_depth).map(
        lambda where: n.Select(
            (n.Star(),), (n.TableRef("o", "t0"),), where=where
        )
    )


small_orders = st.lists(st.tuples(_maybe_int, _maybe_int), max_size=4)
small_items = st.lists(
    st.tuples(st.integers(0, 9), _maybe_int, _maybe_int), max_size=4
)


class TestAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(orders=small_orders, items=small_items, query=deep_query(3, 4))
    def test_correlated_subqueries_nested_deep(self, orders, items, query):
        db = make_db(orders, items)
        assert bag(db.query_ast(query).rows) == bag(
            ReferenceExecutor(db).rows(query)
        )
        # twice through one compiled plan: per-execution memos reset
        prepared = db.prepare_query(query)
        assert prepared.execute().rows == prepared.execute().rows

    @settings(max_examples=120, deadline=None)
    @given(
        orders=staged_orders,
        items=staged_items,
        query=st.one_of(single_table_query, join_query, deep_query(1, 3)),
    )
    def test_staged_overlays(self, orders, items, query):
        db = make_db(orders[0], items[0])
        overlays = {
            "o": TableOverlay(orders[1], orders[2], table=db.table("o")),
            "i": TableOverlay(items[1], items[2], table=db.table("i")),
        }
        reference_db = make_db(merged(*orders), merged(*items))
        assert bag(db.query_ast(query, overlays).rows) == bag(
            ReferenceExecutor(reference_db).rows(query)
        )

    def test_null_probe_keys_never_match(self):
        db = make_db(
            [(None, 1), (1, None), (2, 2)],
            [(1, None, 5), (2, 1, None), (3, 2, 7)],
        )
        for sql in (
            "SELECT a.ok FROM o AS a WHERE EXISTS "
            "(SELECT * FROM i AS b WHERE b.ok = a.ok)",
            "SELECT a.ok FROM o AS a WHERE NOT EXISTS "
            "(SELECT * FROM i AS b WHERE b.ok = a.ok)",
            "SELECT a.ok, b.qty FROM o AS a, i AS b WHERE a.ok = b.ok",
            "SELECT a.ck FROM o AS a WHERE a.ck IN (SELECT ik FROM i AS b)",
            "SELECT a.ck FROM o AS a WHERE a.ck NOT IN "
            "(SELECT ik FROM i AS b WHERE b.ok = a.ok)",
            "SELECT a.ok FROM o AS a WHERE "
            "(SELECT COUNT(*) FROM i AS b WHERE b.ok = a.ok) = 0",
            "SELECT a.ok FROM o AS a WHERE "
            "(SELECT SUM(qty) FROM i AS b WHERE b.ok = a.ck) IS NULL",
        ):
            query = parse_query(sql)
            assert bag(db.query(sql).rows) == bag(
                ReferenceExecutor(db).rows(query)
            ), sql


# -- error parity -------------------------------------------------------------------


def mixed_db() -> Database:
    db = Database("mixed")
    db.execute("CREATE TABLE t (a INTEGER, s VARCHAR(5))")
    db.execute("CREATE TABLE u (k INTEGER NOT NULL, s VARCHAR(5), v INTEGER)")
    db.insert_rows("t", [(1, "x"), (2, None), (None, "y")])
    db.insert_rows("u", [(1, "x", 5), (2, "z", None)])
    return db


def outcome(run):
    try:
        return ("rows", bag(run()))
    except ExecutionError as error:
        return ("error", type(error), str(error))


INCOMPARABLE = [
    "SELECT * FROM t WHERE s < 1",
    # UNKNOWN does not stop an AND: the comparison after it still runs
    "SELECT * FROM t WHERE a = 5 AND s < 1",
    "SELECT * FROM t WHERE a = 2 OR s < 1",
    "SELECT * FROM t WHERE s IS NULL AND s < 1",
    "SELECT * FROM t WHERE NOT (s > 1)",
    "SELECT a FROM t WHERE a IN (1, 'x')",
    "SELECT s = 1 FROM t",
    "SELECT * FROM t AS x WHERE EXISTS "
    "(SELECT * FROM u WHERE u.k = x.a AND u.s > x.a)",
    "SELECT * FROM t AS x WHERE NOT EXISTS "
    "(SELECT * FROM u WHERE u.k = x.a AND u.v > x.s)",
    "SELECT * FROM t AS x WHERE x.s IN (SELECT k FROM u WHERE u.v = x.a)",
    "SELECT * FROM t AS x WHERE (SELECT SUM(v) FROM u WHERE u.k = x.a) > 'q'",
    "SELECT * FROM t AS x WHERE EXISTS (SELECT * FROM u WHERE u.s >= x.a)",
    "SELECT x.a FROM t AS x, u AS y WHERE x.a = y.k AND y.s < x.a",
]


class TestErrorParity:
    @pytest.mark.parametrize("sql", INCOMPARABLE)
    def test_incomparable_types_match_the_reference(self, sql):
        db = mixed_db()
        expected = outcome(lambda: ReferenceExecutor(db).rows(parse_query(sql)))
        assert outcome(lambda: db.query(sql).rows) == expected
        assert outcome(lambda: db.query(sql).rows) == expected  # cached

    def test_the_parity_is_not_vacuous(self):
        db = mixed_db()
        raised = [
            sql for sql in INCOMPARABLE if outcome(lambda: db.query(sql).rows)[0] == "error"
        ]
        assert len(raised) >= len(INCOMPARABLE) - 2

    def test_family_core_error_falls_back_to_members(self, monkeypatch):
        """A shared core evaluates comparisons its members filter away
        first; when only the core raises, every member runs its own
        view and the verdict is the unshared engine's."""

        def engine(cache: bool) -> Tintin:
            db = Database("family")
            db.execute(
                "CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, "
                "o_note VARCHAR(10))"
            )
            db.execute(
                "CREATE TABLE lineitem (l_orderkey INTEGER NOT NULL, "
                "l_linenumber INTEGER NOT NULL, l_quantity INTEGER, "
                "PRIMARY KEY (l_orderkey, l_linenumber))"
            )
            tintin = Tintin(db)
            tintin.install()
            for k in range(3):
                tintin.add_assertion(
                    f"CREATE ASSERTION noteBound{k} CHECK (NOT EXISTS ("
                    "SELECT * FROM orders AS o, lineitem AS l "
                    "WHERE l.l_orderkey = o.o_orderkey "
                    f"AND l.l_quantity > {10 + k} AND o.o_note < l.l_quantity))"
                )
            db.plan_cache_enabled = cache
            return tintin

        def commit(tintin: Tintin, quantity: int):
            session = tintin.create_session()
            session.insert("orders", [(quantity, "x")])
            session.insert("lineitem", [(quantity, 1, quantity)])
            try:
                result = session.commit()
                return ("result", result.committed, result.violations)
            except ExecutionError as error:
                return ("error", str(error))

        shared, unshared = engine(True), engine(False)
        assert all(c.core is not None for c in shared.safe_commit_proc.compiled)
        proc = shared.safe_commit_proc
        member_runs = []
        run_view = proc._run_view

        def spy(member, *args):
            member_runs.append(member.view_name)
            return run_view(member, *args)

        monkeypatch.setattr(proc, "_run_view", spy)
        # quantity 5: no member reaches the string comparison, the core does
        assert commit(shared, 5) == commit(unshared, 5) == ("result", True, [])
        assert member_runs  # the core raised and the members ran instead
        # quantity 50: every plan raises, shared or not
        assert commit(shared, 50) == commit(unshared, 50)
        assert commit(unshared, 51)[0] == "error"


# -- nesting past CPython's block limit ----------------------------------------------


def keys_db() -> Database:
    db = Database("deep")
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY)")
    db.execute("CREATE TABLE h (k INTEGER)")  # no index: hash joins
    db.insert_rows("t", [(1,), (2,)])
    db.insert_rows("h", [(1,), (2,)])
    return db


def hash_chain(width: int) -> tuple[str, str]:
    """FROM and WHERE of ``width`` copies of ``h`` joined on ``k``."""
    return (
        ", ".join(f"h AS h{i}" for i in range(width)),
        " AND ".join(f"h{i}.k = h{i + 1}.k" for i in range(width - 1)),
    )


def exists_chain(depth: int, op: str, innermost: str) -> str:
    inner = f"SELECT * FROM t AS t{depth} WHERE t{depth}.k {op} t{depth - 1}.k AND {innermost}"
    for d in range(depth - 1, 0, -1):
        inner = (
            f"SELECT * FROM t AS t{d} WHERE t{d}.k {op} t{d - 1}.k "
            f"AND EXISTS ({inner})"
        )
    return f"SELECT t0.k FROM t AS t0 WHERE EXISTS ({inner})"


class TestDeepNesting:
    @pytest.mark.parametrize(
        "sql, rows",
        [
            # index-probe EXISTS, one loop per level
            (exists_chain(25, "=", "t25.k > 1"), [(2,)]),
            (exists_chain(25, "=", "t25.k > 2"), []),
            # generic EXISTS, one function per level
            (exists_chain(25, ">=", "t25.k > 1"), [(1,), (2,)]),
            (exists_chain(25, ">=", "t25.k > 2"), []),
            # 25 relations: 24 hash-join probe loops around one scan
            ("SELECT h0.k FROM {} WHERE {}".format(*hash_chain(25)), [(1,), (2,)]),
            # the same inside a generic EXISTS, which returns early
            (
                "SELECT t.k FROM t WHERE EXISTS (SELECT * FROM {} WHERE {} "
                "AND h0.k > t.k)".format(*hash_chain(25)),
                [(1,)],
            ),
        ],
    )
    def test_compiles_and_runs(self, sql, rows):
        db = keys_db()
        prepared = db.prepare(sql)
        assert sorted(prepared.execute().rows) == rows
        assert "actual rows=" in db.explain_analyze(sql)

    def test_deep_pipelines_continue_in_helpers(self):
        db = keys_db()
        sql = "SELECT h0.k FROM {} WHERE {}".format(*hash_chain(40))
        source = db.prepare(sql)._state.program.source
        # two spills deep: a helper hands everything on to the next
        assert len(re.findall(r"^    def h\d+\(", source, re.M)) >= 2
        assert sorted(db.query(sql).rows) == [(1,), (2,)]


# -- code-like identifiers and literals stay data ------------------------------------

PAYLOADS = ['we"ird', "new\nline", '"""', "__import__('os')", "x'); import os; ('"]


def quoted(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def sql_string(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


class TestNoSqlTextInSource:
    def test_identifiers_and_literals_round_trip_as_data(self):
        db = Database("payloads")
        table = quoted(PAYLOADS[0])
        columns = [quoted(p) for p in PAYLOADS[1:]]
        db.execute(
            f"CREATE TABLE {table} (id INTEGER PRIMARY KEY, "
            + ", ".join(f"{c} VARCHAR(40)" for c in columns)
            + ")"
        )
        values = ", ".join(sql_string(p) for p in PAYLOADS[1:])
        db.execute(f"INSERT INTO {table} VALUES (1, {values})")
        db.execute(f"INSERT INTO {table} VALUES (2, {values})")
        where = " AND ".join(
            f"{c} = {sql_string(p)}" for c, p in zip(columns, PAYLOADS[1:])
        )
        queries = [
            f"SELECT * FROM {table} AS {quoted(PAYLOADS[2])} WHERE {where}",
            f"SELECT {columns[0]}, {sql_string(PAYLOADS[3])} FROM {table} "
            f"WHERE id = 2 AND {columns[3]} IN ({sql_string(PAYLOADS[4])}, 'z')",
            f"SELECT * FROM {table} AS a WHERE EXISTS (SELECT * FROM {table} AS b "
            f"WHERE b.id = a.id AND b.{columns[2]} = {sql_string(PAYLOADS[3])})",
        ]
        expected = [
            [(1, *PAYLOADS[1:]), (2, *PAYLOADS[1:])],
            [(PAYLOADS[1], PAYLOADS[3])],
            [(1, *PAYLOADS[1:]), (2, *PAYLOADS[1:])],
        ]
        for sql, rows in zip(queries, expected):
            assert sorted(db.query(sql).rows) == rows, sql
            for cached in (True, False):
                db.plan_cache_enabled = cached
                source = db.prepare(sql)._state.program.source
                assert "'" not in source and '"' not in source
                assert "import" not in source and "line" not in source
        db.execute(
            f"UPDATE {table} SET {columns[0]} = {sql_string(PAYLOADS[2])} WHERE id = 1"
        )
        assert db.query(f"SELECT {columns[0]} FROM {table} WHERE id = 1").rows == [
            (PAYLOADS[2],)
        ]
        assert db.query(f"SELECT {columns[0]} FROM {table} WHERE id = 2").rows == [
            (PAYLOADS[1],)
        ]


# -- EXPLAIN ANALYZE counts, as the iterator executor reported them -----------------


def timeless(text: str) -> str:
    return re.sub(r"rows in [0-9.]+s", "rows in Ts", text)


class TestExplainAnalyzeParity:
    """The expected reports were produced by the iterator executor (one
    generator per plan node, wrapped by a counting collector) on the
    ``test_obs_profile`` fixtures."""

    def test_rows_per_node_and_rows_scanned(self):
        db, tintin = make_engine()
        db.insert_rows("orders", [(1, 1), (2, 2)], bypass_triggers=True)
        assert timeless(db.execute("EXPLAIN ANALYZE SELECT * FROM orders")) == (
            "Project  (actual rows=2)\n"
            "  SeqScan(orders AS orders, ~2 rows)  (actual rows=2)\n"
            "-- 2 rows in Ts (2 rows scanned)"
        )
        db.insert_rows(
            "lineitem", [(1, 1, 5), (1, 2, 6), (2, 1, 7)], bypass_triggers=True
        )
        db.execute("INSERT INTO orders VALUES (3, 3)")
        db.execute("INSERT INTO lineitem VALUES (3, 1, 4)")
        db.execute("DELETE FROM lineitem WHERE l_orderkey = 1 AND l_linenumber = 2")
        report = timeless(tintin.explain_analyze("atLeastOne"))
        assert (
            "-- atLeastOne3\n"
            "Project  (actual rows=0)\n"
            "  Rename(atLeastOne3)  (actual rows=0)\n"
            "    Project  (actual rows=0)\n"
            "      Filter  (actual rows=0)\n"
            "        HashJoin  (actual rows=1)\n"
            "          SeqScan(del_lineitem AS T0, ~1 rows)  (actual rows=1)\n"
            "          SeqScan(orders AS T1, ~2 rows)  (actual rows=2)\n"
            "-- 0 rows in Ts (3 rows scanned)"
        ) in report
        assert "(actual rows=1)\n-- 0 rows in Ts (1 rows scanned)" in report
        # a generic IN runs its subplan once per outer value: 2 + 3 + 3
        assert timeless(
            db.execute(
                "EXPLAIN ANALYZE SELECT o.o_orderkey FROM orders AS o WHERE "
                "o.o_custkey IN (SELECT l.l_quantity FROM lineitem AS l "
                "WHERE l.l_quantity > o.o_orderkey)"
            )
        ).endswith("-- 0 rows in Ts (8 rows scanned)")
        assert timeless(
            db.execute(
                "EXPLAIN ANALYZE SELECT o.o_orderkey, l.l_quantity FROM orders AS o, "
                "lineitem AS l WHERE o.o_orderkey = l.l_orderkey AND l.l_quantity >= 5"
            )
        ) == (
            "Project  (actual rows=3)\n"
            "  HashJoin  (actual rows=3)\n"
            "    Filter  (actual rows=3)\n"
            "      SeqScan(lineitem AS l, ~3 rows)  (actual rows=3)\n"
            "    SeqScan(orders AS o, ~2 rows)  (actual rows=2)\n"
            "-- 3 rows in Ts (5 rows scanned)"
        )
        assert timeless(
            db.execute(
                "EXPLAIN ANALYZE SELECT COUNT(*), SUM(l_quantity) FROM lineitem "
                "WHERE l_orderkey = 1"
            )
        ) == (
            "Aggregate  (actual rows=1)\n"
            "  Filter  (actual rows=2)\n"
            "    IndexScan(lineitem AS lineitem on (l_orderkey) via PRIMARY KEY "
            "prefix)  (actual rows=2)\n"
            "-- 1 rows in Ts (2 rows scanned)"
        )

    def test_profiler_rows_scanned_per_view(self):
        db, tintin = make_engine()
        db.insert_rows("orders", [(1, 1), (2, 2)], bypass_triggers=True)
        db.insert_rows(
            "lineitem", [(1, 1, 5), (1, 2, 6), (2, 1, 7)], bypass_triggers=True
        )
        add_twins(tintin)
        profiler = tintin.enable_profiling(capture_rows=True)
        session = tintin.create_session()
        session.insert("orders", [(7, 150)])
        session.insert("lineitem", [(7, 1, 11)])
        session.commit()
        scanned = {
            view: (entry["checks"], entry["violations"], entry["rows_scanned"])
            for view, entry in profiler.snapshot().items()
        }
        assert scanned["atLeastOne2"] == (1, 0, 1)
        assert scanned["qtyBound01"] == (1, 1, 2)
        assert scanned["qtyBound02"] == (1, 0, 4)
        assert scanned["qtyBound03"] == (1, 0, 3)
        assert scanned["qtyBound11"] == (1, 0, 0)
