"""Differential fuzzing: the optimizing planner vs the naive reference
executor — and, for the access-path rule, the planner's ``IndexScan``
plans vs the ``SeqScan + Filter`` plans of the same queries.

Hypothesis generates random data and random queries over a two-table
schema (including NULLs, correlated [NOT] EXISTS, [NOT] IN subqueries,
IN-lists, scalar COUNT/SUM subqueries and UNIONs).  The planner — with
its index joins, subquery probes and memoization — must return exactly
the same bag of rows as the brute-force evaluator.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.reference_executor import ReferenceExecutor
from repro import Tintin
from repro.errors import ExecutionError
from repro.minidb import Database
from repro.minidb.codegen import compile_plan
from repro.minidb.planner import Planner
from repro.minidb.storage import TableOverlay
from repro.sqlparser import nodes as n
from repro.sqlparser.parser import parse_query


def make_db(orders_rows, items_rows) -> Database:
    db = Database()
    db.execute("CREATE TABLE o (ok INTEGER, ck INTEGER)")
    db.execute("CREATE TABLE i (ik INTEGER NOT NULL, ok INTEGER, qty INTEGER)")
    db.insert_rows("o", orders_rows)
    db.insert_rows("i", items_rows)
    return db


def bag(rows):
    return sorted(rows, key=repr)


# -- data strategies ----------------------------------------------------------

_maybe_int = st.one_of(st.none(), st.integers(0, 5))
orders_strategy = st.lists(
    st.tuples(_maybe_int, _maybe_int), max_size=8
)
items_strategy = st.lists(
    st.tuples(st.integers(0, 9), _maybe_int, _maybe_int), max_size=10
)

# -- query strategies ------------------------------------------------------------

_o_cols = st.sampled_from(["ok", "ck"])
_i_cols = st.sampled_from(["ik", "ok", "qty"])
_ops = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
_consts = st.integers(0, 5).map(n.Literal)


def _o_ref(col):
    return n.ColumnRef(col, "a")


def _i_ref(col):
    return n.ColumnRef(col, "b")


def _simple_conditions(refs):
    """Conditions over the given column-ref strategy."""
    return st.one_of(
        st.builds(n.Comparison, op=_ops, left=refs, right=_consts),
        st.builds(n.Comparison, op=_ops, left=refs, right=refs),
        st.builds(n.IsNull, item=refs, negated=st.booleans()),
        st.builds(
            lambda item, values, negated: n.InList(item, tuple(values), negated),
            item=refs,
            values=st.lists(_consts, min_size=1, max_size=3),
            negated=st.booleans(),
        ),
    )


def _inner_subquery(correlate: bool):
    """A subquery over i AS b, optionally correlated with outer a."""
    corr = n.Comparison("=", n.ColumnRef("ok", "b"), n.ColumnRef("ok", "a"))

    def build(conditions):
        where_parts = list(conditions)
        if correlate:
            where_parts.append(corr)
        return n.Select(
            items=(n.SelectItem(n.ColumnRef("ik", "b")),),
            from_items=(n.TableRef("i", "b"),),
            where=n.conjoin(where_parts),
        )

    return st.lists(_simple_conditions(_i_cols.map(_i_ref)), max_size=2).map(build)


def _outer_conditions():
    o_refs = _o_cols.map(_o_ref)
    exists = st.builds(
        n.Exists,
        query=_inner_subquery(correlate=True),
        negated=st.booleans(),
    )
    in_subquery = st.builds(
        n.InSubquery,
        item=o_refs,
        query=_inner_subquery(correlate=False),
        negated=st.booleans(),
    )
    count_subquery = st.builds(
        lambda q, op, const: n.Comparison(op, n.ScalarSubquery(q), const),
        q=_inner_subquery(correlate=True).map(
            lambda s: n.Select(
                items=(n.SelectItem(n.AggregateCall("COUNT", None)),),
                from_items=s.from_items,
                where=s.where,
            )
        ),
        op=_ops,
        const=st.integers(0, 3).map(n.Literal),
    )
    leaf = st.one_of(
        _simple_conditions(o_refs), exists, in_subquery, count_subquery
    )
    return st.one_of(
        leaf,
        st.builds(lambda a, b: n.And((a, b)), leaf, leaf),
        st.builds(lambda a, b: n.Or((a, b)), leaf, leaf),
        st.builds(n.Not, item=leaf),
    )


single_table_query = st.builds(
    lambda where, distinct: n.Select(
        items=(n.Star(),),
        from_items=(n.TableRef("o", "a"),),
        where=where,
        distinct=distinct,
    ),
    where=st.one_of(st.none(), _outer_conditions()),
    distinct=st.booleans(),
)

join_query = st.builds(
    lambda extra: n.Select(
        items=(n.SelectItem(n.ColumnRef("ok", "a")), n.SelectItem(n.ColumnRef("qty", "b"))),
        from_items=(n.TableRef("o", "a"), n.TableRef("i", "b")),
        where=n.conjoin(
            [n.Comparison("=", n.ColumnRef("ok", "a"), n.ColumnRef("ok", "b"))]
            + list(extra)
        ),
    ),
    extra=st.lists(_simple_conditions(_i_cols.map(_i_ref)), max_size=2),
)

union_query = st.builds(
    lambda first, second, all_: n.Union(
        (
            n.Select(
                items=(n.SelectItem(n.ColumnRef("ok", "a")),),
                from_items=(n.TableRef("o", "a"),),
                where=first,
            ),
            n.Select(
                items=(n.SelectItem(n.ColumnRef("ok", "a")),),
                from_items=(n.TableRef("o", "a"),),
                where=second,
            ),
        ),
        all=all_,
    ),
    first=st.one_of(st.none(), _simple_conditions(_o_cols.map(_o_ref))),
    second=st.one_of(st.none(), _simple_conditions(_o_cols.map(_o_ref))),
    all_=st.booleans(),
)


class TestPlannerDifferential:
    @settings(max_examples=200, deadline=None)
    @given(orders=orders_strategy, items=items_strategy, query=single_table_query)
    def test_single_table_queries(self, orders, items, query):
        db = make_db(orders, items)
        planned = db.query_ast(query).rows
        reference = ReferenceExecutor(db).rows(query)
        assert bag(planned) == bag(reference)

    @settings(max_examples=100, deadline=None)
    @given(orders=orders_strategy, items=items_strategy, query=join_query)
    def test_join_queries(self, orders, items, query):
        db = make_db(orders, items)
        planned = db.query_ast(query).rows
        reference = ReferenceExecutor(db).rows(query)
        assert bag(planned) == bag(reference)

    @settings(max_examples=100, deadline=None)
    @given(orders=orders_strategy, items=items_strategy, query=union_query)
    def test_union_queries(self, orders, items, query):
        db = make_db(orders, items)
        planned = db.query_ast(query).rows
        reference = ReferenceExecutor(db).rows(query)
        assert bag(planned) == bag(reference)

    @settings(max_examples=60, deadline=None)
    @given(orders=orders_strategy, items=items_strategy)
    def test_aggregate_queries(self, orders, items):
        db = make_db(orders, items)
        query = n.Select(
            items=(
                n.SelectItem(n.AggregateCall("COUNT", None)),
                n.SelectItem(n.AggregateCall("SUM", n.ColumnRef("qty", "b"))),
                n.SelectItem(n.AggregateCall("MIN", n.ColumnRef("qty", "b"))),
                n.SelectItem(n.AggregateCall("MAX", n.ColumnRef("qty", "b"))),
            ),
            from_items=(n.TableRef("i", "b"),),
            where=None,
        )
        planned = db.query_ast(query).rows
        reference = ReferenceExecutor(db).rows(query)
        assert planned == reference

    @settings(max_examples=60, deadline=None)
    @given(orders=orders_strategy, items=items_strategy, query=single_table_query)
    def test_repeated_cached_execution(self, orders, items, query):
        """A plan executed twice (cache path) must equal a fresh plan —
        per-execution probe memos must not leak between runs."""
        db = make_db(orders, items)
        prepared = db.prepare_query(query)
        first = prepared.execute().rows
        second = prepared.execute().rows
        reference = ReferenceExecutor(db).rows(query)
        assert bag(first) == bag(reference)
        assert bag(second) == bag(reference)


class TestPlanCacheDifferential:
    """Cache-on vs cache-off must be observably identical while DML,
    DDL (table/view create + drop) and index-building queries
    interleave — this is the invalidation-soundness proof."""

    #: (kind, payload) steps; every "query" step is compared across the
    #: cached and uncached databases.
    SCRIPT = [
        ("sql", "CREATE TABLE o (ok INTEGER, ck INTEGER)"),
        ("sql", "CREATE TABLE i (ik INTEGER NOT NULL, ok INTEGER, qty INTEGER)"),
        ("rows", ("o", [(1, 10), (2, 20), (3, None)])),
        ("rows", ("i", [(1, 1, 5), (2, 2, 7), (3, 2, None)])),
        ("query", "SELECT * FROM o"),
        ("query", "SELECT a.ok, b.qty FROM o AS a, i AS b WHERE a.ok = b.ok"),
        ("query", "SELECT ok FROM o AS a WHERE EXISTS "
                  "(SELECT * FROM i AS b WHERE b.ok = a.ok)"),
        # DML between repeats of the same text: hits must see new data
        ("sql", "INSERT INTO o VALUES (4, 40)"),
        ("rows", ("i", [(4, 4, 11)])),
        ("query", "SELECT * FROM o"),
        ("query", "SELECT a.ok, b.qty FROM o AS a, i AS b WHERE a.ok = b.ok"),
        # view DDL: create, query through it, redefine, query again
        ("sql", "CREATE VIEW busy AS SELECT ok FROM i WHERE qty > 6"),
        ("query", "SELECT * FROM busy"),
        ("sql", "DROP VIEW busy"),
        ("sql", "CREATE VIEW busy AS SELECT ok FROM i WHERE qty > 10"),
        ("query", "SELECT * FROM busy"),
        # table drop + recreate under the same name with a new shape
        ("sql", "DROP TABLE o"),
        ("sql", "CREATE TABLE o (ok INTEGER, ck INTEGER, extra INTEGER)"),
        ("rows", ("o", [(7, 70, 700), (8, 80, 800)])),
        ("query", "SELECT * FROM o"),
        ("query", "SELECT ok FROM o AS a WHERE NOT EXISTS "
                  "(SELECT * FROM i AS b WHERE b.ok = a.ok)"),
        ("sql", "DELETE FROM i WHERE qty > 6"),
        ("query", "SELECT * FROM busy"),
        ("query", "SELECT COUNT(*), SUM(qty), MIN(qty), MAX(qty) FROM i"),
    ]

    def _run(self, cache_enabled: bool) -> list:
        db = Database()
        db.plan_cache_enabled = cache_enabled
        outputs = []
        for kind, payload in self.SCRIPT:
            if kind == "sql":
                db.execute(payload)
            elif kind == "rows":
                table, rows = payload
                db.insert_rows(table, rows)
            else:
                # run every query twice so the cached database takes the
                # hit path on the second execution
                first = bag(db.query(payload).rows)
                second = bag(db.query(payload).rows)
                assert first == second, payload
                outputs.append((payload, first))
        return outputs

    def test_interleaved_dml_ddl_identical(self):
        cached = self._run(True)
        fresh = self._run(False)
        assert cached == fresh

    def test_growth_driven_replan_identical(self):
        """Row-count drift re-plans (IndexJoin vs HashJoin flip) without
        changing results."""
        dbs = []
        for cache_enabled in (True, False):
            db = Database()
            db.plan_cache_enabled = cache_enabled
            db.execute("CREATE TABLE o (ok INTEGER, ck INTEGER)")
            db.execute(
                "CREATE TABLE i (ik INTEGER NOT NULL, ok INTEGER, qty INTEGER)"
            )
            db.insert_rows("o", [(k, k) for k in range(5)])
            db.insert_rows("i", [(k, k % 5, k) for k in range(10)])
            dbs.append(db)
        sql = "SELECT a.ok, b.qty FROM o AS a, i AS b WHERE a.ok = b.ok"
        results = [bag(db.query(sql).rows) for db in dbs]
        assert results[0] == results[1]
        # grow i by 100x so the cached plan is invalidated by drift
        for db in dbs:
            db.insert_rows("i", [(1000 + k, k % 5, 1) for k in range(1000)])
        results = [bag(db.query(sql).rows) for db in dbs]
        assert results[0] == results[1]
        assert dbs[0].plan_cache_stats.invalidations >= 1


# -- access paths: IndexScan vs the SeqScan + Filter plan of the same query ---

class ScanPlanner(Planner):
    """The planner without step 1b: every base relation is scanned.
    Test-side reference — the engine itself has no such switch."""

    def _access_path(self, rel, scan):
        return scan


ACCESS_DDL = (
    "CREATE TABLE p (id INTEGER PRIMARY KEY, code VARCHAR(8), w DOUBLE, "
    "UNIQUE (code))",
    "CREATE TABLE c (k1 INTEGER, k2 INTEGER, pid INTEGER, qty INTEGER, "
    "PRIMARY KEY (k1, k2), FOREIGN KEY (pid) REFERENCES p (id))",
)


def access_db(seed: int) -> Database:
    """Parents 0..9 (some codes NULL), children with duplicated
    ``pid`` / ``k1`` values (duplicate secondary keys) and NULL FKs."""
    rng = random.Random(seed)
    db = Database(f"access-{seed}")
    for ddl in ACCESS_DDL:
        db.execute(ddl)
    db.insert_rows(
        "p",
        [
            (k, None if rng.random() < 0.2 else f"c{k}", rng.choice([0.5, 1.0, 2.0]))
            for k in range(10)
        ],
    )
    children = {(rng.randrange(6), rng.randrange(4)) for _ in range(18)}
    db.insert_rows(
        "c",
        [
            (k1, k2, None if rng.random() < 0.15 else rng.randrange(10), rng.randrange(6))
            for k1, k2 in sorted(children, key=lambda _: rng.random())
        ],
    )
    return db


def access_overlays(db: Database, seed: int) -> dict:
    """A staged update aimed at the probed keys: deletes of committed
    rows, inserts under keys that already have rows (duplicate
    secondary keys), a delete-then-reinsert of one primary key, and
    staged inserts *shadowed* by committed unique keys."""
    rng = random.Random(1000 + seed)
    p_rows = db.table("p").rows_snapshot()
    c_rows = db.table("c").rows_snapshot()
    c_deletes = rng.sample(c_rows, 4)
    moved = c_deletes[0]
    shadowed_c = rng.choice([r for r in c_rows if r not in c_deletes])
    c_inserts = [
        (moved[0], moved[1], rng.randrange(10), 99),  # re-insert of a deleted PK
        (shadowed_c[0], shadowed_c[1], 3, 77),  # PK still committed: invisible
        (rng.randrange(6), 7, rng.randrange(10), 1),
        (rng.randrange(6), 8, c_rows[0][2], 2),
        (rng.randrange(6), 9, None, 3),
    ]
    p_deletes = rng.sample(p_rows, 2)
    kept = [r for r in p_rows if r not in p_deletes and r[1] is not None]
    p_inserts = [
        (p_deletes[0][0], "moved", 9.0),  # delete + re-insert of a PK
        (kept[0][0], "dup-pk", 9.0),  # shadowed by the committed PK
        (42, kept[1][1], 9.0),  # shadowed by the committed UNIQUE key
        (43, None, 9.0),
        (44, "c44", 9.0),
    ]
    return {
        "p": TableOverlay(p_inserts, p_deletes, table=db.table("p")),
        "c": TableOverlay(c_inserts, c_deletes, table=db.table("c")),
    }


def access_predicates(seed: int) -> list[tuple[str, str, bool]]:
    """``(FROM clause, WHERE clause, plans an IndexScan)`` triples."""
    rng = random.Random(2000 + seed)
    k1, k2, pid, qty = rng.randrange(6), rng.randrange(4), rng.randrange(10), rng.randrange(6)
    return [
        # full PK, PK prefix, FK column, UNIQUE key
        ("c", f"k1 = {k1} AND k2 = {k2}", True),
        ("c", f"k2 = {k2} AND k1 = {k1}", True),
        ("c", f"k1 = {k1}", True),
        ("c", f"pid = {pid}", True),
        ("p", f"id = {pid}", True),
        ("p", f"code = 'c{pid}'", True),
        ("p", "code = 'moved'", True),
        # constant on the left; aliased; residual conjuncts on top
        ("c", f"{pid} = pid", True),
        ("c AS x", f"x.pid = {pid} AND x.qty > {qty}", True),
        ("c AS x", f"x.k1 = {k1} AND x.qty <= {qty} AND x.k2 <> {k2}", True),
        ("c", f"pid = {pid} AND (qty = {qty} OR k2 = {k2})", True),
        # contradictions and NULL: empty either way
        ("c", f"k1 = {k1} AND k1 = {k1 + 1}", True),
        ("p", "id = 3 AND id = 4", True),
        ("c", "pid = NULL", False),
        ("p", "code = NULL", False),
        # int-vs-float constants
        ("p", f"id = {pid}.0", True),
        ("p", "id = 2.5", True),
        ("c", f"k1 = {k1}.0 AND k2 = {k2}e0", True),
        # constants the column comparison rejects: the scan's own error
        ("p", "id = '1'", False),
        ("p", "code = 5", False),
        ("c", f"k1 = {k1} AND k2 = 'x'", False),
        ("c", f"k2 = 'x' AND k1 = {k1}", False),
        ("c", f"pid = 'x' AND pid = {pid}", False),
        ("c", "pid = TRUE", False),
        # not a key: ad-hoc columns never get an index
        ("c", f"qty = {qty}", False),
        ("c", f"k2 = {k2}", False),
        ("p", "w = 1.0", False),
        ("c", f"pid > {pid}", False),
        ("c", f"pid = {pid} OR k1 = {k1}", False),
        # joined relations: the access path starts the join order
        ("p, c", f"p.id = c.pid AND p.id = {pid}", True),
        ("p, c", f"p.id = c.pid AND c.k1 = {k1}", True),
        ("p AS a, c AS b", f"a.id = b.pid AND b.pid = {pid} AND a.w > 0.75", True),
        ("p, c", f"p.id = c.pid AND c.k1 = {k1} AND c.k2 = {k2} AND p.code = 'c{pid}'", True),
        ("p, c", f"p.id = {pid} AND c.k1 = {k1}", True),  # cross product of two probes
    ]


def run_plan(db, planner_class, query, overlays):
    """``("rows", [...])`` or ``("error", type, message)``."""
    plan = planner_class(db.catalog).plan_query(query)
    try:
        return ("rows", compile_plan(plan).run((), overlays)), plan
    except ExecutionError as error:
        return ("error", type(error), str(error)), plan


ACCESS_SEEDS = range(12)


class TestAccessPathDifferential:
    @pytest.mark.parametrize("seed", ACCESS_SEEDS)
    @pytest.mark.parametrize("staged", [False, True], ids=["bare", "overlay"])
    def test_index_scan_equals_filtered_seq_scan(self, seed, staged):
        db = access_db(seed)
        overlays = access_overlays(db, seed) if staged else None
        for relations, where, indexed in access_predicates(seed):
            sql = f"SELECT * FROM {relations} WHERE {where}"
            query = parse_query(sql)
            probed, plan = run_plan(db, Planner, query, overlays)
            scanned, scan_plan = run_plan(db, ScanPlanner, query, overlays)
            # result LISTS: same rows in the same order, or the same error
            assert probed == scanned, sql
            assert ("IndexScan" in plan.explain()) == indexed, sql
            assert "IndexScan" not in scan_plan.explain(), sql
            if not staged and probed[0] == "rows":
                assert bag(probed[1]) == bag(ReferenceExecutor(db).rows(query)), sql

    @pytest.mark.parametrize("seed", ACCESS_SEEDS)
    def test_shapes_equal_fresh_plans(self, seed):
        """Through the text entry points — the cached, parameterised
        shape against ``plan_cache_enabled = False``."""
        cached, fresh = access_db(seed), access_db(seed)
        fresh.plan_cache_enabled = False
        for repeat in range(2):  # second round: every shape is a cache hit
            for relations, where, _ in access_predicates(seed + repeat):
                sql = f"SELECT * FROM {relations} WHERE {where}"
                outcomes = []
                for db in (cached, fresh):
                    try:
                        outcomes.append(db.query(sql).rows)
                    except ExecutionError as error:
                        outcomes.append((type(error), str(error)))
                assert outcomes[0] == outcomes[1], sql
        assert cached.plan_cache_stats.hits > 0
        assert fresh.plan_cache_stats.snapshot()["hits"] == 0

    def test_explain_names_the_access_path(self):
        db = access_db(0)
        for sql, expected in [
            ("SELECT * FROM p WHERE id = 1", "IndexScan(p AS p on (id) via PRIMARY KEY)"),
            ("SELECT * FROM p AS a WHERE 'c1' = a.code", "IndexScan(p AS a on (code) via UNIQUE)"),
            ("SELECT * FROM c WHERE pid = 1", "IndexScan(c AS c on (pid) via FOREIGN KEY)"),
            ("SELECT * FROM c WHERE k1 = 1", "IndexScan(c AS c on (k1) via PRIMARY KEY prefix)"),
            ("SELECT * FROM c WHERE k2 = 1 AND k1 = 2", "IndexScan(c AS c on (k1, k2) via PRIMARY KEY)"),
        ]:
            assert expected in db.execute("EXPLAIN " + sql), sql
        adhoc = db.execute("EXPLAIN SELECT * FROM c WHERE qty = 1")
        assert "SeqScan(c" in adhoc and "IndexScan" not in adhoc
        analyzed = db.execute("EXPLAIN ANALYZE SELECT * FROM p WHERE id = 1")
        assert "IndexScan(p AS p on (id) via PRIMARY KEY)  (actual rows=1" in analyzed
        assert "(1 rows scanned)" in analyzed

    def test_no_index_is_built_for_keys_or_ad_hoc_columns(self):
        db = access_db(0)
        db.query("SELECT * FROM p WHERE id = 1")
        db.query("SELECT * FROM p WHERE code = 'c1'")
        db.query("SELECT * FROM c WHERE k1 = 1 AND k2 = 1")
        db.query("SELECT * FROM c WHERE qty = 1")
        db.execute("DELETE FROM c WHERE k1 = 1 AND k2 = 1")
        assert db.table("p").secondary_indexes == {}
        assert db.table("c").secondary_indexes == {}
        # planning alone builds nothing either; the first probe does
        db.execute("EXPLAIN SELECT * FROM c WHERE pid = 1")
        assert db.table("c").secondary_indexes == {}
        db.query("SELECT * FROM c WHERE pid = 1")
        assert list(db.table("c").secondary_indexes) == [(2,)]

    @pytest.mark.parametrize("seed", ACCESS_SEEDS)
    def test_dml_victims_equal_for_database_and_session(self, seed):
        for relations, where, _ in access_predicates(seed):
            if "," in relations:
                continue  # DML names one table
            table = relations.split()[0]
            alias = relations.partition(" AS ")[2]
            target = f"{table} AS {alias}" if alias else table
            column = "qty" if table == "c" else "w"
            statements = [f"UPDATE {target} SET {column} = 5 WHERE {where}"]
            if table == "c":  # p is referenced: FK RESTRICT, not our subject
                statements.append(f"DELETE FROM {target} WHERE {where}")
            for sql in statements:
                plain = access_db(seed)
                served = Tintin(access_db(seed))
                served.install()
                session = served.create_session()
                query = parse_query(f"SELECT * FROM {relations} WHERE {where}")
                expected, _ = run_plan(plain, ScanPlanner, query, None)
                outcomes = []
                for execute in (plain.execute, session.execute):
                    try:
                        outcomes.append(execute(sql))
                    except ExecutionError as error:
                        outcomes.append(("error", type(error), str(error)))
                if expected[0] == "error":
                    assert outcomes == [expected, expected], sql
                    continue
                assert outcomes == [len(expected[1])] * 2, sql
                # the same rows went: what the session would commit is
                # what the database applied
                assert bag(session.rows(table)) == bag(
                    plain.table(table).rows_snapshot()
                ), sql
                if sql.startswith("DELETE"):
                    assert bag(
                        served.db.table(table).rows_snapshot()
                    ) == bag(plain.table(table).rows_snapshot() + expected[1]), sql
