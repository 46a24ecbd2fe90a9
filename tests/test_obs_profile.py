"""Per-assertion check profiling and EXPLAIN ANALYZE."""

import pytest

from repro.core import Tintin
from repro.minidb import Database
from repro.obs import AssertionProfiler, PlanStatsCollector, RecordingTracer


def make_engine():
    db = Database("profdemo")
    db.execute(
        "CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, "
        "o_custkey INTEGER)"
    )
    db.execute(
        "CREATE TABLE lineitem (l_orderkey INTEGER NOT NULL, "
        "l_linenumber INTEGER NOT NULL, l_quantity INTEGER, "
        "PRIMARY KEY (l_orderkey, l_linenumber))"
    )
    tintin = Tintin(db)
    tintin.install()
    tintin.add_assertion(
        "CREATE ASSERTION atLeastOne CHECK (NOT EXISTS ("
        "SELECT * FROM orders AS o WHERE NOT EXISTS ("
        "SELECT * FROM lineitem AS l "
        "WHERE l.l_orderkey = o.o_orderkey)))"
    )
    return db, tintin


def stage_valid_order(tintin, key):
    session = tintin.create_session()
    session.insert("orders", [(key, 10)])
    session.insert("lineitem", [(key, 1, 5)])
    return session


class TestAssertionProfiler:
    def test_checks_and_skips_match_the_commit_result(self):
        db, tintin = make_engine()
        profiler = tintin.enable_profiling()
        session = stage_valid_order(tintin, 1)
        result = session.commit()
        assert result.committed
        snap = profiler.snapshot()
        checked = sum(v["checks"] for v in snap.values())
        skipped = sum(v["skips"] for v in snap.values())
        assert checked == result.checked_views
        assert skipped == result.skipped_views
        assert all(v["seconds"] >= 0.0 for v in snap.values())

    def test_violations_are_counted_per_view(self):
        db, tintin = make_engine()
        profiler = tintin.enable_profiling()
        session = tintin.create_session()
        session.insert("orders", [(99, 1)])  # no line item: violates
        result = session.commit()
        assert not result.committed
        snap = profiler.snapshot()
        assert sum(v["violations"] for v in snap.values()) >= 1

    def test_capture_rows_fills_rows_scanned(self):
        db, tintin = make_engine()
        profiler = tintin.enable_profiling(capture_rows=True)
        session = stage_valid_order(tintin, 1)
        assert session.commit().committed
        snap = profiler.snapshot()
        checked = {k: v for k, v in snap.items() if v["checks"]}
        assert checked
        assert any(v["rows_scanned"] > 0 for v in checked.values())

    def test_profile_facade_auto_attaches(self):
        db, tintin = make_engine()
        session = stage_valid_order(tintin, 1)
        session.commit()
        assert tintin.profile() == {}  # attached after that commit
        session = stage_valid_order(tintin, 2)
        session.commit()
        assert tintin.profile()  # now populated

    def test_report_renders_a_table_with_view_names(self):
        db, tintin = make_engine()
        tintin.enable_profiling()
        session = stage_valid_order(tintin, 1)
        session.commit()
        report = tintin.profile_report()
        assert "checks" in report
        assert any(name in report for name in tintin.profile())

    def test_disable_profiling_detaches(self):
        db, tintin = make_engine()
        tintin.enable_profiling()
        tintin.disable_profiling()
        assert tintin.safe_commit_proc.profiler is None

    def test_reset_clears_accumulated_stats(self):
        profiler = AssertionProfiler()
        profiler.record_check("v", 0.01, violations=1)
        profiler.record_skip("w")
        assert profiler.snapshot()
        profiler.reset()
        assert profiler.snapshot() == {}


def add_twins(tintin, count=3):
    """Assertions differing only in constants: their EDCs share cores."""
    for k in range(count):
        tintin.add_assertion(
            f"CREATE ASSERTION qtyBound{k} CHECK (NOT EXISTS ("
            "SELECT * FROM orders AS o, lineitem AS l "
            f"WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity > {10 + k} "
            f"AND o.o_custkey > {100 + k}))"
        )


class TestSharedCores:
    def test_every_member_still_counts_one_check(self):
        db, tintin = make_engine()
        add_twins(tintin)
        profiler = tintin.enable_profiling(capture_rows=True)
        session = tintin.create_session()
        session.insert("orders", [(7, 150)])
        session.insert("lineitem", [(7, 1, 11)])
        result = session.commit()
        assert not result.committed  # quantity 11 trips qtyBound0
        snap = profiler.snapshot()
        views = [
            c.view_name
            for c in tintin.safe_commit_proc.compiled
            if c.view_name.startswith("qtyBound")
        ]
        assert len(views) == 9
        # both staged tables are non-empty: every twin view is driven
        assert all(snap[view]["checks"] == 1 for view in views)
        assert [v for v in views if snap[v]["violations"]] == ["qtyBound01"]
        assert sum(v["checks"] for v in snap.values()) == result.checked_views
        assert sum(v["skips"] for v in snap.values()) == result.skipped_views

    def test_shared_span_nests_under_validate(self):
        db, tintin = make_engine()
        add_twins(tintin)
        tracer = RecordingTracer()
        tintin.set_tracer(tracer)
        session = tintin.create_session()
        session.insert("orders", [(7, 50)])
        session.insert("lineitem", [(7, 1, 5)])
        assert session.commit().committed
        spans = tracer.spans()
        validate = next(s for s in spans if s.name == "validate")
        shared = [s for s in spans if s.name.endswith(".shared")]
        assert {s.name for s in shared} == {
            f"check.qtyBound0{i}.shared" for i in (1, 2, 3)
        }
        for span in shared:
            assert span.parent_id == validate.span_id
            assert span.attrs["members"] == 3
        assert not [
            s for s in spans if s.name.startswith("check.qtyBound1")
        ]


class TestExplainAnalyze:
    def test_explain_analyze_annotates_actual_rows_and_timings(self):
        db, _ = make_engine()
        db.insert_rows("orders", [(1, 1), (2, 2)], bypass_triggers=True)
        out = db.execute("EXPLAIN ANALYZE SELECT * FROM orders")
        assert "actual rows=2" in out
        assert "rows in" in out
        assert "rows scanned" in out

    def test_plain_explain_has_no_actuals(self):
        db, _ = make_engine()
        out = db.execute("EXPLAIN SELECT * FROM orders")
        assert "actual rows" not in out

    def test_explain_analyze_of_an_assertion_covers_its_views(self):
        db, tintin = make_engine()
        out = tintin.explain_analyze("atLeastOne")
        assert "actual rows=" in out
        views = tintin.assertions["atLeastOne"].view_names
        assert len(views) >= 1

    def test_explain_analyze_accepts_raw_sql(self):
        db, tintin = make_engine()
        db.insert_rows("orders", [(1, 1)], bypass_triggers=True)
        out = tintin.explain_analyze("SELECT * FROM orders")
        assert "actual rows=1" in out


class TestPlanStatsCollector:
    def test_collector_counts_rows_per_scan_node(self):
        db = Database("colldemo")
        db.execute("CREATE TABLE t (a INT NOT NULL)")
        db.insert_rows("t", [(1,), (2,), (3,)])
        prepared = db.prepare("SELECT * FROM t")
        collector = PlanStatsCollector()
        result = prepared.execute(collector=collector)
        assert len(result.rows) == 3
        assert collector.rows_scanned() == 3

    def test_collector_is_inert_when_absent(self):
        db = Database("colldemo2")
        db.execute("CREATE TABLE t (a INT NOT NULL)")
        db.insert_rows("t", [(1,)])
        prepared = db.prepare("SELECT * FROM t")
        assert len(prepared.execute().rows) == 1
