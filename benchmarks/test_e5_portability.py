"""E5 (ablation) — portability of the generated SQL (§3, feature 1).

    "Since we use standard SQL to define them, they could be used for
     checking assertions on any relational DBMS."

The stored violation views are printed as standard SQL and installed
verbatim on stdlib ``sqlite3``.  The experiment verifies both engines
reach the same accept/reject decision on valid and violating updates,
and compares the check times.
"""

import pytest

from conftest import cached_workload
from repro.backends import SQLiteMirror
from harness import (
    build_workload,
    format_seconds,
    plan_cache_line,
    time_call,
)
from repro.tpch import (
    AT_LEAST_ONE_LINEITEM,
    POSITIVE_QUANTITY,
    UpdateGenerator,
)

SCALE = 0.004
SUITE = (AT_LEAST_ONE_LINEITEM, POSITIVE_QUANTITY)


def view_names(workload):
    return [
        name
        for assertion in workload.tintin.assertions.values()
        for name in assertion.view_names
    ]


@pytest.fixture(scope="module")
def mirrored():
    workload = cached_workload(SCALE, 10, SUITE)
    mirror = SQLiteMirror.from_database(workload.db)
    return workload, mirror


def test_sqlite_check(benchmark, mirrored):
    workload, mirror = mirrored
    names = view_names(workload)
    mirror.refresh_event_tables(workload.db)
    counts = benchmark(mirror.check_views, names)
    assert not any(counts.values())


def test_minidb_check(benchmark, mirrored):
    workload, _ = mirrored
    result = benchmark(workload.check_incremental)
    assert result.committed


def test_e5_report(benchmark):
    last_db = {}

    def build():
        rows = []
        # a valid refresh and a violating update, both engines
        for kind in ("valid", "violating"):
            workload = build_workload(SCALE, 10, SUITE, seed=77)
            last_db["db"] = workload.db
            if kind == "violating":
                workload.tintin.events.staged.truncate()
                generator = UpdateGenerator(workload.db, seed=5)
                generator.violating_order_without_lineitem().stage(workload.db)
            mirror = SQLiteMirror.from_database(workload.db)
            names = view_names(workload)
            minidb_seconds = time_call(workload.check_incremental, repeat=3)
            sqlite_seconds = time_call(
                lambda: mirror.check_views(names), repeat=3
            )
            minidb_decision = workload.check_incremental().committed
            sqlite_decision = not mirror.any_violation(names)
            rows.append(
                (kind, minidb_decision, sqlite_decision, minidb_seconds, sqlite_seconds)
            )
            mirror.close()
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    print()
    print("E5: the same generated views on minidb and stdlib sqlite3")
    print(f"{'update':>10} {'minidb ok':>10} {'sqlite ok':>10} {'minidb':>10} {'sqlite':>10}")
    for kind, m_ok, s_ok, m_s, s_s in rows:
        print(
            f"{kind:>10} {str(m_ok):>10} {str(s_ok):>10} "
            f"{format_seconds(m_s):>10} {format_seconds(s_s):>10}"
        )
    print(plan_cache_line(last_db["db"]))
    # both engines must agree on every decision
    for kind, m_ok, s_ok, _, _ in rows:
        assert m_ok == s_ok, f"decision mismatch on {kind} update"
    assert rows[0][1] is True
    assert rows[1][1] is False
