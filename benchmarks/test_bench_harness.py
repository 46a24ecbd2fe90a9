"""Tests for the benchmark harness and its result tables (harness.py)."""

import pytest

from harness import (
    CellResult,
    build_workload,
    e1_table,
    format_seconds,
    run_cell,
    series_table,
    time_call,
)
from repro.tpch import AT_LEAST_ONE_LINEITEM, MAX_SEVEN_LINEITEMS

ASSERTIONS = (AT_LEAST_ONE_LINEITEM,)


class TestWorkload:
    def test_build_stages_a_pending_update(self):
        workload = build_workload(0.001, 4, ASSERTIONS, seed=5)
        assert workload.update_rows > 0
        assert workload.data_rows > 1000
        counts = workload.tintin.events.staged.counts()
        assert any(i or d for i, d in counts.values())

    def test_check_incremental_is_repeatable(self):
        workload = build_workload(0.001, 4, ASSERTIONS, seed=5)
        first = workload.check_incremental()
        second = workload.check_incremental()
        assert first.committed == second.committed

    def test_apply_then_full_check(self):
        workload = build_workload(0.001, 4, ASSERTIONS, seed=5)
        applied = workload.apply()
        assert applied > 0
        assert workload.check_full() == []

    def test_update_kinds(self):
        insert_only = build_workload(0.001, 4, ASSERTIONS, seed=5, update_kind="insert")
        assert all(
            d == 0 for _, d in insert_only.tintin.events.staged.counts().values()
        )
        delete_only = build_workload(0.001, 4, ASSERTIONS, seed=5, update_kind="delete")
        assert all(
            i == 0 for i, _ in delete_only.tintin.events.staged.counts().values()
        )
        with pytest.raises(ValueError):
            build_workload(0.001, 4, ASSERTIONS, update_kind="bogus")

    def test_optimize_flag_forwarded(self):
        optimized = build_workload(0.001, 2, ASSERTIONS, seed=5)
        unoptimized = build_workload(0.001, 2, ASSERTIONS, seed=5, optimize=False)
        count = lambda w: sum(
            len(a.edcs) for a in w.tintin.assertions.values()
        )
        assert count(unoptimized) > count(optimized)

    def test_aggregate_assertions_supported(self):
        workload = build_workload(0.001, 2, (MAX_SEVEN_LINEITEMS,), seed=5)
        assert workload.check_incremental().committed


class TestRunCell:
    def test_cell_result_fields(self):
        cell = run_cell(0.001, 2, ASSERTIONS, seed=5, repeat=1)
        assert cell.committed
        assert cell.tintin_seconds > 0
        assert cell.baseline_seconds > 0
        assert cell.speedup == cell.baseline_seconds / cell.tintin_seconds

    def test_speedup_inf_guard(self):
        cell = CellResult(0.1, 10, 5, 0.0, 1.0, True)
        assert cell.speedup == float("inf")


class TestReporting:
    def test_format_seconds_ranges(self):
        assert format_seconds(0.00000005) == "0µs"
        assert format_seconds(0.00005) == "50µs"
        assert format_seconds(0.005) == "5.00ms"
        assert format_seconds(2.5) == "2.50s"

    def test_e1_table_shape(self):
        cells = [CellResult(0.1, 1000, 50, 0.001, 0.1, True)]
        text = e1_table(cells)
        assert "speedup" in text
        assert "x" in text
        assert "1000" in text

    def test_series_table_shape(self):
        text = series_table("label", [("row1", 0.001, 0.01)])
        assert "row1" in text
        assert "x" in text

    def test_time_call_returns_best(self):
        calls = []

        def fn():
            calls.append(1)

        seconds = time_call(fn, repeat=3)
        assert len(calls) == 3
        assert seconds >= 0
