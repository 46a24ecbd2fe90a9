"""Per-assertion check profiling and per-plan-node statistics.

:class:`AssertionProfiler` accumulates, per installed assertion's
violation view: how many times it was checked vs. skipped (guard-table
pruning), how many violations it surfaced, cumulative wall time, and —
when row capture is enabled — cumulative rows pulled out of storage.
The timing half is cheap (two ``perf_counter`` calls and one lock bump
per checked view) and is always on once a profiler is installed; row
capture runs each check through the instrumented compile of its plan
and is opt-in because that adds a counter increment per row per node.

:class:`PlanStatsCollector` is also the machinery behind
``EXPLAIN ANALYZE``: it receives the rows each plan node output, keyed
by node identity so an annotated plan tree can be printed afterwards.

A collector instance observes the executions of one caller and is not
thread-safe; cumulative aggregation across executions happens in the
profiler, under its lock.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

__all__ = ["AssertionProfiler", "PlanStatsCollector"]


class PlanStatsCollector:
    """Rows per plan node, and the wall time, of plan executions.

    Passed as ``PreparedStatement.execute(collector=...)``: the
    statement then runs the instrumented compile of its plan (see
    :mod:`repro.minidb.codegen`), which counts every row each node
    outputs and hands the counts here through :meth:`record`.  The plan
    runs as one generated function, so there is one time per statement,
    not one per node.
    """

    __slots__ = ("_stats", "seconds")

    def __init__(self) -> None:
        # id(node) -> [node, rows]
        self._stats: Dict[int, list] = {}
        self.seconds = 0.0

    def record(self, nodes, counts, seconds: float) -> None:
        """Add one execution: ``counts[i]`` rows out of ``nodes[i]``."""
        for node, count in zip(nodes, counts):
            entry = self._stats.get(id(node))
            if entry is None:
                entry = self._stats[id(node)] = [node, 0]
            entry[1] += count
        self.seconds += seconds

    def rows_for(self, node: Any) -> int:
        entry = self._stats.get(id(node))
        return entry[1] if entry else 0

    def rows_scanned(self) -> int:
        """Rows produced by storage-touching nodes (scans and index
        probes — anything holding a base ``table``)."""
        return sum(
            rows for node, rows in self._stats.values() if hasattr(node, "table")
        )

    def annotate(self, plan: Any) -> str:
        """The plan tree with ``(actual rows=N)`` per node — the body
        of an EXPLAIN ANALYZE report."""
        lines = []

        def walk(node: Any, indent: int) -> None:
            lines.append(
                "%s%s  (actual rows=%d)"
                % ("  " * indent, node.describe(), self.rows_for(node))
            )
            for child in node.children():
                walk(child, indent + 1)

        walk(plan, 0)
        return "\n".join(lines)


class AssertionProfiler:
    """Cumulative per-assertion check accounting.

    Keyed by violation-view name.  ``capture_rows`` additionally
    threads a per-execution :class:`PlanStatsCollector` through each
    check so ``rows_scanned`` fills in (slower; off by default).
    """

    def __init__(self, capture_rows: bool = False) -> None:
        self.capture_rows = capture_rows
        self._lock = threading.Lock()
        self._views: Dict[str, Dict[str, Any]] = {}

    def _entry(self, view: str) -> Dict[str, Any]:
        entry = self._views.get(view)
        if entry is None:
            entry = self._views[view] = {
                "checks": 0,
                "skips": 0,
                "violations": 0,
                "seconds": 0.0,
                "rows_scanned": 0,
            }
        return entry

    def record_check(
        self,
        view: str,
        seconds: float,
        violations: int = 0,
        rows_scanned: int = 0,
    ) -> None:
        with self._lock:
            entry = self._entry(view)
            entry["checks"] += 1
            entry["violations"] += violations
            entry["seconds"] += seconds
            entry["rows_scanned"] += rows_scanned

    def record_skip(self, view: str) -> None:
        with self._lock:
            self._entry(view)["skips"] += 1

    def collector(self) -> Optional[PlanStatsCollector]:
        """A fresh per-execution collector, or None when row capture
        is off."""
        return PlanStatsCollector() if self.capture_rows else None

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """``{view_name: {checks, skips, violations, seconds,
        rows_scanned}}``, consistent under the lock."""
        with self._lock:
            return {
                view: dict(entry) for view, entry in self._views.items()
            }

    def reset(self) -> None:
        with self._lock:
            self._views.clear()

    def report(self) -> str:
        """A fixed-width text table, slowest assertion first."""
        snap = self.snapshot()
        header = "%-32s %8s %8s %10s %12s %12s" % (
            "assertion",
            "checks",
            "skips",
            "violations",
            "seconds",
            "rows",
        )
        lines = [header, "-" * len(header)]
        for view, e in sorted(
            snap.items(), key=lambda kv: kv[1]["seconds"], reverse=True
        ):
            lines.append(
                "%-32s %8d %8d %10d %12.6f %12d"
                % (
                    view,
                    e["checks"],
                    e["skips"],
                    e["violations"],
                    e["seconds"],
                    e["rows_scanned"],
                )
            )
        return "\n".join(lines)
