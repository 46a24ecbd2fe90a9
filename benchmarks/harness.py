"""Benchmark harness: build a workload cell, time incremental vs full.

One *cell* corresponds to one configuration of the paper's evaluation:
a data scale (the paper's 1-5 GB axis) and an update size (the paper's
1-5 MB axis).  For each cell the harness measures:

* ``tintin_seconds`` — running the stored violation views against the
  captured update (``check_pending``: what safeCommit does before
  applying);
* ``baseline_seconds`` — executing the original assertion queries over
  the full post-update state (the paper's non-incremental comparator).

Both checks see exactly the same update and the same final state, and
run on the same engine with the same indexes.  The E1-E6 experiments
print their results with the paper-style table formatters at the end
of this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core import Tintin
from repro.minidb.database import Database
from repro.tpch import (
    AssertionSpec,
    TPCHGenerator,
    UpdateGenerator,
    tpch_database,
)


@dataclass
class CellResult:
    """Timing results of one workload cell."""

    scale: float
    data_rows: int
    update_rows: int
    tintin_seconds: float
    baseline_seconds: float
    committed: bool

    @property
    def speedup(self) -> float:
        if self.tintin_seconds <= 0:
            return float("inf")
        return self.baseline_seconds / self.tintin_seconds


@dataclass
class Workload:
    """A prepared workload: loaded database + staged update.

    The update sits in the event tables; ``check_incremental`` and
    (after ``apply``) ``check_full`` can be timed repeatedly without
    disturbing it.
    """

    db: Database
    tintin: Tintin
    update_rows: int
    data_rows: int
    scale: float

    def check_incremental(self):
        return self.tintin.check_pending()

    def apply(self) -> int:
        return self.db.apply_batch(*self.tintin.events.staged.take())

    def check_full(self):
        return self.tintin.baseline.check_current_state(self.db)


def build_workload(
    scale: float,
    update_orders: int,
    assertions: tuple[AssertionSpec, ...],
    seed: int = 42,
    update_kind: str = "mixed",
    optimize: bool = True,
) -> Workload:
    """Load TPC-H at ``scale``, install the assertions, stage an update.

    ``update_kind`` is ``"mixed"`` (RF1+RF2, the paper's
    insertions+deletions), ``"insert"`` (RF1) or ``"delete"`` (RF2).
    """
    db = tpch_database()
    data = TPCHGenerator(scale, seed).populate(db)
    tintin = Tintin(db, optimize=optimize)
    tintin.install()
    for spec in assertions:
        tintin.add_assertion(spec.sql)
    generator = UpdateGenerator(db, seed=seed + 1)
    if update_kind == "mixed":
        batch = generator.mixed_refresh(update_orders)
    elif update_kind == "insert":
        batch = generator.rf1_new_orders(update_orders)
    elif update_kind == "delete":
        batch = generator.rf2_delete_orders(update_orders)
    else:
        raise ValueError(f"unknown update kind {update_kind!r}")
    staged = batch.stage(db)
    return Workload(db, tintin, staged, data.total_rows, scale)


def time_call(fn: Callable, repeat: int = 3) -> float:
    """Best-of-N wall time of a callable (seconds)."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_cell(
    scale: float,
    update_orders: int,
    assertions: tuple[AssertionSpec, ...],
    seed: int = 42,
    repeat: int = 3,
) -> CellResult:
    """Measure one cell: incremental check vs full post-state check."""
    workload = build_workload(scale, update_orders, assertions, seed)
    incremental = time_call(workload.check_incremental, repeat)
    result = workload.check_incremental()
    workload.apply()
    full = time_call(workload.check_full, repeat)
    return CellResult(
        scale=scale,
        data_rows=workload.data_rows,
        update_rows=workload.update_rows,
        tintin_seconds=incremental,
        baseline_seconds=full,
        committed=result.committed,
    )


# -- paper-style result tables ----------------------------------------------


def format_seconds(seconds: float) -> str:
    if seconds < 0.0001:
        return f"{seconds * 1e6:.0f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.2f}s"


def e1_table(results: Iterable[CellResult]) -> str:
    """The E1 grid: rows = data scale, columns = update size, cells =
    TINTIN time / baseline time / speedup (the paper's x89-x2662)."""
    lines = [
        f"{'data rows':>10} {'update rows':>12} {'TINTIN':>10} "
        f"{'full check':>11} {'speedup':>9}"
    ]
    for cell in results:
        lines.append(
            f"{cell.data_rows:>10} {cell.update_rows:>12} "
            f"{format_seconds(cell.tintin_seconds):>10} "
            f"{format_seconds(cell.baseline_seconds):>11} "
            f"x{cell.speedup:>8.1f}"
        )
    return "\n".join(lines)


def series_table(
    header: str, rows: list[tuple[str, float, float]]
) -> str:
    """A two-series table (incremental vs full) keyed by a label."""
    lines = [f"{header:>16} {'TINTIN':>10} {'full check':>11} {'speedup':>9}"]
    for label, incremental, full in rows:
        speedup = full / incremental if incremental > 0 else float("inf")
        lines.append(
            f"{label:>16} {format_seconds(incremental):>10} "
            f"{format_seconds(full):>11} x{speedup:>8.1f}"
        )
    return "\n".join(lines)


def plan_cache_metrics(db: Database) -> dict:
    """The plan-cache counters of a database, JSON-ready.

    Attached to every experiment's report, so a run always records
    how much parsing/planning the cache absorbed.
    """
    metrics = db.plan_cache_stats.snapshot()
    metrics["entries"] = len(db.plan_cache)
    metrics["enabled"] = db.plan_cache_enabled
    return metrics


def plan_cache_line(db: Database) -> str:
    """One printable line of plan-cache metrics for experiment reports."""
    m = plan_cache_metrics(db)
    return (
        f"plan cache: {m['entries']} entries, hits={m['hits']} "
        f"misses={m['misses']} invalidations={m['invalidations']} "
        f"dml-ast hits={m['dml_ast_hits']}/"
        f"{m['dml_ast_hits'] + m['dml_ast_misses']}"
    )


def durability_metrics(tintin=None) -> dict:
    """The durability counters of an engine, JSON-ready.

    Attached to every experiment's report alongside the plan-cache
    block, so a run always records whether (and how) commits were
    logged.  ``tintin=None`` or an engine without an attached manager
    reports ``{"mode": "off"}`` — the in-memory-only configuration.
    """
    manager = getattr(tintin, "durability", None)
    if manager is None:
        return {"mode": "off", "attached": False}
    metrics = {
        "mode": manager.mode,
        "attached": True,
        **manager.stats.snapshot(),
        **manager.wal.stats.snapshot(),
    }
    if tintin.serving:
        stats = tintin.sessions.scheduler.stats
        metrics["scheduler_wal_appends"] = stats.wal_appends
        metrics["scheduler_wal_fsyncs"] = stats.wal_fsyncs
    return metrics


def durability_line(tintin=None) -> str:
    """One printable line of durability metrics for experiment reports."""
    m = durability_metrics(tintin)
    if not m["attached"]:
        return "durability: off (no WAL attached — in-memory only)"
    shared = (
        m["appends"] / m["fsyncs"] if m.get("fsyncs") else float("inf")
    )
    return (
        f"durability: {m['mode']} — {m['appends']} append(s) / "
        f"{m['fsyncs']} fsync(s) ({shared:.1f} records/fsync), "
        f"{m['bytes_written']}B logged, {m['checkpoints']} checkpoint(s)"
    )
