"""Shared fixtures for the experiment benchmarks.

Workloads are cached per configuration so pytest-benchmark rounds reuse
the same loaded database (building a cell costs ~0.1-2 s; the measured
operations are the checks, never the builds).
"""

from __future__ import annotations

import pytest

from repro.bench import Workload, build_workload
from repro.tpch import AssertionSpec

_cache: dict = {}


def cached_workload(
    scale: float,
    update_orders: int,
    assertions: tuple[AssertionSpec, ...],
    seed: int = 42,
    update_kind: str = "mixed",
    optimize: bool = True,
) -> Workload:
    """Build (or fetch) the workload for one configuration."""
    key = (
        scale,
        update_orders,
        tuple(a.name for a in assertions),
        seed,
        update_kind,
        optimize,
    )
    if key not in _cache:
        _cache[key] = {
            "workload": build_workload(
                scale, update_orders, assertions, seed, update_kind, optimize
            ),
            "applied": False,
        }
    return _cache[key]["workload"]


def applied_workload(
    scale: float,
    update_orders: int,
    assertions: tuple[AssertionSpec, ...],
    seed: int = 42,
    update_kind: str = "mixed",
    optimize: bool = True,
) -> Workload:
    """Like :func:`cached_workload` but with the update applied (for
    timing the full post-state check).

    Applied workloads get their *own* cache entry built from scratch:
    applying a shared pending workload would empty its event tables and
    corrupt every later incremental measurement in the session.
    """
    key = (
        "applied",
        scale,
        update_orders,
        tuple(a.name for a in assertions),
        seed,
        update_kind,
        optimize,
    )
    if key not in _cache:
        workload = build_workload(
            scale, update_orders, assertions, seed, update_kind, optimize
        )
        workload.apply()
        _cache[key] = {"workload": workload, "applied": True}
    return _cache[key]["workload"]


@pytest.fixture(scope="session")
def workload_cache():
    return cached_workload


@pytest.fixture
def baseline_path(tmp_path_factory):
    """Where a report test writes its JSON payload: a scratch directory
    of this pytest run, never the checkout.  The committed
    ``BENCH_*.json`` files are read-only references (E9 compares
    against two of them), so a test run leaves the tree as it found
    it; the path is printed for whoever wants the numbers."""

    def path(name: str) -> str:
        target = str(tmp_path_factory.mktemp("bench") / name)
        print(f"baseline written to {target}")
        return target

    return path
