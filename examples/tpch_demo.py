#!/usr/bin/env python3
"""The paper's demo walkthrough (§3) on the TPC-H schema (Fig. 1).

Follows the demonstration script of the paper step by step:

1. build the TPC-H database and ask TINTIN for the auxiliary event
   tables and capture triggers (the paper's ``event_TPC`` database);
2. introduce SQL assertions of different complexity — TINTIN compiles
   them to denials, EDCs and stored violation views, and creates the
   ``safeCommit`` procedure;
3. apply updates mixing violating and non-violating ones, calling
   safeCommit after each to watch it commit or reject;
4. print the incremental-vs-full timing comparison of §4.

Run:  python examples/tpch_demo.py
"""

import time

from repro.core import Tintin
from repro.sqlparser import print_query
from repro.tpch import (
    AGGREGATE_ASSERTIONS,
    AT_LEAST_ONE_LINEITEM,
    COMPLEXITY_SUITE,
    UpdateGenerator,
    load_tpch,
    tpch_database,
)


def banner(text: str) -> None:
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def main() -> None:
    banner("1. Build TPC and install the event capture (event_TPC)")
    db = tpch_database("TPC")
    data = load_tpch(db, scale=0.002, seed=42)
    print(f"loaded {data.total_rows} rows:")
    for table, count in sorted(data.counts().items()):
        print(f"  {table:10} {count:>7}")

    tintin = Tintin(db)
    captured = tintin.install()
    print(f"\ninstrumented tables: {', '.join(captured)}")
    event_tables = [
        t.schema.name for t in db.catalog.tables(namespace="event")
    ]
    print(f"event tables created: {', '.join(event_tables)}")

    banner("2. Introduce SQL assertions (compiled to EDC views)")
    for spec in COMPLEXITY_SUITE:
        assertion = tintin.add_assertion(spec.sql)
        print(
            f"  {spec.name:24} -> {len(assertion.denials)} denial(s), "
            f"{len(assertion.edcs)} EDC view(s)"
        )
    example = tintin.assertions[AT_LEAST_ONE_LINEITEM.name]
    print("\nthe running example's first stored view (paper §2):")
    print(" ", print_query(db.catalog.get_view(example.view_names[0]).query))

    banner("3. Apply updates and call safeCommit after each (paper §3)")
    generator = UpdateGenerator(db, seed=7)

    print("\n(a) a valid refresh: new orders with line items + old orders removed")
    generator.mixed_refresh(10).stage(db)
    result = db.call("safeCommit")
    print(f"    safeCommit -> {result}")

    print("\n(b) an order inserted WITHOUT any line item")
    generator.violating_order_without_lineitem().stage(db)
    result = db.call("safeCommit")
    print(f"    safeCommit -> {result}")
    for violation in result.violations:
        print(f"    violating tuples: {violation.rows}")

    print("\n(c) deleting every line item of an existing order")
    generator.violating_empty_an_order().stage(db)
    result = db.call("safeCommit")
    print(f"    safeCommit -> {result}")

    print("\n(d) a line item with quantity 0")
    generator.violating_negative_quantity().stage(db)
    result = db.call("safeCommit")
    print(f"    safeCommit -> {result}")

    banner("3b. Aggregate assertions (the paper's §5 future work)")
    for spec in AGGREGATE_ASSERTIONS:
        tintin.add_assertion(spec.sql)
        print(f"  installed {spec.name}: {spec.description}")

    print("\n(e) an order stuffed with more than 7 line items")
    generator.violating_too_many_items().stage(db)
    result = db.call("safeCommit")
    print(f"    safeCommit -> {result}")

    print("\n(f) an order whose quantities sum above 350")
    generator.violating_bulk_quantities().stage(db)
    result = db.call("safeCommit")
    print(f"    safeCommit -> {result}")

    banner("4. Efficiency: incremental vs non-incremental (paper §4)")
    generator.mixed_refresh(10).stage(db)
    start = time.perf_counter()
    check = tintin.check_pending()
    incremental = time.perf_counter() - start
    db.apply_batch(*tintin.events.staged.take())
    start = time.perf_counter()
    tintin.baseline.check_current_state(db)
    full = time.perf_counter() - start
    print(f"incremental check of {len(COMPLEXITY_SUITE)} assertions: {incremental * 1e3:8.2f} ms")
    print(f"full (non-incremental) check:                {full * 1e3:8.2f} ms")
    print(f"speedup: x{full / incremental:.0f}")
    print(
        f"(views executed: {check.checked_views}, skipped as trivially "
        f"empty: {check.skipped_views})"
    )


if __name__ == "__main__":
    main()
