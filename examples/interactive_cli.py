#!/usr/bin/env python3
"""Interactive front end — the reproduction's analog of the paper's GUI
(Fig. 3): connect to a database, install the capture, type assertions
and SQL, and call safeCommit.

Commands (everything else is executed as SQL, including
``EXPLAIN <query>`` to inspect physical plans and plan-cache status):

  \\tables           list tables (base and event namespaces)
  \\assertions       list installed assertions and their EDCs
  \\views            list the stored violation views (with SQL)
  \\pending          show the captured, not-yet-committed update
  \\commit           run safeCommit
  \\fullcommit       run the non-incremental comparator instead
  \\demo             load a small TPC-H instance to play with
  \\help             this text
  \\quit             exit

Run:  python examples/interactive_cli.py
"""

from __future__ import annotations

import sys

from repro import Database, Tintin
from repro.errors import ReproError
from repro.sqlparser import nodes, print_query
from repro.sqlparser.parser import parse_statement


class Session:
    def __init__(self):
        self.db = Database("cli")
        self.tintin = Tintin(self.db)
        self.installed = False

    # -- commands -----------------------------------------------------------

    def cmd_tables(self) -> None:
        for namespace in ("main", "event"):
            tables = self.db.catalog.tables(namespace=namespace)
            if not tables:
                continue
            print(f"{namespace}:")
            for table in tables:
                columns = ", ".join(str(c) for c in table.schema.columns)
                print(f"  {table.schema.name} ({columns})  [{len(table)} rows]")

    def cmd_assertions(self) -> None:
        if not self.tintin.assertions:
            print("no assertions installed")
            return
        print(self.tintin.describe())

    def cmd_views(self) -> None:
        for view in self.db.catalog.views():
            print(f"{view.name}:")
            print(f"  {print_query(view.query)}")

    def cmd_pending(self) -> None:
        if not self.installed:
            print("capture not installed yet (add an assertion first)")
            return
        counts = self.tintin.events.staged.counts()
        total = sum(i + d for i, d in counts.values())
        if not total:
            print("no pending events")
            return
        for table, (ins, dels) in sorted(counts.items()):
            if ins or dels:
                print(f"  {table}: +{ins} / -{dels}")

    def cmd_commit(self) -> None:
        if not self.installed:
            print("nothing to commit: capture not installed")
            return
        print(self.tintin.safe_commit())

    def cmd_fullcommit(self) -> None:
        if not self.installed:
            print("nothing to commit: capture not installed")
            return
        print(self.tintin.full_check_commit())

    def cmd_demo(self) -> None:
        from repro.tpch import create_tpch_schema, load_tpch

        if self.db.catalog.tables():
            print("demo requires a fresh session")
            return
        create_tpch_schema(self.db)
        data = load_tpch(self.db, scale=0.001)
        print(f"loaded TPC-H: {data.total_rows} rows across 8 tables")
        print("try:  CREATE ASSERTION atLeastOneLineItem CHECK (NOT EXISTS "
              "(SELECT * FROM orders AS o WHERE NOT EXISTS (SELECT * FROM "
              "lineitem AS l WHERE l.l_orderkey = o.o_orderkey)))")

    # -- SQL ---------------------------------------------------------------------

    def run_sql(self, sql: str) -> None:
        stmt = parse_statement(sql)
        if isinstance(stmt, nodes.Explain):
            # the text entry point adds the plan-cache status header
            print(self.db.execute(sql))
            return
        if isinstance(stmt, nodes.CreateAssertion):
            if not self.installed:
                self.tintin.install()
                self.installed = True
                print("(installed event capture + safeCommit)")
            assertion = self.tintin.add_assertion(sql)
            print(
                f"assertion {assertion.name}: {len(assertion.denials)} "
                f"denial(s), {len(assertion.edcs)} EDC view(s)"
            )
            return
        result = self.db.execute_statement(stmt)
        if result is None:
            print("ok")
        elif hasattr(result, "columns"):
            print(" | ".join(result.columns))
            for row in result.rows[:50]:
                print(" | ".join(str(v) for v in row))
            if len(result.rows) > 50:
                print(f"... {len(result.rows) - 50} more rows")
        else:
            print(result)

    # -- loop -----------------------------------------------------------------------

    COMMANDS = {
        "\\tables": cmd_tables,
        "\\assertions": cmd_assertions,
        "\\views": cmd_views,
        "\\pending": cmd_pending,
        "\\commit": cmd_commit,
        "\\fullcommit": cmd_fullcommit,
        "\\demo": cmd_demo,
    }

    def run(self) -> None:
        print("TINTIN interactive session — \\help for commands")
        while True:
            try:
                line = input("tintin> ").strip()
            except (EOFError, KeyboardInterrupt):
                print()
                return
            if not line:
                continue
            if line in ("\\quit", "\\q", "exit"):
                return
            if line == "\\help":
                print(__doc__)
                continue
            handler = self.COMMANDS.get(line)
            try:
                if handler is not None:
                    handler(self)
                else:
                    self.run_sql(line)
            except ReproError as exc:
                print(f"error: {exc}")


if __name__ == "__main__":
    if not sys.stdin.isatty():
        # piped input: still usable for scripted demos
        pass
    Session().run()
