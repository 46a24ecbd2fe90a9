"""Assertion objects: the user-facing unit TINTIN compiles.

An :class:`Assertion` wraps a ``CREATE ASSERTION name CHECK (...)``
statement together with everything TINTIN derives from it: the logic
denials, the generated EDCs, and the names of the violation views
installed in the database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import AssertionDefinitionError
from ..minidb.schema import normalize
from ..sqlparser import nodes as n
from ..sqlparser.parser import parse_statement
from ..sqlparser.printer import print_expr


@dataclass
class Assertion:
    """A named SQL assertion plus its compiled artifacts."""

    name: str
    check: n.Expr
    sql: str = ""
    #: filled by the compilation pipeline
    denials: list = field(default_factory=list)
    edcs: list = field(default_factory=list)
    view_names: list[str] = field(default_factory=list)
    #: set for aggregate assertions (the future-work extension): the
    #: compiled AggregateAssertion spec instead of denials/EDCs
    aggregate: object = None

    @classmethod
    def parse(cls, sql: str) -> "Assertion":
        """Parse a ``CREATE ASSERTION`` statement into an Assertion."""
        stmt = parse_statement(sql)
        if not isinstance(stmt, n.CreateAssertion):
            raise AssertionDefinitionError(
                "expected a CREATE ASSERTION statement, got "
                f"{type(stmt).__name__}"
            )
        return cls(stmt.name, stmt.check, sql)

    def inner_queries(self) -> list[n.Query]:
        """The queries under the top-level NOT EXISTS conditions.

        These are the queries whose non-emptiness means violation — the
        non-incremental baseline evaluates them directly.
        """
        queries: list[n.Query] = []
        for conjunct in n.conjuncts(self.check):
            expr = conjunct
            if isinstance(expr, n.Not) and isinstance(expr.item, n.Exists):
                expr = n.Exists(expr.item.query, negated=not expr.item.negated)
            if isinstance(expr, n.Exists) and expr.negated:
                queries.append(expr.query)
            else:
                raise AssertionDefinitionError(
                    f"assertion {self.name!r}: CHECK must be a conjunction "
                    "of NOT EXISTS (query) conditions; found "
                    f"{print_expr(conjunct)!r}"
                )
        if not queries:
            raise AssertionDefinitionError(
                f"assertion {self.name!r}: empty CHECK condition"
            )
        return queries

    def tables(self) -> set[str]:
        """The (normalized) name of every table the CHECK reads, at any
        depth."""
        return {
            normalize(ref.name)
            for query in n.subqueries_of(self.check)
            for select in (query.selects if isinstance(query, n.Union) else (query,))
            for ref in select.from_items
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Assertion({self.name!r}, {len(self.edcs)} EDCs)"
