"""The non-incremental comparator (paper §4's baseline).

The baseline "directly queries the assertions on the database": it
applies the pending update, executes each assertion's defining query in
full over the post-state, and rolls the update back when a violation
appears.  It shares the engine, the indexes and the event-capture
machinery with TINTIN, so the only difference measured by the
benchmarks is incremental vs. full evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import ConstraintViolation
from ..minidb.database import Database
from ..sqlparser import nodes as n
from .assertion import Assertion
from .event_tables import EventTableManager
from .safe_commit import CommitResult, Violation


class NonIncrementalChecker:
    """Applies the pending batch and re-runs the full assertion queries.

    The defining queries are compiled into prepared plans on first use;
    subsequent checks only execute them (the handles re-plan themselves
    after DDL or row-count drift), keeping the baseline's fixed costs
    comparable with the incremental path.  With the plan cache disabled
    nothing is prepared and every check plans fresh — the seed
    behaviour, and the comparator configuration of the E7 bench.
    """

    def __init__(self, events: EventTableManager):
        self.events = events
        self._assertions: list[Assertion] = []
        self._prepared: dict[str, list] = {}

    def register(self, assertion: Assertion) -> None:
        self._assertions.append(assertion)

    def unregister(self, name: str) -> None:
        self._assertions = [a for a in self._assertions if a.name != name]
        self._prepared.pop(name, None)

    @property
    def assertions(self) -> list[Assertion]:
        return list(self._assertions)

    def __call__(
        self,
        db: Database,
        inserts: dict[str, list[tuple]],
        deletes: dict[str, list[tuple]],
    ) -> CommitResult:
        """The baseline equivalent of safeCommit over one captured
        update (already taken out of the event tables).

        Applies the update inside a transaction, evaluates every
        assertion query over the whole post-state, and rolls back when
        any returns rows.
        """
        db.begin()
        try:
            applied = db.apply_batch(inserts, deletes)
        except ConstraintViolation as exc:
            db.rollback()
            return CommitResult(committed=False, constraint_error=str(exc))
        violations = self.check_current_state(db)
        if violations:
            db.rollback()
        else:
            db.commit()
        return CommitResult(
            committed=not violations,
            violations=violations,
            applied_rows=0 if violations else applied,
            checked_views=len(self._assertions),
        )

    def check_current_state(self, db: Database) -> list[Violation]:
        """Evaluate every assertion's defining query over the current
        state; non-empty answers are violations."""
        violations: list[Violation] = []
        for assertion in self._assertions:
            if db is self.events.db and db.plan_cache_enabled:
                handles = self._prepared.get(assertion.name)
                if handles is None:
                    handles = [
                        db.prepare_query(query)
                        for query in assertion.inner_queries()
                    ]
                    self._prepared[assertion.name] = handles
                results = [handle.execute() for handle in handles]
            else:
                results = [
                    db.query_ast(query) for query in assertion.inner_queries()
                ]
            for index, result in enumerate(results, start=1):
                if result.rows:
                    violations.append(
                        Violation(
                            assertion=assertion.name,
                            edc_name=f"{assertion.name}(full query {index})",
                            columns=result.columns,
                            rows=result.rows,
                        )
                    )
        return violations
