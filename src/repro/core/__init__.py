"""TINTIN core: the paper's primary contribution.

Pipeline modules (one per box in the paper's Fig. 2 architecture):

* :mod:`~repro.core.assertion` — CREATE ASSERTION parsing;
* :mod:`~repro.core.denial_compiler` — assertions -> logic denials;
* :mod:`~repro.core.edc_generator` — denials -> EDCs (eqs. 2-3);
* :mod:`~repro.core.optimizer` — semantic EDC pruning (FK rule etc.);
* :mod:`~repro.core.sql_generator` — EDCs -> SQL violation views;
* :mod:`~repro.core.event_tables` — ins_T/del_T + INSTEAD OF triggers,
  and the one staging class every session nets its update through;
* :mod:`~repro.core.safe_commit` — the generated safeCommit procedure;
* :mod:`~repro.core.baseline` — the non-incremental comparator;
* :mod:`~repro.core.tintin` — the facade tying it together.
"""

from .assertion import Assertion
from .baseline import NonIncrementalChecker
from .denial_compiler import DenialCompiler
from .edc import EDC, EventGuard
from .edc_generator import EDCGenerator
from .event_tables import (
    EventTableManager,
    StagedEvents,
    del_table_name,
    ins_table_name,
)
from .optimizer import OptimizationReport, SemanticOptimizer
from .safe_commit import CommitResult, CompiledEDC, SafeCommit, Violation
from .sql_generator import SQLGenerator
from .tintin import SAFE_COMMIT_PROCEDURE, Tintin

__all__ = [
    "Assertion",
    "CommitResult",
    "CompiledEDC",
    "DenialCompiler",
    "EDC",
    "EDCGenerator",
    "EventGuard",
    "EventTableManager",
    "NonIncrementalChecker",
    "OptimizationReport",
    "SAFE_COMMIT_PROCEDURE",
    "SQLGenerator",
    "SafeCommit",
    "SemanticOptimizer",
    "StagedEvents",
    "Tintin",
    "Violation",
    "del_table_name",
    "ins_table_name",
]
