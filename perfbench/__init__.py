"""perfbench — the repository's one benchmark (see README.md here).

Four workloads, quiet-window end-to-end metrics and a per-layer ledger
taken from outside the engine.  Entry point: ``perfbench/run.py``.
"""
