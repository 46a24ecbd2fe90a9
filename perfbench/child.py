"""One repetition of one workload, in a process of its own.

``run.py`` starts this file as ``python child.py '<json spec>'`` in a
fresh session (its own process group) with a hard timeout, and reads
one JSON object from the last line of its standard output.  A fresh
process per repetition means a fresh engine, fresh caches and a heap
nothing else has fragmented.

Sequence: set-up (timed by phase) → warm-up → measured block (untraced)
→ for the traced pass a second block under a ``RecordingTracer`` plus
the layer probes → close → audit (reopen, acked set, row counts, full
assertion check) → prove nothing is left running.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import resource
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)


def windows_of(workload, block) -> list:
    # perfbench and repro are imported inside functions: shard workers
    # re-import this file as their main module and need none of it
    from perfbench import quiet

    ops = [(op.start, op.end, op.cls, op.is_txn, op.cpu) for op in block.ops]
    if workload.open_loop:
        count = round(block.elapsed / workload.window_seconds)
        return quiet.open_loop_windows(
            ops, block.probes, workload.window_seconds, count
        )
    per_window = workload.period * workload.periods_per_window * workload.clients
    return quiet.closed_loop_windows(ops, block.probes, per_window, block.started)


def good_commits(workload, block) -> int:
    """Open loop: writes decided within ``good_seconds`` of their due
    time (closed loop has no due time; every completed write counts)."""
    limit = getattr(workload, "good_seconds", float("inf"))
    return sum(1 for op in block.ops if op.is_txn and op.end - op.start <= limit)


def leftovers() -> list[str]:
    """Whatever this process would leave running; must be empty."""
    deadline = time.monotonic() + 5.0
    while True:
        alive = [f"process {p.name}" for p in multiprocessing.active_children()]
        alive += [
            f"thread {t.name}"
            for t in threading.enumerate()
            if t is not threading.main_thread() and not t.daemon and t.is_alive()
        ]
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)


@contextlib.contextmanager
def busy_vcpus(lifetime: float):
    """One idle-priority spinner per vCPU for the duration (see
    ``spinner.py``).  They are started here, not by ``run.py``: this
    process leads its own session, and with scheduler autogrouping an
    idle-class task only yields to work in its *own* session — started
    from the parent they took half of every CPU from the engine."""
    command = [sys.executable, os.path.join(HERE, "spinner.py")]
    spinners: list = []
    try:
        affinity = getattr(os, "sched_getaffinity", None)
        for cpu in sorted(affinity(0)) if affinity else range(os.cpu_count() or 1):
            spinners.append(subprocess.Popen(command + [str(cpu), str(lifetime)]))
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


def repetition(spec: dict) -> dict:
    from repro.obs import RecordingTracer

    from perfbench import ledger, quiet
    from perfbench.quiet import TXN, XSHARD
    from perfbench.workloads import WORKLOADS

    began = time.perf_counter()
    workload = WORKLOADS[spec["workload"]](spec["seed"], spec["state_dir"])
    phases: dict = {}

    @contextlib.contextmanager
    def phase(name: str):
        """Time one set-up phase at nominal host speed."""
        with quiet.Stopwatch() as watch:
            yield
        phases[name] = phases.get(name, 0.0) + watch.seconds

    failures: list[str] = []
    attempted = 0
    layers: dict = {}
    closed = False
    workload.setup(phase)
    try:
        with phase("warmup"):
            warm = workload.warm_up()
        block = workload.measure(spec["seconds"])
        windows = windows_of(workload, block)
        blocks = [warm, block]
        if spec["trace"]:
            tracer = RecordingTracer()
            for views in workload.views:
                views[:] = [0, 0]
            workload.install_tracer(tracer)
            clock_offset = time.time() - time.perf_counter()
            workload.probe_check = True
            before = ledger.counters(workload)
            traced = workload.measure(spec["seconds"])
            after = ledger.counters(workload)
            workload.probe_check = False
            workload.install_tracer(None)
            blocks.append(traced)
            layers = ledger.per_layer(
                workload,
                phases,
                windows,
                traced,
                windows_of(workload, traced),
                tracer.spans(),
                before,
                after,
                ledger.probes(workload, workload.scripts[0][:600]),
                clock_offset,
            )
            workload.probe_checkpoint = True
        for each in blocks:
            attempted += len(each.ops)
            failures.extend(each.failures)
        workload.close()
        closed = True
        attempted += 1
        failures.extend(f"{workload.name} audit: {m}" for m in workload.audit())
    finally:
        if not closed:
            with contextlib.suppress(Exception):
                workload.close()
    if spec["trace"]:
        logged = sum(
            1 for b in blocks for op in b.ops if op.cls in (TXN, XSHARD)
        )
        layers["durability.recover_ms_per_ktxn"] = (
            workload.recover_seconds * 1e6 / logged
        )
        layers["durability.checkpoint_ms"] = workload.checkpoint_seconds * 1e3
        layers["durability.checkpoint_bytes"] = ledger.checkpoint_bytes(
            spec["state_dir"]
        )
        txn_all = quiet.raw_latencies(windows, TXN)
        layers["bench.noise_ratio"] = quiet.noise_ratio(windows)
        layers["bench.host_speed_p50"] = quiet.median(w["speed"] for w in windows)
        layers["bench.txn_mean_ms_all"] = sum(txn_all) * 1e3 / max(1, len(txn_all))
        layers["bench.txn_p95_ms_all"] = quiet.percentile(txn_all, 0.95) * 1e3
        layers["bench.txn_p99_ms_all"] = quiet.percentile(txn_all, 0.99) * 1e3
        layers["bench.gen_late_p95_ms"] = (
            quiet.percentile(block.lateness, 0.95) * 1e3
        )
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "workload": workload.name,
        "open_loop": workload.open_loop,
        "flush_policy": workload.flush_policy,
        "phases": phases,
        "windows": windows,
        "good": good_commits(workload, block),
        "elapsed": block.elapsed,
        "attempted": attempted,
        "failures": failures,
        "layers": layers,
        "peak_rss_kib": usage,
        "wall_seconds": time.perf_counter() - began,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    with busy_vcpus(spec["timeout"]):
        result = repetition(spec)
    result["leftovers"] = leftovers()
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
