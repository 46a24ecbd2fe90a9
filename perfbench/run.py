"""The benchmark's one command.

Driver form (one workload, one JSON result on the last line)::

    python3 perfbench/run.py --workload oltp_sessions --seed 7 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics over three repetitions
(each a child process with a fresh engine); ``--trace 1`` runs one
repetition with an untraced block and a traced one and reports the
per-layer ledger.  Metric names, units and bounds are read from
``BENCHMARK.json`` so the two cannot drift apart.

Suite form (every workload, untraced then traced, human-readable)::

    python3 perfbench/run.py [--seed N] [--seconds S] [--smoke | --selfcheck]

Exit status is non-zero when any output was wrong, any operation
failed, a child had to be killed or left something running.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import quiet  # noqa: E402  (needs the path set-up above)

WORKLOADS = ("refresh_sql", "oltp_sessions", "net_mixed", "shard_2pc")
REPETITIONS = 3
#: a child that has not finished by then is killed with its group
CHILD_TIMEOUT = 150.0
STATE_ROOT = os.path.join(ROOT, ".bench_state")
#: iterations of the spin calibration loop (~10 ms of pure Python)
SPIN_ITERATIONS = 200_000


class HarnessError(RuntimeError):
    """The harness itself failed: a child crashed, hung or leaked."""


def spin_ms() -> float:
    """A fixed pure-Python loop: how fast this host runs *us* right
    now.  Its spread over a run is the host's noise, not the engine's."""
    started = time.perf_counter()
    total = 0
    for i in range(SPIN_ITERATIONS):
        total += i * i % 7
    return (time.perf_counter() - started) * 1e3


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def run_child(spec: dict) -> dict:
    """Run one repetition in its own process group; kill the group on
    timeout; fail if anything of it outlives the child."""
    os.makedirs(spec["state_dir"])
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        start_new_session=True,
        cwd=ROOT,
        # one hash seed for every repetition and shard worker: set and
        # str-keyed iteration orders inside the engine no longer differ
        # from process to process
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    killed = False
    try:
        try:
            out, _ = child.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            killed = True
            out = b""
        grace = time.monotonic() + 2.0
        while group_alive(child.pid) and time.monotonic() < grace and not killed:
            time.sleep(0.05)
    finally:
        # also reached when this process is interrupted or terminated:
        # whatever happens, nothing of the repetition outlives it
        if group_alive(child.pid):
            killed = True
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        shutil.rmtree(spec["state_dir"], ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(STATE_ROOT)  # only succeeds once it is empty
    if killed:
        raise HarnessError(
            f"{spec['workload']}: the repetition's process group had to be killed"
        )
    if child.returncode != 0:
        raise HarnessError(
            f"{spec['workload']}: repetition exited with {child.returncode}"
        )
    result = json.loads(out.decode().strip().splitlines()[-1])
    if result["leftovers"]:
        raise HarnessError(
            f"{spec['workload']}: repetition left running: {result['leftovers']}"
        )
    return result


def repetitions(workload: str, seed: int, seconds: float, trace: bool, count: int):
    results = []
    spins = []
    for rep in range(count):
        spins.append(spin_ms())
        spec = {
            "workload": workload,
            "seed": seed * 1009 + rep,
            "seconds": seconds,
            "trace": trace,
            "state_dir": os.path.join(STATE_ROOT, f"{os.getpid()}-{rep}"),
            "timeout": CHILD_TIMEOUT,
        }
        results.append(run_child(spec))
    spins.append(spin_ms())
    return results, spins


def end_to_end(results: list) -> dict:
    """The end-to-end metrics of one workload from its repetitions."""
    windows = [w for r in results for w in r["windows"]]
    if results[0]["open_loop"]:
        # an open loop's rate is its schedule: report the goodput
        rate = sum(r["good"] for r in results) / sum(r["elapsed"] for r in results)
    else:
        rate = quiet.quiet_rate(windows)
    # set-up: per phase the median of the repetitions, then summed —
    # a burst slows one phase of one repetition, not the same one in all
    setup = sum(
        quiet.median(r["phases"][name] for r in results)
        for name in results[0]["phases"]
    )
    return {
        "txn_per_s": rate,
        "txn_p50_ms": quiet.median(quiet.quiet_latencies(windows, quiet.TXN)) * 1e3,
        "reject_p50_ms": quiet.median(quiet.quiet_latencies(windows, quiet.REJECT)) * 1e3,
        "read_p50_ms": quiet.median(quiet.quiet_latencies(windows, quiet.READ)) * 1e3,
        "setup_s": setup,
        "peak_rss_mb": max(r["peak_rss_kib"] for r in results) / 1024.0,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, reps: int) -> dict:
    """One driver-form run: the metrics plus the failure accounting."""
    started = time.perf_counter()
    if trace:
        results, spins = repetitions(workload, seed, seconds / REPETITIONS, True, 1)
        metrics = dict(results[0]["layers"])
        metrics["bench.spin_ms_min"] = min(spins)
        metrics["bench.spin_ms_p50"] = quiet.median(spins)
    else:
        results, _ = repetitions(workload, seed, seconds / reps, False, reps)
        metrics = end_to_end(results)
    failures = [f for r in results for f in r["failures"]]
    return {
        "metrics": metrics,
        "attempted": sum(r["attempted"] for r in results),
        "failures": failures,
        "flush_policy": results[0]["flush_policy"],
        "wall_seconds": time.perf_counter() - started,
    }


def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def driver_line(outcome: dict, declared: list) -> str:
    """The contract's result object: exactly the declared metrics; a
    layer that is not on this workload's path reads 0."""
    metrics = {
        m["name"]: {
            "value": float(outcome["metrics"].get(m["name"], 0.0)),
            "unit": m["unit"],
        }
        for m in declared
    }
    return json.dumps(
        {
            "correct": not outcome["failures"],
            "attempted": outcome["attempted"],
            "failed": len(outcome["failures"]),
            "metrics": metrics,
        }
    )


# -- suite form ------------------------------------------------------------


def filesystem_of(path: str) -> str:
    best = ("", "unknown")
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                _, mount, fstype = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best[0]):
                    best = (mount, fstype)
    except OSError:
        pass
    return best[1]


def fsync_probe(directory: str, calls: int = 300) -> dict:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "fsync_probe.bin")
    samples = []
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        for _ in range(calls):
            os.write(fd, b"x" * 128)
            started = time.perf_counter()
            os.fsync(fd)
            samples.append((time.perf_counter() - started) * 1e3)
    finally:
        os.close(fd)
        os.unlink(path)
    return {
        "p50_ms": quiet.median(samples),
        "p95_ms": quiet.percentile(samples, 0.95),
    }


def fingerprint(seed: int, seconds: float) -> dict:
    from perfbench.workloads import WORKLOADS as classes

    probe = fsync_probe(STATE_ROOT)
    if not os.listdir(STATE_ROOT):
        os.rmdir(STATE_ROOT)
    spins = [spin_ms() for _ in range(9)]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "state_dir": STATE_ROOT,
        "state_dir_filesystem": filesystem_of(STATE_ROOT),
        "fsync_probe": probe,
        "spin_ms_min": min(spins),
        "spin_ms_p50": quiet.median(spins),
        "seed": seed,
        "seconds_per_run": seconds,
        "repetitions": REPETITIONS,
        "quiet_fraction": quiet.QUIET_FRACTION,
        "probe_smoothing_seconds": quiet.SMOOTH_SECONDS,
        "nominal_probe_ms": quiet.NOMINAL_PROBE_SECONDS * 1e3,
        "host_speed_now": quiet.speed_now(9),
        "windows": {
            name: (
                {"seconds_of_schedule": cls.window_seconds}
                if cls.open_loop
                else {
                    "operations": cls.period * cls.periods_per_window * cls.clients,
                    "periods_per_client": cls.periods_per_window,
                }
            )
            for name, cls in classes.items()
        },
    }


def print_metrics(workload: str, outcome: dict, declared: list) -> None:
    for m in declared:
        value = outcome["metrics"].get(m["name"], 0.0)
        print(f"{workload}/{m['name']} {value:.6g} {m['unit']}")
    print(
        f"{workload}/failed_operations {len(outcome['failures'])} of "
        f"{outcome['attempted']}  (flush policy: {outcome['flush_policy']})"
    )
    for failure in outcome["failures"][:10]:
        print(f"  FAILED {failure}")


def suite(args, spec: dict) -> int:
    seconds = 1.0 if args.smoke else float(args.seconds or spec["run_seconds"])
    reps = 1 if args.smoke else REPETITIONS
    report = {
        "claim": None,
        "environment": fingerprint(args.seed, seconds),
        "workloads": {},
    }
    failed = 0
    passes = (
        [("untraced", False), ("untraced-again", False)]
        if args.selfcheck
        else [("untraced", False), ("traced", True)]
    )
    for workload in WORKLOADS:
        entry = report["workloads"][workload] = {}
        for label, trace in passes:
            outcome = measure(workload, args.seed, seconds, trace, reps)
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            print(f"# {workload} {label} ({outcome['wall_seconds']:.1f}s wall)")
            print_metrics(workload, outcome, declared)
            failed += len(outcome["failures"])
            entry[label] = {
                "metrics": outcome["metrics"],
                "attempted": outcome["attempted"],
                "failed": len(outcome["failures"]),
                "wall_seconds": outcome["wall_seconds"],
            }
    outside = 0
    if args.selfcheck:
        print("# selfcheck: same code, two untraced passes")
        for workload in WORKLOADS:
            first = report["workloads"][workload]["untraced"]["metrics"]
            second = report["workloads"][workload]["untraced-again"]["metrics"]
            for m in spec["end_to_end"]:
                a, b = first[m["name"]], second[m["name"]]
                drift = abs(b - a) / a if a else 0.0
                verdict = "ok" if drift <= m["bound"] else "OUTSIDE"
                outside += verdict != "ok"
                print(
                    f"{workload}/{m['name']} {a:.6g} vs {b:.6g} {m['unit']}  "
                    f"drift {drift:.3%} of bound {m['bound']:.0%}  {verdict}"
                )
    print(json.dumps(report))
    return 1 if failed or outside else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro next to perfbench/ — nothing to measure", file=sys.stderr)
        return 2
    spec = contract()
    # a polite kill must unwind through run_child's clean-up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.workload is None:
            return suite(args, spec)
        seconds = float(args.seconds or spec["run_seconds"])
        outcome = measure(
            args.workload, args.seed, seconds, bool(args.trace), REPETITIONS
        )
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    for failure in outcome["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(driver_line(outcome, declared))
    return 1 if outcome["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
