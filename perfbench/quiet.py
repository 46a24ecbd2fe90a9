"""Window, host-speed and quiet-set arithmetic (pure functions,
unit-tested in ``test_quiet_window.py``).

The sandbox shares its physical cores with neighbours we cannot see:
measured here, the same pure-Python code runs anywhere between 1.0× and
1.8× its best speed, in stretches that last from seconds to minutes, so
a whole run — and a whole set of runs — can sit in one slow stretch.
No choice of "fastest windows" survives that.  Three defences, applied
to every timing metric:

* **Windows.**  A run is cut into windows of identical work (a whole
  number of script periods), so windows are comparable with each other.
* **Host-speed probe.**  Every client runs a fixed interpreter-heavy
  loop at each period boundary, timed in *thread CPU time* (waiting for
  the GIL does not count).  A window's *speed factor* ``s`` is the
  median of the probes taken within ``SMOOTH_SECONDS`` of it over
  ``NOMINAL_PROBE_SECONDS``: 1.0 on a quiet host, up to ~1.8 beside a
  busy neighbour.
* **CPU-share calibration.**  Every operation also records how much
  CPU time the benchmark's process burned while it ran (``cpu``, capped
  at its wall time).  Only that part can have been slowed by the host,
  so only that part is rescaled: ``calibrated = wall - cpu + cpu / s``.
  Waits — fsync, a shard worker, the wire — stay as measured.

The *quiet set* is the ``QUIET_FRACTION`` of windows where the probe ran
fastest — where the host was measurably at its quietest and the
correction is smallest.  It is chosen by the probe, never by the
workload's own timings, so choosing it does not bias what is measured.
``txn_per_s`` is the median calibrated window rate over the quiet set;
every ``*_p50_ms`` the median calibrated latency of its class there.

A window is a plain dict, so it crosses the child-process boundary as
JSON: ``{"speed", "scale", "score", "txns", "duration", "lat", "raw"}``
where ``lat``/``raw`` map an operation class to its calibrated / raw
latencies in seconds, ``duration`` and ``score`` are raw, and ``scale``
is calibrated ÷ raw operation time over the whole window.
"""

from __future__ import annotations

import bisect
import math
import time

#: operation classes (the keys of a window's ``lat``/``raw``): a valid
#: write, a valid cross-shard write, a planted violation, a point read
TXN, XSHARD, REJECT, READ = "txn", "xshard", "reject", "read"

#: share of windows (those with the lowest speed factor) that feed the
#: end-to-end metrics
QUIET_FRACTION = 0.5
#: probes this close to a window count towards its speed factor
SMOOTH_SECONDS = 1.0
#: never rank on fewer windows than this (short and smoke runs)
MIN_WINDOWS = 3
#: the host-speed probe: iterations of the loop below, and its thread
#: CPU time on this sandbox at the host's quietest.  The
#: constant only fixes the unit ("milliseconds at nominal host speed");
#: comparisons between two commits on one host do not depend on it.
PROBE_ITERATIONS = 1500
NOMINAL_PROBE_SECONDS = 0.00019


def probe() -> float:
    """Thread CPU seconds a fixed interpreter-heavy loop takes right
    now: dict reads and writes, small-object allocation, a builtin call
    — the mix the engine's own row-at-a-time code is made of.  (A pure
    arithmetic loop follows the host less faithfully: measured against
    refresh_sql's window time over five minutes of changing host
    states, arithmetic left ±12 %, this mix ±5 %.)"""
    started = time.thread_time()
    counts: dict = {}
    total = 0
    for i in range(PROBE_ITERATIONS):
        key = (i * 7) & 127
        counts[key] = counts.get(key, 0) + 1
        total += len(str(i))
    return time.thread_time() - started


def speed_now(samples: int = 3) -> float:
    """The host's current speed factor (1.0 = nominal, larger = slower)."""
    return median(probe() for _ in range(samples)) / NOMINAL_PROBE_SECONDS


class Stopwatch:
    """``with Stopwatch() as watch: ...`` then ``watch.seconds``: the
    block's wall time at nominal host speed (its process-CPU share
    rescaled by the mean of a speed probe before and one after)."""

    seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self._speed = speed_now()
        self._cpu, self._started = time.process_time(), time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self._started
        cpu = time.process_time() - self._cpu
        speed = (self._speed + speed_now()) / 2.0
        self.seconds = calibrated(wall, cpu, speed)


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1]; 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _speeds(probes, bounds: list) -> list:
    """One speed factor per window ``(bounds[i], bounds[i+1]]``: the
    median of the probes taken inside it or within ``SMOOTH_SECONDS``
    of it (one probe is a fraction of a millisecond and noisy; the
    host's state lasts seconds).  No probe in reach: 1.0."""
    ordered = sorted(probes)
    instants = [at for at, _ in ordered]
    speeds = []
    for lo, hi in zip(bounds, bounds[1:]):
        near = ordered[
            bisect.bisect_left(instants, lo - SMOOTH_SECONDS) : bisect.bisect_right(
                instants, hi + SMOOTH_SECONDS
            )
        ]
        speeds.append(
            median(seconds for _, seconds in near) / NOMINAL_PROBE_SECONDS
            if near
            else 1.0
        )
    return speeds


def calibrated(wall: float, cpu: float, speed: float) -> float:
    """``wall`` seconds at nominal host speed: the part spent on a CPU
    (at most all of it) rescaled by the speed factor, waits untouched."""
    cpu = min(wall, max(0.0, cpu))
    return wall - cpu + cpu / speed


def _window(chunk, duration: float, speed: float, score: float) -> dict:
    lat: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for start, end, cls, _, cpu in chunk:
        raw.setdefault(cls, []).append(end - start)
        lat.setdefault(cls, []).append(calibrated(end - start, cpu, speed))
    total_raw = sum(sum(values) for values in raw.values())
    total = sum(sum(values) for values in lat.values())
    return {
        "speed": speed,
        "scale": total / total_raw if total_raw else 1.0,
        "score": score,
        "duration": duration,
        "txns": sum(1 for op in chunk if op[3]),
        "lat": lat,
        "raw": raw,
    }


def closed_loop_windows(ops, probes, per_window: int, started: float) -> list:
    """Cut a closed-loop block into windows of ``per_window`` operations.

    ``ops`` is every client's ``(start, end, cls, is_txn, cpu)``
    records, ``probes`` every client's ``(instant, probe seconds)``.
    Operations are merged on completion time and cut every
    ``per_window`` completions (clients × whole periods, so every
    window holds the same work); a window lasts from the previous
    window's last completion (``started`` for the first) to its own.
    A trailing partial window is dropped.
    """
    ordered = sorted(ops, key=lambda op: op[1])
    chunks = [
        ordered[lo : lo + per_window]
        for lo in range(0, len(ordered) - per_window + 1, per_window)
    ]
    bounds = [started] + [chunk[-1][1] for chunk in chunks]
    speeds = _speeds(probes, bounds)
    return [
        _window(chunk, bounds[i + 1] - bounds[i], speeds[i], bounds[i + 1] - bounds[i])
        for i, chunk in enumerate(chunks)
    ]


def open_loop_windows(ops, probes, window_seconds: float, count: int) -> list:
    """Cut an open-loop block into ``count`` windows of schedule time.

    ``ops`` is ``(due, end, cls, is_txn, cpu)`` relative to the
    schedule's start (as are the probes' instants); latency runs from
    the due time, so a stall is charged to every operation it delayed.
    A window's score is its mean raw latency.  Windows that received
    no operation are dropped.
    """
    buckets: list[list] = [[] for _ in range(count)]
    for op in ops:
        index = int(op[0] / window_seconds)
        if 0 <= index < count:
            buckets[index].append(op)
    speeds = _speeds(probes, [i * window_seconds for i in range(count + 1)])
    return [
        _window(
            chunk,
            window_seconds,
            speeds[i],
            sum(op[1] - op[0] for op in chunk) / len(chunk),
        )
        for i, chunk in enumerate(buckets)
        if chunk
    ]


def quiet_set(windows: list) -> list:
    """The ``QUIET_FRACTION`` of ``windows`` during which the host ran
    fastest (at least ``MIN_WINDOWS``, at most all), quietest first."""
    ranked = sorted(windows, key=lambda w: w["speed"])
    return ranked[: max(MIN_WINDOWS, math.ceil(QUIET_FRACTION * len(ranked)))]


def quiet_rate(windows: list) -> float:
    """Transactions per second at nominal host speed: the median
    calibrated rate of the quiet windows."""
    return median(
        w["txns"] / (w["duration"] * w["scale"])
        for w in quiet_set(windows)
        if w["duration"] > 0
    )


def quiet_latencies(windows: list, cls: str) -> list:
    """Every calibrated latency of class ``cls`` inside the quiet set."""
    return [s for w in quiet_set(windows) for s in w["lat"].get(cls, ())]


def raw_latencies(windows: list, cls: str) -> list:
    """Every raw latency of class ``cls``, whatever the host did."""
    return [s for w in windows for s in w["raw"].get(cls, ())]


def noise_ratio(windows: list) -> float:
    """Mean raw window score ÷ mean calibrated score of the quiet set:
    1.0 on a silent host, larger the more of the run was disturbed."""
    quiet = quiet_set(windows)
    if not quiet:
        return 0.0
    calm = sum(w["score"] * w["scale"] for w in quiet) / len(quiet)
    mean = sum(w["score"] for w in windows) / len(windows)
    return mean / calm if calm else 0.0
