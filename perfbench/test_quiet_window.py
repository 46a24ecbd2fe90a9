"""Unit tests of the window / quiet-set arithmetic on synthetic
timestamps.  Not collected by the tier-1 command (``perfbench/`` is
outside ``testpaths``); run explicitly::

    python3 -m pytest perfbench/test_quiet_window.py -q
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import quiet  # noqa: E402


def closed_ops(durations, cpu_share=1.0):
    """Back-to-back operations, one per duration, alternating classes
    txn/txn/read so a window of 3 holds 2 transactions."""
    ops, now = [], 10.0
    for index, duration in enumerate(durations):
        cls = "read" if index % 3 == 2 else "txn"
        ops.append((now, now + duration, cls, cls != "read", duration * cpu_share))
        now += duration
    return ops


def probes_at(instants, factor=1.0):
    return [(at, factor * quiet.NOMINAL_PROBE_SECONDS) for at in instants]


def test_median_and_percentile():
    assert quiet.median([]) == 0.0
    assert quiet.median([3, 1, 2]) == 2
    assert quiet.median([4, 1, 3, 2]) == 2.5
    assert quiet.percentile([], 0.95) == 0.0
    assert quiet.percentile(range(100), 0.95) == 95
    assert quiet.percentile([7], 0.99) == 7


def test_calibration_rescales_only_the_cpu_part():
    assert quiet.calibrated(1.0, 1.0, 2.0) == 0.5  # all CPU: halves
    assert quiet.calibrated(1.0, 0.0, 2.0) == 1.0  # all waiting: untouched
    assert quiet.calibrated(1.0, 0.5, 2.0) == 0.75
    assert quiet.calibrated(1.0, 3.0, 2.0) == 0.5  # CPU time is capped at wall
    assert quiet.calibrated(1.0, 0.5, 1.0) == 1.0  # quiet host: no change


def test_closed_loop_windows_cut_on_completions_and_drop_the_tail():
    ops = closed_ops([0.01] * 7)  # 7 ops, windows of 3: two whole windows
    windows = quiet.closed_loop_windows(ops, [], 3, started=10.0)
    assert len(windows) == 2
    assert [w["txns"] for w in windows] == [2, 2]
    for window in windows:
        assert abs(window["duration"] - 0.03) < 1e-9
        assert window["score"] == window["duration"]
        assert window["speed"] == 1.0 and window["scale"] == 1.0  # no probes
        assert sorted(window["lat"]) == ["read", "txn"]
        assert len(window["lat"]["txn"]) == 2
        assert window["lat"] == window["raw"]


def test_closed_loop_first_window_runs_from_block_start():
    ops = closed_ops([0.01] * 3)
    # the block started 5 ms before the first operation was sent
    windows = quiet.closed_loop_windows(ops, [], 3, started=9.995)
    assert abs(windows[0]["duration"] - 0.035) < 1e-9


def test_closed_loop_merges_clients_on_completion_time():
    a = [(0.0, 0.010, "txn", True, 0.0), (0.010, 0.020, "txn", True, 0.0)]
    b = [(0.0, 0.015, "txn", True, 0.0), (0.015, 0.030, "txn", True, 0.0)]
    windows = quiet.closed_loop_windows(a + b, [], 2, started=0.0)
    assert [round(w["duration"], 6) for w in windows] == [0.015, 0.015]


def test_open_loop_windows_bucket_by_due_time_and_score_mean_latency():
    ops = [
        (0.00, 0.002, "txn", True, 0.0),  # window 0, latency 2 ms
        (0.40, 0.404, "read", False, 0.0),  # window 0, latency 4 ms
        (0.60, 0.610, "txn", True, 0.0),  # window 1, latency 10 ms
        (1.70, 1.701, "txn", True, 0.0),  # beyond the 3 windows: dropped
    ]
    windows = quiet.open_loop_windows(ops, [], 0.5, 3)
    assert len(windows) == 2  # window 2 got nothing and is dropped
    assert abs(windows[0]["score"] - 0.003) < 1e-9
    assert windows[0]["txns"] == 1
    assert abs(windows[1]["score"] - 0.010) < 1e-9
    assert all(w["duration"] == 0.5 for w in windows)


def test_window_speed_is_the_median_of_nearby_probes():
    ops = closed_ops([0.5] * 12)  # 4 windows of 1.5 s: 10.0 .. 16.0
    probes = (
        probes_at([10.2, 10.7, 11.2], 1.0)  # window 0: quiet
        + probes_at([13.5, 13.9, 14.2], 1.6)  # window 2: a busy neighbour
    )
    windows = quiet.closed_loop_windows(ops, probes, 3, started=10.0)
    speeds = [round(w["speed"], 6) for w in windows]
    # window 1 (11.5–13.0] has no probe of its own; within a second of it
    # lie 10.7, 11.2 (1.0) and 13.5, 13.9 (1.6): the median is 1.3.
    # Window 3's only probes in reach are window 2's.
    assert speeds == [1.0, 1.3, 1.6, 1.6]
    assert quiet.quiet_set(windows)[0]["speed"] == 1.0


def test_quiet_set_keeps_a_floor_and_a_fraction():
    windows = [{"speed": s} for s in (5, 1, 4, 2, 3)]
    assert [w["speed"] for w in quiet.quiet_set(windows)] == [1, 2, 3]
    many = [{"speed": s} for s in range(100, 0, -1)]
    keep = round(quiet.QUIET_FRACTION * 100)
    assert [w["speed"] for w in quiet.quiet_set(many)] == list(range(1, keep + 1))
    assert len(quiet.quiet_set(windows[:2])) == 2  # fewer than the floor


def test_calibrated_metrics_hold_through_a_disturbed_stretch():
    # 60 windows of 3 CPU-bound ops at 1 ms each; the middle third runs
    # 1.7x slower, as when a neighbour takes the core for a while — and
    # the probes, taken every window, see exactly that
    factors = [1.0] * 20 + [1.7] * 20 + [1.0] * 20
    durations = [0.001 * f for f in factors for _ in range(3)]
    ops = closed_ops(durations)
    probes = []
    for index, factor in enumerate(factors):
        probes += probes_at([ops[3 * index + 1][0]], factor)
    quiet_before, quiet.SMOOTH_SECONDS = quiet.SMOOTH_SECONDS, 0.0
    try:
        windows = quiet.closed_loop_windows(ops, probes, 3, started=10.0)
    finally:
        quiet.SMOOTH_SECONDS = quiet_before
    assert len(windows) == 60
    # every window, disturbed or not, reads the same once calibrated
    for window in windows:
        assert abs(window["duration"] * window["scale"] - 0.003) < 1e-9
    assert abs(quiet.quiet_rate(windows) - 2 / 0.003) < 1e-3
    assert abs(quiet.median(quiet.quiet_latencies(windows, "txn")) - 0.001) < 1e-9
    # the raw numbers are what the disturbance moves
    assert max(quiet.raw_latencies(windows, "txn")) > 0.0016
    assert quiet.noise_ratio(windows) > 1.2
    assert abs(quiet.noise_ratio(windows[:20]) - 1.0) < 1e-6


def test_waiting_is_not_rescaled():
    # half of every operation is a wait (fsync, a worker, the wire)
    ops = closed_ops([0.002] * 6, cpu_share=0.5)
    probes = probes_at([op[0] for op in ops], 2.0)
    windows = quiet.closed_loop_windows(ops, probes, 3, started=10.0)
    for window in windows:
        assert abs(window["scale"] - 0.75) < 1e-9
        assert all(abs(s - 0.0015) < 1e-9 for s in window["lat"]["txn"])
