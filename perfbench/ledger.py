"""The per-layer ledger of one traced repetition, taken from outside.

Nothing here instruments ``src/``: a row is either a ``perf_counter``
pair the generator keeps around a public call (``Op.splits``), a direct
probe of a layer function on the workload's own inputs, a public stats
object read before and after the traced block, or a span the engine
already emits, collected through ``set_tracer(RecordingTracer())``.

Every row is reported for every workload; a layer that is not on a
workload's path reads 0 there, which is itself the prediction ("a
sqlparser change moves nothing on oltp_sessions").
"""

from __future__ import annotations

import bisect
import os
import re
import time

from repro.net import protocol
from repro.sqlparser import parse_statement

from . import quiet
from .quiet import READ, REJECT, TXN, XSHARD
from .workloads import Block, Workload, row_api_executor, verdict_of

#: how many inputs a direct probe replays
PROBE_SAMPLES = 200

#: the stage spans the layer rows are built from; ``check.*`` lies
#: inside ``validate`` and ``commit`` is the root, so neither is a stage
STAGE_SPANS = (
    "admission.wait",
    "queue.wait",
    "validate",
    "apply",
    "wal.append",
    "wal.fsync",
    "shard.commit",
    "prepare",
    "decide",
)


def counters(workload: Workload) -> dict:
    """Every public counter the workload's engine exposes, flat."""
    out: dict = {}

    def put(prefix: str, snapshot: dict) -> None:
        for key, value in snapshot.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[f"{prefix}.{key}"] = out.get(f"{prefix}.{key}", 0) + value

    engine = getattr(workload, "engine", None)
    if engine is not None:  # sharded: router + every worker's scheduler
        put("router", engine.stats.snapshot())
        for handle in engine.handles:
            put("sched", handle.call("stats"))
        out["wal.bytes_written"] = wal_bytes(workload.state_dir)
        return out
    tintin = workload.tintin
    put("plan", tintin.db.plan_cache_stats.snapshot())
    if tintin.serving:
        put("sched", tintin.sessions.scheduler.stats.snapshot())
    if tintin.durability is not None:
        put("wal", tintin.durability.wal.stats.snapshot())
    server = getattr(workload, "server", None)
    if server is not None:
        put("adm", server.admission.metrics())
    return out


def bytes_under(directory: str, wanted) -> int:
    """Total size of the files under ``directory`` whose name ``wanted``
    accepts."""
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, files in os.walk(directory)
        for name in files
        if wanted(name)
    )


def wal_bytes(directory: str) -> int:
    return bytes_under(directory, lambda name: name.endswith((".log", ".wal")))


def checkpoint_bytes(directory: str) -> int:
    return bytes_under(directory, lambda name: name == "checkpoint.json")


def fold_spans(spans) -> dict:
    """``{name: (count, total seconds)}``; ``check.<view>`` folds into
    ``check``."""
    totals: dict = {}
    for span in spans:
        name = "check" if span.name.startswith("check.") else span.name
        count, seconds = totals.get(name, (0, 0.0))
        totals[name] = (count + 1, seconds + span.duration)
    return totals


def merged_intervals(spans, offset: float) -> tuple[list, list]:
    """The union of every stage span, any commit's, as sorted disjoint
    ``perf_counter`` intervals (``offset`` = wall clock − perf_counter
    when the tracer was installed; spans carry wall-clock times)."""
    raw = sorted(
        (span.start - offset, span.end - offset)
        for span in spans
        if span.name in STAGE_SPANS
    )
    starts: list = []
    ends: list = []
    for lo, hi in raw:
        if ends and lo <= ends[-1]:
            ends[-1] = max(ends[-1], hi)
        else:
            starts.append(lo)
            ends.append(hi)
    return starts, ends


def overlap(starts: list, ends: list, lo: float, hi: float) -> float:
    """Seconds of ``[lo, hi]`` covered by the disjoint intervals."""
    total = 0.0
    index = max(0, bisect.bisect_right(starts, lo) - 1)
    while index < len(starts) and starts[index] < hi:
        total += max(0.0, min(hi, ends[index]) - max(lo, starts[index]))
        index += 1
    return total


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def timed_ms(fn, inputs) -> float:
    """Mean milliseconds of ``fn(x)`` over ``inputs`` (0 for none), at
    nominal host speed."""
    inputs = list(inputs)[:PROBE_SAMPLES]
    if not inputs:
        return 0.0
    with quiet.Stopwatch() as watch:
        for item in inputs:
            fn(item)
    return watch.seconds * 1e3 / len(inputs)


def median_ms(fn, repeats: int = PROBE_SAMPLES) -> float:
    """Median raw milliseconds of ``fn()`` (round trips: mostly waits)."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return quiet.median(samples) * 1e3


def probes(workload: Workload, entries: list) -> dict:
    """Direct probes of single layers on the block's own inputs; runs
    while the engine is still open."""
    out: dict = {}
    reads = [e.body for e in entries if e.cls == READ]
    texts = list(reads)
    if workload.name == "refresh_sql":
        for entry in entries:
            if entry.cls != READ:
                texts.extend(entry.body[0] + entry.body[1])
    out["sqlparser.parse_us_per_stmt"] = timed_ms(parse_statement, texts) * 1e3
    db = getattr(workload, "db", None)
    if db is not None:
        out["minidb.query_ms"] = timed_ms(db.query, reads)
        scanned = [
            int(match.group(1))
            for match in (
                re.search(r"\((\d+) rows scanned\)", db.explain_analyze(sql))
                for sql in reads[:20]
            )
            if match
        ]
        out["minidb.rows_scanned_per_read"] = ratio(sum(scanned), len(scanned))
    if workload.name == "net_mixed":
        out.update(net_probes(workload, entries))
    if workload.name == "shard_2pc":
        handle = workload.engine.handles[0]
        out["shard.pipe_rtt_ms"] = median_ms(lambda: handle.call("stats"))
    return out


def net_probes(workload, entries: list) -> dict:
    out: dict = {}
    connection = workload.open_connection("bench-probe")
    try:
        out["net.rtt_ms"] = median_ms(connection.health)
    finally:
        connection.close()
    frames = [
        frame
        for entry in entries
        if entry.cls != READ
        for frames_of_a_kind in entry.body
        for frame in frames_of_a_kind
    ]

    def codec(frame) -> None:
        payload = protocol.encode_events_payload(*frame)
        wire = protocol.encode_frame(protocol.T_INSERT, 1, payload)
        protocol.decode_header(wire[: protocol.HEADER.size])
        protocol.decode_events_payload(wire[protocol.HEADER.size :])

    out["net.frame_codec_us"] = timed_ms(codec, frames) * 1e3
    # the same transactions through an in-process session on the same
    # engine: what a wire commit costs beyond the engine's own work
    session = workload.tintin.create_session()
    execute = row_api_executor(
        session, [0, 0], lambda: verdict_of(session.commit())
    )
    samples: list = []
    failures: list = []  # a wrong verdict here also trips the audit
    try:
        fresh = [e for _ in range(4) for e in workload.period_script(0)]
        for entry in fresh:
            if entry.cls != TXN:
                continue
            started = time.perf_counter()
            outcome, _ = execute(entry)
            samples.append(time.perf_counter() - started)
            workload._settle(0, "probe", entry, outcome, failures)
    finally:
        session.expire()
    out["net.inprocess_txn_ms"] = quiet.median(samples) * 1e3
    return out


def per_layer(
    workload: Workload,
    phases: dict,
    untraced_windows: list,
    traced: Block,
    traced_windows: list,
    spans: list,
    before: dict,
    after: dict,
    probed: dict,
    clock_offset: float,
) -> dict:
    """Fold one traced block into the ledger's rows.

    ``bench.unattributed_frac`` is the share of caller-side write time
    during which no layer row was running: for the default session the
    time outside the timed calls; for sessions the part of the commit
    call during which *no* stage span — this commit's or, under group
    commit, the one it queued behind — was active.
    """
    name = workload.name
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    writes = [op for op in traced.ops if op.is_txn]
    valid = [op for op in writes if op.cls != REJECT]
    reads = [op for op in traced.ops if op.cls == READ]
    n, committed = len(writes), len(valid)
    folded = fold_spans(spans)

    # one factor brings the block's raw means to nominal host speed:
    # calibrated ÷ raw operation time over the whole traced block
    raw_total = sum(sum(v) for w in traced_windows for v in w["raw"].values())
    scale = ratio(
        sum(sum(v) for w in traced_windows for v in w["lat"].values()), raw_total
    ) or 1.0

    def span_ms_per_txn(span: str) -> float:
        return ratio(folded.get(span, (0, 0.0))[1] * 1e3 * scale, n)

    def span_ms_each(span: str) -> float:
        count, seconds = folded.get(span, (0, 0.0))
        return ratio(seconds * 1e3 * scale, count)

    def split_ms(lo: int, hi: int) -> float:
        """Mean ms between two caller-side marks of a write; mark 0 is
        the operation's start, the last its end."""
        total = 0.0
        for op in writes:
            marks = (op.start,) + op.splits + (op.end,)
            if len(marks) > 2:  # a failed operation carries no marks
                total += marks[hi] - marks[lo]
        return ratio(total * 1e3 * scale, n)

    txn_ms = split_ms(0, -1)
    views = [sum(v[0] for v in workload.views), sum(v[1] for v in workload.views)]
    row = dict(probed)
    sql_statements = len(reads)
    if name == "refresh_sql":
        sql_statements += delta.get("plan.dml_ast_hits", 0) + delta.get(
            "plan.dml_ast_misses", 0
        )
        row["minidb.stage_insert_ms_per_txn"] = split_ms(0, 1)
        row["minidb.stage_delete_ms_per_txn"] = split_ms(1, 2)
        row["core.check_ms_per_txn"] = ratio(workload.check_seconds * 1e3 * scale, n)
        row["core.safe_commit_ms_per_txn"] = split_ms(3, 4)
        covered = split_ms(0, 2) + split_ms(3, 4)
        # the check_pending() probe sits between marks 2 and 3; it is
        # the ledger's own work, not the transaction's
        txn_ms -= split_ms(2, 3)
    else:
        row["server.stage_ms_per_txn"] = split_ms(0, 1)
        row["server.commit_ms_per_txn"] = split_ms(1, 2)
        row["core.check_ms_per_txn"] = ratio(
            delta.get("sched.check_seconds", 0.0) * 1e3 * scale,
            delta.get("sched.commits", 0),
        )
        starts, ends = merged_intervals(spans, clock_offset + traced.origin)
        in_stages = sum(
            overlap(starts, ends, op.splits[0], op.end)
            for op in writes
            if op.splits
        )
        covered = split_ms(0, 1) + ratio(in_stages * 1e3 * scale, n)
    row["sqlparser.stmts_per_txn"] = ratio(sql_statements, n)
    row["minidb.plan_cache_hit_ratio"] = ratio(
        delta.get("plan.hits", 0),
        delta.get("plan.hits", 0) + delta.get("plan.misses", 0),
    )
    row["minidb.dml_ast_hit_ratio"] = ratio(
        delta.get("plan.dml_ast_hits", 0),
        delta.get("plan.dml_ast_hits", 0) + delta.get("plan.dml_ast_misses", 0),
    )
    row["core.views_checked_per_txn"] = ratio(views[0], committed)
    row["core.views_skipped_per_txn"] = ratio(views[1], committed)
    row["core.add_assertion_ms"] = phases.get("add_assertion", 0.0) * 1e3

    row["server.queue_wait_ms_per_txn"] = span_ms_per_txn("queue.wait")
    row["server.validate_ms_per_txn"] = span_ms_per_txn("validate")
    row["server.apply_ms_per_txn"] = span_ms_per_txn("apply")
    row["server.group_size_mean"] = ratio(
        delta.get("sched.commits", 0), delta.get("sched.batches", 0)
    )
    row["server.serial_share"] = ratio(
        delta.get("sched.serial_commits", 0), delta.get("sched.commits", 0)
    )
    row["server.fallbacks_per_ktxn"] = ratio(
        delta.get("sched.fallbacks", 0) * 1e3, delta.get("sched.commits", 0)
    )

    appends = delta.get("wal.appends", delta.get("sched.wal_appends", 0))
    fsyncs = delta.get("wal.fsyncs", delta.get("sched.wal_fsyncs", 0))
    row["durability.wal_bytes_per_txn"] = ratio(
        delta.get("wal.bytes_written", 0), committed
    )
    row["durability.appends_per_txn"] = ratio(appends, committed)
    row["durability.fsyncs_per_txn"] = ratio(fsyncs, committed)
    row["durability.append_ms_per_txn"] = span_ms_per_txn("wal.append")
    row["durability.fsync_ms_per_txn"] = span_ms_per_txn("wal.fsync")

    row["net.admission_wait_ms_per_txn"] = span_ms_per_txn("admission.wait")
    row["net.max_depth_seen"] = after.get("adm.max_depth_seen", 0)
    row["net.shed_total"] = delta.get("adm.shed_total", 0)
    wire_txn = quiet.median(quiet.quiet_latencies(traced_windows, TXN)) * 1e3
    if name == "net_mixed":
        row["net.commit_overhead_ms"] = wire_txn - row.pop("net.inprocess_txn_ms")

    if name == "shard_2pc":
        row["shard.local_commit_ms"] = wire_txn
        row["shard.xshard_commit_ms"] = (
            quiet.median(quiet.quiet_latencies(traced_windows, XSHARD)) * 1e3
        )
        row["shard.prepare_ms"] = span_ms_each("prepare")
        row["shard.decide_ms"] = span_ms_each("decide")
        row["shard.xshard_share"] = ratio(
            delta.get("router.cross_shard", 0), delta.get("router.commits", 0)
        )
        row["shard.spawn_s"] = phases.get("spawn", 0.0)

    untraced_rate = quiet.quiet_rate(untraced_windows)
    traced_rate = quiet.quiet_rate(traced_windows)
    if workload.open_loop:
        # an open loop's rate is its schedule; the ledger's distortion
        # shows in how much longer a traced transaction takes
        plain = quiet.median(quiet.quiet_latencies(untraced_windows, TXN))
        row["obs.trace_overhead_frac"] = 1.0 - ratio(plain * 1e3, wire_txn)
    else:
        row["obs.trace_overhead_frac"] = 1.0 - ratio(traced_rate, untraced_rate)
    row["bench.unattributed_frac"] = 1.0 - ratio(covered, txn_ms)
    return row
