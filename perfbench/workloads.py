"""The four workloads: set-up, periodic scripts, execution, output checks.

Every workload is a *periodic script* per client: a period is a fixed
sequence of operation shapes (same statements and row counts every
period, fresh keys) whose inserts and deletes balance, so table sizes
are stationary and every window of whole periods holds the same work.
The seed drives only the generated scripts (which customers, parts,
quantities and read keys); the engine sees only generated inputs.

Operation classes: ``txn`` (a valid write transaction), ``xshard`` (a
valid cross-shard write), ``reject`` (a planted violation that must be
refused naming the right assertion) and ``read`` (a point read with a
known answer).  Each executed operation is checked against that oracle
on the spot; a miss is a failed operation.
"""

from __future__ import annotations

import gc
import random
import threading
import time
from collections import deque
from typing import Callable, NamedTuple, Optional

from repro import Database, Tintin
from repro.net import TintinClient
from repro.obs import CommitObs
from repro.shard import ShardedTintin
from repro.tpch import (
    AGGREGATE_ASSERTIONS,
    ALL_ASSERTIONS,
    COMPLEXITY_SUITE,
    EVERY_ORDER_HAS_MAX_ITEM,
    TPCHGenerator,
    tpch_database,
)

from .quiet import READ, REJECT, TXN, XSHARD, probe

#: own-order keys start here, far above every preloaded key; each
#: client owns a private stride so clients never collide
KEY_BASE = 10_000_000
KEY_STRIDE = 1_000_000
#: the TPC-H instance is the same for every seed: table sizes (and so
#: scan costs) must not vary with the script seed
TPCH_SEED = 42


class Entry(NamedTuple):
    """One scripted operation."""

    cls: str
    #: workload-specific payload handed to ``execute``
    body: object
    #: reject: the assertion that must be named; read: the exact rows
    expect: object = None
    #: own order keys present / gone once this entry commits
    adds: tuple = ()
    removes: tuple = ()


class Op(NamedTuple):
    """One executed operation as the windows see it."""

    start: float
    end: float
    cls: str
    is_txn: bool
    #: caller-side timestamps between the operation's phases
    splits: tuple
    client: int
    #: CPU seconds this process (all its threads) burned while the
    #: operation ran
    cpu: float = 0.0


class Block(NamedTuple):
    """One measured (or warm-up) stretch of execution."""

    ops: list
    started: float
    elapsed: float
    #: descriptions of operations whose output was wrong
    failures: list
    #: host-speed probes, ``(instant, thread CPU seconds)``, every
    #: client's (see :mod:`perfbench.quiet`)
    probes: list
    #: how late the open-loop generator started each operation
    lateness: list
    #: ``perf_counter`` instant the times above are relative to (0 when
    #: they are absolute, as in a closed loop)
    origin: float = 0.0


def judge(entry: Entry, outcome) -> Optional[str]:
    """The verdict oracle: None when ``outcome`` is what the script
    position demands, else a description of the miss."""
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    if entry.cls == READ:
        if outcome != entry.expect:
            return f"read returned {outcome!r}, expected {entry.expect!r}"
        return None
    committed, violated = outcome
    if entry.cls == REJECT:
        if committed:
            return "planted violation was accepted"
        if entry.expect not in violated:
            return f"rejected without naming {entry.expect}: {violated!r}"
        return None
    if not committed:
        return f"valid update was rejected: {violated!r}"
    return None


def verdict_of(result) -> tuple:
    """``(committed, checked views, skipped views, violated)`` of an
    in-process ``CommitResult``."""
    return (
        result.committed,
        result.checked_views,
        result.skipped_views,
        ",".join(v.assertion for v in result.violations),
    )


def row_api_executor(session, views: list, commit) -> Callable:
    """``execute(entry)`` for everything that stages rows through
    ``insert()``/``delete()`` and reads through ``query()`` — an
    in-process session, a shard session, a network client.  ``commit()``
    returns the verdict in :func:`verdict_of`'s shape."""
    clock = time.perf_counter

    def execute(entry: Entry):
        if entry.cls == READ:
            return session.query(entry.body).rows, ()
        inserts, deletes = entry.body
        for table, rows in inserts:
            session.insert(table, rows)
        for table, rows in deletes:
            session.delete(table, rows)
        staged = clock()
        committed, checked, skipped, violated = commit()
        if committed:
            views[0] += checked
            views[1] += skipped
        return (committed, violated), (staged,)

    return execute


class Workload:
    """Base: script bookkeeping, the two drivers, the acked-set oracle."""

    name = ""
    clients = 1
    shards = 1
    #: one period's operation shapes, per client; ``period`` entries
    shapes: tuple = ()
    period = 1
    #: closed loop with several clients: every period runs its shapes
    #: in a fresh seeded order.  Same work per period, but two clients
    #: cannot lock into a phase where one's reads always meet the
    #: other's slowest commits (run to run that phase differed, and
    #: shard_2pc's read_p50 with it: 1.7–3.2 ms)
    shuffle = False
    #: whole periods (per client) per window, sized for ~50–150 ms
    periods_per_window = 1
    open_loop = False
    #: pre-generation cap, periods per client per second — about 2.5×
    #: what the seed code sustains; the measured block ends at the
    #: deadline or, for a much faster engine, when the script runs out
    max_periods_per_second = 50
    #: which durable flush policy the engine runs (stated in the output)
    flush_policy = "none (in-memory)"

    def __init__(self, seed: int, state_dir: str):
        self.rng = random.Random(seed)
        self.state_dir = state_dir
        #: per client: next own-key ordinal
        self._next_key = [0] * self.clients
        #: per client, per shard: own rows the script may delete,
        #: oldest first (what the generator believes is present)
        self.owned = [
            [deque() for _ in range(self.shards)] for _ in range(self.clients)
        ]
        #: per client: generator state at every period boundary of the
        #: script being run, so an early stop can rewind to reality
        self._marks: list[list] = [[] for _ in range(self.clients)]
        #: per client: own order keys the oracle says are present
        self.present: list[set] = [set() for _ in range(self.clients)]
        #: per client: [checked, skipped] views over committed writes
        self.views = [[0, 0] for _ in range(self.clients)]
        #: the scripts of the latest measured block (probe inputs)
        self.scripts: list[list[Entry]] = []
        #: seconds the audit's reopen took (0 when nothing is durable)
        self.recover_seconds = 0.0
        #: span sink of the traced pass, None otherwise
        self.tracer = None
        #: traced pass only: also time ``check_pending()`` before each
        #: default-session commit / a checkpoint of the reopened engine
        self.probe_check = False
        self.check_seconds = 0.0
        self.probe_checkpoint = False
        self.checkpoint_seconds = 0.0

    # -- to implement ------------------------------------------------------

    def setup(self, phase) -> None:
        raise NotImplementedError

    def warmup_script(self, client: int) -> list[Entry]:
        raise NotImplementedError

    def build(self, client: int, shape: str) -> Entry:
        """One fresh entry of the named shape (see ``shapes``)."""
        raise NotImplementedError

    def open_client(self, client: int) -> Callable[[Entry], tuple]:
        """Returns ``execute(entry) -> (outcome, splits)``."""
        raise NotImplementedError

    def close_clients(self) -> None:
        pass

    def install_tracer(self, tracer) -> None:
        self.tracer = tracer
        self.tintin.set_tracer(tracer)

    def close(self) -> None:
        raise NotImplementedError

    def audit(self) -> list[str]:
        """After the run: reopen where durable, compare the acked set
        and row counts with the oracle, run a full assertion check.
        Returns one description per miss."""
        raise NotImplementedError

    # -- scripts -----------------------------------------------------------

    def period_script(self, client: int) -> list[Entry]:
        shapes = list(self.shapes)
        if self.shuffle:
            self.rng.shuffle(shapes)
        return [self.build(client, shape) for shape in shapes]

    def fresh_key(self, client: int, shard: int = 0) -> int:
        """A fresh own key; with shards, one that places on ``shard``
        (integer keys place by modulus)."""
        ordinal = self._next_key[client]
        self._next_key[client] += 1
        return KEY_BASE + client * KEY_STRIDE + ordinal * self.shards + shard

    def _script(self, client: int, periods: int) -> list[Entry]:
        entries: list[Entry] = []
        marks = self._marks[client] = []
        for _ in range(periods + 1):
            marks.append(
                (self._next_key[client], [tuple(d) for d in self.owned[client]])
            )
            if len(marks) <= periods:
                entries.extend(self.period_script(client))
        return entries

    def _rewind(self, client: int, executed: int) -> None:
        """Reset the generator to the last period boundary the client
        actually reached, so the next script deletes only rows that
        exist."""
        next_key, pools = self._marks[client][executed // self.period]
        self._next_key[client] = next_key
        self.owned[client] = [deque(pool) for pool in pools]

    # -- drivers -----------------------------------------------------------

    def warm_up(self) -> Block:
        """Fill the own-row pools and run one full period, so delta
        plans are armed and every cache the script can fill is full."""
        scripts = [self.warmup_script(c) for c in range(self.clients)]
        return self._run_closed(scripts, float("inf"))

    def measure(self, seconds: float) -> Block:
        """Generate a script, then run it for about ``seconds``."""
        if self.open_loop:
            periods = max(1, round(seconds / (self.period * self.interval)))
            seconds = periods * self.period * self.interval
        else:
            periods = int(seconds * self.max_periods_per_second) + 1
        self.scripts = [self._script(c, periods) for c in range(self.clients)]
        # the script and the engine are long-lived: keep them out of
        # every collection the measured block triggers (GC stays on)
        gc.collect()
        gc.freeze()
        run = self._run_open if self.open_loop else self._run_closed
        block = run(self.scripts, seconds)
        executed = [0] * self.clients
        for op in block.ops:
            executed[op.client] += 1
        for client in range(self.clients):
            self._rewind(client, executed[client])
        return block

    def _settle(self, client, position, entry, outcome, failures) -> None:
        miss = judge(entry, outcome)
        if miss is not None:
            failures.append(f"{self.name}[{client}:{position}] {miss}")
        elif entry.cls != REJECT:
            self.present[client].update(entry.adds)
            self.present[client].difference_update(entry.removes)

    def _run_clients(self, scripts, body, on_ready=None):
        """Start one thread per script running ``body(index, execute,
        ops, probes, failures)`` behind a barrier (``on_ready()`` runs
        once every client is connected, just before the barrier opens);
        returns the merged ops and probes, the failures, the start
        instant and the elapsed seconds."""
        runners = [self.open_client(c) for c in range(len(scripts))]
        ops: list[list[Op]] = [[] for _ in scripts]
        probes: list[list] = [[] for _ in scripts]
        failures: list[str] = []
        barrier = threading.Barrier(len(scripts) + 1)

        def client(index: int) -> None:
            barrier.wait()
            body(index, runners[index], ops[index], probes[index], failures)

        threads = [
            threading.Thread(target=client, args=(c,), name=f"bench-client-{c}")
            for c in range(len(scripts))
        ]
        try:
            for thread in threads:
                thread.start()
            if on_ready is not None:
                on_ready()
            barrier.wait()
            started = time.perf_counter()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
        finally:
            self.close_clients()
        return sum(ops, []), sum(probes, []), failures, started, elapsed

    def _run_closed(self, scripts: list[list[Entry]], seconds: float) -> Block:
        """Closed loop: each client sends its next operation when the
        previous one completed; stops at a period boundary once
        ``seconds`` have passed (or the script is exhausted)."""
        period, clock, cpu_clock = self.period, time.perf_counter, time.process_time

        def body(index, execute, mine, probes, failures) -> None:
            deadline = clock() + seconds
            for position, entry in enumerate(scripts[index]):
                if position % period == 0:
                    if clock() >= deadline:
                        break
                    probes.append((clock(), probe()))
                cpu = cpu_clock()
                start = clock()
                try:
                    outcome, splits = execute(entry)
                except Exception as exc:  # a failed operation, counted
                    outcome, splits = exc, ()
                end = clock()
                mine.append(
                    Op(start, end, entry.cls, entry.cls != READ, splits, index,
                       cpu_clock() - cpu)
                )
                self._settle(index, position, entry, outcome, failures)

        ops, probes, failures, started, elapsed = self._run_clients(scripts, body)
        return Block(ops, started, elapsed, failures, probes, [])

    def _run_open(self, scripts: list[list[Entry]], seconds: float) -> Block:
        """Open loop: client ``c`` sends entry ``i`` at ``(i + c /
        clients) * interval`` whatever happened before.  An operation's
        recorded start is its *due* time, so its latency counts the
        wait a stall imposes on everything queued behind it."""
        interval, clock, cpu_clock = self.interval, time.perf_counter, time.process_time
        late: list[float] = []
        #: the schedule's origin, set once every connection is open
        schedule: list[float] = []

        def body(index, execute, mine, probes, failures) -> None:
            origin = schedule[0]
            offset = index * interval / len(scripts)
            for position, entry in enumerate(scripts[index]):
                due = position * interval + offset
                if origin + due - clock() > 0.003:
                    # idle until the next operation is due: probe now
                    probes.append((clock() - origin, probe()))
                wait = origin + due - clock()
                if wait > 0:
                    time.sleep(wait)
                late.append(max(0.0, clock() - origin - due))
                cpu = cpu_clock()
                try:
                    outcome, splits = execute(entry)
                except Exception as exc:  # a failed operation, counted
                    outcome, splits = exc, ()
                end = clock() - origin
                splits = tuple(mark - origin for mark in splits)
                mine.append(
                    Op(due, end, entry.cls, entry.cls != READ, splits, index,
                       cpu_clock() - cpu)
                )
                self._settle(index, position, entry, outcome, failures)

        ops, probes, failures, started, elapsed = self._run_clients(
            scripts, body, on_ready=lambda: schedule.append(clock() + 0.02)
        )
        # the schedule's length rounds to whole windows; the time it
        # actually took (to the last completion) is what goodput is over
        origin = schedule[0]
        return Block(
            ops, 0.0, started + elapsed - origin, failures, probes, late, origin
        )

    # -- shared audit helpers ----------------------------------------------

    def expected_own(self) -> set:
        return set().union(*self.present)

    def time_checkpoint(self, engine) -> None:
        if self.probe_checkpoint:
            started = time.perf_counter()
            engine.checkpoint()
            self.checkpoint_seconds = time.perf_counter() - started

    def audit_engine(self, tintin: Tintin) -> list[str]:
        """Acked set, row counts and a full assertion check on a
        (reopened) in-process engine; ``own_orders_sql`` selects the
        own-order keys, ``rows_per_order`` says how many rows of each
        table one own order accounts for."""
        expected = self.expected_own()
        found = {row[0] for row in tintin.db.query(self.own_orders_sql).rows}
        misses = self.compare_own(found, expected)
        for table, per_order in self.rows_per_order.items():
            want = self.base_counts[table] + per_order * len(expected)
            have = tintin.db.table(table).row_count
            if have != want:
                misses.append(f"{table} holds {have} rows, oracle says {want}")
        final = tintin.full_check_commit()
        if not final.committed:
            misses.append(f"closing full check found violations: {final}")
        return misses

    def audit_reopened(self) -> list[str]:
        """:meth:`audit_engine` on a fresh ``Tintin.open`` of the state
        directory — which, after ``close(checkpoint=False)``, has to
        replay every acked commit from the log."""
        started = time.perf_counter()
        reopened = Tintin.open(self.state_dir, durability=self.durability)
        self.recover_seconds = time.perf_counter() - started
        try:
            misses = self.audit_engine(reopened)
            self.time_checkpoint(reopened)
            return misses
        finally:
            reopened.close(checkpoint=False)

    @staticmethod
    def compare_own(found: set, expected: set) -> list[str]:
        misses = []
        lost = expected - found
        extra = found - expected
        if lost:
            misses.append(
                f"{len(lost)} acked order(s) missing: {sorted(lost)[:5]}"
            )
        if extra:
            misses.append(
                f"{len(extra)} order(s) present that were never acked: "
                f"{sorted(extra)[:5]}"
            )
        return misses


# -- refresh_sql -----------------------------------------------------------


class RefreshSql(Workload):
    name = "refresh_sql"
    clients = 1
    #: 9 valid refresh pairs, 1 itemless order (rejected), 2 point reads
    shapes = ("pair",) * 3 + ("read",) + ("pair",) * 3 + ("read",) + ("pair",) * 3 + ("reject",)
    period = len(shapes)
    periods_per_window = 1
    max_periods_per_second = 40
    scale = 0.002
    items_per_order = 2
    read_keys = 2000
    pool = 20
    own_orders_sql = f"SELECT o_orderkey FROM orders WHERE o_orderkey >= {KEY_BASE}"
    rows_per_order = {"orders": 1, "lineitem": items_per_order}

    def setup(self, phase) -> None:
        with phase("generate"):
            data = TPCHGenerator(self.scale, seed=TPCH_SEED).generate()
        with phase("load"):
            self.db = tpch_database("refresh_sql")
            TPCHGenerator(self.scale, seed=TPCH_SEED).populate(self.db, data)
        with phase("install"):
            self.tintin = Tintin(self.db)
            self.tintin.install()
        with phase("add_assertion"):
            for spec in ALL_ASSERTIONS:
                self.tintin.add_assertion(spec.sql)
        self.customers = [row[0] for row in data.rows["customer"]]
        self.partsupp = [(row[0], row[1]) for row in data.rows["partsupp"]]
        self.orders = data.rows["orders"]
        self.base_counts = {
            "orders": len(data.rows["orders"]),
            "lineitem": len(data.rows["lineitem"]),
        }

    def _valid(self, delete: bool) -> Entry:
        rng = self.rng
        key = self.fresh_key(0)
        inserts = [
            f"INSERT INTO orders VALUES ({key}, {rng.choice(self.customers)}, "
            f"{rng.randrange(100, 900)}.0)"
        ]
        for line in range(1, self.items_per_order + 1):
            part, supp = rng.choice(self.partsupp)
            inserts.append(
                f"INSERT INTO lineitem VALUES ({key}, {line}, {part}, "
                f"{supp}, {rng.randrange(1, 50)})"
            )
        deletes, removes = [], ()
        if delete:
            victim = self.owned[0][0].popleft()
            deletes = [
                f"DELETE FROM lineitem WHERE l_orderkey = {victim}",
                f"DELETE FROM orders WHERE o_orderkey = {victim}",
            ]
            removes = (victim,)
        self.owned[0][0].append(key)
        return Entry(TXN, (inserts, deletes), None, (key,), removes)

    def _reject(self) -> Entry:
        key = self.fresh_key(0)
        sql = (
            f"INSERT INTO orders VALUES ({key}, "
            f"{self.rng.choice(self.customers)}, 40.0)"
        )
        return Entry(REJECT, ([sql], []), "atLeastOneLineItem")

    def _read(self) -> Entry:
        row = self.orders[self.rng.randrange(self.read_keys)]
        sql = (
            "SELECT o_orderkey, o_totalprice FROM orders "
            f"WHERE o_orderkey = {row[0]}"
        )
        return Entry(READ, sql, [(row[0], row[2])])

    def build(self, client: int, shape: str) -> Entry:
        if shape == "read":
            return self._read()
        return self._reject() if shape == "reject" else self._valid(delete=True)

    def warmup_script(self, client: int) -> list[Entry]:
        fill = [self._valid(delete=False) for _ in range(self.pool)]
        return fill + self.period_script(client)

    def open_client(self, client: int):
        db, tintin, clock = self.db, self.tintin, time.perf_counter
        views = self.views[client]

        def execute(entry: Entry):
            if entry.cls == READ:
                return db.query(entry.body).rows, ()
            inserts, deletes = entry.body
            for sql in inserts:
                db.execute(sql)
            inserted = clock()
            for sql in deletes:
                db.execute(sql)
            deleted = staged = clock()
            if self.probe_check:
                tintin.check_pending()
                staged = clock()
                self.check_seconds += staged - deleted
            committed, checked, skipped, violated = verdict_of(tintin.safe_commit())
            if committed:
                views[0] += checked
                views[1] += skipped
            return (committed, violated), (inserted, deleted, staged)

        return execute

    def close(self) -> None:
        pass

    def audit(self) -> list[str]:
        return self.audit_engine(self.tintin)


# -- oltp_sessions ---------------------------------------------------------


def _bound_assertion(k: int) -> str:
    """E8's family of distinct business rules (kept in step with
    ``benchmarks/test_e8_concurrency.py``, which stays as it is)."""
    return (
        f"CREATE ASSERTION e8Bound{k} CHECK (NOT EXISTS ("
        f"SELECT * FROM orders AS o, lineitem AS l "
        f"WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity > {60 + k} "
        f"AND o.o_totalprice > {500 + k}))"
    )


OLTP_ASSERTIONS = tuple(
    spec.sql
    for spec in COMPLEXITY_SUITE + (EVERY_ORDER_HAS_MAX_ITEM,) + AGGREGATE_ASSERTIONS
) + tuple(_bound_assertion(k) for k in range(8))


class OltpSessions(Workload):
    name = "oltp_sessions"
    clients = 2
    #: E8's period-15 write script — 12 new orders, 4 of which also
    #: retire three old ones (so inserts and deletes balance), 3
    #: itemless orders that must be rejected — plus 3 customer lookups
    shapes = ("insert",) * 8 + ("retire",) * 4 + ("reject",) * 3 + ("read",) * 3
    period = len(shapes)
    shuffle = True
    periods_per_window = 2
    max_periods_per_second = 150
    durability = "batch"
    flush_policy = "batch (group commit, one shared fsync per window)"
    scale = 0.005
    read_keys = 64
    pool = 12
    own_orders_sql = RefreshSql.own_orders_sql
    rows_per_order = {"orders": 1, "lineitem": 1}

    def setup(self, phase) -> None:
        with phase("generate"):
            data = TPCHGenerator(self.scale, seed=TPCH_SEED).generate()
        with phase("load"):
            db = tpch_database("oltp_sessions")
            TPCHGenerator(self.scale, seed=TPCH_SEED).populate(db, data)
        with phase("open"):
            # bootstraps from the loaded database: writes the first
            # checkpoint, then logs every later commit
            self.tintin = Tintin.open(
                self.state_dir, durability=self.durability, db=db
            )
        with phase("install"):
            self.tintin.install()
        with phase("add_assertion"):
            for sql in OLTP_ASSERTIONS:
                self.tintin.add_assertion(sql)
        with phase("arm"):
            # one validated commit promotes every seeded delta plan
            part, supp = data.rows["partsupp"][0][:2]
            customer = data.rows["customer"][0][0]
            db.execute(f"INSERT INTO orders VALUES (9999999, {customer}, 500.0)")
            db.execute(
                f"INSERT INTO lineitem VALUES (9999999, 1, {part}, {supp}, 10)"
            )
            armed = self.tintin.safe_commit()
            if not armed.committed:
                raise RuntimeError(f"arming commit rejected: {armed}")
            self.tintin.serve()
        self.db = db
        self.customers = data.rows["customer"]
        self.partsupp = [(row[0], row[1]) for row in data.rows["partsupp"]]
        self.base_counts = {
            "orders": len(data.rows["orders"]) + 1,
            "lineitem": len(data.rows["lineitem"]) + 1,
        }
        self.sessions: list = []

    def _valid(self, client: int, victims: int) -> Entry:
        rng = self.rng
        key = self.fresh_key(client)
        part, supp = rng.choice(self.partsupp)
        order = (key, rng.choice(self.customers)[0], 100.0)
        item = (key, 1, part, supp, 5)
        gone = [self.owned[client][0].popleft() for _ in range(victims)]
        self.owned[client][0].append((order, item))
        inserts = (("orders", [order]), ("lineitem", [item]))
        deletes = ()
        if gone:
            deletes = (
                ("orders", [o for o, _ in gone]),
                ("lineitem", [i for _, i in gone]),
            )
        return Entry(
            TXN, (inserts, deletes), None, (key,), tuple(o[0] for o, _ in gone)
        )

    def _reject(self, client: int) -> Entry:
        order = (self.fresh_key(client), self.rng.choice(self.customers)[0], 40.0)
        return Entry(
            REJECT, ((("orders", [order]),), ()), "atLeastOneLineItem"
        )

    def _read(self) -> Entry:
        row = self.customers[self.rng.randrange(self.read_keys)]
        sql = (
            "SELECT c_custkey, c_name FROM customer "
            f"WHERE c_custkey = {row[0]}"
        )
        return Entry(READ, sql, [(row[0], row[1])])

    def build(self, client: int, shape: str) -> Entry:
        if shape == "read":
            return self._read()
        if shape == "reject":
            return self._reject(client)
        return self._valid(client, 3 if shape == "retire" else 0)

    def warmup_script(self, client: int) -> list[Entry]:
        fill = [self._valid(client, 0) for _ in range(self.pool)]
        return fill + self.period_script(client)

    def open_client(self, client: int):
        session = self.tintin.create_session()
        self.sessions.append(session)
        return row_api_executor(
            session, self.views[client], lambda: verdict_of(session.commit())
        )

    def close_clients(self) -> None:
        for session in self.sessions:
            session.expire()
        self.sessions = []

    def close(self) -> None:
        # no final checkpoint: the audit's reopen must rebuild every
        # acked commit from the log alone
        self.tintin.close(checkpoint=False)

    def audit(self) -> list[str]:
        return self.audit_reopened()


# -- net_mixed -------------------------------------------------------------

ORDERS_DDL = "CREATE TABLE orders (id INTEGER PRIMARY KEY, total DOUBLE)"
AT_LEAST_ONE_ITEM = (
    "CREATE ASSERTION atLeastOneItem CHECK (NOT EXISTS ("
    "SELECT * FROM orders AS o WHERE NOT EXISTS ("
    "SELECT * FROM items AS i WHERE i.order_id = o.id)))"
)


class NetMixed(Workload):
    name = "net_mixed"
    clients = 2
    open_loop = True
    #: per connection: 8 valid writes, 2 rejected, 5 point reads
    shapes = (
        ("write", "write", "read") * 2
        + ("reject", "write", "read")
        + ("write", "write", "read")
        + ("write", "reject", "read")
    )
    period = len(shapes)
    #: one operation per connection every 1/45 s: 60 writes/s + 30
    #: reads/s over both connections, about a third of capacity
    interval = 1.0 / 45.0
    #: seconds of schedule per window (whole periods: 15 slots = 1/3 s)
    window_seconds = 1.0 / 3.0
    max_periods_per_second = 3
    durability = "commit"
    flush_policy = "commit (append + fsync per commit)"
    preload = 10_000
    read_keys = 2000
    pool = 8
    #: a commit completed within this of its due time counts as good
    good_seconds = 0.050
    own_orders_sql = f"SELECT id FROM orders WHERE id >= {KEY_BASE}"
    rows_per_order = {"orders": 1, "items": 2}
    items_ddl = (
        "CREATE TABLE items (order_id INTEGER, n INTEGER, qty INTEGER, "
        "PRIMARY KEY (order_id, n), "
        "FOREIGN KEY (order_id) REFERENCES orders (id))"
    )
    assertions = (
        AT_LEAST_ONE_ITEM,
        "CREATE ASSERTION positiveQty CHECK (NOT EXISTS ("
        "SELECT * FROM items AS i WHERE i.qty < 1))",
    )

    def setup(self, phase) -> None:
        with phase("generate"):
            orders = [(k, k * 1.5) for k in range(1, self.preload + 1)]
            items = [(k, 1, 1 + k % 9) for k in range(1, self.preload + 1)]
        with phase("load"):
            db = Database("net_mixed")
            db.execute(ORDERS_DDL)
            db.execute(self.items_ddl)
            db.insert_rows("orders", orders, bypass_triggers=True)
            db.insert_rows("items", items, bypass_triggers=True)
        with phase("open"):
            self.tintin = Tintin.open(
                self.state_dir, durability=self.durability, db=db
            )
        with phase("install"):
            self.tintin.install()
        with phase("add_assertion"):
            for sql in self.assertions:
                self.tintin.add_assertion(sql)
        with phase("listen"):
            self.server = self.tintin.listen()
        self.db = db
        self.base_counts = {"orders": self.preload, "items": self.preload}
        self.connections: list[TintinClient] = []

    def _valid(self, client: int, delete: bool) -> Entry:
        key = self.fresh_key(client)
        order = (key, float(self.rng.randrange(10, 500)))
        items = [(key, n, self.rng.randrange(1, 9)) for n in (1, 2)]
        inserts = (("orders", [order]), ("items", items))
        deletes, removes = (), ()
        if delete:
            old_order, old_items = self.owned[client][0].popleft()
            deletes = (("items", old_items), ("orders", [old_order]))
            removes = (old_order[0],)
        self.owned[client][0].append((order, items))
        return Entry(TXN, (inserts, deletes), None, (key,), removes)

    def _reject(self, client: int) -> Entry:
        order = (self.fresh_key(client), 1.0)
        return Entry(REJECT, ((("orders", [order]),), ()), "atLeastOneItem")

    def _read(self) -> Entry:
        key = 1 + self.rng.randrange(self.read_keys)
        sql = f"SELECT id, total FROM orders WHERE id = {key}"
        return Entry(READ, sql, [(key, key * 1.5)])

    def build(self, client: int, shape: str) -> Entry:
        if shape == "read":
            return self._read()
        if shape == "reject":
            return self._reject(client)
        return self._valid(client, delete=True)

    def warmup_script(self, client: int) -> list[Entry]:
        fill = [self._valid(client, delete=False) for _ in range(self.pool)]
        return fill + self.period_script(client)

    def open_connection(self, name: str) -> TintinClient:
        return TintinClient(*self.server.address, timeout=30, client_name=name)

    def open_client(self, client: int):
        connection = self.open_connection(f"bench-{client}")
        self.connections.append(connection)

        def commit() -> tuple:
            verdict = connection.commit()
            return (
                verdict["committed"],
                verdict["checked_views"],
                verdict["skipped_views"],
                ",".join(verdict["violations"]),
            )

        return row_api_executor(connection, self.views[client], commit)

    def close_clients(self) -> None:
        for connection in self.connections:
            connection.close()
        self.connections = []

    def close(self) -> None:
        self.close_clients()
        # the front end is stopped without closing the engine, then the
        # engine closes without a final checkpoint: the audit's reopen
        # replays every acked commit from the log
        self.server.shutdown(drain_timeout=30, close_engine=False)
        self.tintin.close(checkpoint=False)

    def audit(self) -> list[str]:
        return self.audit_reopened()


# -- shard_2pc -------------------------------------------------------------


class Shard2pc(Workload):
    name = "shard_2pc"
    clients = 2
    shards = 2
    #: 12 shard-local writes, 3 cross-shard (2PC), 1 rejected, 1 read
    shapes = ("local",) * 12 + ("cross",) * 3 + ("reject", "read")
    period = len(shapes)
    shuffle = True
    periods_per_window = 2
    max_periods_per_second = 150
    flush_policy = "batch per shard worker; coordinator decision fsync per 2PC"
    anchors = 200
    pool = 6
    items_ddl = (
        "CREATE TABLE items (order_id INTEGER, n INTEGER, "
        "PRIMARY KEY (order_id, n), "
        "FOREIGN KEY (order_id) REFERENCES orders (id))"
    )
    keys = {"orders": "id", "items": "order_id"}

    def setup(self, phase) -> None:
        with phase("spawn"):
            self.engine = ShardedTintin(
                self.state_dir, shards=self.shards, shard_keys=self.keys
            )
        with phase("install"):
            self.engine.execute(ORDERS_DDL)
            self.engine.execute(self.items_ddl)
            self.engine.install()
        with phase("add_assertion"):
            self.engine.add_assertion(AT_LEAST_ONE_ITEM)
        with phase("load"):
            # anchor rows the point reads look up; never deleted
            session = self.engine.create_session()
            keys = range(1, self.anchors + 1)
            session.insert("orders", [(k, k * 1.5) for k in keys])
            session.insert("items", [(k, 1) for k in keys])
            loaded = session.commit()
            if not loaded.committed:
                raise RuntimeError(f"anchor load rejected: {loaded}")
            session.expire()
        self.sessions: list = []

    def _write(self, client: int, shards: tuple, delete: bool) -> Entry:
        orders, items, old_orders, old_items = [], [], [], []
        for shard in shards:
            key = self.fresh_key(client, shard)
            order = (key, float(self.rng.randrange(10, 500)))
            if delete:
                old = self.owned[client][shard].popleft()
                old_orders.append(old)
                old_items.append((old[0], 1))
            self.owned[client][shard].append(order)
            orders.append(order)
            items.append((key, 1))
        inserts = (("orders", orders), ("items", items))
        deletes = (("orders", old_orders), ("items", old_items)) if delete else ()
        return Entry(
            XSHARD if len(shards) > 1 else TXN,
            (inserts, deletes),
            None,
            tuple(o[0] for o in orders),
            tuple(o[0] for o in old_orders),
        )

    def _reject(self, client: int) -> Entry:
        order = (self.fresh_key(client, client % self.shards), 1.0)
        return Entry(REJECT, ((("orders", [order]),), ()), "atLeastOneItem")

    def _read(self) -> Entry:
        key = 1 + self.rng.randrange(self.anchors)
        sql = f"SELECT o.id, o.total FROM orders AS o WHERE o.id = {key}"
        return Entry(READ, sql, [(key, key * 1.5)])

    def build(self, client: int, shape: str) -> Entry:
        if shape == "read":
            return self._read()
        if shape == "reject":
            return self._reject(client)
        shards = (
            tuple(range(self.shards)) if shape == "cross" else (client % self.shards,)
        )
        return self._write(client, shards, delete=True)

    def warmup_script(self, client: int) -> list[Entry]:
        # cross-shard inserts fill the client's pool on every shard
        everywhere = tuple(range(self.shards))
        fill = [
            self._write(client, everywhere, delete=False) for _ in range(self.pool)
        ]
        return fill + self.period_script(client)

    def open_client(self, client: int):
        session = self.engine.create_session()
        self.sessions.append(session)

        def commit() -> tuple:
            tracer = self.tracer
            if tracer is None:
                result = session.commit()
            else:
                # the router only records prepare/decide spans into an
                # observation context its caller hands in
                obs = CommitObs(tracer)
                result = session.commit(obs=obs)
                obs.finish("committed" if result.committed else "rejected")
            if not result.committed:
                session.discard()  # a shard session keeps a refused update
            return (
                result.committed,
                result.checked_views,
                result.skipped_views,
                ",".join(str(v) for v in result.violations),
            )

        return row_api_executor(session, self.views[client], commit)

    def close_clients(self) -> None:
        for session in self.sessions:
            session.expire()
        self.sessions = []

    def install_tracer(self, tracer) -> None:
        self.tracer = tracer  # handed to each commit, see open_client

    def close(self) -> None:
        self.engine.close()

    def audit(self) -> list[str]:
        started = time.perf_counter()
        reopened = ShardedTintin(
            self.state_dir, shards=self.shards, shard_keys=self.keys
        )
        self.recover_seconds = time.perf_counter() - started
        try:
            reopened.declare(ORDERS_DDL)
            reopened.declare(self.items_ddl)
            expected = self.expected_own()
            orders = reopened.query("SELECT o.id FROM orders AS o").rows
            found = {row[0] for row in orders if row[0] >= KEY_BASE}
            misses = self.compare_own(found, expected)
            want = self.anchors + len(expected)
            if len(orders) != want:
                misses.append(f"orders holds {len(orders)} rows, oracle says {want}")
            items = reopened.query("SELECT i.order_id FROM items AS i").rows
            if len(items) != want:
                misses.append(f"items holds {len(items)} rows, oracle says {want}")
            # the assertion's own query, scattered: each shard checks
            # its slice, and an order and its items share a shard
            orphans = reopened.query(
                "SELECT o.id FROM orders AS o WHERE NOT EXISTS ("
                "SELECT * FROM items AS i WHERE i.order_id = o.id)"
            ).rows
            if orphans:
                misses.append(f"{len(orphans)} committed order(s) without items")
            self.time_checkpoint(reopened)  # every shard checkpoints
            return misses
        finally:
            reopened.close()


WORKLOADS = {
    cls.name: cls for cls in (RefreshSql, OltpSessions, NetMixed, Shard2pc)
}

