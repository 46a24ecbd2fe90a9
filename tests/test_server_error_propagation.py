"""Non-constraint errors must propagate out of the commit scheduler.

ISSUE 4 satellite: PR 3 narrowed ``Session.query_spliced``'s bare
``except Exception`` to duplicate-key conflicts; this locks the rest of
the server package to the same standard.  Two layers of defense:

* a source audit — no handler in ``repro.server`` may catch
  ``Exception``/``BaseException`` (or use a bare ``except``) without
  re-raising; ``repro.net`` and ``repro.obs`` (ISSUE 10) are held to a
  slightly weaker bar — housekeeping paths there (socket teardown,
  slowdown broadcasts, gauge callbacks) may swallow, but only if the
  handler *logs* the failure with context;
* runtime regressions — an engine error (not a constraint violation)
  raised inside the commit unit (``_commit_group``) reaches the
  leader's caller as the original exception, and every other queued
  member is rejected with an attributed error instead of hanging or
  silently "succeeding".
"""

from __future__ import annotations

import ast
import threading
from pathlib import Path

import pytest

import repro.net
import repro.obs
import repro.server
from repro import Database, Tintin
from repro.errors import ConstraintViolation


def build_tintin() -> Tintin:
    db = Database("errors")
    db.execute("CREATE TABLE orders (id INTEGER PRIMARY KEY, total DOUBLE)")
    db.execute(
        "CREATE TABLE items (order_id INTEGER, n INTEGER, "
        "PRIMARY KEY (order_id, n), "
        "FOREIGN KEY (order_id) REFERENCES orders (id))"
    )
    tintin = Tintin(db)
    tintin.install()
    tintin.add_assertion(
        "CREATE ASSERTION atLeastOneItem CHECK (NOT EXISTS ("
        "SELECT * FROM orders AS o WHERE NOT EXISTS ("
        "SELECT * FROM items AS i WHERE i.order_id = o.id)))"
    )
    return tintin


# -- source audit -----------------------------------------------------------


def _broad_handlers(tree: ast.AST) -> list[ast.ExceptHandler]:
    """Handlers catching Exception/BaseException/everything."""
    broad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            broad.append(node)
        elif isinstance(node.type, ast.Name) and node.type.id in (
            "Exception",
            "BaseException",
        ):
            broad.append(node)
    return broad


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(n, ast.Raise) for n in ast.walk(handler))


_LOG_METHODS = {"debug", "info", "warning", "error", "exception", "critical"}


def _logs(handler: ast.ExceptHandler) -> bool:
    """Whether the handler calls a logger method (``log.warning(...)``,
    ``SLOW_LOG.error(...)``, ...) — the minimum a swallowing
    housekeeping handler owes the operator."""
    for node in ast.walk(handler):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _LOG_METHODS
        ):
            return True
    return False


def _captures(handler: ast.ExceptHandler) -> bool:
    """Whether the handler binds the exception and stores it somewhere
    (``error = exc`` / ``self._start_error = exc``) — the deferred-
    delivery pattern: the exception is reported through a callback or
    re-raised by another thread, not dropped."""
    if handler.name is None:
        return False
    for node in ast.walk(handler):
        if isinstance(node, ast.Assign) and (
            isinstance(node.value, ast.Name)
            and node.value.id == handler.name
        ):
            return True
    return False


def _audit(package, allow_logging: bool) -> list[str]:
    package_dir = Path(package.__file__).parent
    offenders = []
    for source in sorted(package_dir.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        for handler in _broad_handlers(tree):
            if _reraises(handler) or _captures(handler):
                continue
            if allow_logging and _logs(handler):
                continue
            offenders.append(f"{source.name}:{handler.lineno}")
    return offenders


def test_no_swallow_all_handlers_in_server_package():
    offenders = _audit(repro.server, allow_logging=False)
    assert not offenders, (
        "broad exception handler(s) without re-raise in repro.server: "
        + ", ".join(offenders)
    )


def test_no_silent_swallow_in_net_and_obs_packages():
    """ISSUE 10: ``repro.net``/``repro.obs`` housekeeping handlers may
    swallow (teardown must run to completion even over a dead socket)
    but never *silently* — each one must log what it dropped."""
    offenders = _audit(repro.net, allow_logging=True) + _audit(
        repro.obs, allow_logging=True
    )
    assert not offenders, (
        "broad exception handler(s) that neither re-raise nor log in "
        "repro.net/repro.obs: " + ", ".join(offenders)
    )


# -- runtime regressions ----------------------------------------------------


def _stage_valid(session, key: int) -> None:
    session.insert("orders", [(key, 1.0)])
    session.insert("items", [(key, 1)])


def test_apply_error_propagates_from_commit(monkeypatch):
    """A non-constraint engine failure inside the apply escapes
    ``session.commit()`` unwrapped — it is a bug, not a rejection."""
    tintin = build_tintin()
    session = tintin.create_session()
    _stage_valid(session, 1)

    def broken_apply(inserts, deletes):
        raise RuntimeError("index corruption")

    monkeypatch.setattr(tintin.db, "apply_batch", broken_apply)
    with pytest.raises(RuntimeError, match="index corruption"):
        session.commit()


def test_check_error_propagates_from_commit(monkeypatch):
    """Same contract for the validation pass (check_only)."""
    tintin = build_tintin()
    session = tintin.create_session()
    _stage_valid(session, 1)

    def broken_check(db, overlays=None, **kwargs):
        raise ValueError("planner exploded")

    monkeypatch.setattr(
        tintin.safe_commit_proc, "check_only", broken_check
    )
    with pytest.raises(ValueError, match="planner exploded"):
        session.commit()


def test_followers_get_attributed_rejection_when_window_fails(monkeypatch):
    """When the leader's window dies on an engine error, queued
    followers are rejected with the error attributed — never left
    hanging, never falsely committed."""
    tintin = build_tintin()
    scheduler = tintin.sessions.scheduler
    leader_session = tintin.create_session()
    follower_session = tintin.create_session()
    _stage_valid(leader_session, 1)
    _stage_valid(follower_session, 2)

    real_process = scheduler._process_batch
    follower_queued = threading.Event()
    release_leader = threading.Event()

    def gated_process():
        follower_queued.wait(timeout=5)
        release_leader.wait(timeout=5)
        real_process()

    monkeypatch.setattr(scheduler, "_process_batch", gated_process)

    def broken_apply(inserts, deletes):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(tintin.db, "apply_batch", broken_apply)

    leader_error: list[BaseException] = []
    follower_results: list = []

    def leader():
        try:
            leader_session.commit()
        except BaseException as exc:  # the propagation under test
            leader_error.append(exc)

    def follower():
        follower_queued.set()
        follower_results.append(follower_session.commit())

    leader_thread = threading.Thread(target=leader)
    leader_thread.start()
    follower_queued.wait(timeout=5)
    follower_thread = threading.Thread(target=follower)
    follower_thread.start()
    # let both requests enqueue, then open the window
    import time

    time.sleep(0.05)
    release_leader.set()
    leader_thread.join(timeout=10)
    follower_thread.join(timeout=10)
    assert not leader_thread.is_alive() and not follower_thread.is_alive()

    # one of the two saw the raw engine error (whoever led the window);
    # the other was rejected with the failure attributed
    raw_errors = len(leader_error)
    rejected = [r for r in follower_results if r is not None]
    if raw_errors:
        assert isinstance(leader_error[0], RuntimeError)
    for result in rejected:
        assert not result.committed
        assert result.constraint_error is not None
        assert "disk on fire" in result.constraint_error
    assert raw_errors + len(rejected) == 2


def test_constraint_violations_are_still_reported_not_raised():
    """The narrowing must not over-shoot: genuine constraint conflicts
    stay *reported* through CommitResult, exactly as before."""
    tintin = build_tintin()
    first = tintin.create_session()
    _stage_valid(first, 1)
    assert first.commit().committed
    second = tintin.create_session()
    # same primary key, different payload: not deduplicated by the
    # net-event set semantics, so the apply hits the unique index
    second.insert("orders", [(1, 999.0)])
    second.insert("items", [(1, 9)])
    result = second.commit()
    assert not result.committed
    assert result.constraint_error or result.violations


def test_query_spliced_narrowing_still_propagates_engine_errors(monkeypatch):
    """query_spliced swallows only duplicate-key ConstraintViolation
    during splice-in; any other insert failure must escape."""
    tintin = build_tintin()
    session = tintin.create_session()
    _stage_valid(session, 7)

    table = tintin.db.table("orders")
    original_insert = table.insert

    def broken_insert(row):
        if row[0] == 7:
            raise RuntimeError("page fault")
        return original_insert(row)

    monkeypatch.setattr(table, "insert", broken_insert)
    with pytest.raises(RuntimeError, match="page fault"):
        session.query_spliced("SELECT * FROM orders AS o")
