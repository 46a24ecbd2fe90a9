"""Deterministic fault injection across the full commit path.

PR 4/5 earned confidence in the WAL through crash matrices at every
record boundary; the network front end extends the same treatment to
connection, scheduler and fsync faults.  A :class:`FaultInjector` is a
registry of named *hook points*; production code carries a ``None``
hook and pays one attribute read per point, tests install an injector
and script exactly which invocation stalls, drops or dies.

Hook points threaded through the stack:

===========================  ==============================================
point                        fired
===========================  ==============================================
``server.read``              before parsing each request frame (stall a
                             read by sleeping here)
``server.before_ack``        before writing a commit verdict back to the
                             client (raise :class:`DropConnection` to
                             sever the socket *after* the commit decided
                             — the classic ack-lost window)
``server.drain``             during graceful shutdown, after the listener
                             closed but before the engine closes
``admission.enqueue``        when a request enters the admission queue
``scheduler.window``         at the top of every commit window
``scheduler.validate``       immediately before a violation-view pass
``wal.after_append``         after a batch record is buffered, before any
                             fsync covers it (the append-not-yet-durable
                             window)
``wal.before_fsync``         before each durability fsync (delay here to
                             widen the unflushed window, raise OSError to
                             simulate a dying disk)
===========================  ==============================================

Actions are consumed FIFO per point with optional ``times`` budgets, so
a script like "stall the second fsync for 50 ms, then drop the next
ack" is expressed directly and reproducibly.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Callable, Optional


class DropConnection(Exception):
    """Raised by a fault action to make the server sever the client's
    socket at the hook point (outside tests this never exists)."""


class FaultInjector:
    """A registry of scripted faults keyed by hook point."""

    def __init__(self):
        self._lock = threading.Lock()
        self._actions: dict[str, list[dict]] = {}
        #: how often each point fired (whether or not an action ran)
        self.fired: Counter = Counter()
        #: how often each point's action actually executed
        self.triggered: Counter = Counter()

    # -- scripting ---------------------------------------------------------

    def inject(
        self,
        point: str,
        action: Callable[..., None],
        times: Optional[int] = None,
        after: int = 0,
    ) -> None:
        """Run ``action(**ctx)`` when ``point`` fires.

        ``after`` skips that many firings first; ``times`` limits how
        many firings execute the action (None = every one).  Multiple
        injections on one point run in registration order.
        """
        with self._lock:
            self._actions.setdefault(point, []).append(
                {"action": action, "times": times, "skip": after}
            )

    def delay(
        self,
        point: str,
        seconds: float,
        times: Optional[int] = None,
        after: int = 0,
    ) -> None:
        """Stall ``point`` for ``seconds`` (fsync delay, stalled read,
        scheduler stall — the stall family of faults)."""
        self.inject(point, lambda **ctx: time.sleep(seconds), times, after)

    def fail(
        self,
        point: str,
        exc_factory: Callable[[], BaseException],
        times: Optional[int] = None,
        after: int = 0,
    ) -> None:
        """Raise ``exc_factory()`` at ``point`` (connection drops, disk
        errors)."""

        def action(**ctx):
            raise exc_factory()

        self.inject(point, action, times, after)

    def drop_connection(
        self, point: str, times: Optional[int] = None, after: int = 0
    ) -> None:
        """Sever the client's socket when ``point`` fires."""
        self.fail(point, DropConnection, times, after)

    def clear(self, point: Optional[str] = None) -> None:
        with self._lock:
            if point is None:
                self._actions.clear()
            else:
                self._actions.pop(point, None)

    # -- firing ------------------------------------------------------------

    def fire(self, point: str, **ctx) -> None:
        """The hook call sites' entry point: run any scripted actions.

        Exceptions raised by actions propagate to the call site — that
        is the injection.  Actions run *outside* the registry lock, so
        a stalling action cannot deadlock a concurrent ``fire``.
        """
        runnable = []
        with self._lock:
            self.fired[point] += 1
            entries = self._actions.get(point, ())
            for entry in entries:
                if entry["skip"] > 0:
                    entry["skip"] -= 1
                    continue
                if entry["times"] is not None:
                    if entry["times"] <= 0:
                        continue
                    entry["times"] -= 1
                runnable.append(entry["action"])
            if runnable:
                self.triggered[point] += 1
        for action in runnable:
            action(**ctx)

    # -- wiring ------------------------------------------------------------

    def install(self, tintin) -> None:
        """Thread this injector through an engine's commit path: the
        scheduler's window/validate points and the durability
        manager's append/fsync points.  (The network server takes the
        injector via its constructor and wires its own points.)"""
        tintin.sessions.scheduler.fault_hook = self.fire
        if tintin.durability is not None:
            tintin.durability.fault_hook = self.fire
