"""Spans, tracers and the per-commit observation context.

A *span* is one timed stage of one commit (or request): it has a name,
a trace id shared by every span of the same commit, its own span id, an
optional parent span id, wall-clock start/end times and a free-form
attribute dict.  Spans are emitted to a :class:`Tracer` when they
*finish* — parents therefore arrive after their children, which is why
span ids are allocated eagerly (a child can reference its parent's id
before the parent span is emitted).

The engine is multi-threaded and a single commit hops threads several
times (network thread → admission worker → scheduler leader), so
trace context is carried explicitly in a :class:`CommitObs` object
handed along the call chain — never in thread-locals.

Cost model: when no tracer is installed and no slow-commit threshold is
set, no ``CommitObs`` is allocated at all and every stage point in the
hot path reduces to one ``obs is None`` test.  With a ``CommitObs``
present but the tracer disabled (slow-log only), stages append one
tuple to a list; spans are materialized only for enabled tracers.
"""

from __future__ import annotations

import io
import itertools
import json
import logging
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "RecordingTracer",
    "JsonlTracer",
    "CommitObs",
    "new_trace_id",
    "new_span_id",
    "SLOW_LOG",
]

#: Structured slow-commit lines go here; attach a handler (or configure
#: the root logger) to see them.  Nothing in the library ever prints to
#: stdout.
SLOW_LOG = logging.getLogger("repro.obs.slowlog")

_span_ids = itertools.count(1)


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (random, collision-unlikely)."""
    return uuid.uuid4().hex[:16]


def new_span_id() -> int:
    """A fresh process-unique span id (monotonic int)."""
    return next(_span_ids)


@dataclass(frozen=True)
class Span:
    """One finished, timed stage of a trace."""

    name: str
    trace_id: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }
        if self.parent_id is not None:
            d["parent_id"] = self.parent_id
        if self.attrs:
            d["attrs"] = self.attrs
        return d


class Tracer:
    """Receives finished spans.  Subclass and override :meth:`emit`.

    ``enabled`` is checked at every emission point; a disabled tracer
    (the default :class:`NullTracer`) costs one attribute read.
    Tracers may receive spans from several threads concurrently and
    must synchronize internally.
    """

    enabled: bool = True

    def emit(self, span: Span) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def emit_span(
        self,
        name: str,
        trace_id: str,
        start: float,
        end: float,
        *,
        parent_id: Optional[int] = None,
        span_id: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """Build and emit a span in one call; returns its span id."""
        sid = span_id if span_id is not None else new_span_id()
        self.emit(
            Span(
                name=name,
                trace_id=trace_id,
                span_id=sid,
                parent_id=parent_id,
                start=start,
                end=end,
                attrs=attrs,
            )
        )
        return sid


class NullTracer(Tracer):
    """The default tracer: drops everything, ``enabled`` is False."""

    enabled = False

    def emit(self, span: Span) -> None:
        pass


class RecordingTracer(Tracer):
    """Keeps spans in memory; for tests and interactive inspection."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []

    def emit(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def spans(self, trace_id: Optional[str] = None) -> List[Span]:
        with self._lock:
            spans = list(self._spans)
        if trace_id is not None:
            spans = [s for s in spans if s.trace_id == trace_id]
        return spans

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()


class JsonlTracer(Tracer):
    """Writes one JSON line per span, for offline analysis.

    Accepts a path (opened append-mode) or any writable text file
    object.  Lines are written under a lock so concurrent emitters
    never interleave.
    """

    def __init__(self, path_or_file: Any) -> None:
        self._lock = threading.Lock()
        if isinstance(path_or_file, (str, bytes)) or hasattr(
            path_or_file, "__fspath__"
        ):
            self._fh: io.TextIOBase = open(path_or_file, "a", encoding="utf-8")
            self._owned = True
        else:
            self._fh = path_or_file
            self._owned = False

    def emit(self, span: Span) -> None:
        line = json.dumps(span.to_dict(), sort_keys=True, default=str)
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._owned:
                self._fh.close()


class CommitObs:
    """One commit's observation context, threaded across the pipeline.

    Collects ``(name, start, end)`` stage tuples for the slow-commit
    log and emits a span per stage when the tracer is enabled.  The
    root span (named ``commit``) is emitted by :meth:`finish` with the
    commit verdict; its span id is pre-allocated so stage spans can
    parent to it before it exists.

    **Clock discipline**: every instant handed to :meth:`record` (and
    taken internally by :meth:`stage`/:meth:`finish`) is a
    ``time.monotonic()`` reading — producers along the commit path
    never touch the wall clock, so an NTP step mid-commit cannot
    produce negative durations or mis-ordered stages.  Spans surfaced
    to users still carry wall-clock (epoch) timestamps: this class is
    the single monotonic→wall conversion point, applying the fixed
    offset captured at construction, so one commit's spans share one
    consistent wall mapping.

    One ``CommitObs`` belongs to one commit and is touched by at most
    one thread at a time (ownership passes along with the commit
    through the pipeline), so stage recording is unsynchronized.
    """

    __slots__ = (
        "tracer",
        "trace_id",
        "root_id",
        "stages",
        "slow_threshold",
        "t0",
        "m0",
        "_offset",
        "_on_finish",
        "_finished",
    )

    def __init__(
        self,
        tracer: Tracer,
        trace_id: Optional[str] = None,
        *,
        slow_threshold: Optional[float] = None,
        start: Optional[float] = None,
    ) -> None:
        self.tracer = tracer
        self.trace_id = trace_id if trace_id else new_trace_id()
        self.root_id = new_span_id()
        self.stages: List[Tuple[str, float, float]] = []
        self.slow_threshold = slow_threshold
        now_wall = time.time()
        now_mono = time.monotonic()
        #: the one wall-clock sample this commit ever takes; every
        #: emitted span timestamp is a monotonic instant shifted by it
        self._offset = now_wall - now_mono
        #: monotonic commit start (``start`` lets a caller backdate to
        #: an earlier monotonic reading, e.g. frame-arrival time)
        self.m0 = start if start is not None else now_mono
        #: wall-clock commit start, for user-surfaced span timestamps
        self.t0 = self.m0 + self._offset
        self._on_finish: List[Callable[["CommitObs", str], None]] = []
        self._finished = False

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: Optional[int] = None,
        span_id: Optional[int] = None,
        **attrs: Any,
    ) -> Optional[int]:
        """Record one finished stage (monotonic instants); returns the
        span id if emitted."""
        self.stages.append((name, start, end))
        if self.tracer.enabled:
            offset = self._offset
            return self.tracer.emit_span(
                name,
                self.trace_id,
                start + offset,
                end + offset,
                parent_id=parent if parent is not None else self.root_id,
                span_id=span_id,
                **attrs,
            )
        return None

    @contextmanager
    def stage(
        self, name: str, *, parent: Optional[int] = None, **attrs: Any
    ) -> Iterator[None]:
        start = time.monotonic()
        try:
            yield
        finally:
            self.record(name, start, time.monotonic(), parent=parent, **attrs)

    def on_finish(self, fn: Callable[["CommitObs", str], None]) -> None:
        """Run ``fn(obs, verdict)`` just before the root span is emitted."""
        self._on_finish.append(fn)

    def finish(self, verdict: str, **attrs: Any) -> float:
        """Close the trace: emit the root span, maybe log slow commits.

        Returns the end-to-end duration in seconds.  Idempotent — only
        the first call has any effect (re-finishing returns elapsed
        time without emitting again).
        """
        end = time.monotonic()
        total = end - self.m0
        if self._finished:
            return total
        self._finished = True
        for fn in self._on_finish:
            fn(self, verdict)
        if self.tracer.enabled:
            self.tracer.emit_span(
                "commit",
                self.trace_id,
                self.t0,
                end + self._offset,
                span_id=self.root_id,
                verdict=verdict,
                **attrs,
            )
        if self.slow_threshold is not None and total >= self.slow_threshold:
            SLOW_LOG.warning(
                "slow commit trace=%s total=%.6fs verdict=%s stages=%s",
                self.trace_id,
                total,
                verdict,
                "; ".join(
                    "%s=%.6f" % (name, e - s) for name, s, e in self.stages
                ),
            )
        return total
