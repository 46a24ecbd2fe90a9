"""Counters, gauges, fixed-bucket histograms, Prometheus rendering.

The registry is deliberately tiny: a *collector* is anything with a
``collect() -> Iterable[str]`` method yielding Prometheus text
exposition lines.  :class:`Counter`, :class:`Gauge` and
:class:`Histogram` are the built-in collectors; :class:`StatsBlock` is
the shared base for the engine's bump-under-lock stats (plan cache /
scheduler / WAL / durability / router / admission / server), which
read as attributes (``stats.commits``), copy out consistently
(``stats.snapshot()``) and render into ``/metrics``.

Histograms use fixed bucket boundaries (cumulative ``le`` counts, as
Prometheus expects) so p50/p95/p99 are derivable client-side; the
:meth:`Histogram.quantile` helper interpolates them locally for tests
and reports.
"""

from __future__ import annotations

import logging
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "StatsBlock",
    "DEFAULT_BUCKETS",
    "escape_label_value",
    "format_value",
]

#: Latency buckets in seconds: 0.5ms .. 10s, roughly log-spaced.  Wide
#: enough for both in-process sub-millisecond commits and multi-second
#: congested tails.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


#: Collection-time failures (a gauge callback raising mid-render) are
#: logged here rather than silently dropping the metric: the /metrics
#: page must still render, but a gauge that vanishes without a trace
#: is exactly the kind of blind spot the page exists to prevent.
log = logging.getLogger("repro.obs")


def escape_label_value(value: Any) -> str:
    """Escape a label value per the Prometheus text format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_value(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _labels_text(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '%s="%s"' % (k, escape_label_value(v)) for k, v in labels
    )
    return "{%s}" % inner


class Counter:
    """A monotonically increasing value, optionally labelled.

    ``inc(value, **labels)`` bumps the series for those label values;
    an unlabelled counter is the single series with no labels.
    """

    def __init__(
        self,
        name: str,
        help_text: str = "",
        label_names: Tuple[str, ...] = (),
    ) -> None:
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, ...], float] = {}

    def _key(self, labels: Dict[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                "counter %s expects labels %r, got %r"
                % (self.name, self.label_names, tuple(labels))
            )
        return tuple(str(labels[n]) for n in self.label_names)

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._series.get(key, 0.0)

    def collect(self) -> Iterator[str]:
        with self._lock:
            series = dict(self._series)
        if self.help_text:
            yield "# HELP %s %s" % (self.name, self.help_text)
        yield "# TYPE %s counter" % self.name
        if not series and not self.label_names:
            series = {(): 0.0}
        for key in sorted(series):
            labels = tuple(zip(self.label_names, key))
            yield "%s%s %s" % (
                self.name,
                _labels_text(labels),
                format_value(series[key]),
            )


class Gauge:
    """A point-in-time value: settable, or computed by a callback.

    With ``fn`` given, the gauge is read-only and evaluated at collect
    time — handy for exposing live depths (queue length, open
    connections) without keeping a shadow counter in sync.
    """

    def __init__(
        self,
        name: str,
        help_text: str = "",
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.help_text = help_text
        self._fn = fn
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError("gauge %s is callback-driven" % self.name)
        with self._lock:
            self._value = float(value)

    def inc(self, value: float = 1.0) -> None:
        if self._fn is not None:
            raise ValueError("gauge %s is callback-driven" % self.name)
        with self._lock:
            self._value += value

    def dec(self, value: float = 1.0) -> None:
        self.inc(-value)

    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        with self._lock:
            return self._value

    def collect(self) -> Iterator[str]:
        try:
            value = self.value()
        except Exception:
            # the rest of the /metrics page must still render, but a
            # dying callback means this gauge is silently absent from
            # it — say so
            log.warning(
                "gauge %s callback failed during collection",
                self.name,
                exc_info=True,
            )
            return
        if self.help_text:
            yield "# HELP %s %s" % (self.name, self.help_text)
        yield "# TYPE %s gauge" % self.name
        yield "%s %s" % (self.name, format_value(value))


class Histogram:
    """Fixed-bucket latency histogram with optional labels.

    Each distinct label-value combination keeps its own bucket array,
    sum and count.  Rendering follows the Prometheus convention:
    cumulative ``_bucket{le=...}`` series ending at ``le="+Inf"``,
    plus ``_sum`` and ``_count``.
    """

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        label_names: Tuple[str, ...] = (),
    ) -> None:
        self.name = name
        self.help_text = help_text
        self.buckets = tuple(sorted(buckets))
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        # key -> (per-bucket counts list, sum, count)
        self._series: Dict[Tuple[str, ...], List[Any]] = {}

    def _key(self, labels: Dict[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                "histogram %s expects labels %r, got %r"
                % (self.name, self.label_names, tuple(labels))
            )
        return tuple(str(labels[n]) for n in self.label_names)

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        idx = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = [[0] * (len(self.buckets) + 1), 0.0, 0]
                self._series[key] = series
            series[0][idx] += 1
            series[1] += value
            series[2] += 1

    def count(self, **labels: Any) -> int:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return series[2] if series else 0

    def sum(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return series[1] if series else 0.0

    def quantile(self, q: float, **labels: Any) -> Optional[float]:
        """Approximate the q-quantile by linear interpolation within
        the bucket containing the target rank (Prometheus-style)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None or series[2] == 0:
                return None
            counts = list(series[0])
            total = series[2]
        rank = q * total
        cumulative = 0
        for i, c in enumerate(counts):
            prev = cumulative
            cumulative += c
            if cumulative >= rank and c > 0:
                hi = (
                    self.buckets[i]
                    if i < len(self.buckets)
                    else self.buckets[-1]
                )
                lo = self.buckets[i - 1] if i > 0 else 0.0
                frac = (rank - prev) / c
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
        return self.buckets[-1]

    def collect(self) -> Iterator[str]:
        with self._lock:
            snap = {
                key: (list(series[0]), series[1], series[2])
                for key, series in self._series.items()
            }
        if self.help_text:
            yield "# HELP %s %s" % (self.name, self.help_text)
        yield "# TYPE %s histogram" % self.name
        if not snap and not self.label_names:
            snap = {(): ([0] * (len(self.buckets) + 1), 0.0, 0)}
        for key in sorted(snap):
            counts, total_sum, total_count = snap[key]
            base = tuple(zip(self.label_names, key))
            cumulative = 0
            for bound, c in zip(self.buckets, counts):
                cumulative += c
                labels = base + (("le", format_value(bound)),)
                yield "%s_bucket%s %d" % (
                    self.name,
                    _labels_text(labels),
                    cumulative,
                )
            labels = base + (("le", "+Inf"),)
            yield "%s_bucket%s %d" % (
                self.name,
                _labels_text(labels),
                total_count,
            )
            yield "%s_sum%s %s" % (
                self.name,
                _labels_text(base),
                format_value(total_sum),
            )
            yield "%s_count%s %d" % (
                self.name,
                _labels_text(base),
                total_count,
            )


class _Field:
    """One :class:`StatsBlock` field as an attribute: a read takes the
    block's lock, an assignment raises."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, block: Any, owner: Any = None) -> Any:
        if block is None:
            return self
        with block._lock:
            return block._values[self.name]

    def __set__(self, block: Any, value: Any) -> None:
        raise AttributeError(
            "%s.%s is a stats field: change it with bump() or record_max()"
            % (type(block).__name__, self.name)
        )


class StatsBlock:
    """Base for the engine's bump-under-lock counter blocks.

    Subclasses declare their fields in class tuples:

    * ``COUNTERS`` — monotonically increasing ints (``bump()``-able)
    * ``ACCUMULATORS`` — monotonically increasing floats (seconds,
      bytes), also ``bump()``-able; rendered as Prometheus counters
    * ``HIGH_WATER`` — maxima updated via :meth:`record_max`; rendered
      as gauges

    Fields read as attributes (``stats.commits``) but change only
    through :meth:`bump` and :meth:`record_max`: assigning one raises.
    ``PREFIX`` namespaces the Prometheus sample names
    (``<PREFIX>_<field>``) and, without its ``tintin_``, names the
    block's section in :meth:`MetricsRegistry.snapshot`.
    """

    COUNTERS: Tuple[str, ...] = ()
    ACCUMULATORS: Tuple[str, ...] = ()
    HIGH_WATER: Tuple[str, ...] = ()
    PREFIX: str = "tintin"
    HELP: Dict[str, str] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        for name in (*cls.COUNTERS, *cls.ACCUMULATORS, *cls.HIGH_WATER):
            setattr(cls, name, _Field(name))

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, float] = {
            **dict.fromkeys(self.COUNTERS, 0),
            **dict.fromkeys(self.ACCUMULATORS, 0.0),
            **dict.fromkeys(self.HIGH_WATER, 0),
        }

    def bump(self, **deltas: float) -> None:
        """Atomically add the given deltas to their fields."""
        values = self._values
        with self._lock:
            try:
                for name, delta in deltas.items():
                    values[name] += delta
            except KeyError as exc:
                raise AttributeError(
                    "%s has no field %r" % (type(self).__name__, exc.args[0])
                ) from None

    def record_max(self, **candidates: float) -> None:
        """Raise high-water fields to the given values if larger."""
        values = self._values
        with self._lock:
            for name, candidate in candidates.items():
                if candidate > values[name]:
                    values[name] = candidate

    def snapshot(self) -> Dict[str, float]:
        """A consistent point-in-time copy of every field."""
        with self._lock:
            return dict(self._values)

    def collect(self) -> Iterator[str]:
        for name, value in self.snapshot().items():
            metric = "%s_%s" % (self.PREFIX, name)
            help_text = self.HELP.get(name)
            if help_text:
                yield "# HELP %s %s" % (metric, help_text)
            kind = "gauge" if name in self.HIGH_WATER else "counter"
            yield "# TYPE %s %s" % (metric, kind)
            yield "%s %s" % (metric, format_value(float(value)))


class MetricsRegistry:
    """Holds collectors; renders them as one Prometheus text page, and
    its :class:`StatsBlock` collectors as one JSON view.

    Each component registers its blocks once, where it is created or
    attached (``Tintin.registry`` holds the engine's); a surface only
    renders.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._collectors: List[Any] = []

    def register(self, collector: Any) -> Any:
        """Add any object with ``collect() -> Iterable[str]``."""
        with self._lock:
            self._collectors.append(collector)
        return collector

    def unregister(self, collector: Any) -> None:
        """Drop a collector whose owner was detached."""
        with self._lock:
            self._collectors.remove(collector)

    def counter(
        self,
        name: str,
        help_text: str = "",
        label_names: Tuple[str, ...] = (),
    ) -> Counter:
        return self.register(Counter(name, help_text, label_names))

    def gauge(
        self,
        name: str,
        help_text: str = "",
        fn: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        return self.register(Gauge(name, help_text, fn))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        label_names: Tuple[str, ...] = (),
    ) -> Histogram:
        return self.register(Histogram(name, help_text, buckets, label_names))

    def render(self) -> str:
        """The full exposition page, trailing newline included."""
        with self._lock:
            collectors = list(self._collectors)
        lines: List[str] = []
        for collector in collectors:
            lines.extend(collector.collect())
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Every registered block's :meth:`StatsBlock.snapshot`, keyed
        by its ``PREFIX`` without the ``tintin_`` (``scheduler``,
        ``wal``, ``plan_cache``, ...)."""
        with self._lock:
            collectors = list(self._collectors)
        return {
            block.PREFIX.removeprefix("tintin_"): block.snapshot()
            for block in collectors
            if isinstance(block, StatsBlock)
        }
