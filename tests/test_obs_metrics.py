"""The metrics layer: counters, gauges, histograms, stats blocks and
the Prometheus text rendering of the registry."""

import re
import threading

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, StatsBlock
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    escape_label_value,
    format_value,
)

SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9.e+-]+(Inf)?$'
)


def parse_prometheus(text: str) -> dict:
    """Parse text exposition into {metric_name: {label_text: value}};
    raises on any malformed line (the 'does Prometheus parse it' check).

    Also enforces the format's grouping rule: every line of one metric
    family (its HELP, its one TYPE, its samples — a histogram's
    ``_bucket``/``_sum``/``_count`` included) forms one contiguous
    group, so a family split into several groups or typed twice is
    rejected."""
    samples: dict = {}
    types: dict = {}
    finished: set = set()
    current = None

    def enter(family: str) -> None:
        nonlocal current
        if family != current:
            assert family not in finished, f"family {family} is split"
            if current is not None:
                finished.add(current)
            current = family

    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            enter(line.split(" ", 3)[2])
            continue
        if line.startswith("# TYPE "):
            _, _, name, mtype = line.split(" ", 3)
            assert mtype in ("counter", "gauge", "histogram"), line
            assert name not in types, f"family {name} is typed twice"
            enter(name)
            types[name] = mtype
        else:
            assert SAMPLE_LINE.match(line), f"malformed sample: {line!r}"
            body, value = line.rsplit(" ", 1)
            if "{" in body:
                name, labels = body.split("{", 1)
                labels = "{" + labels
            else:
                name, labels = body, ""
            family = name
            for suffix in ("_bucket", "_sum", "_count"):
                base = name[: -len(suffix)]
                if name.endswith(suffix) and types.get(base) == "histogram":
                    family = base
            enter(family)
            samples.setdefault(name, {})[labels] = float(value)
    return samples


class TestCounter:
    def test_unlabelled_counter_counts(self):
        c = Counter("hits", "help here")
        c.inc()
        c.inc(4)
        assert c.value() == 5

    def test_labelled_series_are_independent(self):
        c = Counter("reqs", label_names=("type",))
        c.inc(type="query")
        c.inc(2, type="commit")
        assert c.value(type="query") == 1
        assert c.value(type="commit") == 2

    def test_label_mismatch_is_an_error(self):
        c = Counter("reqs", label_names=("type",))
        with pytest.raises(ValueError):
            c.inc(verdict="x")
        with pytest.raises(ValueError):
            c.inc()

    def test_collect_renders_help_type_and_sorted_series(self):
        c = Counter("reqs", "requests", label_names=("type",))
        c.inc(type="b")
        c.inc(type="a")
        lines = list(c.collect())
        assert lines[0] == "# HELP reqs requests"
        assert lines[1] == "# TYPE reqs counter"
        assert lines[2] == 'reqs{type="a"} 1'
        assert lines[3] == 'reqs{type="b"} 1'

    def test_unlabelled_counter_renders_zero_before_first_inc(self):
        lines = list(Counter("idle").collect())
        assert lines[-1] == "idle 0"


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value() == 12

    def test_callback_gauge_reads_live_value(self):
        box = {"n": 3}
        g = Gauge("live", fn=lambda: box["n"])
        assert g.value() == 3
        box["n"] = 9
        assert list(g.collect())[-1] == "live 9"

    def test_callback_gauge_rejects_set(self):
        g = Gauge("live", fn=lambda: 1)
        with pytest.raises(ValueError):
            g.set(2)

    def test_failing_callback_drops_the_sample_not_the_page(self):
        g = Gauge("broken", fn=lambda: 1 / 0)
        assert list(g.collect()) == []


class TestHistogram:
    def test_observe_count_and_sum(self):
        h = Histogram("lat")
        h.observe(0.003)
        h.observe(0.004)
        assert h.count() == 2
        assert h.sum() == pytest.approx(0.007)

    def test_buckets_are_cumulative_and_end_at_inf(self):
        h = Histogram("lat", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        lines = list(h.collect())
        assert 'lat_bucket{le="0.01"} 1' in lines
        assert 'lat_bucket{le="0.1"} 2' in lines
        assert 'lat_bucket{le="1"} 3' in lines
        assert 'lat_bucket{le="+Inf"} 4' in lines
        assert "lat_count 4" in lines

    def test_labelled_histogram_keeps_series_apart(self):
        h = Histogram("lat", label_names=("verdict",))
        h.observe(0.001, verdict="committed")
        h.observe(0.002, verdict="committed")
        h.observe(0.5, verdict="violation")
        assert h.count(verdict="committed") == 2
        assert h.count(verdict="violation") == 1
        text = "\n".join(h.collect())
        assert 'lat_bucket{verdict="committed",le="+Inf"} 2' in text

    def test_quantile_interpolates_within_a_bucket(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            h.observe(1.5)
        q = h.quantile(0.5)
        assert 1.0 <= q <= 2.0

    def test_quantile_of_empty_series_is_none(self):
        assert Histogram("lat").quantile(0.99) is None

    def test_concurrent_observes_lose_nothing(self):
        h = Histogram("lat")

        def worker():
            for _ in range(1000):
                h.observe(0.01)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count() == 8000


class _DemoStats(StatsBlock):
    COUNTERS = ("commits", "aborts")
    ACCUMULATORS = ("busy_seconds",)
    HIGH_WATER = ("max_depth",)
    PREFIX = "demo"
    HELP = {"commits": "Commits completed"}


class TestStatsBlock:
    def test_attribute_reads(self):
        s = _DemoStats()
        assert s.commits == 0
        s.bump(commits=2, busy_seconds=0.5)
        assert s.commits == 2
        assert s.busy_seconds == pytest.approx(0.5)

    def test_bump_and_record_max(self):
        s = _DemoStats()
        s.bump(commits=1, aborts=2)
        s.record_max(max_depth=7)
        s.record_max(max_depth=3)  # lower: ignored
        snap = s.snapshot()
        assert snap == {
            "commits": 1,
            "aborts": 2,
            "busy_seconds": 0.0,
            "max_depth": 7,
        }

    def test_unknown_field_raises(self):
        s = _DemoStats()
        with pytest.raises(AttributeError):
            s.bump(nope=1)
        with pytest.raises(AttributeError):
            s.nope

    def test_assigning_a_field_raises(self):
        """A field changes only through bump/record_max: an assignment
        would shadow it while snapshot() and collect() kept reporting
        the old value."""
        s = _DemoStats()
        with pytest.raises(AttributeError, match="bump"):
            s.commits = 1
        with pytest.raises(AttributeError, match="bump"):
            s.busy_seconds += 0.5
        assert s.snapshot()["commits"] == 0
        s.note = "not a field"  # other attributes stay settable
        assert s.note == "not a field"

    def test_collect_prefixes_and_types(self):
        s = _DemoStats()
        s.bump(commits=3)
        s.record_max(max_depth=5)
        lines = list(s.collect())
        assert "# HELP demo_commits Commits completed" in lines
        assert "# TYPE demo_commits counter" in lines
        assert "demo_commits 3" in lines
        assert "# TYPE demo_max_depth gauge" in lines
        assert "demo_max_depth 5" in lines


class TestRegistry:
    def test_render_joins_collectors_with_trailing_newline(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "A").inc()
        reg.gauge("b_now", fn=lambda: 2)
        page = reg.render()
        assert page.endswith("\n")
        assert "a_total 1" in page
        assert "b_now 2" in page

    def test_rendered_page_parses_as_prometheus_text(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "latency", label_names=("type",))
        h.observe(0.01, type="commit")
        reg.register(_DemoStats())
        samples = parse_prometheus(reg.render())
        assert 'lat_seconds_bucket' in samples
        assert '{type="commit",le="+Inf"}' in samples["lat_seconds_bucket"]
        assert samples["demo_commits"][""] == 0

    def test_snapshot_keys_blocks_by_prefix(self):
        class _EngineStats(_DemoStats):
            PREFIX = "tintin_engine"

        reg = MetricsRegistry()
        reg.gauge("b_now", fn=lambda: 2)  # not a block: not in the view
        engine = reg.register(_EngineStats())
        engine.bump(commits=1)
        reg.register(_DemoStats())
        view = reg.snapshot()
        assert set(view) == {"engine", "demo"}
        assert view["engine"]["commits"] == 1
        reg.unregister(engine)
        assert set(reg.snapshot()) == {"demo"}
        assert "tintin_engine_commits" not in reg.render()

    @pytest.mark.parametrize(
        "page",
        [
            'x{s="0"} 1\ny{s="0"} 1\nx{s="1"} 2\n',
            "# TYPE x counter\nx 1\n# TYPE x counter\nx 2\n",
        ],
        ids=["split", "typed-twice"],
    )
    def test_parser_rejects_a_family_in_two_groups(self, page):
        with pytest.raises(AssertionError):
            parse_prometheus(page)

    def test_default_buckets_cover_sub_ms_to_ten_seconds(self):
        assert DEFAULT_BUCKETS[0] <= 0.001
        assert DEFAULT_BUCKETS[-1] >= 10.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestFormatting:
    def test_escape_label_value(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_format_value_drops_integral_float_suffix(self):
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"
