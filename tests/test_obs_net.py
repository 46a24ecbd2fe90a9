"""Observability over the wire: trace ids surviving the round trip,
the Prometheus /metrics page, and the JSON metrics surfaces."""

import json
import re
import socket

import pytest

from repro.core import Tintin
from repro.minidb import Database
from repro.net import TintinClient
from repro.obs import RecordingTracer

SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9.e+-]+(Inf)?$'
)


def parse_prometheus(text: str) -> dict:
    """{name: {label_text: value}}; asserts every line is well-formed."""
    samples: dict = {}
    for line in text.splitlines():
        if not line or line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            assert parts[3] in ("counter", "gauge", "histogram"), line
            continue
        assert SAMPLE_LINE.match(line), f"malformed sample: {line!r}"
        body, value = line.rsplit(" ", 1)
        if "{" in body:
            name, labels = body.split("{", 1)
            labels = "{" + labels
        else:
            name, labels = body, ""
        samples.setdefault(name, {})[labels] = float(value)
    return samples


def http_get(address, path):
    """One raw HTTP/1.0 GET; returns (status_line, headers, body)."""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        key, _, val = line.partition(": ")
        headers[key.lower()] = val
    return lines[0], headers, body


def make_engine():
    db = Database("obsnet")
    db.execute("CREATE TABLE items (id INT NOT NULL, qty INT)")
    tintin = Tintin(db)
    tintin.install()
    tintin.add_assertion(
        "CREATE ASSERTION positiveQty CHECK (NOT EXISTS ("
        "SELECT * FROM items AS i WHERE i.qty < 0))"
    )
    return tintin


@pytest.fixture
def traced_server():
    tintin = make_engine()
    tracer = RecordingTracer()
    server = tintin.listen(tracer=tracer)
    yield server, tracer
    if not server._stopped.is_set():
        server.shutdown(drain_timeout=5)


@pytest.fixture
def plain_server():
    server = make_engine().listen()
    yield server
    if not server._stopped.is_set():
        server.shutdown(drain_timeout=5)


class TestTraceRoundTrip:
    def test_client_chosen_trace_id_survives_the_wire(self, traced_server):
        server, tracer = traced_server
        trace_id = "feedc0de12345678"
        with TintinClient(*server.address) as client:
            client.insert("items", [(1, 5)])
            verdict = client.commit(trace=trace_id)
        assert verdict["committed"]
        assert verdict["trace_id"] == trace_id
        assert client.last_trace_id == trace_id
        spans = tracer.spans(trace_id)
        assert spans, "server recorded no spans under the client's id"
        names = {s.name for s in spans}
        assert {"commit", "admission.wait", "queue.wait", "validate",
                "apply"} <= names

    def test_server_allocates_an_id_for_trace_true(self, traced_server):
        server, tracer = traced_server
        with TintinClient(*server.address) as client:
            client.insert("items", [(2, 5)])
            verdict = client.commit(trace=True)
        trace_id = verdict["trace_id"]
        assert re.fullmatch(r"[0-9a-f]{16}", trace_id)
        assert tracer.spans(trace_id)

    def test_remote_trace_reconstructs_the_full_stage_breakdown(
        self, traced_server
    ):
        server, tracer = traced_server
        with TintinClient(*server.address) as client:
            client.insert("items", [(3, 5)])
            verdict = client.commit(trace=True)
        spans = tracer.spans(verdict["trace_id"])
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1
        root = roots[0]
        assert root.attrs["verdict"] == "committed"
        ids = {s.span_id for s in spans}
        for s in spans:
            if s.parent_id is not None:
                assert s.parent_id in ids
        # direct stages sum to ~the end-to-end commit latency
        children = [s for s in spans if s.parent_id == root.span_id]
        covered = sum(s.duration for s in children)
        assert covered <= root.duration + 0.05
        assert root.duration - covered < 0.25

    def test_untraced_commit_on_untraced_server_has_no_trace_id(
        self, plain_server
    ):
        with TintinClient(*plain_server.address) as client:
            client.insert("items", [(4, 5)])
            verdict = client.commit()
        assert "trace_id" not in verdict


class TestPrometheusMetrics:
    def test_metrics_page_parses_and_has_commit_histogram(
        self, plain_server
    ):
        with TintinClient(*plain_server.address) as client:
            client.insert("items", [(1, 5)])
            assert client.commit()["committed"]
        status, headers, body = http_get(plain_server.address, "/metrics")
        assert "200" in status
        assert headers["content-type"].startswith("text/plain")
        samples = parse_prometheus(body.decode())
        buckets = samples["tintin_commit_seconds_bucket"]
        committed = {
            k: v for k, v in buckets.items() if 'verdict="committed"' in k
        }
        assert committed, "no commit-latency series for the committed verdict"
        inf = [v for k, v in committed.items() if 'le="+Inf"' in k]
        assert inf == [1.0]
        assert samples["tintin_commit_seconds_count"][
            '{verdict="committed"}'
        ] == 1.0

    def test_metrics_page_covers_every_subsystem(self, plain_server):
        with TintinClient(*plain_server.address) as client:
            client.insert("items", [(1, 5)])
            client.commit()
            client.query("SELECT * FROM items")
            # scrape while the session is still open so the live
            # gauges have something to show
            _, _, body = http_get(plain_server.address, "/metrics")
        samples = parse_prometheus(body.decode())
        assert samples["tintin_scheduler_commits"][""] >= 1
        assert samples["tintin_admission_completed"][""] >= 1
        assert samples["tintin_server_requests_total"][""] >= 1
        assert samples["tintin_sessions_active"][""] >= 1
        request_counts = samples["tintin_request_seconds_count"]
        assert request_counts['{type="commit"}'] == 1.0
        assert request_counts['{type="query"}'] >= 1.0

    def test_durable_engine_renders_wal_and_durability_blocks(self, tmp_path):
        """Both durability-layer stat blocks ride one collector — and
        the rare named form is visible: a bound engine writes none."""
        tintin = Tintin.open(str(tmp_path / "state"), durability="commit")
        tintin.db.execute("CREATE TABLE items (id INT NOT NULL, qty INT)")
        tintin.install()
        server = tintin.listen()
        try:
            with TintinClient(*server.address) as client:
                client.insert("items", [(1, 5)])
                assert client.commit()["committed"]
            _, _, body = http_get(server.address, "/metrics")
        finally:
            server.shutdown(drain_timeout=5)
            tintin.close(checkpoint=False)
        samples = parse_prometheus(body.decode())
        assert samples["tintin_wal_fsyncs"][""] >= 1
        assert samples["tintin_durability_logged_batches"][""] == 1
        assert samples["tintin_durability_logged_ddl"][""] >= 2
        assert samples["tintin_durability_named_records"][""] == 0

    def test_rejected_commit_lands_in_the_violation_series(
        self, plain_server
    ):
        with TintinClient(*plain_server.address) as client:
            client.insert("items", [(1, -5)])
            verdict = client.commit()
        assert not verdict["committed"]
        _, _, body = http_get(plain_server.address, "/metrics")
        samples = parse_prometheus(body.decode())
        assert samples["tintin_commit_seconds_count"][
            '{verdict="violation"}'
        ] == 1.0

    def test_json_metrics_moved_to_metrics_json(self, plain_server):
        status, headers, body = http_get(
            plain_server.address, "/metrics.json"
        )
        assert "200" in status
        assert headers["content-type"].startswith("application/json")
        payload = json.loads(body)
        assert {"server", "admission", "scheduler", "sessions"} <= set(
            payload
        )

    def test_binary_metrics_frame_still_answers_json(self, plain_server):
        with TintinClient(*plain_server.address) as client:
            payload = client.metrics()
        assert payload["server"]["connections_open"] >= 1
        assert "scheduler" in payload


class TestSlowCommitConfig:
    def test_listen_forwards_slow_commit_threshold(self):
        tintin = make_engine()
        server = tintin.listen(slow_commit_seconds=2.5)
        try:
            assert tintin.slow_commit_seconds == 2.5
        finally:
            server.shutdown(drain_timeout=5)
