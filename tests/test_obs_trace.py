"""Commit-path tracing: span structure of one commit, well-formedness
under concurrent group commits, the slow-commit log, and the structural
zero-overhead guarantee of the disabled default."""

import io
import json
import logging
import threading

import pytest

from repro.core import Tintin
from repro.minidb import Database
from repro.obs import JsonlTracer, NullTracer, RecordingTracer
from repro.obs.trace import CommitObs, Span


def make_engine():
    db = Database("tracedemo")
    db.execute("CREATE TABLE items (id INT NOT NULL, qty INT)")
    tintin = Tintin(db)
    tintin.install()
    tintin.add_assertion(
        "CREATE ASSERTION positiveQty CHECK (NOT EXISTS ("
        "SELECT * FROM items AS i WHERE i.qty < 0))"
    )
    return tintin


def by_trace(spans):
    traces = {}
    for s in spans:
        traces.setdefault(s.trace_id, []).append(s)
    return traces


def assert_well_formed(trace_spans):
    """One root named 'commit'; every parent id resolves in-trace;
    every stage lies within the root's time bounds (small slack for
    clock reads on different threads)."""
    roots = [s for s in trace_spans if s.parent_id is None]
    assert len(roots) == 1
    root = roots[0]
    assert root.name == "commit"
    ids = {s.span_id for s in trace_spans}
    for s in trace_spans:
        if s.parent_id is not None:
            assert s.parent_id in ids, f"{s.name} orphaned"
        assert s.start >= root.start - 0.05
        assert s.end <= root.end + 0.05
    return root


class TestSingleCommitTrace:
    def test_stage_breakdown_reconstructs_and_sums_to_total(self):
        tintin = make_engine()
        tracer = RecordingTracer()
        tintin.set_tracer(tracer)
        session = tintin.create_session()
        session.insert("items", [(1, 5)])
        result = session.commit()
        assert result.committed
        traces = by_trace(tracer.spans())
        assert len(traces) == 1
        spans = next(iter(traces.values()))
        root = assert_well_formed(spans)
        assert root.attrs["verdict"] == "committed"
        names = {s.name for s in spans}
        assert {"queue.wait", "validate", "apply"} <= names
        assert any(n.startswith("check.") for n in names)
        # checks nest under the validate span, not the root
        validate = next(s for s in spans if s.name == "validate")
        for s in spans:
            if s.name.startswith("check."):
                assert s.parent_id == validate.span_id
        # direct children of the root account for ~all of the commit
        children = [s for s in spans if s.parent_id == root.span_id]
        covered = sum(s.duration for s in children)
        assert covered <= root.duration + 0.05
        assert root.duration - covered < 0.25

    def test_rejected_commit_carries_violation_verdict(self):
        tintin = make_engine()
        tracer = RecordingTracer()
        tintin.set_tracer(tracer)
        session = tintin.create_session()
        session.insert("items", [(1, -3)])
        result = session.commit()
        assert not result.committed
        root = assert_well_formed(tracer.spans())
        assert root.attrs["verdict"] == "violation"
        check = next(
            s for s in tracer.spans() if s.name.startswith("check.")
        )
        assert check.attrs["violations"] >= 1

    def test_each_commit_gets_its_own_trace_id(self):
        tintin = make_engine()
        tracer = RecordingTracer()
        tintin.set_tracer(tracer)
        for i in range(3):
            session = tintin.create_session()
            session.insert("items", [(i, 1)])
            session.commit()
        assert len({span.trace_id for span in tracer.spans()}) == 3


class TestConcurrentGroupCommits:
    def test_every_trace_stays_well_formed_under_concurrency(self):
        tintin = make_engine()
        tracer = RecordingTracer()
        tintin.set_tracer(tracer)
        n = 12
        barrier = threading.Barrier(n)
        results = []

        def worker(i):
            session = tintin.create_session()
            session.insert("items", [(100 + i, 1)])
            barrier.wait()
            results.append(session.commit())

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r.committed for r in results)
        traces = by_trace(tracer.spans())
        assert len(traces) == n
        for spans in traces.values():
            assert_well_formed(spans)
            # each member of a window validates on its own
            assert sum(s.name == "validate" for s in spans) == 1


class TestTracers:
    def test_jsonl_tracer_writes_one_parseable_line_per_span(self):
        buf = io.StringIO()
        tintin = make_engine()
        tintin.set_tracer(JsonlTracer(buf))
        session = tintin.create_session()
        session.insert("items", [(1, 2)])
        session.commit()
        lines = [l for l in buf.getvalue().splitlines() if l]
        assert lines
        parsed = [json.loads(l) for l in lines]
        assert all("trace_id" in d and "span_id" in d for d in parsed)
        assert parsed[-1]["name"] == "commit"  # root emitted last

    def test_set_tracer_none_resets_to_null(self):
        tintin = make_engine()
        tintin.set_tracer(RecordingTracer())
        tintin.set_tracer(None)
        assert isinstance(tintin.tracer, NullTracer)


class TestZeroOverheadDefault:
    def test_no_obs_is_allocated_on_the_default_path(self):
        tintin = make_engine()
        # the factory is the single decision point every commit goes
        # through; with the default NullTracer and no slow log it must
        # yield None, so every downstream stage point reduces to one
        # `obs is None` test
        calls = []
        original = tintin._make_obs

        def spy(*args, **kwargs):
            obs = original(*args, **kwargs)
            calls.append(obs)
            return obs

        tintin._make_obs = spy
        session = tintin.create_session()
        session.insert("items", [(1, 1)])
        assert session.commit().committed
        assert calls, "commit path never consulted the obs factory"
        assert all(obs is None for obs in calls)

    def test_slow_log_alone_still_creates_an_obs(self):
        tintin = make_engine()
        tintin.slow_commit_seconds = 10.0
        obs = tintin._make_obs()
        assert obs is not None
        assert isinstance(tintin.tracer, NullTracer)


class TestSlowCommitLog:
    def test_commit_over_threshold_emits_one_structured_line(self, caplog):
        tintin = make_engine()
        tintin.slow_commit_seconds = 0.0  # everything is "slow"
        session = tintin.create_session()
        session.insert("items", [(1, 1)])
        with caplog.at_level(logging.WARNING, logger="repro.obs.slowlog"):
            session.commit()
        records = [
            r for r in caplog.records if r.name == "repro.obs.slowlog"
        ]
        assert len(records) == 1
        message = records[0].getMessage()
        assert "slow commit trace=" in message
        assert "verdict=committed" in message
        assert "validate=" in message  # per-stage breakdown

    def test_fast_commit_stays_quiet(self, caplog):
        tintin = make_engine()
        tintin.slow_commit_seconds = 30.0
        session = tintin.create_session()
        session.insert("items", [(1, 1)])
        with caplog.at_level(logging.WARNING, logger="repro.obs.slowlog"):
            session.commit()
        assert not [
            r for r in caplog.records if r.name == "repro.obs.slowlog"
        ]


class TestCommitObs:
    def test_finish_is_idempotent_and_emits_root_once(self):
        tracer = RecordingTracer()
        obs = CommitObs(tracer)
        obs.record("stage", 1.0, 2.0)
        obs.finish("committed")
        obs.finish("committed")
        roots = [s for s in tracer.spans() if s.name == "commit"]
        assert len(roots) == 1

    def test_on_finish_callbacks_see_the_verdict(self):
        seen = []
        obs = CommitObs(NullTracer())
        obs.on_finish(lambda o, verdict: seen.append(verdict))
        obs.finish("violation")
        assert seen == ["violation"]

    def test_explicit_trace_id_is_kept(self):
        obs = CommitObs(NullTracer(), "cafe0123cafe0123")
        assert obs.trace_id == "cafe0123cafe0123"

    def test_span_duration(self):
        s = Span("x", "t", 1, None, 1.0, 1.5)
        assert s.duration == pytest.approx(0.5)
        assert s.to_dict()["duration"] == pytest.approx(0.5)
