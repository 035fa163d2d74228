"""Tests for the span tracer: nesting, attributes, gating, export."""

import json

from repro.obs import trace
from repro.obs.export import (TraceFile, format_summary, read_trace,
                              summarize_spans, trace_lines, write_trace)
from repro.obs.trace import Span, Tracer


class TestSpanNesting:
    def test_parent_child_links_and_depth(self):
        t = Tracer()
        with t.span("outer") as outer:
            with t.span("inner") as inner:
                with t.span("leaf") as leaf:
                    pass
        assert outer.parent_id is None and outer.depth == 0
        assert inner.parent_id == outer.span_id and inner.depth == 1
        assert leaf.parent_id == inner.span_id and leaf.depth == 2
        assert [s.name for s in t.spans] == ["outer", "inner", "leaf"]

    def test_siblings_share_a_parent(self):
        t = Tracer()
        with t.span("parent") as parent:
            with t.span("a") as a:
                pass
            with t.span("b") as b:
                pass
        assert a.parent_id == parent.span_id
        assert b.parent_id == parent.span_id
        assert a.span_id != b.span_id

    def test_stack_unwinds_after_exception(self):
        t = Tracer()
        try:
            with t.span("outer"):
                with t.span("failing"):
                    raise RuntimeError("boom")
        except RuntimeError:
            pass
        with t.span("after") as after:
            pass
        assert after.parent_id is None

    def test_attrs_at_open_and_via_set(self):
        t = Tracer()
        with t.span("stage", block="ccx") as sp:
            sp.set(n_vias=4, outcome="ok")
        assert sp.attrs == {"block": "ccx", "n_vias": 4,
                            "outcome": "ok"}


class TestGating:
    def test_disabled_tracer_still_times(self):
        t = Tracer(enabled=False)
        with t.span("work") as sp:
            pass
        assert sp.duration_ms >= 0.0
        assert t.spans == []

    def test_disabled_contextmanager_restores(self):
        t = Tracer()
        with trace.use_tracer(t):
            with trace.disabled():
                with trace.span("hidden"):
                    pass
            with trace.span("visible"):
                pass
        assert [s.name for s in t.spans] == ["visible"]

    def test_max_spans_cap_counts_drops(self, monkeypatch):
        monkeypatch.setattr(trace, "MAX_SPANS", 2)
        t = Tracer()
        for i in range(5):
            with t.span(f"s{i}"):
                pass
        assert len(t.spans) == 2
        assert t.dropped == 3

    def test_drain_empties_the_buffer(self):
        t = Tracer()
        with t.span("one"):
            pass
        drained = t.drain()
        assert [s.name for s in drained] == ["one"]
        assert t.spans == []


class TestExport:
    def test_dict_round_trip(self):
        t = Tracer()
        with t.span("flow", block="spc") as sp:
            sp.set(folded=True)
        back = Span.from_dict(sp.to_dict())
        assert back == sp

    def test_write_and_read_trace(self, tmp_path):
        t = Tracer()
        with t.span("bench"):
            with t.span("experiment"):
                pass
        path = tmp_path / "t.jsonl"
        write_trace(path, t.spans, metrics={"counters": {"x": 1}},
                    meta={"scale": 0.5})
        tf = read_trace(path)
        assert isinstance(tf, TraceFile)
        assert tf.meta["scale"] == 0.5
        assert tf.meta["schema"] == 1
        assert [s.name for s in tf.spans] == ["bench", "experiment"]
        assert tf.metrics == {"counters": {"x": 1}}

    def test_every_line_is_json(self):
        t = Tracer()
        with t.span("a"):
            pass
        for line in trace_lines(t.spans, metrics={"counters": {}}):
            json.loads(line)

    def test_summarize_self_time_subtracts_children(self):
        spans = [
            {"name": "outer", "span_id": 1, "parent_id": None,
             "depth": 0, "start_s": 0.0, "duration_ms": 100.0,
             "attrs": {}, "worker": 7},
            {"name": "inner", "span_id": 2, "parent_id": 1, "depth": 1,
             "start_s": 0.0, "duration_ms": 60.0, "attrs": {},
             "worker": 7},
        ]
        by_name = {s.name: s for s in summarize_spans(spans)}
        assert by_name["outer"].self_ms == 40.0
        assert by_name["inner"].self_ms == 60.0
        assert by_name["outer"].total_ms == 100.0

    def test_summarize_keys_parents_per_worker(self):
        """Same span ids from different workers must not cross-link."""
        spans = [
            {"name": "outer", "span_id": 1, "parent_id": None,
             "depth": 0, "start_s": 0.0, "duration_ms": 50.0,
             "attrs": {}, "worker": 1},
            {"name": "inner", "span_id": 2, "parent_id": 1, "depth": 1,
             "start_s": 0.0, "duration_ms": 20.0, "attrs": {},
             "worker": 2},  # different worker: not outer's child
        ]
        by_name = {s.name: s for s in summarize_spans(spans)}
        assert by_name["outer"].self_ms == 50.0

    def test_format_summary_mentions_every_name(self):
        t = Tracer()
        with t.span("alpha"):
            with t.span("beta"):
                pass
        text = format_summary(summarize_spans(t.spans))
        assert "alpha" in text and "beta" in text
