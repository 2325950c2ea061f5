"""The observability layer itself: spans, counters, events, no-op mode,
metrics registry, JSON round-trips, and the profile renderer."""

import json

import pytest

from repro.obs import (
    Histogram,
    Metrics,
    NULL_METRICS,
    NULL_TRACER,
    Span,
    Tracer,
    render_profile,
    trace_from_json,
)


def stepping_clock(step=1.0):
    """A deterministic clock advancing ``step`` per reading."""
    state = {"t": 0.0}

    def clock():
        state["t"] += step
        return state["t"]

    return clock


class TestSpans:
    def test_nested_spans_form_a_tree(self):
        tr = Tracer(clock=stepping_clock())
        with tr.span("outer"):
            with tr.span("inner-a"):
                pass
            with tr.span("inner-b"):
                with tr.span("leaf"):
                    pass
        root = tr.finish()
        outer = root.find("outer")
        assert [c.name for c in root.children] == ["outer"]
        assert [c.name for c in outer.children] == ["inner-a", "inner-b"]
        assert outer.find("leaf").name == "leaf"
        assert root.find("nonexistent") is None

    def test_durations_are_positive_and_nest(self):
        tr = Tracer(clock=stepping_clock())
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        outer = tr.find("outer")
        inner = tr.find("inner")
        assert inner.duration > 0
        assert outer.duration > inner.duration

    def test_current_span_tracks_the_stack(self):
        tr = Tracer()
        assert tr.current is tr.root
        with tr.span("a") as a:
            assert tr.current is a
            with tr.span("b") as b:
                assert tr.current is b
            assert tr.current is a
        assert tr.current is tr.root

    def test_span_attrs_and_error_capture(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("stage", mode="jt"):
                raise ValueError("boom")
        span = tr.find("stage")
        assert span.attrs["mode"] == "jt"
        assert span.attrs["error"] == "ValueError: boom"

    def test_events_attach_to_the_active_span(self):
        tr = Tracer(clock=stepping_clock())
        with tr.span("stage"):
            tr.event("function-skipped", function="f", reason="r")
        tr.event("root-level")
        stage = tr.find("stage")
        assert stage.events[0]["event"] == "function-skipped"
        assert stage.events[0]["function"] == "f"
        assert stage.events[0]["t"] > 0
        assert tr.root.events[0]["event"] == "root-level"


class TestCounterAggregation:
    def test_counters_attach_to_the_active_span(self):
        tr = Tracer()
        with tr.span("a"):
            tr.count("widgets", 2)
            tr.count("widgets")
        assert tr.find("a").counters == {"widgets": 3}

    def test_total_counters_aggregates_the_subtree(self):
        tr = Tracer()
        with tr.span("outer"):
            tr.count("x", 1)
            with tr.span("inner-1"):
                tr.count("x", 10)
                tr.count("y", 5)
            with tr.span("inner-2"):
                tr.count("x", 100)
        outer = tr.find("outer")
        assert outer.total_counters() == {"x": 111, "y": 5}
        assert tr.root.total_counters() == {"x": 111, "y": 5}

    def test_total_events_filters_by_name(self):
        tr = Tracer()
        with tr.span("a"):
            tr.event("hit", n=1)
            with tr.span("b"):
                tr.event("hit", n=2)
                tr.event("miss")
        assert len(tr.root.total_events("hit")) == 2
        assert len(tr.root.total_events()) == 3


class TestNoOpMode:
    def test_span_returns_one_shared_object(self):
        # The no-op fast path must not allocate per span.
        cm = NULL_TRACER.span("anything")
        assert NULL_TRACER.span("something-else") is cm
        with cm as span:
            assert span is cm

    def test_noop_records_nothing(self):
        with NULL_TRACER.span("s") as span:
            span.count("c", 5)
            span.event("e", x=1)
        NULL_TRACER.event("top")
        NULL_TRACER.count("top", 3)
        assert NULL_TRACER.to_dict() == {}
        assert NULL_TRACER.find("s") is None
        assert NULL_TRACER.finish() is None

    def test_noop_span_state_is_immutable_across_uses(self):
        # Repeated enter/exit must leave no residue (no event lists grow,
        # no attrs appear) — the "near-zero cost" contract.
        for _ in range(1000):
            with NULL_TRACER.span("hot"):
                pass
        span = NULL_TRACER.span("check")
        assert span.attrs == {}
        assert not hasattr(span, "events") or not span.events

    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_exceptions_propagate_through_noop_spans(self):
        with pytest.raises(KeyError):
            with NULL_TRACER.span("s"):
                raise KeyError("x")


class TestJsonRoundTrip:
    def _sample(self):
        tr = Tracer(name="sample", clock=stepping_clock(0.5))
        with tr.span("stage-1", mode="jt"):
            tr.count("functions", 7)
            tr.event("function-skipped", function="f", reason="r",
                     category="analysis-reporting-failure")
            with tr.span("sub"):
                tr.count("bytes", 128)
        with tr.span("stage-2"):
            pass
        tr.finish()
        return tr

    def test_round_trip_is_lossless(self):
        tr = self._sample()
        first = tr.to_dict()
        rebuilt = trace_from_json(tr.to_json())
        assert rebuilt.to_dict() == first
        # And stable across a second trip.
        assert trace_from_json(json.dumps(rebuilt.to_dict())).to_dict() \
            == first

    def test_exported_times_are_relative_to_root(self):
        tr = self._sample()
        data = tr.to_dict()
        assert data["start"] == 0.0
        assert data["end"] > 0.0
        stage = data["children"][0]
        assert 0.0 <= stage["start"] <= stage["end"] <= data["end"]

    def test_rebuilt_tree_supports_queries(self):
        root = trace_from_json(self._sample().to_json())
        assert root.find("sub").counters == {"bytes": 128}
        assert root.total_counters()["functions"] == 7
        assert root.total_events("function-skipped")[0]["function"] == "f"

    def test_json_is_valid_and_structured(self):
        text = self._sample().to_json(indent=2)
        data = json.loads(text)
        assert data["name"] == "sample"
        assert [c["name"] for c in data["children"]] \
            == ["stage-1", "stage-2"]


class TestMetrics:
    def test_counters_accumulate(self):
        m = Metrics()
        m.inc("trampolines.hop")
        m.inc("trampolines.hop", 2)
        m.inc("trampolines.trap")
        assert m.counter("trampolines.hop").value == 3
        assert m.group("trampolines") == {"hop": 3, "trap": 1}

    def test_gauges_and_histograms(self):
        m = Metrics()
        m.set_gauge("coverage", 0.75)
        for v in (1, 2, 3):
            m.observe("span_ms", v)
        assert m.gauge("coverage").value == 0.75
        h = m.histogram("span_ms")
        assert (h.count, h.total, h.vmin, h.vmax) == (3, 6, 1, 3)
        assert h.mean == 2.0

    def test_as_dict_snapshot(self):
        m = Metrics()
        m.inc("a.b")
        m.set_gauge("g", 1)
        m.observe("h", 4)
        snap = m.as_dict()
        assert snap["counters"] == {"a.b": 1}
        assert snap["gauges"] == {"g": 1}
        assert snap["histograms"]["h"]["count"] == 1

    def test_null_metrics_is_inert(self):
        NULL_METRICS.inc("x", 5)
        NULL_METRICS.observe("y", 1)
        NULL_METRICS.set_gauge("z", 2)
        assert NULL_METRICS.counter("x").value == 0
        assert NULL_METRICS.counter_values() == {}
        assert NULL_METRICS.group("x") == {}
        assert NULL_METRICS.as_dict() == {"counters": {}}
        assert NULL_METRICS.counter("a") is NULL_METRICS.histogram("b")


class TestHistogramPercentiles:
    def test_empty_returns_none(self):
        h = Histogram("h")
        assert h.percentile(50) is None
        assert h.percentile(0) is None
        assert h.percentile(100) is None

    def test_single_sample_every_percentile(self):
        h = Histogram("h")
        h.observe(42)
        for p in (0, 1, 50, 99, 100):
            assert h.percentile(p) == 42

    def test_nearest_rank_semantics(self):
        h = Histogram("h")
        for v in range(100, 0, -1):  # insertion order must not matter
            h.observe(v)
        assert h.percentile(50) == 50
        assert h.percentile(90) == 90
        assert h.percentile(99) == 99
        assert h.percentile(100) == 100
        assert h.percentile(0) == 1

    def test_out_of_range_raises(self):
        h = Histogram("h")
        h.observe(1)
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_reservoir_bounds_samples_not_summary(self):
        from repro.obs.metrics import RESERVOIR
        h = Histogram("h")
        for v in range(RESERVOIR + 100):
            h.observe(v)
        assert len(h.samples) == RESERVOIR
        assert h.count == RESERVOIR + 100
        assert h.vmax == RESERVOIR + 99

    def test_null_histogram_percentile(self):
        assert NULL_METRICS.histogram("x").percentile(50) is None


class TestMemoryAccounting:
    def test_spans_carry_mem_peak_when_enabled(self):
        tr = Tracer(memory=True)
        with tr.span("alloc"):
            blob = bytearray(2_000_000)
        del blob
        with tr.span("quiet"):
            pass
        root = tr.finish()
        alloc = root.find("alloc")
        assert alloc.mem_peak >= 2_000_000
        assert root.find("quiet").mem_peak is not None
        assert root.mem_peak >= alloc.mem_peak

    def test_parent_peak_covers_children(self):
        tr = Tracer(memory=True)
        with tr.span("parent"):
            before = bytearray(500_000)
            with tr.span("child"):
                inner = bytearray(1_500_000)
            del inner
        del before
        root = tr.finish()
        parent, child = root.find("parent"), root.find("child")
        assert child.mem_peak >= 1_500_000
        assert parent.mem_peak >= child.mem_peak

    def test_default_tracer_records_no_memory(self):
        tr = Tracer()
        with tr.span("s"):
            pass
        assert tr.find("s").mem_peak is None
        assert tr.finish().mem_peak is None

    def test_finish_stops_tracemalloc_it_started(self):
        import tracemalloc
        was_tracing = tracemalloc.is_tracing()
        tr = Tracer(memory=True)
        with tr.span("s"):
            pass
        tr.finish()
        assert tracemalloc.is_tracing() == was_tracing

    def test_mem_peak_round_trips_through_json(self):
        tr = Tracer(memory=True)
        with tr.span("stage"):
            blob = bytearray(1_000_000)
        del blob
        tr.finish()
        rebuilt = trace_from_json(tr.to_json())
        assert rebuilt.find("stage").mem_peak \
            == tr.find("stage").mem_peak
        assert rebuilt.mem_peak == tr.root.mem_peak

    def test_traces_without_mem_peak_still_load(self):
        # Backwards compatibility: PR-2-era traces have no mem_peak key.
        old = {"name": "trace", "start": 0.0, "end": 1.0,
               "children": [{"name": "stage", "start": 0.0, "end": 0.5}]}
        root = Span.from_dict(old)
        assert root.mem_peak is None
        assert root.find("stage").mem_peak is None
        # And a memory-less span serializes without the key.
        assert "mem_peak" not in root.to_dict()


class TestHistogramExport:
    def test_summary_includes_percentiles(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.observe(v)
        s = h.summary()
        assert s["p50"] == 50
        assert s["p90"] == 90
        assert s["p99"] == 99

    def test_empty_summary_has_no_percentiles(self):
        s = Histogram("h").summary()
        assert "p50" not in s
        assert s["count"] == 0

    def test_metrics_dump_persists_the_distribution(self):
        m = Metrics()
        for v in (1, 2, 3, 100):
            m.observe("lat", v)
        dumped = json.loads(json.dumps(m.as_dict()))
        hist = dumped["histograms"]["lat"]
        assert hist["p50"] == 2
        assert hist["p99"] == 100


class TestProfileRendering:
    def test_profile_lists_every_span_with_times(self):
        tr = Tracer(clock=stepping_clock())
        with tr.span("stage-a"):
            tr.count("items", 4)
        with tr.span("stage-b", skipped=True):
            pass
        text = render_profile(tr)
        assert "stage-a" in text
        assert "items=4" in text
        assert "(skipped)" in text
        assert "%" in text.splitlines()[0]

    def test_profile_accepts_a_span(self):
        root = Span("root")
        root.t_start, root.t_end = 0.0, 1.0
        assert "root" in render_profile(root)

    def test_profile_of_null_tracer(self):
        assert render_profile(NULL_TRACER) == "(no trace recorded)"

    def test_profile_shows_memory_column_only_when_recorded(self):
        tr = Tracer(memory=True)
        with tr.span("alloc"):
            blob = bytearray(3_000_000)
        del blob
        text = render_profile(tr)
        assert "mem peak" in text
        assert "MiB" in text

        plain = Tracer(clock=stepping_clock())
        with plain.span("stage"):
            pass
        assert "mem peak" not in render_profile(plain)

    def test_profile_tolerates_mixed_mem_peak_presence(self):
        # Old trace JSON round-tripped through the mem column: some
        # spans carry mem_peak, others don't.  The renderer must keep
        # the column and show "-" placeholders, not crash or misalign.
        root = Span("root")
        root.t_start, root.t_end = 0.0, 4.0
        with_mem = Span("with-mem")
        with_mem.t_start, with_mem.t_end = 0.0, 2.0
        with_mem.mem_peak = 3_000_000
        without_mem = Span("without-mem")
        without_mem.t_start, without_mem.t_end = 2.0, 4.0
        root.children = [with_mem, without_mem]
        text = render_profile(root)
        assert "mem peak" in text
        assert "MiB" in text
        line = next(ln for ln in text.splitlines()
                    if "without-mem" in ln)
        assert " - " in line or line.rstrip().endswith("-")
        # JSON round-trip preserves the mixed shape and still renders.
        again = Span.from_dict(json.loads(json.dumps(root.to_dict())))
        assert "mem peak" in render_profile(again)

    @staticmethod
    def _timed(name, start, end, mem_peak=None):
        span = Span(name)
        span.t_start, span.t_end = start, end
        span.mem_peak = mem_peak
        return span

    def test_profile_mem_column_follows_collapsed_rows(self):
        # The column decision tracks the displayed rows: a collapsed
        # row shows its members' highest peak even when only one
        # member carries a reading, and no reading means no column.
        root = self._timed("root", 0.0, 4.0)
        root.children = [self._timed("unit", 0.0, 1.0),
                         self._timed("unit", 1.0, 2.0, 1_000_000),
                         self._timed("unit", 2.0, 3.0, 3_000_000)]
        text = render_profile(root)
        assert "mem peak" in text
        line = next(ln for ln in text.splitlines() if "unit ×3" in ln)
        assert "2.9MiB" in line
        for child in root.children:
            child.mem_peak = None
        assert "mem peak" not in render_profile(root)

    def test_collapsed_row_total_is_the_sum_of_its_spans(self):
        root = self._timed("root", 0.0, 1.0)
        durations = (0.010, 0.030, 0.020, 0.100)
        t = 0.0
        for d in durations:
            root.children.append(self._timed("unit", t, t + d))
            t += d
        root.children.append(self._timed("tail", t, t + 0.5))
        lines = render_profile(root).splitlines()
        assert sum("unit" in ln for ln in lines) == 1
        row = next(ln for ln in lines if "unit ×4" in ln).split()
        assert float(row[2]) == pytest.approx(sum(durations) * 1000.0)
        assert row[3] == f"{sum(durations):.1%}"
        assert "p50=20.000ms max=100.000ms" in " ".join(row)
        # A lone span keeps its plain row: no count, no percentiles.
        tail = next(ln for ln in lines if "tail" in ln)
        assert "×" not in tail and "p50" not in tail
