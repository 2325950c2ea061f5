"""The observability layer itself: spans, counters, events, no-op mode,
histogram summaries, JSON round-trips, and the profile renderer."""

import json

import pytest

from repro.obs import (
    NULL_TRACER,
    Span,
    Tracer,
    render_profile,
    trace_from_json,
)
from repro.obs.engine import EngineTelemetry, _distribution


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


def _counts(values):
    """``value -> occurrences`` for :func:`_distribution`."""
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return counts


class TestHistogramPercentiles:
    def test_empty_returns_none(self):
        s = _distribution({})
        assert (s["p50"], s["p90"], s["p99"]) == (None, None, None)
        assert (s["min"], s["max"]) == (None, None)

    def test_single_sample_every_percentile(self):
        s = _distribution({42: 1})
        assert s["p50"] == s["p90"] == s["p99"] == 42
        assert (s["count"], s["sum"], s["min"], s["max"], s["mean"]) \
            == (1, 42, 42, 42, 42.0)

    def test_nearest_rank_semantics(self):
        # Insertion order of the histogram must not matter.
        s = _distribution(_counts(range(100, 0, -1)))
        assert (s["p50"], s["p90"], s["p99"]) == (50, 90, 99)
        assert (s["min"], s["max"]) == (1, 100)

    def test_ties_share_their_rank(self):
        # 10 ones, 80 fives, 10 nines: ranks 11..90 all read 5.
        s = _distribution({1: 10, 5: 80, 9: 10})
        assert (s["p50"], s["p90"], s["p99"]) == (5, 5, 9)
        assert s["count"] == 100 and s["sum"] == 10 + 400 + 90


class TestMemoryAccounting:
    def test_default_tracer_records_no_memory(self):
        # Spans time and count; they carry no memory readings.
        tr = Tracer()
        with tr.span("s"):
            pass
        assert not hasattr(tr.find("s"), "mem_peak")
        assert "mem_peak" not in tr.to_json()

    def test_traces_without_mem_peak_still_load(self):
        # PR-2-era traces have no mem_peak key; later ones carried one
        # on some spans.  Both load, and the key is not re-emitted.
        old = {"name": "trace", "start": 0.0, "end": 1.0,
               "children": [{"name": "stage", "start": 0.0, "end": 0.5},
                            {"name": "peak", "start": 0.5, "end": 1.0,
                             "mem_peak": 3_000_000}]}
        root = Span.from_dict(old)
        assert [c.name for c in root.children] == ["stage", "peak"]
        assert "mem_peak" not in json.dumps(root.to_dict())


class TestHistogramExport:
    def test_summary_includes_percentiles(self):
        s = _distribution(_counts(range(1, 101)))
        assert s["p50"] == 50
        assert s["p90"] == 90
        assert s["p99"] == 99

    def test_empty_summary_has_no_percentiles(self):
        s = _distribution({})
        assert s["p50"] is None and s["p99"] is None
        assert s["count"] == 0

    def test_metrics_dump_persists_the_distribution(self):
        telemetry = EngineTelemetry()
        for n in (1, 2, 3, 100):
            telemetry.record_compile(0, n, False, "cap", 0.0, 0, 0)
        dumped = json.loads(telemetry.to_json())
        lengths = dumped["trace_shape"]["lengths"]
        assert lengths["p50"] == 2
        assert lengths["p99"] == 100


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

    def test_profile_shortens_fractional_counters(self):
        tr = Tracer(clock=stepping_clock())
        with tr.span("stage"):
            tr.count("cache.seconds_saved", 0.012345678)
            tr.count("cache.seconds_saved", 0.001)
        assert "cache.seconds_saved=0.01335" in render_profile(tr)

    def test_profile_accepts_a_span(self):
        root = Span("root")
        root.t_start, root.t_end = 0.0, 1.0
        assert "root" in render_profile(root)

    def test_profile_of_null_tracer(self):
        assert render_profile(NULL_TRACER) == "(no trace recorded)"

    def test_profile_tolerates_mixed_mem_peak_presence(self):
        # Trace JSON from when spans could carry mem_peak: some spans
        # have the key, others don't.  It renders with the plain
        # columns, every span on its row.
        old = {"name": "root", "start": 0.0, "end": 4.0,
               "children": [{"name": "with-mem", "start": 0.0,
                             "end": 2.0, "mem_peak": 3_000_000},
                            {"name": "without-mem", "start": 2.0,
                             "end": 4.0}]}
        text = render_profile(Span.from_dict(old))
        assert text.splitlines()[0].split() == ["stage", "ms", "%",
                                                "detail"]
        assert "with-mem" in text and "without-mem" in text
        assert "MiB" not in text

    @staticmethod
    def _timed(name, start, end):
        span = Span(name)
        span.t_start, span.t_end = start, end
        return span

    def test_collapsed_row_total_is_the_sum_of_its_spans(self):
        root = self._timed("root", 0.0, 1.0)
        durations = (0.010, 0.030, 0.020, 0.100)
        t = 0.0
        for d in durations:
            root.children.append(self._timed("unit", t, t + d))
            t += d
        root.children.append(self._timed("tail", t, t + 0.5))
        lines = render_profile(root).splitlines()
        # One row for the run of same-named siblings, none per member.
        assert sum("unit" in ln for ln in lines) == 1
        row = next(ln for ln in lines if "unit ×4" in ln).split()
        assert float(row[2]) == pytest.approx(sum(durations) * 1000.0)
        assert row[3] == f"{sum(durations):.1%}"
        assert "p50=20.000ms max=100.000ms" in " ".join(row)
        # A lone span keeps its plain row: no count, no percentiles.
        tail = next(ln for ln in lines if "tail" in ln)
        assert "×" not in tail and "p50" not in tail
