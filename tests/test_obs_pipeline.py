"""Observability threaded through the real pipeline: stage spans on a
rewrite, per-kind trampoline counters vs the report, one structured
failure event per skipped function, machine-run counters, and traced
``evaluate_tool`` runs (the ISSUE's acceptance scenarios)."""

import json

import pytest

from repro.core import (
    FailedFunction,
    IncrementalRewriter,
    PIPELINE_STAGES,
    RewriteMode,
)
from repro.analysis import FIG2_CATEGORIES
from repro.eval import baseline_run, evaluate_tool
from repro.machine import run_binary
from repro.obs import Tracer, trace_from_json
from repro.toolchain.workloads import docker_like
from tests.conftest import workload


def traced_rewrite(name, arch, mode):
    program, binary = workload(name, arch)
    tracer = Tracer()
    rewriter = IncrementalRewriter(mode=RewriteMode.parse(mode),
                                   tracer=tracer)
    rewritten, report = rewriter.rewrite(binary)
    return binary, rewritten, report, tracer


def trampoline_total(span):
    """Every ``trampolines.<kind>`` counter summed over ``span``'s
    subtree."""
    return sum(n for key, n in span.total_counters().items()
               if key.startswith("trampolines."))


class TestStageSpans:
    def test_dir_mode_trace_contains_every_pipeline_stage(self):
        _, _, report, tracer = traced_rewrite("605.mcf_s", "x86", "dir")
        rewrite = tracer.find("rewrite")
        assert rewrite is not None
        stage_names = [s.name for s in rewrite.children]
        for stage in PIPELINE_STAGES:
            assert stage in stage_names, f"missing span for {stage}"
        # Stages dir mode does not perform still appear, marked skipped.
        assert rewrite.find("funcptr-redirection").attrs.get("skipped")

    def test_stage_spans_appear_in_pipeline_order(self):
        _, _, _, tracer = traced_rewrite("605.mcf_s", "x86", "jt")
        stage_names = [s.name for s in tracer.find("rewrite").children]
        indices = [stage_names.index(s) for s in PIPELINE_STAGES]
        assert indices == sorted(indices)

    def test_rewrite_span_records_mode_and_arch(self):
        _, _, _, tracer = traced_rewrite("605.mcf_s", "ppc64", "jt")
        rewrite = tracer.find("rewrite")
        assert rewrite.attrs["mode"] == "jt"
        assert rewrite.attrs["arch"] == "ppc64"
        assert rewrite.duration > 0

    def test_stage_counters_are_attributed_to_their_stage(self):
        _, _, report, tracer = traced_rewrite("605.mcf_s", "x86", "jt")
        cfg = tracer.find("cfg-construction")
        assert cfg.counters["functions"] == report.total_functions
        # Built without a cache: every function was constructed once.
        assert cfg.total_counters()["cfg.constructions"] \
            == report.total_functions
        assert cfg.counters["cfg.blocks"] > 0
        assert cfg.counters["cfg.instructions"] > cfg.counters["cfg.blocks"]
        reloc = tracer.find("relocation")
        assert reloc.counters["relocated_functions"] \
            == report.relocated_functions


class TestTrampolineCounters:
    @pytest.mark.parametrize("mode", ["dir", "jt", "func-ptr"])
    def test_per_kind_counters_match_the_report(self, mode):
        _, _, report, tracer = traced_rewrite("602.sgcc_s", "x86", mode)
        installation = tracer.find("trampoline-installation")
        totals = tracer.root.total_counters()
        for kind, total in report.trampolines.items():
            assert installation.counters.get(f"trampolines.{kind}", 0) \
                == totals.get(f"trampolines.{kind}", 0) == total, \
                f"{kind} counter disagrees with the report in {mode} mode"

    def test_recycled_bytes_match_the_recycle_events(self):
        _, _, _, tracer = traced_rewrite("602.sgcc_s", "x86", "jt")
        installation = tracer.find("trampoline-installation")
        events = installation.total_events("superblock-recycled")
        assert events
        assert tracer.root.total_counters()["scratch.recycled_bytes"] \
            == installation.counters["scratch.recycled_bytes"] \
            == sum(ev["bytes"] for ev in events)

    def test_counters_sum_to_report_total(self):
        _, _, report, tracer = traced_rewrite("602.sgcc_s", "ppc64", "jt")
        assert trampoline_total(tracer.root) \
            == sum(report.trampolines.values())


class TestFailureForensics:
    def test_one_skip_event_per_failed_function(self):
        _, _, report, tracer = traced_rewrite("602.sgcc_s", "ppc64", "jt")
        assert report.failed_functions, "workload should have failures"
        events = tracer.root.total_events("function-skipped")
        assert len(events) == len(report.failed_functions)
        by_function = {ev["function"]: ev for ev in events}
        for failed in report.failed_functions:
            assert isinstance(failed, FailedFunction)
            ev = by_function[failed.name]
            assert ev["reason"] == failed.reason
            assert ev["category"] == failed.category
            assert ev["category"] in FIG2_CATEGORIES
            assert ev["mode"] == "jt"

    def test_construction_emits_analysis_failure_events(self):
        _, _, report, tracer = traced_rewrite("602.sgcc_s", "ppc64", "jt")
        events = tracer.find("cfg-construction") \
            .total_events("analysis-failure")
        assert {ev["function"] for ev in events} \
            == {f.name for f in report.failed_functions}
        assert len(events) == len(report.failed_functions)

    def test_failed_function_tuple_shape(self):
        # (name, reason) unpacking is part of the reporting API.
        failed = FailedFunction("f", "f: unresolved indirect jump")
        name, reason = failed
        assert (name, reason) == ("f", "f: unresolved indirect jump")
        assert failed.category in FIG2_CATEGORIES

    def test_clean_rewrite_has_no_skip_events(self):
        _, _, report, tracer = traced_rewrite("605.mcf_s", "x86", "jt")
        assert report.failed_functions == []
        assert tracer.root.total_events("function-skipped") == []


class TestMachineRunTracing:
    def test_run_binary_records_instruction_counts(self):
        program, binary = workload("605.mcf_s", "x86")
        tracer = Tracer()
        result = run_binary(binary, tracer=tracer)
        span = tracer.find("machine-run")
        assert span.counters["instructions"] == result.icount
        assert span.counters["cycles"] == result.cycles


class TestTracedEvaluateTool:
    def test_trace_attaches_and_covers_the_whole_run(self):
        program, binary = workload("602.sgcc_s", "x86")
        oracle, cycles = baseline_run(binary)
        tracer = Tracer()
        run = evaluate_tool("jt", binary, oracle, cycles, benchmark="sgcc",
                            tracer=tracer)
        assert run.passed
        assert run.trace is tracer
        # JSON export contains every stage span plus the emulated run.
        data = json.loads(tracer.to_json())
        root = trace_from_json(json.dumps(data))
        for stage in PIPELINE_STAGES:
            assert root.find(stage) is not None
        assert root.find("machine-run") is not None
        totals = root.total_counters()
        for kind, total in run.report.trampolines.items():
            assert totals.get(f"trampolines.{kind}", 0) == total

    def test_each_fact_is_counted_once_over_the_tree(self):
        # The benchmark sums these names over a whole traced pass: a
        # second sink counting them under the same name would double
        # the sums.
        program, binary = workload("600.perlbench_s", "x86")
        oracle, cycles = baseline_run(binary)
        tracer = Tracer()
        run = evaluate_tool("jt", binary, oracle, cycles, tracer=tracer)
        assert run.passed
        root = tracer.finish()
        assert trampoline_total(root) == sum(run.report.trampolines.values())
        assert trampoline_total(root) > 0
        assert root.total_counters()["instructions"] == run.instructions

    def test_untraced_run_attaches_no_trace(self):
        program, binary = workload("605.mcf_s", "x86")
        oracle, cycles = baseline_run(binary)
        run = evaluate_tool("jt", binary, oracle, cycles)
        assert run.passed
        assert run.trace is None

    def test_refusal_is_attributed_with_type_and_event(self):
        # degrade=False: with the ladder on (default) the imprecise
        # pointer analysis downgrades instead of refusing.
        binary = docker_like("x86")[1]
        oracle, cycles = baseline_run(binary)
        tracer = Tracer()
        run = evaluate_tool("func-ptr", binary, oracle, cycles,
                            benchmark="docker", tracer=tracer,
                            degrade=False)
        assert not run.passed
        assert run.error.startswith("RewriteError:")
        events = tracer.root.total_events("harness-error")
        assert len(events) == 1
        assert events[0]["tool"] == "func-ptr"
        assert events[0]["benchmark"] == "docker"
        assert events[0]["error"] == run.error
        assert run.trace is tracer
