"""Evaluation harness: tool drivers, aggregation, tables, experiments."""

import pytest

from repro.eval import (
    baseline_run,
    bolt_comparison,
    diogenes_case_study,
    docker_experiment,
    evaluate_tool,
    failure_modes,
    firefox_experiment,
    make_tool,
    spec2017,
    summarize,
    table1,
    table2,
    table3,
    TOOL_NAMES,
)
from repro.eval.harness import ToolRun
from tests.conftest import workload


class TestHarness:
    def test_make_tool_all_names(self):
        for name in TOOL_NAMES:
            assert make_tool(name) is not None
        with pytest.raises(KeyError):
            make_tool("nonexistent")

    def test_evaluate_tool_pass(self):
        program, binary = workload("605.mcf_s", "x86")
        oracle, cycles = baseline_run(binary)
        run = evaluate_tool("jt", binary, oracle, cycles, benchmark="m")
        assert run.passed
        assert run.overhead is not None
        assert run.coverage == 1.0
        assert run.error is None

    def test_evaluate_tool_records_refusal(self):
        program, binary = workload("620.omnetpp_s", "x86")
        oracle, cycles = baseline_run(binary)
        run = evaluate_tool("srbi", binary, oracle, cycles)
        assert not run.passed
        assert "RewriteError" in run.error

    def test_summarize(self):
        runs = [
            ToolRun("t", "a", True, overhead=0.02, coverage=1.0,
                    size_increase=0.5),
            ToolRun("t", "b", True, overhead=0.04, coverage=0.9,
                    size_increase=0.7),
            ToolRun("t", "c", False, error="x"),
        ]
        s = summarize(runs)
        assert s["pass"] == 2 and s["total"] == 3
        assert s["overhead_max"] == 0.04
        assert abs(s["overhead_mean"] - 0.03) < 1e-12
        assert s["coverage_min"] == 0.9

    def test_summarize_empty(self):
        s = summarize([ToolRun("t", "a", False, error="x")])
        assert s["pass"] == 0
        assert s["overhead_max"] is None

    def test_summarize_tolerates_none_and_empty_lists(self):
        for runs in (None, [], iter(())):
            s = summarize(runs)
            assert s["pass"] == 0 and s["total"] == 0
            assert s["overhead_max"] is None
            assert s["overhead_mean"] is None
            assert s["cycles_total"] == 0
            assert s["ra_translations_total"] == 0

    def test_summarize_runtime_totals(self):
        runs = [
            ToolRun("t", "a", True, cycles=100, instructions=80,
                    traps_hit=2, ra_translations=5),
            ToolRun("t", "b", True, cycles=50, instructions=40,
                    traps_hit=1, ra_translations=0),
            ToolRun("t", "c", False, error="x", cycles=999),
        ]
        s = summarize(runs)
        assert s["cycles_total"] == 150
        assert s["instructions_total"] == 120
        assert s["traps_hit_total"] == 3
        assert s["ra_translations_total"] == 5

    def test_evaluate_tool_runtime_profile_fields(self):
        from repro.obs import EngineTelemetry
        program, binary = workload("605.mcf_s", "x86")
        oracle, cycles = baseline_run(binary)
        recorder = EngineTelemetry()
        run = evaluate_tool("jt", binary, oracle, cycles, benchmark="m",
                            telemetry=recorder)
        assert run.passed
        assert run.telemetry is recorder
        assert run.instructions > 0
        assert run.cycles > 0
        assert recorder.block_instructions + recorder.cold_instructions \
            == run.instructions
        assert sum(recorder.tramp_hits.values()) > 0


class TestTablePrinters:
    def test_table1_mentions_all_approaches(self):
        text = table1()
        for name in ("BOLT", "Egalito", "E9Patch", "Multiverse",
                     "SRBI", "This work"):
            assert name in text

    def test_table2_rows(self):
        text = table2()
        assert "x86" in text and "ppc64" in text and "aarch64" in text
        assert "adrp" in text and "bctar" in text

    def test_table3_renders_summaries(self):
        summaries = {"jt": {
            "pass": 3, "total": 3,
            "overhead_max": 0.02, "overhead_mean": 0.01,
            "coverage_min": 1.0, "coverage_mean": 1.0,
            "size_max": 0.9, "size_mean": 0.8,
        }}
        text = table3({"x86": summaries})
        assert "x86" in text and "jt" in text and "3/3" in text


class TestExperiments:
    def test_spec2017_small(self):
        summaries, runs = spec2017("x86", tools=("dir", "jt"),
                                   benchmarks=("619.lbm_s",))
        assert summaries["dir"]["pass"] == 1
        assert summaries["jt"]["pass"] == 1
        assert (summaries["jt"]["overhead_mean"]
                <= summaries["dir"]["overhead_mean"] + 1e-9)

    def test_failure_modes(self):
        result = failure_modes()
        assert result.report_correct
        assert result.report_coverage < result.baseline_coverage
        assert result.overapprox_correct
        assert result.overapprox_trampolines > result.baseline_trampolines
        assert result.underapprox_outcome != "ran (output correct)"

    def test_docker_experiment(self):
        result = docker_experiment()
        assert result.tool_runs["dir"].passed
        assert result.tool_runs["jt"].passed
        assert not result.tool_runs["ir-lowering"].passed
        # func-ptr no longer refuses the Go binary: the ladder degrades
        # the implicated functions and the rewrite completes correctly
        # with reduced coverage.
        fp = result.tool_runs["func-ptr"]
        assert fp.passed
        assert fp.degraded_functions > 0
        assert fp.coverage < 1.0
        assert any("degraded" in note for note in result.notes)

    def test_firefox_experiment(self):
        result = firefox_experiment()
        assert result.tool_runs["jt"].passed
        assert result.tool_runs["func-ptr"].passed
        assert not result.tool_runs["ir-lowering"].passed

    def test_diogenes(self):
        result = diogenes_case_study()
        assert result.speedup > 5
        assert result.ours_traps == 0
        assert result.mainstream_traps > 100

    def test_bolt_comparison_subset(self):
        comp = bolt_comparison("x86", benchmarks=("619.lbm_s",
                                                  "605.mcf_s"))
        assert comp.bolt_fn_reorder_pass == 0
        assert comp.ours_fn_reorder_pass == 2
        assert comp.ours_blk_reorder_pass == 2
