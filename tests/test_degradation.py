"""Graceful degradation: the mode ladder and the chaos harness.

The invariant under test throughout is the paper's (Section 4.3,
Figure 2): a per-function analysis failure — whether real or injected
by the chaos harness — lowers coverage, never correctness.
"""

import pytest

from repro.analysis import (
    FIG2_OVERAPPROX,
    FIG2_REPORT,
    FIG2_UNDERAPPROX,
    build_cfg,
    classify_failure,
    plan_chaos,
)
from repro.core import (
    DegradationReport,
    MODE_SKIP,
    RewriteMode,
)
from repro.core.modes import (
    mode_rewrites_function_pointers,
    mode_rewrites_jump_tables,
)
from repro.eval import baseline_run, evaluate_tool
from repro.obs import render_degradation
from tests.conftest import workload


class TestLadder:
    def test_downgrade_walks_every_rung(self):
        assert RewriteMode.FUNC_PTR.downgrade() is RewriteMode.JT
        assert RewriteMode.JT.downgrade() is RewriteMode.DIR
        assert RewriteMode.DIR.downgrade() == MODE_SKIP

    def test_mode_predicates_tolerate_skip(self):
        assert not mode_rewrites_jump_tables(MODE_SKIP)
        assert not mode_rewrites_function_pointers(MODE_SKIP)
        assert mode_rewrites_jump_tables(RewriteMode.JT)
        assert mode_rewrites_function_pointers(RewriteMode.FUNC_PTR)

    def test_report_accounting(self):
        report = DegradationReport(requested_mode="func-ptr")
        assert not report and len(report) == 0
        report.add("f", 0x100, RewriteMode.JT, "conflicting delta",
                   FIG2_REPORT)
        report.add("g", 0x200, MODE_SKIP, "computed code pointer",
                   FIG2_UNDERAPPROX)
        assert report and len(report) == 2
        assert report.final_mode_of("f") == "jt"
        assert report.final_mode_of(0x200) == MODE_SKIP
        assert report.final_mode_of("untouched") == "func-ptr"
        assert [e.function for e in report.skipped_functions()] == ["g"]
        assert report.by_final_mode() == {"jt": 1, "skip": 1}
        assert report.by_category() == {FIG2_REPORT: 1,
                                        FIG2_UNDERAPPROX: 1}
        data = report.as_dict()
        assert data["requested_mode"] == "func-ptr"
        assert data["entries"][0]["final"] == "jt"

    def test_render_degradation(self):
        report = DegradationReport(requested_mode="jt")
        assert render_degradation(report) == []
        report.add("lookup", 0x100, RewriteMode.DIR, "missed edge",
                   FIG2_UNDERAPPROX)
        lines = render_degradation(report)
        assert "1 function(s) degraded" in lines[0]
        assert "dir=1" in lines[0]
        assert "lookup" in lines[1] and "missed edge" in lines[1]
        assert "missed edge" not in render_degradation(
            report, show_reason=False)[1]


class TestClassifyFailure:
    @pytest.mark.parametrize("reason,category", [
        (None, FIG2_REPORT),
        ("", FIG2_REPORT),
        ("decoder gave up at 0x44", FIG2_REPORT),
        ("infeasible edge injected", FIG2_OVERAPPROX),
        ("over-approximated target set", FIG2_OVERAPPROX),
        ("overapprox: spurious mid-block edge", FIG2_OVERAPPROX),
        ("missed edge at 0x40", FIG2_UNDERAPPROX),
        ("hidden target 0x1000", FIG2_UNDERAPPROX),
        ("under-approximated pointer set", FIG2_UNDERAPPROX),
        ("underapprox in table walk", FIG2_UNDERAPPROX),
        # Mixed reasons: the dangerous (wrong-instrumentation) category
        # must win over the merely wasteful one, whatever the order.
        ("infeasible edge; also one missed edge", FIG2_UNDERAPPROX),
        ("missed edge; also one infeasible edge", FIG2_UNDERAPPROX),
        ("over-approx then under-approx", FIG2_UNDERAPPROX),
    ])
    def test_table(self, reason, category):
        assert classify_failure(reason) == category


class TestChaosHarness:
    def _setup(self, name="602.sgcc_s"):
        program, binary = workload(name, "x86")
        oracle, cycles = baseline_run(binary)
        return binary, oracle, cycles

    def test_plan_chaos_is_deterministic(self):
        binary, _, _ = self._setup()
        plan_a = plan_chaos(build_cfg(binary), report=1,
                            overapproximate=1, underapproximate=1)
        plan_b = plan_chaos(build_cfg(binary), report=1,
                            overapproximate=1, underapproximate=1)
        assert plan_a == plan_b
        assert plan_a.report and plan_a.overapproximate \
            and plan_a.underapproximate
        # distinct victims, none of them protected
        all_victims = (plan_a.report | plan_a.overapproximate
                       | plan_a.underapproximate)
        assert len(all_victims) == 3
        assert "main" not in all_victims

    def test_reporting_failure_only_costs_coverage(self):
        binary, oracle, cycles = self._setup()
        plan = plan_chaos(build_cfg(binary), report=1)
        run = evaluate_tool("jt", binary, oracle, cycles, faults=plan)
        assert run.passed
        assert run.coverage < 1.0

    def test_overapproximation_stays_correct(self):
        binary, oracle, cycles = self._setup()
        plan = plan_chaos(build_cfg(binary), overapproximate=1)
        run = evaluate_tool("jt", binary, oracle, cycles, faults=plan)
        assert run.passed

    def test_underapproximation_caught_by_table_audit(self):
        """A hidden jump-table edge is the Figure-2 wrong-binary arrow;
        the ladder's image audit must catch it and downgrade the
        function instead of emitting wrong instrumentation."""
        binary, oracle, cycles = self._setup()
        plan = plan_chaos(build_cfg(binary), underapproximate=1)
        run = evaluate_tool("jt", binary, oracle, cycles, faults=plan)
        assert run.passed
        assert run.degraded_functions >= 1
        assert FIG2_UNDERAPPROX in run.degradation.by_category()
        victim = next(iter(plan.underapproximate))
        assert run.degradation.final_mode_of(victim) != "jt"

    def test_full_menu_against_go_like_binary(self):
        """Everything at once on the imprecise-funcptr workload: the
        ladder, the audit and an injected reporting failure all
        compose, and the binary still behaves identically."""
        from repro.toolchain.workloads import docker_like
        binary = docker_like("x86")[1]
        oracle, cycles = baseline_run(binary)
        clean = evaluate_tool("func-ptr", binary, oracle, cycles)
        assert clean.passed and clean.degraded_functions >= 1
        plan = plan_chaos(build_cfg(binary), report=1)
        run = evaluate_tool("func-ptr", binary, oracle, cycles,
                            faults=plan)
        assert run.passed
        assert run.coverage < clean.coverage
        assert run.degraded_functions >= clean.degraded_functions
