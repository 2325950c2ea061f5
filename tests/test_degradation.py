"""Graceful degradation: the mode ladder, corrupt-cache recovery, and
the chaos harness.

The invariant under test throughout is the paper's (Section 4.3,
Figure 2): a per-function analysis failure — or a corrupt cache entry
injected by the chaos harness — lowers coverage, never correctness.
"""

import pytest

from repro.analysis import (
    FIG2_OVERAPPROX,
    FIG2_REPORT,
    FIG2_UNDERAPPROX,
    FailurePlan,
    build_cfg,
    classify_failure,
    corrupt_cache_entries,
    plan_chaos,
)
from repro.core import (
    ArtifactCache,
    DegradationReport,
    IncrementalRewriter,
    MODE_SKIP,
    RewriteMode,
    stable_digest,
)
from repro.core.cache import CORRUPT, MISS
from repro.core.modes import (
    mode_rewrites_function_pointers,
    mode_rewrites_jump_tables,
)
from repro.eval import baseline_run, evaluate_tool
from repro.obs import Tracer, render_degradation
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


PARTS = ("some", "parts")


class TestCorruptCache:
    def _fill(self, cache):
        key = cache.key("cfg", PARTS)
        cache.put("cfg", key, {"value": 42}, seconds=0.5)
        return key

    def test_truncated_disk_entry_is_miss_and_unlinked(self, tmp_path):
        import os
        writer = ArtifactCache(tmp_path)
        key = self._fill(writer)
        [path] = writer.entry_paths()
        with open(path, "r+b") as f:
            f.truncate(3)
        # A fresh cache (new process, same directory) hits the truncated
        # file: must report the corruption and remove the file so it
        # cannot keep poisoning later runs.
        reader = ArtifactCache(tmp_path)
        assert reader.get("cfg", key) is CORRUPT
        assert not os.path.exists(path)
        assert reader.get("cfg", key) is MISS
        # Recomputation overwrites cleanly.
        reader.put("cfg", key, {"value": 42}, seconds=0.1)
        assert reader.get("cfg", key) == (0.1, {"value": 42})

    def test_negative_count_corrupts_nothing(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = self._fill(cache)
        # With two entries, slicing [:-1] would truncate the first.
        cache.put("funcptr", cache.key("funcptr", PARTS), {},
                  seconds=0.1)
        assert corrupt_cache_entries(cache, -1, stable_digest(PARTS)) == 0
        assert cache.get("cfg", key) == (0.5, {"value": 42})

    def test_corrupt_entry_is_reported_once_and_recovers(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = self._fill(cache)
        assert corrupt_cache_entries(cache, 5, stable_digest(PARTS)) == 1
        assert cache.get("cfg", key) is CORRUPT
        # The entry was dropped: the next get is a plain miss.
        assert cache.get("cfg", key) is MISS
        assert cache.entry_paths() == []

    def test_disk_backed_corruption_via_harness_helper(self, tmp_path):
        import os
        cache = ArtifactCache(tmp_path)
        key = self._fill(cache)
        funcptr_key = cache.key("funcptr", PARTS)
        cache.put("funcptr", funcptr_key, {}, seconds=0.1)
        first, second = cache.entry_paths()
        # Entries go in sorted path order: the cfg one first.
        assert "cfg-v" in first and "funcptr-v" in second
        assert corrupt_cache_entries(cache, 1, stable_digest(PARTS)) == 1
        assert cache.get("cfg", key) is CORRUPT
        assert not os.path.exists(first)
        assert cache.get("funcptr", funcptr_key) == (0.1, {})


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

    def test_substrate_faults_survive_with_cache(self, tmp_path):
        binary, oracle, cycles = self._setup()
        tracer = Tracer()
        cache = ArtifactCache(tmp_path)
        # Warm the cache with a clean run, then corrupt it before the
        # chaotic one.
        warm = evaluate_tool("jt", binary, oracle, cycles,
                             tracer=tracer, cache=cache)
        assert warm.passed
        plan = FailurePlan(corrupt_cache=2)
        run = evaluate_tool("jt", binary, oracle, cycles,
                            tracer=tracer, cache=cache, faults=plan)
        assert run.passed
        # Each corrupt entry is counted on the chaos run's span, reads
        # as a miss and is recomputed.
        chaotic = [span for span in tracer.root.children
                   if span.name == "rewrite"][-1].total_counters()
        assert chaotic["cache.corrupt"] == 2
        assert chaotic["cache.misses"] == 2
        assert chaotic["cache.stores"] == 2

    def test_corruption_spares_other_workloads_entries(self, tmp_path):
        """A shared cache directory that other workloads warmed first:
        the chaos run corrupts only its own rewrite's entries, meets
        exactly that corruption on its span, and leaves every other
        entry byte-identical."""
        binary, oracle, cycles = self._setup()
        cache = ArtifactCache(tmp_path)
        for name in ("619.lbm_s", "605.mcf_s", "648.exchange2_s"):
            IncrementalRewriter(mode="jt", cache=cache).rewrite(
                workload(name, "x86")[1])
        others = {path: open(path, "rb").read()
                  for path in cache.entry_paths()}
        assert len(others) == 6
        assert evaluate_tool("jt", binary, oracle, cycles,
                             cache=cache).passed
        tracer = Tracer()
        run = evaluate_tool("jt", binary, oracle, cycles, tracer=tracer,
                            cache=cache,
                            faults=FailurePlan(corrupt_cache=1))
        assert run.passed
        chaotic = tracer.find("rewrite").total_counters()
        assert chaotic.get("cache.corrupt", 0) == 1
        assert {path: open(path, "rb").read()
                for path in others} == others

    def test_full_menu_against_go_like_binary(self, tmp_path):
        """Everything at once on the imprecise-funcptr workload: the
        ladder, the audit and cache corruption all compose, and the
        binary still behaves identically."""
        from repro.toolchain.workloads import docker_like
        binary = docker_like("x86")[1]
        oracle, cycles = baseline_run(binary)
        cache = ArtifactCache(tmp_path)
        warm = evaluate_tool("func-ptr", binary, oracle, cycles,
                             cache=cache)
        assert warm.passed and warm.degraded_functions >= 1
        plan = plan_chaos(build_cfg(binary), report=1, corrupt_cache=1)
        tracer = Tracer()
        run = evaluate_tool("func-ptr", binary, oracle, cycles,
                            tracer=tracer, cache=cache, faults=plan)
        assert run.passed
        assert tracer.root.total_counters()["cache.corrupt"] == 1
        assert run.coverage < 1.0
        assert run.degraded_functions >= warm.degraded_functions
