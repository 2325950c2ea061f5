"""The engine observatory: superblock JIT telemetry, demotion and
invalidation accounting, trampoline/RA/unwind parity across engines,
the ``EngineReport/v2`` surface, and ``repro run --telemetry``.

Everything here holds the tentpole invariant from the superblock tier:
telemetry is a pure observer — attaching it must never change a single
``RunResult`` field, fault-time register, or kernel counter.
"""

import json

import pytest

from repro.cli import main
from repro.core import RewriteMode, rewrite_binary
from repro.isa import Instruction as I
from repro.isa.registers import R0
from repro.machine import machine_for, run_binary
from repro.machine.cpu import ENGINES
from repro.obs import (
    ENGINE_REPORT_SCHEMA,
    EngineTelemetry,
    Tracer,
    render_engine_report,
)
from repro.obs.engine import _distribution
from repro.toolchain.workloads import docker_like

from tests.conftest import compiled, workload
from tests.test_machine import assemble
from tests.test_unwinding import _throwing_program

#: RunResult fields that must agree bit-for-bit with telemetry on.
PARITY_FIELDS = ("checksum", "cycles", "icount", "icache_misses",
                 "transitions", "counters")


@pytest.fixture(scope="module")
def lbm():
    """A call/indirect-heavy workload: guarantees ret/callr guard
    sites in the fused blocks."""
    return workload("619.lbm_s", "x86")[1]


def _observed_run(binary, **kwargs):
    telemetry = EngineTelemetry()
    machine = machine_for(binary, telemetry=telemetry, **kwargs)
    machine.load(binary)
    result = machine.run()
    return result, machine, telemetry


class TestTelemetryAccounting:
    def test_block_and_compile_accounting(self, lbm):
        result, _, t = _observed_run(lbm)
        assert t.compiles > 0
        assert t.dispatches >= t.compiles
        # Exact attribution: every retired instruction belongs to
        # exactly one dispatched block or ran in the per-step tier.
        assert t.block_instructions > 0 and t.cold_instructions > 0
        assert t.block_instructions + t.cold_instructions \
            == result.icount
        assert sum(t.trace_lengths.values()) == t.compiles
        assert sum(n * c for n, c in t.trace_lengths.items()) \
            == t.insns_fused
        assert t.insns_fused >= t.compiles   # no empty traces
        assert t.compile_seconds > 0
        assert t.source_lines > 0
        # Every trace ended for a named reason.
        assert sum(t.ends_by_reason.values()) == t.compiles

    def test_hot_blocks_ranked_by_cycles(self, lbm):
        result, _, t = _observed_run(lbm)
        hot = t.hot_blocks(5)
        assert 0 < len(hot) <= 5
        cycles = [row["cycles"] for row in hot]
        assert cycles == sorted(cycles, reverse=True)
        assert sum(row["cycle_share"]
                   for row in t.hot_blocks(10 ** 6)) \
            == pytest.approx(1.0)
        # Exact attribution: every cycle was charged by one dispatched
        # block or by the per-step tier.
        fused = sum(s[2] for s in t.block_stats.values())
        assert fused > 0 and t.cold_cycles > 0
        assert fused + t.cold_cycles == result.cycles
        # The step engine charges every cycle per-step.
        step, _, t = _observed_run(lbm, engine="step")
        assert step.cycles == result.cycles
        assert t.block_stats == {} and t.cold_cycles == step.cycles

    def test_guard_sites_attribute_every_check(self, lbm):
        _, _, t = _observed_run(lbm)
        assert t.guards   # lbm's helper calls speculate ret/callr
        kinds = {site.kind for site in t.guards.values()}
        assert kinds <= {"callr", "jmpr", "ret"}
        assert t.guard_checks == sum(
            s.hits + s.misses for s in t.guards.values())
        assert t.guard_misses <= t.guard_checks
        assert 0.0 <= t.guard_failure_rate <= 1.0
        # Every deopt event names a known speculation site.
        assert t.deopt_events
        for ev in t.deopt_events:
            assert ev["pc"] in t.guards
            assert ev["reason"].startswith("guard-miss:")
        assert len(t.deopt_events) <= t.max_events
        # Miss targets are per-site attributable.
        for site in t.guards.values():
            assert sum(site.targets.values()) == site.misses

    def test_telemetry_is_a_pure_observer(self, lbm):
        plain = run_binary(lbm)
        observed, _, t = _observed_run(lbm)
        for field in PARITY_FIELDS:
            assert getattr(observed, field) == getattr(plain, field)

    def test_cache_hits_complement_compiles(self, lbm):
        _, _, t = _observed_run(lbm)
        report = t.report()
        assert report["cache"]["hits"] == t.dispatches - t.compiles
        assert report["cache"]["compiles"] == t.compiles


class TestDemotionSignals:
    def test_manual_step_demotes_once_with_signal(self):
        binary = assemble("x86", [I("movi", R0, 1), I("inc", R0),
                                  I("syscall", 0)])
        tracer = Tracer(name="demote-test")
        machine = machine_for(binary, tracer=tracer)
        machine.load(binary)
        machine.prepare_run()
        cpu = machine.cpu
        while cpu.running:
            cpu.step()
        # One demotion for the whole manual-stepping episode, mirrored
        # as one trace event naming the cause.
        assert cpu.demotions == {"manual-step": 1}
        root = tracer.finish()
        events = [ev for ev in root.events
                  if ev["event"] == "engine-demoted"]
        assert [ev["cause"] for ev in events] == ["manual-step"]

    def test_step_engine_never_counts_demotion(self):
        binary = assemble("x86", [I("movi", R0, 1), I("syscall", 0)])
        machine = machine_for(binary, engine="step")
        machine.load(binary)
        machine.prepare_run()
        while machine.cpu.running:
            machine.cpu.step()
        assert machine.cpu.demotions == {}

    def test_telemetry_mirrors_demotions(self):
        binary = assemble("x86", [I("movi", R0, 1), I("inc", R0),
                                  I("syscall", 0)])
        telemetry = EngineTelemetry()
        machine = machine_for(binary, telemetry=telemetry)
        machine.load(binary)
        machine.prepare_run()
        while machine.cpu.running:
            machine.cpu.step()
        # The report reads the CPU's own tally by cause.
        assert telemetry.report()["demotions"] == {"manual-step": 1}
        assert telemetry.report()["demotions"] == machine.cpu.demotions


class TestInvalidationAccounting:
    def test_watch_and_invalidate_causes_with_parity(self, lbm):
        """Satellite: watch-region add/remove and ``invalidate_code``
        between runs count the right causes, and every run stays
        bit-identical to the per-step tier under the same sequence."""
        text = lbm.section(".text")
        mid = (text.addr + text.end) // 2
        regions = ((text.addr, mid), (mid, text.end))

        def sequence(engine, telemetry=None):
            machine = machine_for(lbm, engine=engine,
                                  telemetry=telemetry)
            machine.load(lbm)
            results = [machine.run()]
            machine.watch_bounce(*regions)         # add: invalidates
            results.append(machine.run())
            machine.cpu.invalidate_code()          # explicit drop
            results.append(machine.run())
            machine.cpu.watch_regions = None       # remove: invalidates
            results.append(machine.run())
            return results, machine

        telemetry = EngineTelemetry()
        sb_results, machine = sequence("superblock", telemetry)
        step_results, _ = sequence("step")
        for sb, step in zip(sb_results, step_results):
            for field in PARITY_FIELDS:
                assert getattr(sb, field) == getattr(step, field), field
        cpu = machine.cpu
        assert cpu.invalidations["watch-region"] == 2
        assert cpu.invalidations["invalidate_code"] == 1
        # The report reads the CPU's own ledger.
        assert telemetry.report()["cache"]["invalidations"] \
            == cpu.invalidations
        assert sb_results[1].transitions > 0

    def test_empty_cache_invalidation_not_counted(self, lbm):
        machine = machine_for(lbm)
        machine.load(lbm)
        # No blocks built yet: clearing nothing is not an event.
        machine.cpu.invalidate_code()
        assert machine.cpu.invalidations == {}

    def test_telemetry_attach_detach_invalidate(self, lbm):
        machine = machine_for(lbm)
        machine.load(lbm)
        machine.run()
        assert machine.cpu._blocks
        EngineTelemetry().attach(machine)
        assert machine.cpu.invalidations == {"telemetry-attach": 1}
        machine.run()
        machine.cpu.attach_telemetry(None)
        assert machine.cpu.invalidations \
            == {"telemetry-attach": 1, "telemetry-detach": 1}


class TestEngineValidation:
    def test_unknown_engine_rejected(self, lbm):
        with pytest.raises(ValueError, match="unknown engine"):
            machine_for(lbm, engine="bogus")
        with pytest.raises(ValueError, match="superblock"):
            machine_for(lbm, engine="jit")   # error names known tiers

    def test_known_tiers_exported(self):
        assert ENGINES == ("superblock", "step")

    def test_cli_rejects_unknown_engine(self, tmp_path, lbm, capsys):
        path = tmp_path / "lbm.bin"
        path.write_bytes(lbm.to_bytes())
        with pytest.raises(SystemExit) as exc:
            main(["run", str(path), "--engine", "bogus"])
        assert exc.value.code == 2   # argparse usage error
        assert "invalid choice" in capsys.readouterr().err


class TestEngineReport:
    def test_schema_and_json_round_trip(self, lbm):
        _, _, t = _observed_run(lbm)
        doc = json.loads(t.to_json())
        assert doc["schema"] == ENGINE_REPORT_SCHEMA
        assert doc == json.loads(json.dumps(t.report()))
        assert doc["blocks"]["dispatches"] == t.dispatches
        assert doc["guards"]["checks"] \
            == doc["guards"]["hits"] + doc["guards"]["misses"]
        assert doc["time_split"]["compile_seconds"] \
            == pytest.approx(t.compile_seconds)

    def test_render_names_hot_blocks_and_guard_sites(self, lbm):
        _, _, t = _observed_run(lbm)
        text = render_engine_report(t)
        assert "engine report" in text
        assert "hot block" in text
        assert "guard site" in text
        assert "block cache" in text
        # A dict renders identically to the live collector.
        assert render_engine_report(t.report()) == text

    def test_top_bounds_the_rankings(self, lbm):
        _, _, t = _observed_run(lbm)
        report = t.report(top=2)
        assert len(report["hot_blocks"]) <= 2
        assert len(report["guards"]["ranking"]) <= 2


def _unwinding_jt(arch="x86"):
    """A jt-rewritten C++ program that throws through relocated
    frames: trampolines plus ``cxx-unwind`` RA translations."""
    binary = compiled(_throwing_program(depth=3, catch_level=0), arch)
    rewritten, _, runtime = rewrite_binary(binary, RewriteMode.JT,
                                           scorch_original=True)
    return rewritten, runtime


def _docker_jt(arch="x86"):
    """The Go-like app (x86 only) rewritten in jt mode: trampolines
    plus ``go`` RA translations during tracebacks."""
    _, binary = docker_like()
    rewritten, _, runtime = rewrite_binary(binary, RewriteMode.JT,
                                           scorch_original=True)
    return rewritten, runtime


class TestRuntimeParity:
    @pytest.mark.parametrize("make, arch", [
        (_unwinding_jt, "x86"), (_unwinding_jt, "ppc64"),
        (_unwinding_jt, "aarch64"), (_docker_jt, "x86")],
        ids=["cxx-unwind-x86", "cxx-unwind-ppc64", "cxx-unwind-aarch64",
             "go-x86"])
    def test_superblock_matches_step_engine(self, make, arch,
                                            fuse_on_first_entry):
        """The collector rides the fused tier but counts trampoline
        hits per site, RA hits and misses per path, and unwind walks
        exactly like the per-step engine, and attaching it changes no
        ``RunResult`` field (heads fuse on their first entry, so
        trampolines run inside dispatched blocks)."""
        rewritten, runtime = make(arch)
        by_engine = {}
        for engine in ENGINES:
            telemetry = EngineTelemetry()
            observed = run_binary(rewritten, runtime_lib=runtime,
                                  engine=engine, telemetry=telemetry)
            plain = run_binary(rewritten, runtime_lib=runtime,
                               engine=engine)
            for field in PARITY_FIELDS:
                assert getattr(observed, field) == getattr(plain, field)
            by_engine[engine] = telemetry
        fused, step = by_engine["superblock"], by_engine["step"]
        assert fused.dispatches > 0 and step.dispatches == 0
        assert fused.tramp_hits and fused.ra_stats and fused.unwind_stats
        assert fused.tramp_hits == step.tramp_hits
        assert fused.ra_stats == step.ra_stats
        assert fused.unwind_stats == step.unwind_stats
        # Some dispatched block holds a trampoline site.
        assert any(fused._block_sites.values())


class TestFlightSections:
    def test_block_cycles_use_nearest_rank_percentiles(self):
        values = [3, 3, 7, 10, 10, 10, 42, 5, 8, 8, 99, 1]
        counts = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        # Nearest rank over the expanded, sorted samples.
        ordered = sorted(values)

        def rank(p):
            return ordered[max(1, -(-p * len(ordered) // 100)) - 1]

        assert _distribution(counts) == {
            "count": len(values), "sum": sum(values),
            "min": min(values), "max": max(values),
            "mean": sum(values) / len(values),
            "p50": rank(50), "p90": rank(90), "p99": rank(99)}
        assert (rank(50), rank(90), rank(99)) == (8, 42, 99)
        assert _distribution({})["p50"] is None

    def test_attach_after_load_resolves_loaded_sites(self):
        rewritten, runtime = _unwinding_jt()
        machine = machine_for(rewritten)
        image = machine.load(rewritten)
        machine.install_runtime(runtime, image)
        telemetry = EngineTelemetry().attach(machine)
        machine.run(image)
        declared = {site for site, _, _ in
                    rewritten.metadata["rewrite"]["trampoline_sites"]}
        assert set(telemetry.tramp_sites) == declared
        assert telemetry.tramp_hits
        assert set(telemetry.tramp_hits) <= declared


class TestHarnessHook:
    def test_tool_run_carries_telemetry(self):
        from repro.eval import baseline_run, evaluate_tool

        _, binary = workload("605.mcf_s", "x86")
        oracle, cycles = baseline_run(binary)
        telemetry = EngineTelemetry()
        run = evaluate_tool("jt", binary, oracle, cycles,
                            telemetry=telemetry)
        assert run.passed
        assert run.telemetry is telemetry
        assert telemetry.dispatches > 0


class TestEngineCli:
    def test_engine_report_smoke(self, tmp_path, lbm, capsys):
        path = tmp_path / "lbm.bin"
        path.write_bytes(lbm.to_bytes())
        assert main(["run", str(path)]) == 0
        plain = capsys.readouterr().out
        out_json = tmp_path / "engine.json"
        assert main(["run", str(path), "--telemetry", str(out_json)]) == 0
        captured = capsys.readouterr()
        # Program output on stdout is unchanged; the report is on stderr.
        assert captured.out == plain
        assert "engine report" in captured.err
        assert "hot block" in captured.err
        assert "guard site" in captured.err
        doc = json.loads(out_json.read_text())
        assert doc["schema"] == ENGINE_REPORT_SCHEMA
        assert doc["hot_blocks"]
        assert doc["guards"]["sites"] > 0
        assert doc["last_blocks"]

    def test_engine_report_step_tier(self, tmp_path, lbm, capsys):
        # The per-step tier produces a valid report: no blocks
        # compile, so telemetry shows zero dispatches.
        path = tmp_path / "lbm.bin"
        path.write_bytes(lbm.to_bytes())
        out_json = tmp_path / "engine.json"
        assert main(["run", str(path), "--engine", "step",
                     "--telemetry", str(out_json)]) == 0
        assert "engine report (step)" in capsys.readouterr().err
        assert json.loads(out_json.read_text())["blocks"]["dispatches"] \
            == 0

    def test_engine_report_names_trampolines(self, tmp_path, capsys):
        rewritten, _ = _unwinding_jt()
        path = tmp_path / "rw.bin"
        path.write_bytes(rewritten.to_bytes())
        out_json = tmp_path / "engine.json"
        assert main(["run", str(path), "--telemetry", str(out_json)]) == 0
        err = capsys.readouterr().err
        assert "trampolines       :" in err
        assert "ra-translation    : cxx-unwind" in err
        doc = json.loads(out_json.read_text())
        assert doc["trampolines"]["hits_total"] > 0
        assert doc["unwind"]["throw:dwarf"]["walks"] > 0

    def test_engine_report_missing_file(self, capsys):
        assert main(["run", "/no/such/file.bin", "--telemetry",
                     "x.json"]) == 3
        assert "cannot read" in capsys.readouterr().err
