"""The engine observatory: superblock JIT telemetry, demotion and
invalidation accounting, the ``EngineReport/v1`` surface, and the
``repro engine report`` CLI.

Everything here holds the tentpole invariant from the superblock tier:
telemetry is a pure observer — attaching it must never change a single
``RunResult`` field, fault-time register, or kernel counter.
"""

import json

import pytest

from repro.cli import main
from repro.core import IncrementalRewriter, RewriteMode
from repro.isa import Instruction as I
from repro.isa.registers import R0
from repro.machine import machine_for, run_binary
from repro.machine.cpu import ENGINES
from repro.obs import (
    ENGINE_REPORT_SCHEMA,
    EngineTelemetry,
    FlightRecorder,
    Metrics,
    Tracer,
    render_engine_report,
)

from tests.conftest import compiled, small_program, workload
from tests.test_machine import assemble

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
        # exactly one dispatched block.
        assert t.block_instructions == result.icount
        assert t.trace_lengths.count == t.compiles
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
        assert sum(s[2] for s in t.block_stats.values()) \
            == result.cycles

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
        assert len(t.deopt_events) <= t.max_deopt_events
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
        metrics = Metrics()
        tracer = Tracer(name="demote-test")
        machine = machine_for(binary, metrics=metrics, tracer=tracer)
        machine.load(binary)
        machine.prepare_run()
        cpu = machine.cpu
        while cpu.running:
            cpu.step()
        # One demotion for the whole manual-stepping episode, mirrored
        # as a metric and a trace event naming the cause.
        assert cpu.demotions == {"manual-step": 1}
        assert metrics.counter_values()["engine.demoted"] == 1
        root = tracer.finish()
        events = [ev for ev in root.events
                  if ev["event"] == "engine-demoted"]
        assert events and events[0]["cause"] == "manual-step"

    def test_step_engine_never_counts_demotion(self):
        binary = assemble("x86", [I("movi", R0, 1), I("syscall", 0)])
        machine = machine_for(binary, engine="step")
        machine.load(binary)
        machine.prepare_run()
        while machine.cpu.running:
            machine.cpu.step()
        assert machine.cpu.demotions == {}

    def test_step_granularity_flight_attach_signals(self, lbm):
        metrics = Metrics()
        flight = FlightRecorder(granularity="step")
        machine = machine_for(lbm, metrics=metrics, flight=flight)
        assert machine.cpu.demotions == {"flight-recorder": 1}
        assert metrics.counter_values()["engine.demoted"] == 1

    def test_telemetry_mirrors_demotions(self, lbm):
        flight = FlightRecorder(granularity="step")
        telemetry = EngineTelemetry()
        # Telemetry attached after the demotion still sees it: the CPU
        # counts by cause unconditionally and seeds at attach time.
        machine = machine_for(lbm, flight=flight, telemetry=telemetry)
        assert telemetry.demotions == {"flight-recorder": 1}


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
        # The telemetry mirror agrees with the CPU's own ledger.
        assert telemetry.invalidations == cpu.invalidations
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

    def test_flight_granularity_validated(self):
        with pytest.raises(ValueError, match="granularity"):
            FlightRecorder(granularity="bogus")


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


class TestFlightGranularity:
    def test_block_mode_matches_step_mode_tramp_hits(self):
        """Block-granularity recording rides the fused tier but must
        count trampoline hits exactly like per-step recording."""
        binary = compiled(small_program("c"), "x86")
        rewriter = IncrementalRewriter(mode=RewriteMode.JT,
                                       scorch_original=True)
        out, _ = rewriter.rewrite(binary)
        runtime = rewriter.runtime_library(out)
        by_mode = {}
        for granularity in ("block", "step"):
            recorder = FlightRecorder(granularity=granularity)
            run_binary(out, runtime_lib=runtime, flight=recorder)
            by_mode[granularity] = recorder
        assert by_mode["block"].tramp_hits
        assert by_mode["block"].tramp_hits \
            == by_mode["step"].tramp_hits
        assert by_mode["block"].superblocks > 0
        assert by_mode["step"].superblocks == 0
        summary = by_mode["block"].summary()
        assert summary["granularity"] == "block"
        assert summary["superblocks"] \
            == by_mode["block"].superblocks


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
        out_json = tmp_path / "engine.json"
        assert main(["engine", "report", str(path),
                     "--json", str(out_json)]) == 0
        captured = capsys.readouterr()
        assert "engine report" in captured.out
        assert "hot block" in captured.out
        assert "guard site" in captured.out
        doc = json.loads(out_json.read_text())
        assert doc["schema"] == ENGINE_REPORT_SCHEMA
        assert doc["hot_blocks"]
        assert doc["guards"]["sites"] > 0

    def test_engine_report_step_tier(self, tmp_path, lbm, capsys):
        # The per-step tier produces an (empty-but-valid) report: no
        # blocks compile, so telemetry shows zero dispatches.
        path = tmp_path / "lbm.bin"
        path.write_bytes(lbm.to_bytes())
        assert main(["engine", "report", str(path),
                     "--engine", "step"]) == 0
        assert "engine report (step)" in capsys.readouterr().out

    def test_engine_report_missing_file(self, capsys):
        assert main(["engine", "report", "/no/such/file.bin"]) == 3
        assert "cannot read" in capsys.readouterr().err
