"""Extensions beyond the core pipeline: call-out instrumentation, the
frdwarf-style fast unwinder, and the CLI."""

import pytest

from repro.core import (
    CallOutCountingInstrumentation,
    CountingInstrumentation,
    IncrementalRewriter,
    RewriteMode,
)
from repro.machine import machine_for, run_binary
from repro.machine.fast_unwind import FastUnwinder, install_fast_unwinder
from repro.toolchain.workloads import docker_like
from tests.conftest import ARCHES, oracle_of, workload


class TestCallOutInstrumentation:
    @pytest.mark.parametrize("arch", ARCHES)
    def test_correct_on_all_arches(self, arch):
        program, binary = workload("605.mcf_s", arch)
        rewriter = IncrementalRewriter(
            mode=RewriteMode.JT,
            instrumentation=CallOutCountingInstrumentation(),
            scorch_original=True,
        )
        rewritten, report = rewriter.rewrite(binary)
        runtime = rewriter.runtime_library(rewritten)
        result = run_binary(rewritten, runtime_lib=runtime)
        assert (result.exit_code, result.output) == oracle_of(program)

    def test_costs_more_than_inline(self):
        program, binary = workload("605.mcf_s", "x86")
        cycles = {}
        for label, inst in [("inline", CountingInstrumentation()),
                            ("callout",
                             CallOutCountingInstrumentation())]:
            rewriter = IncrementalRewriter(mode=RewriteMode.FUNC_PTR,
                                           instrumentation=inst,
                                           scorch_original=True)
            rewritten, _ = rewriter.rewrite(binary)
            runtime = rewriter.runtime_library(rewritten)
            cycles[label] = run_binary(rewritten,
                                       runtime_lib=runtime).cycles
        assert cycles["callout"] > cycles["inline"]

    def test_same_counter_values_as_inline(self):
        program, binary = workload("619.lbm_s", "x86")

        def counters_with(inst):
            rewriter = IncrementalRewriter(mode=RewriteMode.JT,
                                           instrumentation=inst,
                                           scorch_original=True)
            rewritten, _ = rewriter.rewrite(binary)
            runtime = rewriter.runtime_library(rewritten)
            machine = machine_for(rewritten)
            image = machine.load(rewritten)
            machine.install_runtime(runtime, image)
            machine.run(image)
            return {
                key: machine.memory.read_int(
                    inst.counter_addr(*key) + image.bias, 8
                )
                for key in inst.slot_of
            }

        inline = counters_with(CountingInstrumentation())
        callout = counters_with(CallOutCountingInstrumentation())
        assert inline == callout


class TestFastUnwinder:
    def test_same_behaviour_cheaper_unwinding(self):
        program, binary = workload("620.omnetpp_s", "x86")
        rewriter = IncrementalRewriter(mode=RewriteMode.JT,
                                       scorch_original=True)
        rewritten, _ = rewriter.rewrite(binary)
        runtime = rewriter.runtime_library(rewritten)

        def run(fast):
            machine = machine_for(rewritten)
            image = machine.load(rewritten)
            machine.install_runtime(runtime, image)
            if fast:
                assert isinstance(install_fast_unwinder(machine),
                                  FastUnwinder)
            return machine.run(image)

        slow = run(False)
        fast = run(True)
        assert (slow.exit_code, slow.output) == oracle_of(program)
        assert (fast.exit_code, fast.output) == oracle_of(program)
        assert fast.cycles < slow.cycles
        # RA translation hook count identical: composition claim.
        assert (fast.counters["ra_translations"]
                == slow.counters["ra_translations"])

    def test_go_traceback_under_fast_unwinder(self):
        program, binary = docker_like()
        rewriter = IncrementalRewriter(mode=RewriteMode.JT,
                                       scorch_original=True)
        rewritten, _ = rewriter.rewrite(binary)
        runtime = rewriter.runtime_library(rewritten)
        machine = machine_for(rewritten)
        image = machine.load(rewritten)
        machine.install_runtime(runtime, image)
        install_fast_unwinder(machine)
        result = machine.run(image)
        assert (result.exit_code, result.output) == oracle_of(program)
        assert result.counters["tracebacks"] > 0


class TestCli:
    def test_list(self, capsys):
        from repro.cli import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "602.sgcc_s" in out and "docker_like" in out

    def test_rewrite_and_run_roundtrip(self, tmp_path, capsys):
        from repro.cli import main
        out_file = tmp_path / "rw.bin"
        rc = main(["rewrite", "--workload", "619.lbm_s",
                   "--mode", "jt", "--scorch", "--run",
                   "-o", str(out_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "identical behaviour" in out
        assert out_file.exists()
        rc = main(["run", str(out_file)])
        assert rc == 0

    def test_layout(self, tmp_path, capsys):
        from repro.cli import main
        out_file = tmp_path / "rw.bin"
        main(["rewrite", "--workload", "619.lbm_s", "-o",
              str(out_file)])
        capsys.readouterr()
        assert main(["layout", str(out_file)]) == 0
        assert ".instr" in capsys.readouterr().out

    def test_rewrite_refusal_exit_code(self, capsys):
        # --no-degrade restores the old all-or-nothing behaviour: an
        # imprecise pointer analysis aborts the whole rewrite.
        from repro.cli import EXIT_REWRITE_ERROR, main
        rc = main(["rewrite", "--workload", "docker_like",
                   "--mode", "func-ptr", "--no-degrade"])
        assert rc == EXIT_REWRITE_ERROR
        assert "refused" in capsys.readouterr().err

    def test_rewrite_degrades_by_default(self, capsys):
        # Without --no-degrade the ladder downgrades the implicated
        # functions and the rewrite completes with reduced coverage.
        from repro.cli import main
        rc = main(["rewrite", "--workload", "docker_like",
                   "--mode", "func-ptr", "--run"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "degraded" in out
        assert "identical behaviour" in out

    def test_tables(self, capsys):
        from repro.cli import main
        assert main(["table", "1"]) == 0
        assert main(["table", "2"]) == 0
        out = capsys.readouterr().out
        assert "This work" in out and "bctar" in out

    def test_build(self, tmp_path, capsys):
        from repro.cli import main
        out_file = tmp_path / "b.bin"
        assert main(["build", "--workload", "619.lbm_s",
                     "-o", str(out_file)]) == 0
        from repro.binfmt import Binary
        binary = Binary.from_bytes(out_file.read_bytes())
        assert binary.name.startswith("619.lbm_s")

    def test_batch_contains_bad_workload(self, capsys, tmp_path,
                                         monkeypatch):
        # One bad name among good ones is a per-workload failure, not a
        # batch abort: the good workload is still rewritten and the
        # exit code says "a rewrite-level failure", not "nothing
        # loaded".
        from repro.cli import EXIT_LOAD_ERROR, EXIT_REWRITE_ERROR, main
        monkeypatch.chdir(tmp_path)   # the default record ledger
        rc = main(["batch", "619.lbm_s", "no_such_workload"])
        captured = capsys.readouterr()
        assert rc == EXIT_REWRITE_ERROR
        assert "LOAD FAILED" in captured.err
        assert "619.lbm_s" in captured.out
        # Only when *every* workload fails to load is it a load error.
        rc = main(["batch", "nope_a", "nope_b"])
        capsys.readouterr()
        assert rc == EXIT_LOAD_ERROR

    def test_chaos_smoke(self, capsys):
        from repro.cli import main
        rc = main(["chaos", "--workload", "602.sgcc_s", "--report", "1",
                   "--underapprox", "1", "--worker-crashes", "1",
                   "--jobs", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "survived" in out
        assert "degraded" in out

    def test_app_workloads_x86_only(self, capsys):
        from repro.cli import EXIT_LOAD_ERROR, main
        rc = main(["rewrite", "--workload", "docker_like",
                   "--arch", "ppc64"])
        assert rc == EXIT_LOAD_ERROR
        assert "x86-only" in capsys.readouterr().err
