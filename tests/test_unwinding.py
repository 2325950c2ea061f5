"""Stack unwinding: C++ throw/catch, Go tracebacks, RA translation."""

import pytest

from repro.machine import machine_for, run_binary
from repro.core import RewriteMode, RuntimeLibrary, rewrite_binary
from repro.obs import EngineTelemetry
from repro.toolchain import compile_program, interpret, ir
from repro.util.errors import UnwindError
from tests.conftest import assert_same_behaviour, compiled

from repro.toolchain.workloads import docker_like


def _throwing_program(depth=3, catch_level=0):
    """throw at the bottom of a call chain; catch at ``catch_level``."""
    functions = []
    for level in range(depth):
        callee = f"level{level + 1}" if level + 1 < depth else "bottom"
        body = [ir.Call("t", callee, ["x"]),
                ir.BinOp("t", "+", "t", 1),
                ir.Return("t")]
        if level == catch_level:
            body = [
                ir.Try(
                    [ir.Call("t", callee, ["x"]),
                     ir.BinOp("t", "+", "t", 1)],
                    "e",
                    [ir.BinOp("t", "+", "e", 1000)],
                ),
                ir.Return("t"),
            ]
        functions.append(
            ir.Function(f"level{level}" if level else "entrypoint",
                        params=["x"], body=body)
        )
    functions.append(ir.Function(
        "bottom", params=["x"],
        body=[ir.If("x", ">", 5, [ir.Throw("x")]), ir.Return("x")],
    ))
    functions.append(ir.Function("main", body=[
        ir.SetConst("acc", 0),
        ir.Loop("i", 8, [
            ir.Call("t", "entrypoint", ["i"]),
            ir.BinOp("acc", "+", "acc", "t"),
        ]),
        ir.Print("acc"),
        ir.Return("acc"),
    ]))
    return ir.Program(name=f"throw_{depth}_{catch_level}", lang="cxx",
                      functions=functions)


class TestCxxUnwinding:
    @pytest.mark.parametrize("catch_level", [0, 1])
    def test_throw_through_frames(self, arch, catch_level):
        program = _throwing_program(depth=3, catch_level=catch_level)
        binary = compile_program(program, arch)
        assert_same_behaviour(program, binary)

    def test_catch_restores_locals(self, arch):
        """The handler-frame locals must survive the throw (saved-reg
        restoration during unwinding)."""
        program = ir.Program(name="restore", lang="cxx", functions=[
            ir.Function("boom", params=["x"],
                        body=[ir.Throw("x")]),
            ir.Function("clobberer", params=["x"], body=[
                # Uses several locals, clobbering the caller's registers.
                ir.BinOp("a", "+", "x", 1),
                ir.BinOp("b", "+", "a", 1),
                ir.BinOp("c", "+", "b", 1),
                ir.Call(None, "boom", ["c"]),
                ir.Return("c"),
            ]),
            ir.Function("main", body=[
                ir.SetConst("keep1", 111),
                ir.SetConst("keep2", 222),
                ir.Try([ir.Call(None, "clobberer", [5])], "e",
                       [ir.BinOp("keep1", "+", "keep1", "keep2")]),
                ir.Print("keep1"),
                ir.Return(0),
            ]),
        ])
        binary = compile_program(program, arch)
        result = assert_same_behaviour(program, binary)
        assert result.output == [333]

    def test_uncaught_exception_terminates(self, arch):
        program = ir.Program(name="uncaught", lang="cxx", functions=[
            ir.Function("main", body=[ir.Throw(7), ir.Return(0)]),
        ])
        binary = compile_program(program, arch)
        with pytest.raises(UnwindError):
            run_binary(binary)

    def test_nested_try_innermost_wins(self, arch):
        program = ir.Program(name="nested", lang="cxx", functions=[
            ir.Function("boom", params=["x"], body=[ir.Throw("x")]),
            ir.Function("main", body=[
                ir.SetConst("acc", 0),
                ir.Try(
                    [ir.Try([ir.Call(None, "boom", [5])], "e1",
                            [ir.BinOp("acc", "+", "acc", 1)])],
                    "e2",
                    [ir.BinOp("acc", "+", "acc", 100)],
                ),
                ir.Print("acc"),
                ir.Return("acc"),
            ]),
        ])
        binary = compile_program(program, arch)
        result = assert_same_behaviour(program, binary)
        assert result.output == [1]   # inner handler, not outer

    def test_rewritten_binary_unwinds_via_ra_translation(self, arch):
        program = _throwing_program(depth=3, catch_level=0)
        binary = compile_program(program, arch)
        oracle = interpret(program)
        rewritten, report, runtime = rewrite_binary(
            binary, RewriteMode.JT, scorch_original=True
        )
        assert runtime.wrap_unwind
        result = run_binary(rewritten, runtime_lib=runtime)
        assert (result.exit_code, result.output) == oracle
        assert result.counters["ra_translations"] > 0

    def test_rewritten_without_ra_translation_breaks(self, arch):
        """Removing the RA map reproduces the failure RA translation
        exists to fix: relocated return addresses have no unwind info."""
        program = _throwing_program(depth=3, catch_level=0)
        binary = compile_program(program, arch)
        rewritten, report, runtime = rewrite_binary(
            binary, RewriteMode.JT, scorch_original=True
        )
        broken = RuntimeLibrary(ra_map={}, trap_map=runtime.trap_map,
                                wrap_unwind=False)
        with pytest.raises(UnwindError):
            run_binary(rewritten, runtime_lib=broken)


class TestGoTraceback:
    def test_traceback_walks_all_frames(self):
        program, binary = docker_like()
        result = assert_same_behaviour(program, binary)
        assert result.counters["tracebacks"] > 0
        assert result.last_traceback[-1] == "_start"
        assert result.last_traceback[0] == "runtime.gc_entry"

    def test_rewritten_go_traceback_via_hooks(self):
        program, binary = docker_like()
        rewritten, report, runtime = rewrite_binary(
            binary, RewriteMode.JT, scorch_original=True
        )
        assert runtime.go_hooks
        result = assert_same_behaviour(program, rewritten,
                                       runtime_lib=runtime)
        assert result.counters["ra_translations"] > 0

    def test_rewritten_go_without_hooks_hits_unknown_pc(self):
        program, binary = docker_like()
        rewritten, report, runtime = rewrite_binary(
            binary, RewriteMode.JT, scorch_original=True
        )
        broken = RuntimeLibrary(ra_map={}, trap_map=runtime.trap_map,
                                go_hooks=False)
        with pytest.raises(UnwindError, match="unknown pc"):
            run_binary(rewritten, runtime_lib=broken)


class TestRaTranslationObservability:
    """The runtime collector's hit/miss split of the kernel's RA
    translations, across both unwinding paths."""

    def test_cxx_unwind_hits_and_misses(self, arch):
        program = _throwing_program(depth=3, catch_level=0)
        binary = compile_program(program, arch)
        rewritten, report, runtime = rewrite_binary(
            binary, RewriteMode.JT, scorch_original=True
        )
        recorder = EngineTelemetry()
        result = run_binary(rewritten, runtime_lib=runtime,
                            telemetry=recorder)
        stats = recorder.ra_stats["cxx-unwind"]
        assert stats["hits"] > 0
        assert stats["misses"] > 0  # at least the throw-site PC itself
        assert stats["hits"] + stats["misses"] \
            == result.counters["ra_translations"]
        assert all(ev["path"] == "cxx-unwind"
                   for ev in recorder.ra_miss_events)
        walks = recorder.unwind_stats[("throw", "dwarf")]
        assert walks["walks"] == result.counters["exceptions"]
        assert walks["frames"] == result.counters["unwound_frames"]

    def test_go_traceback_hits_and_sentinel_misses(self):
        program, binary = docker_like()
        rewritten, report, runtime = rewrite_binary(
            binary, RewriteMode.JT, scorch_original=True
        )
        recorder = EngineTelemetry()
        result = run_binary(rewritten, runtime_lib=runtime,
                            telemetry=recorder)
        stats = recorder.ra_stats["go"]
        assert stats["hits"] > 0
        # Every complete stack scan ends at the sentinel RA 0, which no
        # .ra_map covers, so misses count at least one per traceback.
        assert stats["misses"] >= result.counters["tracebacks"] > 0
        assert stats["hits"] + stats["misses"] \
            == result.counters["ra_translations"]
        walks = recorder.unwind_stats[("traceback", "dwarf")]
        assert walks["walks"] == result.counters["tracebacks"]

    def test_recorder_does_not_change_behaviour(self, arch):
        program = _throwing_program(depth=3, catch_level=1)
        binary = compile_program(program, arch)
        rewritten, report, runtime = rewrite_binary(
            binary, RewriteMode.JT, scorch_original=True
        )
        plain = run_binary(rewritten, runtime_lib=runtime)
        observed = run_binary(rewritten, runtime_lib=runtime,
                              telemetry=EngineTelemetry())
        assert observed.checksum == plain.checksum
        assert observed.cycles == plain.cycles


class TestRuntimeLibrary:
    def test_translate_passthrough_for_unknown(self):
        lib = RuntimeLibrary(ra_map={0x100: 0x50})
        assert lib.translate(0x100) == 0x50
        assert lib.translate(0x999) == 0x999

    def test_bias_adjustment(self):
        lib = RuntimeLibrary(ra_map={0x100: 0x50},
                             trap_map={0x30: 0x200})
        class FakeImage:
            bias = 0x40000
        lib.attach(FakeImage())
        assert lib.translate(0x40100) == 0x40050
        assert lib.trap_target(0x40030) == 0x40200
        assert lib.trap_target(0x40031) is None

    def test_has_mapping_tracks_translate(self):
        lib = RuntimeLibrary(ra_map={0x100: 0x50})
        class FakeImage:
            bias = 0x40000
        lib.attach(FakeImage())
        assert lib.has_mapping(0x40100)
        assert not lib.has_mapping(0x40101)
        assert not lib.has_mapping(0x100)  # unbiased address

    def test_dynamic_lookup_identity_default(self):
        lib = RuntimeLibrary(dyn_map={0x10: 0x90})
        assert lib.dynamic_lookup(0x10) == 0x90
        assert lib.dynamic_lookup(0x20) == 0x20

    def test_pack_unpack_maps(self):
        from repro.core.runtime_lib import pack_addr_map, unpack_addr_map
        mapping = {0x10: 0x20, 0x99: 0x1}
        assert unpack_addr_map(pack_addr_map(mapping)) == mapping
