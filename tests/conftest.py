"""Shared fixtures: small IR programs, compiled binaries, oracles.

Expensive artifacts (compiled workloads) are session-scoped and cached
per (name, arch, pie) so the suite stays fast.
"""

import pytest

from repro.isa import ARCH_NAMES, get_arch
from repro.machine import run_binary
from repro.toolchain import compile_program, interpret, ir
from repro.toolchain.workloads import (
    build_workload,
    spec_workload,
)

ARCHES = list(ARCH_NAMES)   # ["aarch64", "ppc64", "x86"]


def small_program(lang="c"):
    """A compact program exercising switches, pointers and calls."""
    def case(v):
        return [ir.BinOp("acc", "+", "acc", v)]

    body = [
        ir.SetConst("acc", 3),
        ir.Loop("i", 5, [
            ir.BinOp("k", "&", "i", 3),
            ir.Switch("k", [case(1), case(10), case(100), case(1000)],
                      default=case(9999)),
            ir.CallPtr("r", "fptab", "k", args=["i"]),
            ir.BinOp("acc", "+", "acc", "r"),
            ir.Call("r", "helper", ["acc"]),
            ir.BinOp("acc", "^", "acc", "r"),
        ]),
        ir.Print("acc"),
        ir.Return("acc"),
    ]
    functions = [
        ir.Function("helper", params=["x"],
                    body=[ir.BinOp("y", "&", "x", 255),
                          ir.Return("y")]),
        ir.Function("leafA", params=["x"],
                    body=[ir.BinOp("y", "+", "x", 7), ir.Return("y")]),
        ir.Function("leafB", params=["x"],
                    body=[ir.BinOp("y", "*", "x", 3), ir.Return("y")]),
        ir.Function("main", body=body),
    ]
    if lang == "cxx":
        functions.insert(0, ir.Function(
            "thrower", params=["x"],
            body=[ir.If("x", ">", 2, [ir.Throw("x")]), ir.Return("x")],
        ))
        body[1].body.append(ir.Try(
            [ir.Call("t", "thrower", ["i"]),
             ir.BinOp("acc", "+", "acc", "t")],
            "e",
            [ir.BinOp("acc", "+", "acc", "e")],
        ))
    return ir.Program(
        name=f"small_{lang}",
        lang=lang,
        functions=functions,
        globals=[
            ir.GlobalVar("fptab",
                         ["&leafA", "&leafB", "&leafA", "&leafB"]),
            ir.GlobalVar("cell", 0),
        ],
    )


@pytest.fixture(scope="session")
def small_c_program():
    return small_program("c")


@pytest.fixture(scope="session")
def small_cxx_program():
    return small_program("cxx")


_COMPILED = {}


def compiled(program, arch, pie=False):
    key = (program.name, arch, pie)
    if key not in _COMPILED:
        _COMPILED[key] = compile_program(program, arch, pie=pie)
    return _COMPILED[key]


_WORKLOADS = {}


def workload(name, arch, pie=False, **kw):
    key = (name, arch, pie, tuple(sorted(kw.items())))
    if key not in _WORKLOADS:
        spec = spec_workload(name, arch, pie=pie, **kw)
        _WORKLOADS[key] = build_workload(spec, arch)
    return _WORKLOADS[key]


_ORACLES = {}


def oracle_of(program):
    if program.name not in _ORACLES:
        _ORACLES[program.name] = interpret(program)
    return _ORACLES[program.name]


def assert_same_behaviour(program, binary, runtime_lib=None):
    """Run ``binary`` and compare with the IR oracle; returns RunResult."""
    code, out = oracle_of(program)
    result = run_binary(binary, runtime_lib=runtime_lib)
    assert (result.exit_code, result.output) == (code, out), (
        f"behaviour diverged: expected ({code}, {out}), "
        f"got ({result.exit_code}, {result.output})"
    )
    return result


@pytest.fixture
def fuse_on_first_entry(monkeypatch):
    """Fuse a trace head's path on its first entry instead of its
    ``HOT_THRESHOLD``-th, so short test programs reach the fused tier
    (their second pass is recorded, their third dispatched)."""
    from repro.machine import cpu
    monkeypatch.setattr(cpu, "HOT_THRESHOLD", 1)


@pytest.fixture(params=ARCHES)
def arch(request):
    return request.param


@pytest.fixture(params=ARCHES)
def spec(request):
    return get_arch(request.param)
