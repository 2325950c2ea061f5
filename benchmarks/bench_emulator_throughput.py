"""Emulator throughput: superblock tier vs per-step tier.

The ROADMAP's "raw speed" item asks for superblock/trace execution so
straight-line runs skip per-step bookkeeping, with a >=5x
emulated-instruction throughput win on loop-heavy workloads.  This
bench measures both execution tiers of :class:`repro.machine.cpu.CPU`
on

* three *loop-heavy kernels* (tight arithmetic loop, memory-streaming
  loop, nested loop) where hot loops close into generated ``while``
  loops and the >=5x target applies, and
* two SPEC-personality mixes (call/return-heavy control flow) as
  context — there only paths entered ``HOT_THRESHOLD`` times are
  fused, so the speedup is bounded by the cold prefix each trace head
  runs per-step and by dispatches between short traces at indirect
  transfers, not by compile time.

Every measurement asserts byte-identical ``RunResult`` fields
(checksum, cycles, icount, icache_misses, transitions, counters)
between the tiers: the speedup is only meaningful because accounting
is exact.

Each kernel runs once untimed on each tier, so both tiers are timed
with ``CPU.run`` already specialized by CPython; it is then measured
twice and the best round per tier counts.  One more
telemetry-attached run per kernel must stay byte-identical to the
detached rounds.  Run with ``--json BENCH_emulator.json`` to persist
the per-kernel records.

``test_disabled_telemetry_guard_overhead`` is the standing guard for
the ``is None`` discipline: with telemetry detached the superblock
dispatch loop pays one ``is not None`` test per *block dispatch*,
which must project to <2% of a loop-kernel run — and the >=5x
throughput floor must hold unchanged.
"""

import dataclasses
import time

import pytest

from repro.machine.machine import machine_for
from repro.obs import EngineTelemetry
from repro.toolchain import ir
from repro.toolchain.workloads import (
    build_workload,
    compile_program,
    spec_workload,
)

#: RunResult fields that must agree bit-for-bit between engines.
_PARITY_FIELDS = ("checksum", "cycles", "icount", "icache_misses",
                  "transitions", "counters")

#: Loop-heavy kernels: the >=5x floor applies to these.
SPEEDUP_FLOOR = 5.0


def _loop_kernels():
    arith = ir.Program("arith", functions=[
        ir.Function("main", body=[
            ir.SetConst("acc", 0),
            ir.Loop("i", 400000, [
                ir.BinOp("acc", "+", "acc", "i"),
                ir.BinOp("acc", "^", "acc", 12345),
                ir.BinOp("acc", "+", "acc", 7),
            ]),
            ir.Exit("acc"),
        ]),
    ])
    stream = ir.Program(
        "stream",
        globals=[ir.GlobalVar("buf", init=[0] * 64)],
        functions=[
            ir.Function("main", body=[
                ir.SetConst("acc", 1),
                ir.Loop("rep", 40000, [
                    ir.Loop("i", 8, [
                        ir.LoadGlobal("x", "buf", "i"),
                        ir.BinOp("x", "+", "x", "acc"),
                        ir.StoreGlobal("buf", "x", "i"),
                        ir.BinOp("acc", "^", "acc", "x"),
                    ]),
                ]),
                ir.Exit("acc"),
            ]),
        ],
    )
    nested = ir.Program("nested", functions=[
        ir.Function("main", body=[
            ir.SetConst("acc", 0),
            ir.Loop("o", 12000, [
                ir.Loop("i", 24, [
                    ir.BinOp("acc", "+", "acc", "i"),
                    ir.BinOp("acc", "^", "acc", 40503),
                    ir.BinOp("acc", "+", "acc", 9),
                    ir.BinOp("acc", "&", "acc", 0xFFFFFF),
                ]),
                ir.BinOp("acc", "^", "acc", "o"),
            ]),
            ir.Exit("acc"),
        ]),
    ])
    return [(name, compile_program(prog, "x86"))
            for name, prog in (("arith-loop", arith),
                               ("stream-loop", stream),
                               ("nested-loop", nested))]


def _spec_mixes():
    out = []
    for name, mult in (("619.lbm_s", 20), ("602.sgcc_s", 20)):
        spec = spec_workload(name, "x86")
        spec = dataclasses.replace(spec,
                                   main_reps=spec.main_reps * mult)
        _, binary = build_workload(spec, "x86")
        out.append((name, binary))
    return out


def _timed_run(binary, engine, telemetry=None):
    machine = machine_for(binary, engine=engine, telemetry=telemetry)
    machine.load(binary)
    t0 = time.perf_counter()
    result = machine.run()
    return result, time.perf_counter() - t0


def _measure(binary):
    """One parity-checked engine comparison; returns
    ``(step_result, step_s, sb_result, sb_s)``."""
    step_res, step_s = _timed_run(binary, "step")
    sb_res, sb_s = _timed_run(binary, "superblock")
    for field in _PARITY_FIELDS:
        assert getattr(step_res, field) == getattr(sb_res, field), \
            f"engine parity broken on {field}"
    return step_res, step_s, sb_res, sb_s


def _experiment():
    rows = {}
    measured = []
    for group, workloads in (("loop", _loop_kernels()),
                             ("mix", _spec_mixes())):
        for name, binary in workloads:
            # One untimed run per tier first: CPython specializes
            # ``CPU.run`` only after it has been called a few times, so
            # without this the tier timed first runs generic bytecode
            # and the ratio depends on run order.
            _timed_run(binary, "step")
            _timed_run(binary, "superblock")
            # Two rounds of genuine repeat measurements.
            rounds = []
            for _ in range(2):
                _, step_s, sb_res, sb_s = _measure(binary)
                rounds.append((step_s, sb_s, sb_res))
            measured.append((group, name, binary, rounds))
    # Telemetry pass, strictly *after* every timed round: the loop
    # kernels' speedup ratios are sequence-sensitive on a busy
    # machine, so no extra run may interleave with the measurements.
    # One telemetry-attached run per workload must stay bit-identical
    # to the detached rounds.
    for group, name, binary, rounds in measured:
        telem_res, _ = _timed_run(binary, "superblock",
                                  telemetry=EngineTelemetry())
        for field in _PARITY_FIELDS:
            assert getattr(telem_res, field) \
                == getattr(rounds[0][2], field), \
                f"telemetry broke engine parity on {field}"
        # Best-of-rounds per engine: throughput is a capability
        # number, so noise from a busy machine should not count
        # against either tier.
        step_s = min(r[0] for r in rounds)
        sb_s = min(r[1] for r in rounds)
        sb_res = rounds[0][2]
        rows[name] = {
            "group": group,
            "instructions": sb_res.icount,
            "step_ips": sb_res.icount / step_s,
            "superblock_ips": sb_res.icount / sb_s,
            "speedup": step_s / sb_s,
        }
    return rows


@pytest.mark.benchmark(group="emulator-throughput")
def test_emulator_throughput(benchmark, print_section, runtime_records):
    rows = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    for name, row in rows.items():
        runtime_records(dict(row, benchmark=name,
                             tool="emulator-throughput"))
        if row["group"] == "loop":
            assert row["speedup"] >= SPEEDUP_FLOOR, \
                (f"{name}: superblock speedup {row['speedup']:.2f}x "
                 f"below the {SPEEDUP_FLOOR:.0f}x floor")
    body = "\n".join(
        f"{name:<16} {row['instructions']:>10,} insns   "
        f"step {row['step_ips']:>12,.0f} i/s   "
        f"superblock {row['superblock_ips']:>12,.0f} i/s   "
        f"{row['speedup']:>5.2f}x"
        for name, row in rows.items()
    )
    body += ("\n\nloop-heavy kernels must clear "
             f"{SPEEDUP_FLOOR:.0f}x; SPEC mixes are context rows")
    print_section("Emulator throughput: superblock vs per-step tier",
                  body)


#: Detached-telemetry tax budget on the superblock dispatch loop.
TELEMETRY_BUDGET = 0.02


def _observe_cost_per_dispatch(iterations=500_000, repeats=5):
    """Marginal seconds for the detached-telemetry dispatch check: one
    ``is not None`` test — a guarded loop minus an empty loop,
    best-of-N."""
    collector = None
    laps = range(iterations)
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in laps:
            pass
        base = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in laps:
            if collector is not None:
                raise AssertionError
        delta = (time.perf_counter() - t0) - base
        best = delta if best is None else min(best, delta)
    return max(0.0, best) / iterations


def test_disabled_telemetry_guard_overhead(benchmark, print_section,
                                           runtime_records):
    """Telemetry detached must stay invisible: the superblock dispatch
    loop's observation check projects to <2% of a loop-kernel run, and
    the >=5x throughput floor holds with no collector attached."""
    name, binary = _loop_kernels()[0]   # arith-loop

    def experiment():
        # Best-of-3 detached superblock runs, parity-checked per round.
        rounds = [_measure(binary) for _ in range(3)]
        step_s = min(r[1] for r in rounds)
        sb_s = min(r[3] for r in rounds)
        sb_res = rounds[0][2]
        # The dispatch count comes from a telemetry-attached run of
        # the same binary: dispatches are deterministic, so it is the
        # exact number of observation checks a detached run performs.
        telemetry = EngineTelemetry()
        _timed_run(binary, "superblock", telemetry=telemetry)
        per_check = _observe_cost_per_dispatch()
        projected = telemetry.dispatches * per_check / sb_s
        return {
            "dispatches": telemetry.dispatches,
            "guard_ns": per_check * 1e9,
            "superblock_ms": sb_s * 1e3,
            "projected_overhead": projected,
            "speedup": step_s / sb_s,
            "instructions": sb_res.icount,
        }

    r = benchmark.pedantic(experiment, rounds=1, iterations=1)
    assert r["dispatches"] > 0
    assert r["projected_overhead"] < TELEMETRY_BUDGET, (
        f"detached telemetry check projects to "
        f"{r['projected_overhead']:.2%} of a loop-kernel run "
        f"(budget {TELEMETRY_BUDGET:.0%})"
    )
    assert r["speedup"] >= SPEEDUP_FLOOR, (
        f"{name}: superblock speedup {r['speedup']:.2f}x with "
        f"telemetry detached fell below the {SPEEDUP_FLOOR:.0f}x floor"
    )
    benchmark.extra_info.update(r)
    runtime_records({"bench": "telemetry_guard_overhead",
                     "benchmark": name, "arch": "x86", **r})
    print_section(
        "Disabled engine-telemetry overhead on the superblock tier",
        f"reference        : {name} / x86\n"
        f"dispatches       : {r['dispatches']:,}\n"
        f"guard cost/check : {r['guard_ns']:.1f} ns\n"
        f"superblock run   : {r['superblock_ms']:.2f} ms "
        f"({r['instructions']:,} instructions)\n"
        f"projected tax    : {r['projected_overhead']:.3%} "
        f"(budget {TELEMETRY_BUDGET:.0%})\n"
        f"speedup          : {r['speedup']:.2f}x "
        f"(floor {SPEEDUP_FLOOR:.0f}x)",
    )
