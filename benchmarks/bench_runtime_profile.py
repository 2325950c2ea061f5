"""Runtime profile: where the cycles go, per tool, plus the
disabled-recorder tax.

Two benches.  The first runs the reference workload under every runtime-
relevant tool with a :class:`FlightRecorder` attached and registers one
machine-readable record per tool (cycles, instructions, trampoline hit
totals) through the ``runtime_records`` fixture — every record is
stamped with schema + environment fingerprint by the shared conftest
helper; run with ``--json BENCH_runtime.json`` to persist them.  The
second quantifies the flight hook's cost when *disabled*: the CPU hot loop pays one ``is not None``
test per step, and projecting that measured per-step cost against an
un-instrumented run's wall time must stay under 2%.
"""

import time

from repro.eval.harness import baseline_run, evaluate_tool
from repro.machine import run_binary
from repro.obs import FlightRecorder
from repro.toolchain.workloads import build_workload, spec_workload

REFERENCE = ("602.sgcc_s", "x86")
TOOLS = ("jt", "dir", "dyn-translation", "insn-patching")
BUDGET = 0.02  # the disabled flight hook may add at most 2% to a run


def test_runtime_profile(benchmark, print_section, runtime_records):
    name, arch = REFERENCE
    _, binary = build_workload(spec_workload(name, arch), arch)
    oracle, base_cycles = baseline_run(binary)

    def experiment():
        rows = []
        for tool in TOOLS:
            recorder = FlightRecorder()
            run = evaluate_tool(tool, binary, oracle, base_cycles,
                                benchmark=name, flight=recorder)
            hits = sum(recorder.tramp_hits.values())
            rows.append({
                "tool": tool,
                "benchmark": name,
                "arch": arch,
                "passed": run.passed,
                "error": run.error,
                "overhead": run.overhead,
                "cycles": run.cycles,
                "instructions": run.instructions,
                "trampoline_hits": hits,
                "trampoline_hits_by_kind": recorder.hits_by_kind(),
                "ra_translations": run.ra_translations,
                "traps_hit": run.traps_hit,
            })
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    lines = [f"{'tool':<16} {'cycles':>10} {'insns':>10} "
             f"{'tramp hits':>10} {'overhead':>9}"]
    for row in rows:
        runtime_records(row)
        if row["passed"]:
            lines.append(
                f"{row['tool']:<16} {row['cycles']:>10,} "
                f"{row['instructions']:>10,} "
                f"{row['trampoline_hits']:>10,} "
                f"{row['overhead']:>+9.2%}"
            )
        else:
            lines.append(f"{row['tool']:<16} FAILED ({row['error']})")
    assert any(row["passed"] for row in rows)
    benchmark.extra_info["rows"] = rows
    print_section(
        f"Runtime profile on {name}/{arch} "
        "(--json OUT writes BENCH_runtime.json)",
        "\n".join(lines),
    )


def _guard_cost_per_step(iterations=500_000, repeats=5):
    """Marginal seconds per disabled-recorder check: a guarded loop
    minus an empty loop, best-of-N (the hot loop pays exactly one
    ``is not None`` test per step when recording is off)."""
    flight = None
    laps = range(iterations)
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in laps:
            pass
        base = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in laps:
            if flight is not None:
                raise AssertionError
        delta = (time.perf_counter() - t0) - base
        best = delta if best is None else min(best, delta)
    return max(0.0, best) / iterations


def test_disabled_flight_overhead(benchmark, print_section,
                                  runtime_records):
    name, arch = REFERENCE
    _, binary = build_workload(spec_workload(name, arch), arch)

    def run_once():
        t0 = time.perf_counter()
        result = run_binary(binary)
        return time.perf_counter() - t0, result.icount

    best, icount = min(benchmark.pedantic(
        lambda: [run_once() for _ in range(3)], rounds=1, iterations=1))
    per_step = _guard_cost_per_step()
    projected = per_step * icount / best
    assert projected < BUDGET, (
        f"disabled flight hook projects to {projected:.2%} of a "
        f"reference run (budget {BUDGET:.0%})"
    )
    record = {
        "guard_ns": per_step * 1e9,
        "run_ms": best * 1e3,
        "icount": icount,
        "projected_overhead": projected,
    }
    benchmark.extra_info.update(record)
    runtime_records({"bench": "flight_guard_overhead",
                     "benchmark": name, "arch": arch, **record})
    print_section(
        "Disabled flight-recorder overhead on a reference run",
        f"reference        : {name} / {arch}\n"
        f"guard cost/step  : {per_step * 1e9:.1f} ns\n"
        f"run time         : {best * 1e3:.2f} ms "
        f"({icount:,} instructions)\n"
        f"projected tax    : {projected:.3%} (budget {BUDGET:.0%})",
    )
