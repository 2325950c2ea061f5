"""Section 8.1, last paragraph — instruction-cache behaviour.

The paper: "increased binary sizes do not lead to higher instruction
cache misses in our approaches ... a key design goal of jt and func-ptr
modes is to reduce the bounce between original code and the
instrumentation code, which will also reduce pollution to instruction
cache ... while our approaches increase code sizes, they do not increase
the size of 'hot code'."

Measured with the emulator's direct-mapped i-cache model: misses for the
original binary vs each rewriting mode.  The binary roughly doubles in
size, yet func-ptr-mode misses stay near the original's; dir mode (which
bounces at every indirect transfer) pollutes measurably more.

Every row runs on both execution tiers, which must agree exactly on
``icache_misses``, ``cycles`` and ``icount``: the superblock tier checks
i-cache tags from generated source, the per-step tier per instruction.
"""

from repro.core import RewriteMode, rewrite_binary
from repro.machine import CostModel, machine_for
from repro.toolchain.workloads import build_workload, spec_workload


#: Fields the two execution tiers must agree on under the i-cache model.
_PARITY_FIELDS = ("icache_misses", "cycles", "icount")


def _misses(binary, runtime=None):
    results = {}
    for engine in ("step", "superblock"):
        machine = machine_for(binary, costs=CostModel.with_icache(),
                              engine=engine)
        image = machine.load(binary)
        if runtime is not None:
            machine.install_runtime(runtime, image)
        results[engine] = machine.run(image)
    step, result = results["step"], results["superblock"]
    for field in _PARITY_FIELDS:
        assert getattr(step, field) == getattr(result, field), field
    return result.icache_misses, result


def _experiment():
    _, binary = build_workload(spec_workload("602.sgcc_s", "x86"), "x86")
    base_misses, base = _misses(binary)
    rows = {"original": (base_misses, 0.0)}
    for mode in (RewriteMode.DIR, RewriteMode.JT, RewriteMode.FUNC_PTR):
        rewritten, report, runtime = rewrite_binary(
            binary, mode, scorch_original=True
        )
        misses, result = _misses(rewritten, runtime)
        assert result.output == base.output
        rows[str(mode)] = (misses, report.size_increase)
    return rows


def test_icache(benchmark, print_section):
    rows = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    base = rows["original"][0]
    # Bigger binaries, but hot code does not grow: func-ptr misses stay
    # within a small factor of the original despite ~2x loaded size.
    assert rows["func-ptr"][0] <= base * 1.5
    # dir mode's text<->instr ping-pong pollutes more than func-ptr.
    assert rows["dir"][0] >= rows["func-ptr"][0]
    body = "\n".join(
        f"{label:<10} {misses:>8} i-cache misses   size {size:+.0%}"
        for label, (misses, size) in rows.items()
    )
    body += ("\n\ncode size roughly doubles, hot-code footprint does "
             "not (Section 8.1)")
    print_section("Section 8.1: i-cache behaviour of rewritten binaries",
                  body)
