"""The benchmark's workloads: seeded programs and the cells run on them.

A *cell* is one verified emulated execution: either an oracle run of an
original binary (``run_binary``) or one ``evaluate_tool`` call, issued
in the order the experiment drivers in ``repro.eval.experiments`` issue
them.  :func:`setup` turns ``(workload, seed)`` into the cell list; it
is the only place inputs are generated, and ``seed`` is its only input.
"""

import dataclasses
import hashlib
import traceback

from repro.analysis import build_cfg
from repro.core import CountingInstrumentation
from repro.eval import evaluate_tool
from repro.eval.experiments import TABLE3_TOOLS
from repro.machine import run_binary
from repro.obs import NULL_TRACER
from repro.toolchain import compile_program, interpret
from repro.toolchain.workloads import (
    SPEC_BENCHMARK_NAMES,
    docker_spec,
    firefox_spec,
    generate_program,
    libcuda_spec,
    spec_workload,
)

#: Tools that refuse C++-exception programs by design (paper Table 3).
EXCEPTION_REFUSERS = ("srbi", "ir-lowering")

#: The paper's own rewriting modes: their passing cells give a
#: workload's overhead, size and coverage figures.
OURS = ("dir", "jt", "func-ptr")

LONG_RUN = (
    ("619.lbm_s", "x86"), ("602.sgcc_s", "x86"),
    ("620.omnetpp_s", "aarch64"), ("648.exchange2_s", "aarch64"),
    ("605.mcf_s", "ppc64"), ("625.x264_s", "ppc64"),
)
#: ``main_reps`` multipliers: long enough that execution, not JIT
#: compilation, dominates the emulator's time.
LONG_RUN_SCALE = 30
PARTIAL_INSTR_SCALE = 16


@dataclasses.dataclass
class Program:
    """One compiled input with its IR-interpreter reference."""

    label: str
    binary: object
    #: ``(exit_code, output)`` from ``repro.toolchain.interpret``
    reference: tuple
    uses_exceptions: bool

    def digest(self):
        return hashlib.sha256(self.binary.to_bytes()).hexdigest()


@dataclasses.dataclass
class Cell:
    """One emulated execution; ``tool`` None is the oracle run."""

    program: Program
    tool: str = None
    tool_kwargs: dict = dataclasses.field(default_factory=dict)
    #: functions to instrument with counters (None: empty
    #: instrumentation everywhere, the strong test)
    counting: frozenset = None

    @property
    def name(self):
        return f"{self.program.label}/{self.tool or 'oracle'}"

    @property
    def expect_refusal(self):
        return (self.tool in EXCEPTION_REFUSERS
                and self.program.uses_exceptions)


@dataclasses.dataclass
class Outcome:
    """What one cell did: ``status`` is pass / refused / wrong-output /
    fault; ``cycles`` are the emulated cycles when it ran to the end."""

    status: str
    cycles: int = None
    run: object = None
    error: str = None


def redrawn(spec, variant, **changes):
    """``spec`` redrawn as ``variant``: the generator's RNG is seeded
    from the name, so a ``#variant`` suffix draws a new program of the
    same personality.  Variant 0 is the paper's canonical program."""
    if variant:
        changes["name"] = f"{spec.name}#{variant}"
    return dataclasses.replace(spec, **changes)


def _programs(specs, tracer, pie_too=False):
    """Compile each ``(label, spec, arch)`` and interpret its IR; with
    ``pie_too`` each program is followed by its PIE build (label
    suffix ``:pie``), which shares the IR and so the reference."""
    programs = []
    for label, spec, arch in specs:
        with tracer.span("build", program=label):
            ir_program = generate_program(spec)
            binaries = [(label, compile_program(ir_program, arch))]
            if pie_too:
                binaries.append((label + ":pie",
                                 compile_program(ir_program, arch,
                                                 pie=True)))
        with tracer.span("interp", program=label):
            reference = tuple(interpret(ir_program))
        programs += [Program(name, binary, reference, spec.n_try > 0)
                     for name, binary in binaries]
    return programs


def _table3_x86(variant, tracer):
    specs = [(name, redrawn(spec_workload(name, "x86"), variant), "x86")
             for name in SPEC_BENCHMARK_NAMES]
    programs = _programs(specs, tracer, pie_too=True)
    cells = []
    for plain, pie in zip(programs[::2], programs[1::2]):
        cells.append(Cell(plain))
        cells += [Cell(plain, tool) for tool in TABLE3_TOOLS
                  if tool != "ir-lowering"]
        cells += [Cell(pie), Cell(pie, "ir-lowering")]
    return cells


def _apps_large(variant, tracer):
    specs = [(f"{spec.name}:{arch}", redrawn(spec, variant, main_reps=1),
              arch)
             for spec in (firefox_spec(), libcuda_spec())
             for arch in ("x86", "ppc64", "aarch64")]
    # docker-like is x86 only: its original binary faults on ppc64 and
    # aarch64 (a bug outside the rewriter, not a rewriting outcome).
    specs.append(("docker_like:x86", redrawn(docker_spec(), variant,
                                            main_reps=1), "x86"))
    return [Cell(program, tool)
            for program in _programs(specs, tracer)
            for tool in (None, "jt", "func-ptr")]


def scaled(spec, variant, scale):
    """``spec`` as ``variant``, with ``scale`` times its main loop."""
    return redrawn(spec, variant, main_reps=spec.main_reps * scale)


def _long_run(variant, tracer):
    specs = [(f"{name}:{arch}",
              scaled(spec_workload(name, arch), variant, LONG_RUN_SCALE),
              arch)
             for name, arch in LONG_RUN]
    return [Cell(program, tool)
            for program in _programs(specs, tracer)
            for tool in (None, "jt", "func-ptr")]


def diogenes_subset(binary):
    """The function subset the Diogenes case study instruments (the
    selection ``repro.eval.experiments.diogenes_case_study`` makes):
    the branchy hot driver internals plus a quarter of the rest."""
    cfg = build_cfg(binary)
    ok_fns = [f for f in cfg.sorted_functions()
              if f.ok and not f.is_runtime_support]
    hot = [f.name for f in ok_fns
           if sum(1 for b in f.blocks.values() if b.size <= 4) >= 5]
    others = [f.name for f in ok_fns if f.name not in hot]
    return frozenset(hot + others[: max(4, len(others) // 4)])


def _partial_instr(variant, tracer):
    spec = scaled(libcuda_spec(), variant, PARTIAL_INSTR_SCALE)
    (program,) = _programs([("libcuda_like:x86", spec, "x86")], tracer)
    with tracer.span("subset", program=program.label):
        subset = diogenes_subset(program.binary)
    return [
        Cell(program),
        Cell(program, "srbi", {"trap_budget": 1 << 30}, subset),
        Cell(program, "jt", counting=subset),
        Cell(program, "func-ptr", counting=subset),
    ]


WORKLOADS = {
    "table3-x86": _table3_x86,
    "apps-large": _apps_large,
    "long-run": _long_run,
    "partial-instr": _partial_instr,
}


#: The program variants each workload draws from: seed N builds
#: ``VARIANTS[workload][N % 16]``.  Only variants on which every cell
#: of the workload passes are listed (``bench/vet.py`` finds them): on
#: x86, about one draw in six of libcuda-like, and some of
#: firefox-like, crash the superblock JIT, which loads registers
#: decoded from bytes past a trace's real code (``IndexError`` in the
#: generated block).
VARIANTS = {
    "table3-x86": tuple(range(16)),
    "apps-large": (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 15, 16, 17, 18),
    "long-run": tuple(range(16)),
    "partial-instr": (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 15, 16, 17,
                      18),
}


def setup(workload, seed, tracer=NULL_TRACER):
    """Generate ``workload``'s inputs for ``seed``; returns the cells."""
    variants = VARIANTS[workload]
    return WORKLOADS[workload](variants[seed % len(variants)], tracer)


def run_cell(cell, base_cycles, tracer=None, telemetry=None):
    """Execute one cell and judge it against the IR interpreter.

    ``base_cycles`` maps a program label to its oracle run's cycles: an
    oracle cell fills it, the tool cells after it read it.  Whatever a
    cell raises makes it a ``fault`` outcome, so one crash fails the
    run with the cell named instead of ending it.
    """
    try:
        return _run_cell(cell, base_cycles, tracer, telemetry)
    except Exception as exc:
        return Outcome("fault", error="".join(
            traceback.format_exception(exc, limit=-1)).strip())


def _run_cell(cell, base_cycles, tracer, telemetry):
    label = cell.program.label
    if cell.tool is None:
        with (tracer or NULL_TRACER).span("oracle-run"):
            result = run_binary(cell.program.binary, tracer=tracer,
                                telemetry=telemetry)
        if (result.exit_code, result.output) != cell.program.reference:
            return Outcome("wrong-output", result.cycles)
        base_cycles[label] = result.cycles
        return Outcome("pass", result.cycles)
    if label not in base_cycles:
        return Outcome("fault", error="no passing oracle run")
    instrumentation = (CountingInstrumentation(function_filter=cell.counting)
                       if cell.counting is not None else None)
    run = evaluate_tool(cell.tool, cell.program.binary,
                        cell.program.reference, base_cycles[label],
                        benchmark=label,
                        instrumentation=instrumentation, tracer=tracer,
                        telemetry=telemetry, **cell.tool_kwargs)
    if run.passed:
        return Outcome("pass", run.cycles, run)
    if run.error == "wrong output":
        return Outcome("wrong-output", run=run, error=run.error)
    status = "refused" if run.error.startswith("RewriteError") else "fault"
    return Outcome(status, run=run, error=run.error)


def expected_status(cell):
    return "refused" if cell.expect_refusal else "pass"


def inputs_digest(cells):
    """One digest over every distinct input binary, in cell order."""
    h = hashlib.sha256()
    seen = set()
    for cell in cells:
        if cell.program.label not in seen:
            seen.add(cell.program.label)
            h.update(cell.program.digest().encode())
    return h.hexdigest()
