"""Shared evaluation machinery.

``evaluate_tool`` runs the full pipeline for one (binary, tool) pair:
rewrite with the strong test enabled (every block instrumented with empty
instrumentation, original bytes scorched), execute on the emulator,
compare output with the oracle run, and measure overhead/coverage/size —
the paper's Section 8 methodology.
"""

from dataclasses import dataclass, field

from repro.baselines import (
    DynamicTranslationRewriter,
    InstructionPatcher,
    IrLoweringRewriter,
    SrbiRewriter,
)
from repro.core import (
    EmptyInstrumentation,
    IncrementalRewriter,
    RewriteMode,
    RuntimeLibrary,
)
from repro.machine import run_binary
from repro.obs import NULL_TRACER
from repro.util.errors import ReproError

#: Tool names understood by :func:`make_tool`.
TOOL_NAMES = ("srbi", "dir", "jt", "func-ptr", "ir-lowering",
              "dyn-translation", "insn-patching")


@dataclass
class ToolRun:
    """Outcome of one tool on one binary."""

    tool: str
    benchmark: str
    passed: bool
    #: ``"ExcType: message"`` when the run failed inside the pipeline
    error: str = None
    overhead: float = None
    coverage: float = None
    size_increase: float = None
    traps_installed: int = 0
    traps_hit: int = 0
    cycles: int = None
    #: runtime profile of the emulated execution
    instructions: int = None
    ra_translations: int = 0
    dyn_translations: int = 0
    unwound_frames: int = 0
    #: functions the degradation ladder moved below the requested mode
    degraded_functions: int = 0
    #: the rewrite's :class:`repro.core.modes.DegradationReport`
    #: (None when the tool has no ladder)
    degradation: object = field(default=None, repr=False)
    report: object = field(default=None, repr=False)


def make_tool(name, instrumentation=None, scorch=True, **kwargs):
    """Instantiate a rewriter by tool name."""
    instrumentation = instrumentation or EmptyInstrumentation()
    if name in ("dir", "jt", "func-ptr"):
        return IncrementalRewriter(
            mode=RewriteMode.parse(name),
            instrumentation=instrumentation,
            scorch_original=scorch,
            **kwargs,
        )
    if name == "srbi":
        return SrbiRewriter(instrumentation=instrumentation,
                            scorch_original=scorch, **kwargs)
    if name == "ir-lowering":
        return IrLoweringRewriter(instrumentation=instrumentation,
                                  **kwargs)
    if name == "dyn-translation":
        return DynamicTranslationRewriter(instrumentation=instrumentation,
                                          **kwargs)
    if name == "insn-patching":
        return InstructionPatcher(instrumentation=instrumentation,
                                  **kwargs)
    raise KeyError(f"unknown tool {name!r}; known: {TOOL_NAMES}")


def runtime_for(tool, rewriter, rewritten):
    """The runtime library a tool's output needs (None when none)."""
    if hasattr(rewriter, "runtime_library"):
        return rewriter.runtime_library(rewritten)
    if tool in ("insn-patching",):
        return RuntimeLibrary.from_binary(rewritten)
    return None


def evaluate_tool(tool, binary, oracle, base_cycles, benchmark="",
                  instrumentation=None, tracer=None,
                  telemetry=None, faults=None, **tool_kwargs):
    """Run one tool on one binary; returns a :class:`ToolRun`.

    ``oracle`` is the expected ``(exit_code, output list)``;
    ``base_cycles`` the original binary's cycle count.  Pass a
    :class:`repro.obs.Tracer` to observe the whole run — the rewrite's
    pipeline-stage spans and the emulated execution land under it;
    failures are recorded as ``harness-error`` trace events with the
    exception type.  Pass an
    :class:`repro.obs.EngineTelemetry` as ``telemetry`` to observe the
    emulated execution (hot blocks, guard outcomes, compile time,
    block ring, trampoline hits, RA translations).

    ``faults`` (a :class:`repro.analysis.FailurePlan`) is the chaos
    harness's entry point: its analysis perturbations are injected via
    the rewriter's ``cfg_hook`` (chained after any existing hook).  The
    run itself is judged exactly as without faults — the invariant
    under test is that the output binary still matches the oracle and
    only coverage drops.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    try:
        rewriter = make_tool(tool, instrumentation=instrumentation,
                             **tool_kwargs)
        # Thread the tracer into the rewriter post-construction so every
        # tool (incl. baselines with fixed signatures) is observable.
        rewriter.tracer = tracer
        if faults is not None:
            _apply_faults(rewriter, faults)
        rewritten, report = rewriter.rewrite(binary)
        runtime = runtime_for(tool, rewriter, rewritten)
        result = run_binary(rewritten, runtime_lib=runtime,
                            tracer=tracer, telemetry=telemetry)
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
        tracer.event("harness-error", tool=tool, benchmark=benchmark,
                     error=error)
        return ToolRun(tool=tool, benchmark=benchmark, passed=False,
                       error=error)
    if (result.exit_code, result.output) != oracle:
        tracer.event("harness-error", tool=tool, benchmark=benchmark,
                     error="wrong output")
        return ToolRun(tool=tool, benchmark=benchmark, passed=False,
                       error="wrong output", report=report)
    return ToolRun(
        tool=tool,
        benchmark=benchmark,
        passed=True,
        overhead=result.cycles / base_cycles - 1.0,
        coverage=report.coverage,
        size_increase=report.size_increase,
        traps_installed=report.traps,
        traps_hit=result.counters.get("traps", 0),
        cycles=result.cycles,
        instructions=result.icount,
        ra_translations=result.counters.get("ra_translations", 0),
        dyn_translations=result.counters.get("dyn_translations", 0),
        unwound_frames=result.counters.get("unwound_frames", 0),
        degraded_functions=len(getattr(report, "degradation", ()) or ()),
        degradation=getattr(report, "degradation", None),
        report=report,
    )


def _apply_faults(rewriter, faults):
    """Wire a FailurePlan's analysis faults into one rewriter instance."""
    from repro.analysis.failures import inject_failures

    prev_hook = getattr(rewriter, "cfg_hook", None)

    def hook(cfg, _prev=prev_hook):
        if _prev is not None:
            cfg = _prev(cfg) or cfg
        return inject_failures(cfg, faults)

    rewriter.cfg_hook = hook


def baseline_run(binary):
    """Oracle run of the original binary: ((exit, output), cycles)."""
    result = run_binary(binary)
    return (result.exit_code, result.output), result.cycles


def summarize(runs):
    """Aggregate ToolRuns the way Table 3 reports them.

    Tolerates ``None`` and empty/all-failed run lists: every aggregate
    over no values comes back ``None`` (totals come back 0) instead of
    raising.
    """
    runs = list(runs) if runs else []
    passed = [r for r in runs if r.passed]
    def agg(values, fn, default=None):
        values = [v for v in values if v is not None]
        return fn(values) if values else default
    return {
        "pass": len(passed),
        "total": len(runs),
        "overhead_max": agg([r.overhead for r in passed], max),
        "overhead_mean": agg(
            [r.overhead for r in passed],
            lambda v: sum(v) / len(v),
        ),
        "coverage_min": agg([r.coverage for r in passed], min),
        "coverage_mean": agg(
            [r.coverage for r in passed],
            lambda v: sum(v) / len(v),
        ),
        "size_max": agg([r.size_increase for r in passed], max),
        "size_mean": agg(
            [r.size_increase for r in passed],
            lambda v: sum(v) / len(v),
        ),
        # Runtime-profile totals across the passing runs.
        "cycles_total": agg([r.cycles for r in passed], sum, 0),
        "instructions_total": agg(
            [r.instructions for r in passed], sum, 0),
        "traps_hit_total": agg([r.traps_hit for r in passed], sum, 0),
        "ra_translations_total": agg(
            [r.ra_translations for r in passed], sum, 0),
    }
