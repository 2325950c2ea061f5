"""The benchmark's arithmetic: percentiles, means, and span self time.

Everything here is pure and works on plain numbers or on
:class:`repro.obs.Span` trees, so ``test_bench.py`` checks it without
running a workload.
"""

import math
from collections import namedtuple

from repro.core import PIPELINE_STAGES

#: A nearest-rank percentile with the samples it was drawn from and how
#: many of them lie strictly above it.
Percentile = namedtuple("Percentile", "value samples beyond")


def percentile(values, pct):
    """Nearest-rank ``pct``-th percentile: the smallest sample with at
    least ``pct`` percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    value = ordered[rank - 1]
    return Percentile(value, len(ordered),
                      sum(1 for v in ordered if v > value))


def geomean(values):
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(span):
    """``span``'s duration minus the part its children cover (children
    may overlap each other; parts outside the span do not count)."""
    return span.duration - covered(
        (max(c.t_start, span.t_start), min(c.t_end, span.t_end))
        for c in span.children)


#: Span names a cell is made of, by the layer that opens them.
CELL_PARTS = ("oracle-run", "rewrite", "machine-run")


def cell_parts(cell):
    """``{name: [spans]}`` for the direct children of a ``cell`` span
    that belong to :data:`CELL_PARTS`; anything else the cell spends
    is the evaluation layer's own time."""
    parts = {name: [] for name in CELL_PARTS}
    for child in cell.children:
        if child.name in parts:
            parts[child.name].append(child)
    return parts


def layer_metrics(pass_span, telemetries):
    """Per-layer numbers of one traced pass.

    ``pass_span`` holds one ``cell`` span per cell; ``telemetries`` are
    the :class:`repro.obs.EngineTelemetry` collectors of its runs.
    Cell time splits exactly into ``machine.oracle_s``,
    ``machine.run_s``, ``core.rewrite_s`` and ``eval.self_s``.
    """
    out = dict.fromkeys(("machine.oracle_s", "machine.run_s",
                         "core.rewrite_s", "eval.self_s"), 0.0)
    stages = dict.fromkeys(PIPELINE_STAGES, 0.0)
    rewrites = []
    for cell in pass_span.children:
        parts = cell_parts(cell)
        out["machine.oracle_s"] += sum(s.duration
                                       for s in parts["oracle-run"])
        out["machine.run_s"] += sum(s.duration for s in parts["machine-run"])
        for rewrite in parts["rewrite"]:
            rewrites.append(rewrite.duration)
            for stage in rewrite.children:
                if stage.name in stages:
                    stages[stage.name] += stage.duration
        out["eval.self_s"] += self_time(cell)
    out["core.rewrite_s"] = sum(rewrites)
    out["core.rewrites"] = len(rewrites)
    out["core.rewrite_p50_ms"] = (percentile(rewrites, 50).value * 1e3
                                  if rewrites else 0.0)
    out["core.rewrite_p90_ms"] = (percentile(rewrites, 90).value * 1e3
                                  if rewrites else 0.0)
    for name, seconds in stages.items():
        out[f"core.stage.{name}_s"] = seconds

    counters = pass_span.total_counters()
    out["core.trampolines"] = sum(n for key, n in counters.items()
                                  if key.startswith("trampolines."))
    out["machine.insns"] = counters.get("instructions", 0)
    out["machine.traps"] = counters.get("traps", 0)
    out["machine.ra_translations"] = counters.get("ra_translations", 0)

    machine_s = sum(s.duration for s in pass_span.iter_spans()
                    if s.name == "machine-run")
    compile_s = sum(t.compile_seconds for t in telemetries)
    compiles = sum(t.compiles for t in telemetries)
    dispatches = sum(t.dispatches for t in telemetries)
    checks = sum(t.guard_checks for t in telemetries)
    out["machine.jit_compile_s"] = compile_s
    out["machine.jit_exec_s"] = machine_s - compile_s
    out["machine.jit_compiles"] = compiles
    out["machine.jit_dispatches"] = dispatches
    out["machine.jit_reuse"] = (1 - compiles / dispatches
                                if dispatches else 0.0)
    out["machine.guard_miss_rate"] = (
        sum(t.guard_misses for t in telemetries) / checks if checks else 0.0)
    out["machine.mips"] = (out["machine.insns"] / machine_s / 1e6
                           if machine_s else 0.0)
    return out
