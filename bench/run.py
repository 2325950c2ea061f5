"""Seeded end-to-end benchmark of the rewriting experiments.

    python3 bench/run.py --workload table3-x86 --seed 0 --seconds 25
    python3 bench/run.py --workload long-run --trace 1
    python3 bench/run.py            # every workload, each in a fresh process

One client issues the workload's cells back to back (a closed loop),
in the experiment drivers' order, and repeats whole passes while the
next pass still fits in ``--seconds`` (at least one pass).  Every cell
is checked against the IR interpreter.  An untraced run reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics, and writes
the span tree to ``bench/out/<workload>-s<seed>.trace.json``.

The last line of output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every cell did what the paper says it does.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
sys.path.insert(0, str(SRC))

import repro  # noqa: E402
from repro.obs import NULL_TRACER, EngineTelemetry, Tracer  # noqa: E402
from repro.obs.receipt import session_fingerprint  # noqa: E402

from cells import (  # noqa: E402
    OURS,
    WORKLOADS,
    expected_status,
    inputs_digest,
    run_cell,
    setup,
)
from stats import geomean, layer_metrics, percentile  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def metric_units():
    """``({end_to_end name: unit}, {per_layer name: unit})`` as
    ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Pass:
    """One pass over every cell: outcomes, per-cell seconds, and (when
    traced) the pass span and the runs' JIT telemetry."""

    def __init__(self, cells, tracer=None):
        self.traced = tracer is not None
        self.telemetries = []
        self.outcomes = []
        self.seconds = []
        base_cycles = {}
        span_of = (tracer or NULL_TRACER).span
        t0 = perf_counter()
        with span_of("pass") as self.span:
            for cell in cells:
                telemetry = EngineTelemetry() if self.traced else None
                c0 = perf_counter()
                with span_of("cell", cell=cell.name):
                    outcome = run_cell(cell, base_cycles, tracer, telemetry)
                self.seconds.append(perf_counter() - c0)
                self.outcomes.append(outcome)
                if telemetry is not None:
                    self.telemetries.append(telemetry)
        self.wall = perf_counter() - t0

    def signature(self):
        """What must repeat exactly from pass to pass."""
        return [(o.status, o.cycles) for o in self.outcomes]


def run_passes(cells, seconds, trace):
    """Whole passes (untraced, then traced when ``trace``) while the
    next round is projected to end within ``seconds``; at least one."""
    tracer = Tracer("passes") if trace else None
    passes = []
    t0 = perf_counter()
    rounds = 0
    while True:
        passes.append(Pass(cells))
        if trace:
            passes.append(Pass(cells, tracer))
        rounds += 1
        elapsed = perf_counter() - t0
        if elapsed * (rounds + 1) / rounds > seconds:
            return passes, tracer


def judge(cells, passes):
    """``(failed, unstable, refusals)``: ``cell: reason`` for every cell
    run whose outcome differs from the paper's, the passes whose
    outcomes or cycles differ from the first pass's, and the names of
    the cells refused as expected."""
    failed, unstable = [], []
    first = passes[0].signature()
    for n, run in enumerate(passes):
        if run.signature() != first:
            unstable.append(f"pass {n}: outcomes differ from pass 0")
        for cell, outcome in zip(cells, run.outcomes):
            if outcome.status != expected_status(cell):
                failed.append(f"{cell.name}: {outcome.status}"
                              + (f" ({outcome.error})"
                                 if outcome.error else ""))
    refusals = [cell.name for cell, o in zip(cells, passes[0].outcomes)
                if o.status == "refused" and cell.expect_refusal]
    return failed, unstable, refusals


def end_to_end(cells, passes, setup_seconds):
    """``(metrics, note)``; the note gives the cell-time p90 and the
    sample count behind it.

    A cell's time is its median over the untraced passes, which damps
    the noise of a shared machine where a workload fits several passes.
    """
    untraced = [p for p in passes if not p.traced]
    cell_ms = [median(times) * 1e3
               for times in zip(*(p.seconds for p in untraced))]
    p90 = percentile(cell_ms, 90)
    ours = [o.run for cell, o in zip(cells, untraced[0].outcomes)
            if cell.tool in OURS and o.status == "pass"]
    return {
        "setup_s": median(setup_seconds),
        "wall_s": median([p.wall for p in untraced]),
        "cell_p50_ms": median(cell_ms),
        "cycles_ratio_gm": geomean(1 + r.overhead for r in ours),
        "size_ratio_gm": geomean(1 + r.size_increase for r in ours),
        "coverage_mean": sum(r.coverage for r in ours) / len(ours),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, (f"cell times: {p90.samples} cells, each the median of "
        f"{len(untraced)} pass(es); p90 {p90.value:.1f} ms with "
        f"{p90.beyond} beyond it")


def per_layer(passes, setup_spans):
    traced = [p for p in passes if p.traced]
    rows = [layer_metrics(p.span, p.telemetries) for p in traced]
    out = {key: median([row[key] for row in rows]) for key in rows[0]}
    for name in ("build", "interp"):
        out[f"toolchain.{name}_s"] = median([
            sum(s.duration for s in setup_span.iter_spans()
                if s.name == name)
            for setup_span in setup_spans])
    out["obs.traced_wall_s"] = median([p.wall for p in traced])
    out["obs.trace_overhead_frac"] = (
        out["obs.traced_wall_s"]
        / median([p.wall for p in passes if not p.traced]) - 1)
    return out


def run_workload(workload, seed, seconds, trace, make_cells=setup):
    """Measure one workload; returns ``(result dict, report lines)``.

    ``make_cells(workload, seed, tracer)`` generates the inputs; tests
    pass their own to feed hand-made cells through the same measurement
    and correctness gate.
    """
    # Receipts stamp a git sha, collected once per process: collect it
    # before any cell is timed, and never from above the checkout.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))
    session_fingerprint()
    setup_tracer = Tracer("setup") if trace else NULL_TRACER
    setup_seconds, setup_spans, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        with setup_tracer.span("setup") as span:
            t0 = perf_counter()
            cells = make_cells(workload, seed, setup_tracer)
            setup_seconds.append(perf_counter() - t0)
        setup_spans.append(span)
        digests.add(inputs_digest(cells))
    passes, tracer = run_passes(cells, seconds, trace)
    failed, unstable, refusals = judge(cells, passes)
    if len(digests) > 1:
        unstable.append("set-up is not deterministic: input digests differ")

    lines = [f"workload {workload}  seed {seed}  cells {len(cells)}  "
             f"passes {len(passes)}  inputs {inputs_digest(cells)[:16]}",
             f"expected refusals: {len(refusals)}"
             + "".join(f"\n  {name}" for name in refusals)]
    lines += [f"FAILED {line}" for line in failed + unstable]
    result = {"correct": not (failed or unstable),
              "attempted": len(cells) * len(passes),
              "failed": len(failed), "metrics": {}}
    if not result["correct"]:
        return result, lines

    e2e_units, layer_units = metric_units()
    if trace:
        values, units = per_layer(passes, setup_spans), layer_units
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"{workload}-s{seed}.trace.json"
        trace_path.write_text(json.dumps({
            "setup": setup_tracer.to_dict(), "passes": tracer.to_dict()}))
        lines.append(f"trace written to {trace_path.relative_to(ROOT)}")
    else:
        values, note = end_to_end(cells, passes, setup_seconds)
        units = e2e_units
        lines.append(note)
    for name, unit in units.items():
        result["metrics"][name] = {"value": values[name], "unit": unit}
        lines.append(f"{name:<38} {values[name]:>14.6g} {unit}")
    return result, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Seeded end-to-end benchmark (see bench/README.md).")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 builds the paper's programs")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measurement budget after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload is None:
        status = 0
        for workload in WORKLOADS:
            status |= subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]).returncode
        return status
    if Path(repro.__file__).resolve().parent.parent != SRC:
        sys.exit(f"repro imported from {repro.__file__}, not {SRC}")
    result, lines = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
