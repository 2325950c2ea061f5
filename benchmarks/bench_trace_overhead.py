"""Observability tax: un-instrumented rewrites must stay fast.

The tracing hooks are unconditional in the pipeline hot paths; the
design relies on :data:`NULL_TRACER` being so cheap that nobody needs
a "tracing off" build.  This bench quantifies
that: it counts how many observability hook calls one reference rewrite
makes (with a tallying no-op stand-in), measures the per-call cost of
the real no-op singletons in a tight loop, and projects the total no-op
cost against the measured rewrite wall time.  The projection must stay
under 2%.  A second bench holds disabled *memory accounting* (the
``Tracer(memory=False)`` default: one ``is None`` guard per span
boundary) to the same budget.
"""

import time

from repro.core import IncrementalRewriter, RewriteMode
from repro.obs import NULL_TRACER, Tracer
from repro.toolchain.workloads import build_workload, spec_workload

REFERENCE = ("602.sgcc_s", "x86")
MODE = RewriteMode.JT
BUDGET = 0.02  # no-op tracing may add at most 2% to a rewrite


class _TallyingNoop:
    """NULL_TRACER lookalike that counts hook invocations.

    Every tracer entry point a rewrite touches bumps ``ops`` by one, so
    ``ops`` is exactly the number of no-op calls an un-instrumented
    rewrite performs.
    """

    enabled = False
    mem_peak = None   # mirrored from the real no-op span

    def __init__(self):
        self.ops = 0

    def span(self, name, **attrs):
        self.ops += 1
        return self

    def __enter__(self):
        self.ops += 1
        return self

    def __exit__(self, exc_type, exc, tb):
        self.ops += 1
        return False

    @property
    def attrs(self):
        self.ops += 1
        return {}

    def event(self, name, **fields):
        self.ops += 1

    def count(self, name, n=1):
        self.ops += 1


def _noop_cost_per_call(iterations=50_000):
    """Measured seconds per call on the real no-op singletons."""
    tracer = NULL_TRACER
    calls_per_lap = 5  # span() + enter + exit + count + event
    t0 = time.perf_counter()
    for _ in range(iterations):
        with tracer.span("stage"):
            tracer.count("counter")
            tracer.event("event")
    elapsed = time.perf_counter() - t0
    return elapsed / (iterations * calls_per_lap)


def _rewrite_seconds(binary, repeats=3):
    """Best-of-N wall time of an un-instrumented reference rewrite."""
    best = None
    for _ in range(repeats):
        rewriter = IncrementalRewriter(mode=MODE)
        t0 = time.perf_counter()
        rewriter.rewrite(binary)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def _experiment():
    name, arch = REFERENCE
    _, binary = build_workload(spec_workload(name, arch), arch)

    sink = _TallyingNoop()
    IncrementalRewriter(mode=MODE, tracer=sink).rewrite(binary)
    hook_calls = sink.ops

    per_call = _noop_cost_per_call()
    rewrite_s = _rewrite_seconds(binary)
    projected = hook_calls * per_call / rewrite_s
    return {
        "hook_calls": hook_calls,
        "per_call_ns": per_call * 1e9,
        "rewrite_ms": rewrite_s * 1e3,
        "projected_overhead": projected,
    }


def test_noop_tracing_overhead(benchmark, print_section,
                               runtime_records):
    r = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    assert r["hook_calls"] > 0, "rewrite should exercise the hooks"
    assert r["projected_overhead"] < BUDGET, (
        f"no-op tracing projects to {r['projected_overhead']:.2%} of a "
        f"reference rewrite (budget {BUDGET:.0%})"
    )
    benchmark.extra_info.update(r)
    runtime_records({"bench": "trace_overhead",
                     "benchmark": REFERENCE[0], "arch": REFERENCE[1],
                     "mode": str(MODE), **r})
    print_section(
        "No-op observability overhead on a reference rewrite",
        f"reference        : {REFERENCE[0]} / {REFERENCE[1]} / {MODE}\n"
        f"hook calls       : {r['hook_calls']}\n"
        f"no-op cost/call  : {r['per_call_ns']:.0f} ns\n"
        f"rewrite time     : {r['rewrite_ms']:.2f} ms\n"
        f"projected tax    : {r['projected_overhead']:.3%} "
        f"(budget {BUDGET:.0%})",
    )


def _mem_guard_cost_per_boundary(iterations=200_000, repeats=5):
    """Marginal seconds per disabled memory-accounting check: a span
    open or close on a real ``Tracer(memory=False)`` pays exactly one
    ``self._mem is None`` test; measure a guarded loop minus an empty
    loop, best-of-N."""
    mem = None
    laps = range(iterations)
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in laps:
            pass
        base = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in laps:
            if mem is not None:
                raise AssertionError
        delta = (time.perf_counter() - t0) - base
        best = delta if best is None else min(best, delta)
    return max(0.0, best) / iterations


def test_disabled_memory_accounting_overhead(benchmark, print_section,
                                             runtime_records):
    """Memory accounting off (the default) must stay under the same 2%
    budget: count the spans a traced reference rewrite opens, charge two
    guard checks per span (enter + exit), project against the rewrite's
    wall time."""
    name, arch = REFERENCE
    _, binary = build_workload(spec_workload(name, arch), arch)

    def experiment():
        tracer = Tracer(name="count-spans")   # memory=False: guard only
        IncrementalRewriter(mode=MODE, tracer=tracer).rewrite(binary)
        spans = sum(1 for _ in tracer.finish().iter_spans())
        per_boundary = _mem_guard_cost_per_boundary()
        rewrite_s = _rewrite_seconds(binary)
        projected = spans * 2 * per_boundary / rewrite_s
        return {
            "spans": spans,
            "guard_ns": per_boundary * 1e9,
            "rewrite_ms": rewrite_s * 1e3,
            "projected_overhead": projected,
        }

    r = benchmark.pedantic(experiment, rounds=1, iterations=1)
    assert r["spans"] > 0
    assert r["projected_overhead"] < BUDGET, (
        f"disabled memory accounting projects to "
        f"{r['projected_overhead']:.2%} of a reference rewrite "
        f"(budget {BUDGET:.0%})"
    )
    benchmark.extra_info.update(r)
    runtime_records({"bench": "mem_guard_overhead",
                     "benchmark": name, "arch": arch,
                     "mode": str(MODE), **r})
    print_section(
        "Disabled memory-accounting overhead on a reference rewrite",
        f"reference        : {name} / {arch} / {MODE}\n"
        f"spans per rewrite: {r['spans']}\n"
        f"guard cost/check : {r['guard_ns']:.1f} ns\n"
        f"rewrite time     : {r['rewrite_ms']:.2f} ms\n"
        f"projected tax    : {r['projected_overhead']:.3%} "
        f"(budget {BUDGET:.0%})",
    )
