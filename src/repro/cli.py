"""Command-line interface: build, rewrite, run, and reproduce.

Examples::

    python -m repro list
    python -m repro rewrite --workload 602.sgcc_s --arch x86 \\
        --mode func-ptr --scorch -o sgcc.rw
    python -m repro rewrite --workload 602.sgcc_s --mode jt \\
        --profile --trace sgcc-trace.json
    python -m repro rewrite --workload 602.sgcc_s \\
        --cache-dir .repro-cache -o sgcc.rw
    python -m repro batch 619.lbm_s 602.sgcc_s --repeat 2 --record
    python -m repro chaos --workload 602.sgcc_s --report 1 \\
        --underapprox 1 --corrupt-cache 1
    python -m repro rewrite --workload 602.sgcc_s --record
    python -m repro record list
    python -m repro record show latest --json
    python -m repro record top latest --by unreached
    python -m repro record diff 7191d390 a3f2c1b0
    python -m repro run sgcc.rw --telemetry sgcc-run.json
    python -m repro layout sgcc.rw
    python -m repro table 3 --arch x86
    python -m repro experiment docker
"""

import argparse
import contextlib
import sys
import tempfile
import time
from collections import Counter

from repro.core import (
    ArtifactCache,
    EmptyInstrumentation,
    CountingInstrumentation,
    IncrementalRewriter,
    RewriteMode,
    RuntimeLibrary,
    section_layout_report,
)
from repro.binfmt import Binary
from repro.machine import run_binary
from repro.obs import (
    EngineTelemetry,
    RecordLedger,
    Tracer,
    record_rewrite,
    render_degradation,
    render_engine_report,
    render_profile,
)
from repro.obs.receipt import DEFAULT_LEDGER, TOP_ORDERINGS
from repro.toolchain.workloads import (
    SPEC_BENCHMARK_NAMES,
    build_workload,
    docker_like,
    firefox_like,
    libcuda_like,
    spec_workload,
)
from repro.util.errors import ReproError

#: Exit codes: distinct classes so scripts can tell *what* failed.
#: 1 stays behavioural divergence; 2 stays diff-run refusal.
EXIT_DIVERGED = 1
EXIT_DIFF_REFUSED = 2
EXIT_LOAD_ERROR = 3
EXIT_REWRITE_ERROR = 4
EXIT_COVERAGE_REGRESSION = 6

_APP_WORKLOADS = {
    "libxul_like": firefox_like,
    "docker_like": docker_like,
    "libcuda_like": libcuda_like,
}


class CliError(Exception):
    """A user-facing failure with its exit code; caught in :func:`main`."""

    def __init__(self, message, exit_code):
        super().__init__(message)
        self.exit_code = exit_code


def _int_at_least(text, low, kind):
    """An integer >= ``low`` parsed from ``text``; anything else raises
    the argparse usage error naming ``kind``."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(
            f"expected a {kind} integer, got {text!r}")
    return value


def _positive_int(text):
    """argparse type: an integer >= 1 (anything else is a usage error)."""
    return _int_at_least(text, 1, "positive")


def _non_negative_int(text):
    """argparse type: an integer >= 0 (anything else is a usage error)."""
    return _int_at_least(text, 0, "non-negative")


def _load_workload(name, arch, pie=False):
    if name in _APP_WORKLOADS:
        if arch != "x86":
            # As in the paper: the browser/Docker/driver experiments run
            # on the x86-64 machine (Section A.3.2).
            raise CliError(f"{name} is an x86-only workload",
                           EXIT_LOAD_ERROR)
        return _APP_WORKLOADS[name](arch)
    if name in SPEC_BENCHMARK_NAMES:
        return build_workload(spec_workload(name, arch, pie=pie), arch)
    raise CliError(
        f"unknown workload {name!r}; see `python -m repro list`",
        EXIT_LOAD_ERROR,
    )


def _read_binary(path):
    """Load a binary image from disk (shared by run/diff-run/layout)."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_LOAD_ERROR)
    try:
        return Binary.from_bytes(data)
    except Exception as exc:
        raise CliError(f"{path} is not a repro binary image: {exc}",
                       EXIT_LOAD_ERROR)


def _add_pipeline_args(parser):
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="persist analysis artifacts under DIR "
                             "(shared across invocations)")


def cmd_list(args):
    print("SPEC CPU 2017-like suite:")
    for name in SPEC_BENCHMARK_NAMES:
        print(f"  {name}")
    print("applications:")
    for name in _APP_WORKLOADS:
        print(f"  {name}")
    return 0


def cmd_build(args):
    program, binary = _load_workload(args.workload, args.arch, args.pie)
    with open(args.output, "wb") as f:
        f.write(binary.to_bytes())
    print(f"{binary.name}: {len(binary.function_symbols())} function "
          f"symbols, {binary.loaded_size():,} bytes loaded "
          f"-> {args.output}")
    return 0


class _LedgerSink(list):
    """Record sink: persists each record into the ledger at ``path`` and
    keeps it for in-process reporting."""

    def __init__(self, path):
        super().__init__()
        self.path = path
        self._ledger = RecordLedger(path)

    def append(self, record):
        self._ledger.append(record)
        super().append(record)


def _rewrite(rewriter, binary, records, workload):
    """``rewriter.rewrite(binary)``, recorded into ``records`` (a
    :class:`_LedgerSink`) unless that is None."""
    if records is None:
        return rewriter.rewrite(binary)
    return record_rewrite(rewriter, binary, records, workload=workload)


def cmd_rewrite(args):
    program, binary = _load_workload(args.workload, args.arch, args.pie)
    instrumentation = (CountingInstrumentation()
                       if args.instrument == "counting"
                       else EmptyInstrumentation())
    # Records need the trace's per-stage timings and the cache line
    # its lookup counts, so --record and --cache-dir imply a tracer
    # even without --profile/--trace.
    observing = args.profile or args.trace or args.record \
        or args.cache_dir
    tracer = Tracer(name=f"rewrite:{args.workload}") if observing \
        else None
    # One process rewrites once, so only a --cache-dir cache can ever
    # be read back: without one there are no lookups at all.
    cache = ArtifactCache(args.cache_dir) if args.cache_dir else None
    records = _LedgerSink(args.record) if args.record else None
    rewriter = IncrementalRewriter(
        mode=RewriteMode.parse(args.mode),
        instrumentation=instrumentation,
        scorch_original=args.scorch,
        tracer=tracer, cache=cache,
        degrade=not args.no_degrade,
    )
    try:
        rewritten, report = _rewrite(rewriter, binary, records,
                                     args.workload)
    except ReproError as exc:
        print(f"rewrite refused: {exc}", file=sys.stderr)
        if records:
            print(f"record        : {records[-1].short_id} [failed] "
                  f"-> {args.record}", file=sys.stderr)
        if args.profile and tracer is not None:
            print(render_profile(tracer), file=sys.stderr)
        return EXIT_REWRITE_ERROR
    runtime = rewriter.runtime_library(rewritten)
    if args.output:
        with open(args.output, "wb") as f:
            f.write(rewritten.to_bytes())
    print(f"mode          : {report.mode}")
    print(f"coverage      : {report.coverage:.2%} "
          f"({report.relocated_functions}/{report.total_functions} "
          f"functions)")
    print(f"size increase : {report.size_increase:+.1%}")
    print(f"trampolines   : " + ", ".join(
        f"{k}={v}" for k, v in report.trampolines.items() if v))
    if cache is not None:
        counters = tracer.root.total_counters()
        print(f"cache         : {counters.get('cache.hits', 0)} hits, "
              f"{counters.get('cache.misses', 0)} misses")
    if report.failed_functions:
        print(f"skipped       : " + ", ".join(
            name for name, _ in report.failed_functions))
    if report.degradation:
        lines = render_degradation(report.degradation)
        print(f"degraded      : {lines[0]}")
        for line in lines[1:]:
            print(line)
    if records:
        record = records[-1]
        roll = record.rollup
        print(f"record        : {record.short_id} (atlas: "
              f"{roll['functions']} function(s), "
              f"cfg {roll['cfg_fraction']:.1%}) -> {args.record}")
    if args.output:
        print(f"written       : {args.output}")
    diverged = False
    if args.run:
        base = run_binary(binary)
        result = run_binary(rewritten, runtime_lib=runtime,
                            tracer=tracer)
        same = (result.exit_code, result.output) == (base.exit_code,
                                                     base.output)
        print(f"run           : {'identical behaviour' if same else 'DIVERGED'}, "
              f"overhead {result.cycles / base.cycles - 1:+.2%}")
        diverged = not same
    if args.trace:
        with open(args.trace, "w") as f:
            f.write(tracer.to_json(indent=2))
        print(f"trace         : {args.trace}")
    if args.profile:
        print()
        print(render_profile(tracer))
    return 1 if diverged else 0


def _cache_directory(cache_dir):
    """A context yielding ``cache_dir``, or else a temporary directory
    that is removed on exit."""
    if cache_dir:
        return contextlib.nullcontext(cache_dir)
    return tempfile.TemporaryDirectory(prefix="repro-cache-")


def cmd_batch(args):
    """Rewrite a list of workloads through one shared artifact cache.

    Every ``--repeat`` round after the first is served the cfg and
    funcptr stages of each binary from the cache (only a byte-identical
    binary hits).  Without ``--cache-dir`` the cache lives in a
    temporary directory for the length of the batch.

    With ``--record [LEDGER]``, every rewrite (failed ones included)
    appends a :class:`~repro.obs.RewriteRecord` to the ledger.
    """
    with _cache_directory(args.cache_dir) as directory:
        return _run_batch(args, ArtifactCache(directory))


def _run_batch(args, cache):
    records = _LedgerSink(args.record) if args.record else None
    tracers = []
    failures = 0
    loaded = {}
    load_failed = set()
    for round_no in range(args.repeat):
        for name in args.workloads:
            if name in load_failed:
                continue
            if name not in loaded:
                # A bad workload name is one failure, not a batch abort.
                try:
                    loaded[name] = _load_workload(name, args.arch,
                                                  args.pie)
                except CliError as exc:
                    failures += 1
                    load_failed.add(name)
                    print(f"{name:<16} LOAD FAILED: {exc}",
                          file=sys.stderr)
                    continue
            _, binary = loaded[name]
            # One tracer per rewrite: its span tree holds this
            # rewrite's cache counts and its record's stage timings.
            tracer = Tracer(name=f"batch:{name}")
            tracers.append(tracer)
            t0 = time.perf_counter()
            rewriter = IncrementalRewriter(mode=RewriteMode.parse(args.mode),
                                           tracer=tracer, cache=cache)
            try:
                rewritten, report = _rewrite(rewriter, binary, records,
                                             name)
            except ReproError as exc:
                failures += 1
                print(f"{name:<16} FAILED: {exc}", file=sys.stderr)
                continue
            elapsed = time.perf_counter() - t0
            counters = tracer.root.total_counters()
            hits = counters.get("cache.hits", 0)
            misses = counters.get("cache.misses", 0)
            saved = counters.get("cache.seconds_saved", 0.0)
            print(f"{name:<16} {elapsed:7.3f}s  coverage "
                  f"{report.coverage:6.2%}  cache {hits}/{hits + misses} "
                  f"hits  saved {saved:.3f}s")
            if args.out_dir:
                import os
                os.makedirs(args.out_dir, exist_ok=True)
                out_path = f"{args.out_dir}/{name}.r{round_no}.rw"
                with open(out_path, "wb") as f:
                    f.write(rewritten.to_bytes())
    totals = Counter()
    for tracer in tracers:
        totals.update(tracer.root.total_counters())
    print(f"[cache: {totals['cache.hits']} hits / "
          f"{totals['cache.misses']} misses, {totals['cache.stores']} "
          f"stores]", file=sys.stderr)
    if records:
        print(f"[{len(records)} record(s) -> {records.path}]",
              file=sys.stderr)
    if load_failed and load_failed >= set(args.workloads):
        return EXIT_LOAD_ERROR   # nothing in the batch even loaded
    return EXIT_REWRITE_ERROR if failures else 0


def cmd_chaos(args):
    """The chaos harness: break things on purpose, assert grace.

    Builds a deterministic :func:`repro.analysis.plan_chaos` fault plan
    against the workload's CFG — analysis faults of each requested
    Figure-2 category and cache corruption — then runs the full
    evaluation pipeline under it.  Success means the rewritten binary
    still matched the oracle; coverage (and nothing else) is allowed to
    drop.  With a cache, the ``substrate`` line reports the corrupt
    entries the chaos run met (its span's ``cache.corrupt``).
    """
    from repro.analysis import build_cfg, plan_chaos
    from repro.eval import baseline_run, evaluate_tool

    program, binary = _load_workload(args.workload, args.arch)
    oracle, base_cycles = baseline_run(binary)
    plan = plan_chaos(
        build_cfg(binary),
        report=args.report,
        overapproximate=args.overapprox,
        underapproximate=args.underapprox,
        corrupt_cache=args.corrupt_cache,
    )
    # A one-shot chaos run reads a cache back only through a
    # --cache-dir, or when corruption needs warmed entries to bite (in
    # a temporary directory).
    tracer = Tracer(name=f"chaos:{args.workload}")
    caching = plan.corrupt_cache or args.cache_dir
    with _cache_directory(args.cache_dir) if caching \
            else contextlib.nullcontext() as directory:
        cache = ArtifactCache(directory) if caching else None
        if plan.corrupt_cache:
            # Warm the cache with one clean rewrite so corruption has
            # entries to bite; the chaos run must then recover from
            # them.
            evaluate_tool(args.mode, binary, oracle, base_cycles,
                          benchmark=args.workload, cache=cache)
        run = evaluate_tool(args.mode, binary, oracle, base_cycles,
                            benchmark=args.workload, cache=cache,
                            tracer=tracer, faults=plan)

    injected = [f"{label}:{name}" for label, names in
                (("report", plan.report),
                 ("over-approx", plan.overapproximate),
                 ("under-approx", plan.underapproximate))
                for name in sorted(names)]
    print(f"plan      : " + (", ".join(injected) or "no analysis faults")
          + f"; {plan.corrupt_cache} corrupt cache entr"
            f"{'y' if plan.corrupt_cache == 1 else 'ies'}")
    print(f"outcome   : "
          + ("survived (output identical to oracle)" if run.passed
             else f"FAILED ({run.error})"))
    if run.coverage is not None:
        print(f"coverage  : {run.coverage:.2%}")
    print(f"degraded  : {run.degraded_functions} function(s)")
    for line in render_degradation(run.degradation,
                                   show_reason=False)[1:]:
        print(line)
    if cache is not None:
        corrupt = tracer.root.total_counters().get("cache.corrupt", 0)
        print(f"substrate : cache_corrupt={corrupt}")
    return 0 if run.passed else EXIT_REWRITE_ERROR


def cmd_record(args):
    """The rewrite-record ledger: list records, show one, rank one's
    atlas rows, diff two.

    ``diff`` answers the reproducibility question first — do the two
    rewrites agree on the output digest? — then explains the cost
    difference (stage timings, cache accounting, degradation shape)
    and the per-function coverage/mode/overhead deltas.  It exits
    :data:`EXIT_COVERAGE_REGRESSION` when the second covers less (a
    failed rewrite covers nothing); otherwise :data:`EXIT_DIVERGED`
    when both carry an output digest and they differ.
    """
    from repro.obs import (
        diff_records,
        render_record,
        render_record_diff,
        render_record_list,
        render_record_top,
    )

    ledger = RecordLedger(args.ledger)
    records = ledger.load()
    if ledger.skipped:
        print(f"[{ledger.skipped} corrupt/foreign ledger line"
              f"{'' if ledger.skipped == 1 else 's'} skipped]",
              file=sys.stderr)

    wanted = {"list": 0, "show": 1, "top": 1, "diff": 2}[args.action]
    if len(args.ids) != wanted:
        raise CliError(
            f"record {args.action} takes {wanted} record id(s), "
            f"got {len(args.ids)}",
            EXIT_LOAD_ERROR,
        )

    if args.action == "list":
        print(render_record_list(records, ledger.skipped))
        return 0

    try:
        found = [ledger.find(id_prefix) for id_prefix in args.ids]
    except LookupError as exc:
        raise CliError(str(exc), EXIT_LOAD_ERROR)

    if args.action == "show":
        if args.json:
            import json
            print(json.dumps(found[0].to_dict(), indent=2,
                             sort_keys=True))
        else:
            print(render_record(found[0], limit=args.limit or 0))
        return 0

    if args.action == "top":
        if found[0].outcome != "ok":
            raise CliError(
                f"record {found[0].short_id} is a failed rewrite: it "
                f"has no function rows", EXIT_LOAD_ERROR)
        print(render_record_top(found[0], by=args.by,
                                limit=args.limit or 10))
        return 0

    a, b = found
    diff = diff_records(a, b)
    print(render_record_diff(a, b, diff))
    if diff["coverage_regressed"]:
        return EXIT_COVERAGE_REGRESSION
    return EXIT_DIVERGED if diff["same_output"] is False else 0


def cmd_run(args):
    """Run a binary; program output goes to stdout.  ``--telemetry
    FILE`` attaches the run-time collector, prints its engine report
    (hot blocks, guard sites, trampoline hits, RA translations, the
    last blocks) to stderr and writes the ``EngineReport/v2`` document
    to FILE."""
    binary = _read_binary(args.binary)
    runtime = None
    if "rewrite" in binary.metadata:
        runtime = RuntimeLibrary.from_binary(binary)
    telemetry = EngineTelemetry() if args.telemetry else None
    result = run_binary(binary, runtime_lib=runtime, engine=args.engine,
                        telemetry=telemetry)
    for value in result.output:
        print(value)
    print(f"[exit {result.exit_code}, {result.icount:,} instructions, "
          f"{result.cycles:,} cycles]", file=sys.stderr)
    if telemetry is not None:
        with open(args.telemetry, "w") as f:
            f.write(telemetry.to_json(indent=2))
        print(render_engine_report(telemetry), file=sys.stderr)
        print(f"[engine report written to {args.telemetry}]",
              file=sys.stderr)
    return 0


def cmd_diff_run(args):
    from repro.eval import differential_run, render_forensics
    original = _read_binary(args.original)
    rewritten = _read_binary(args.rewritten)
    try:
        bundle = differential_run(original, rewritten, ring=args.ring,
                                  max_steps=args.max_steps)
    except ReproError as exc:
        print(f"diff-run refused: {exc}", file=sys.stderr)
        return EXIT_DIFF_REFUSED
    print(render_forensics(bundle))
    if args.json:
        import json
        with open(args.json, "w") as f:
            json.dump(bundle.to_dict(), f, indent=2)
        print(f"[forensics bundle written to {args.json}]",
              file=sys.stderr)
    return 1 if bundle.diverged else 0


def cmd_layout(args):
    print(section_layout_report(_read_binary(args.binary)))
    return 0


def cmd_table(args):
    from repro.eval import spec2017, table1, table2, table3
    if args.which == "1":
        print(table1())
    elif args.which == "2":
        print(table2())
    else:
        benchmarks = (SPEC_BENCHMARK_NAMES if args.full
                      else SPEC_BENCHMARK_NAMES[:6])
        summaries, _ = spec2017(args.arch, benchmarks=benchmarks)
        print(table3({args.arch: summaries}))
    return 0


def cmd_experiment(args):
    from repro.eval import (
        bolt_comparison,
        diogenes_case_study,
        docker_experiment,
        failure_modes,
        firefox_experiment,
    )
    if args.which == "firefox":
        result = firefox_experiment()
        for tool, run in result.tool_runs.items():
            status = (f"overhead {run.overhead:+.2%}" if run.passed
                      else f"FAILED ({run.error})")
            print(f"{tool:<12} {status}")
    elif args.which == "docker":
        result = docker_experiment()
        for tool, run in result.tool_runs.items():
            status = (f"overhead {run.overhead:+.2%}" if run.passed
                      else f"FAILED ({run.error})")
            print(f"{tool:<12} {status}")
    elif args.which == "bolt":
        comp = bolt_comparison()
        print(f"BOLT fn-reorder : {comp.bolt_fn_reorder_pass}"
              f"/{comp.total} ({comp.bolt_fn_reorder_error})")
        print(f"BOLT blk-reorder: {comp.bolt_blk_reorder_pass} pass, "
              f"{comp.bolt_blk_reorder_corrupt} corrupted")
        print(f"ours            : {comp.ours_fn_reorder_pass} and "
              f"{comp.ours_blk_reorder_pass} of {comp.total}")
    elif args.which == "diogenes":
        result = diogenes_case_study()
        print(f"mainstream: {result.mainstream_cycles:,} cycles "
              f"({result.mainstream_traps} traps)")
        print(f"ours      : {result.ours_cycles:,} cycles "
              f"({result.ours_traps} traps)")
        print(f"speedup   : {result.speedup:.1f}x")
    else:
        result = failure_modes()
        print(f"report   : coverage {result.report_coverage:.0%}, "
              f"correct={result.report_correct}")
        print(f"overapprox: +{result.overapprox_trampolines - result.baseline_trampolines} "
              f"trampolines, correct={result.overapprox_correct}")
        print(f"underapprox: {result.underapprox_outcome}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Incremental CFG Patching for Binary Rewriting "
                    "(ASPLOS 2021) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads") \
        .set_defaults(func=cmd_list)

    p = sub.add_parser("build", help="build a workload binary")
    p.add_argument("--workload", required=True)
    p.add_argument("--arch", default="x86")
    p.add_argument("--pie", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("rewrite", help="rewrite a workload binary")
    p.add_argument("--workload", required=True)
    p.add_argument("--arch", default="x86")
    p.add_argument("--pie", action="store_true")
    p.add_argument("--mode", default="jt",
                   choices=[m.value for m in RewriteMode])
    p.add_argument("--instrument", default="empty",
                   choices=["empty", "counting"])
    p.add_argument("--scorch", action="store_true",
                   help="apply the strong rewrite test")
    p.add_argument("--run", action="store_true",
                   help="run original and rewritten, compare")
    p.add_argument("--profile", action="store_true",
                   help="print a per-stage timing table after rewriting")
    p.add_argument("--trace", metavar="FILE",
                   help="write the JSON trace tree to FILE")
    p.add_argument("--no-degrade", action="store_true",
                   help="refuse the whole binary instead of walking "
                        "unsupported functions down the mode ladder")
    p.add_argument("--record", nargs="?", const=DEFAULT_LEDGER,
                   default=None, metavar="LEDGER",
                   help="append a rewrite record to LEDGER "
                        f"(default {DEFAULT_LEDGER})")
    p.add_argument("-o", "--output")
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser(
        "batch",
        help="rewrite several workloads through one shared artifact "
             "cache",
    )
    p.add_argument("workloads", nargs="+", metavar="WORKLOAD")
    p.add_argument("--arch", default="x86")
    p.add_argument("--pie", action="store_true")
    p.add_argument("--mode", default="jt",
                   choices=[m.value for m in RewriteMode])
    p.add_argument("--repeat", type=_positive_int, default=1, metavar="N",
                   help="rewrite the whole list N times (cache-reuse "
                        "rounds)")
    p.add_argument("--out-dir", metavar="DIR",
                   help="write rewritten binaries under DIR")
    p.add_argument("--record", nargs="?", const=DEFAULT_LEDGER,
                   default=None, metavar="LEDGER",
                   help="append one rewrite record per rewrite to LEDGER "
                        f"(default {DEFAULT_LEDGER})")
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser(
        "chaos",
        help="inject faults (analysis, cache) into one rewrite and "
             "verify graceful degradation",
    )
    p.add_argument("--workload", required=True)
    p.add_argument("--arch", default="x86")
    p.add_argument("--mode", default="jt",
                   choices=[m.value for m in RewriteMode])
    p.add_argument("--report", type=_non_negative_int, default=0,
                   metavar="N",
                   help="N functions whose analysis reports failure")
    p.add_argument("--overapprox", type=_non_negative_int, default=0,
                   metavar="N",
                   help="N functions given a spurious incoming edge")
    p.add_argument("--underapprox", type=_non_negative_int, default=0,
                   metavar="N",
                   help="N functions with one jump-table edge hidden")
    p.add_argument("--corrupt-cache", type=_non_negative_int, default=0,
                   metavar="N",
                   help="truncate N artifact-cache entries (cache is "
                        "warmed by a clean rewrite first, in a "
                        "temporary directory unless --cache-dir)")
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "record",
        help="inspect the rewrite-record ledger: list, show, top, diff",
    )
    p.add_argument("action", choices=["list", "show", "top", "diff"])
    p.add_argument("ids", nargs="*", metavar="ID",
                   help="record id prefix(es) or `latest`: one for "
                        "show/top, two for diff")
    p.add_argument("--ledger", default=DEFAULT_LEDGER, metavar="FILE",
                   help=f"record ledger (default {DEFAULT_LEDGER})")
    p.add_argument("--json", action="store_true",
                   help="show: print the raw record document")
    p.add_argument("--limit", type=_positive_int, default=None,
                   metavar="N",
                   help="show/top: cap the atlas rows printed "
                        "(show: all, top: 10)")
    p.add_argument("--by", default="trampoline-bytes",
                   choices=sorted(TOP_ORDERINGS),
                   help="top: ranking field (default trampoline-bytes)")
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("run", help="run a (possibly rewritten) binary")
    p.add_argument("binary")
    p.add_argument("--telemetry", metavar="FILE",
                   help="observe the run: print the engine report to "
                        "stderr and write the EngineReport/v2 JSON to "
                        "FILE")
    p.add_argument("--engine", choices=["superblock", "step"],
                   default="superblock",
                   help="execution tier: fused superblocks (default) "
                        "or the per-step loop; accounting is "
                        "identical, only speed differs")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "diff-run",
        help="run original and rewritten binaries in lockstep and "
             "report the first divergence",
    )
    p.add_argument("original")
    p.add_argument("rewritten")
    p.add_argument("--ring", type=_positive_int, default=64,
                   help="per-side block-ring size (default 64)")
    p.add_argument("--max-steps", type=_positive_int, default=5_000_000,
                   help="per-side dynamic instruction budget")
    p.add_argument("--json", metavar="FILE",
                   help="also write the forensics bundle as JSON")
    p.set_defaults(func=cmd_diff_run)

    p = sub.add_parser("layout",
                       help="print a Figure-1-style section report")
    p.add_argument("binary")
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("which", choices=["1", "2", "3"])
    p.add_argument("--arch", default="x86")
    p.add_argument("--full", action="store_true",
                   help="all 19 benchmarks (table 3)")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("experiment", help="run a paper experiment")
    p.add_argument("which", choices=["firefox", "docker", "bolt",
                                     "diogenes", "failure-modes"])
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
