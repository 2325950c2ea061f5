"""The engine observatory: superblock JIT telemetry.

PR 8's superblock tier made the emulator fast; this module makes it
*legible*.  An :class:`EngineTelemetry` attached to a
:class:`repro.machine.Machine` is fed by the superblock tier at its
three interesting moments:

* **fuse/compile time** — per-block compile wall seconds, trace shape
  (length, loop closure, why the trace ended), and codegen-pass
  accounting (registers promoted to frame locals, generated source
  lines);
* **dispatch time** — per-block execution counts with exact
  instruction and cycle attribution (one entry/instructions/cycles
  triple per block start address), plus block-cache hit accounting;
* **guard time** — per speculation site (``callr``/``jmpr``/``ret``
  guards baked into generated blocks): hit/miss counts, the churn of
  observed targets, and a bounded deopt-event log with the site pc and
  reason.

Attaching rebuilds the block cache with guard instrumentation baked
into the generated source (pure side effects on pre-bound counter
lists — accounting and fault recovery stay bit-identical to the
un-instrumented tier).  Detached CPUs pay only the established ``is
None`` discipline: one boolean test per *block dispatch* (not per
instruction), held under the 2% budget by
``benchmarks/bench_emulator_throughput.py``.

Demotions away from the fused tier (a step-granularity
:class:`~repro.obs.flight.FlightRecorder` attach, a manual
:meth:`~repro.machine.cpu.CPU.step`) and block-cache invalidations
(``invalidate_code``, watch-region change, recorder attach) are
counted by cause on the CPU whether or not telemetry is attached, and
mirrored here when it is.

Everything reads out as a schema-versioned :data:`EngineReport/v1
<ENGINE_REPORT_SCHEMA>` document — hot-block top-N, guard-failure
ranking, compile-vs-execute time split — rendered by
:func:`render_engine_report` and surfaced as ``repro engine report``.
"""

import json

from repro.obs.metrics import Histogram

#: Schema tag; bump when a field changes meaning.
ENGINE_REPORT_SCHEMA = "EngineReport/v1"

#: Default cap on recorded deopt (guard-miss) events.
DEFAULT_DEOPT_EVENTS = 64

#: Default number of hot blocks / guard sites a report ranks.
DEFAULT_TOP = 10


class GuardSite:
    """One speculation site inside generated superblocks.

    The ``counts`` list (``[hits, misses]``) is bound directly into the
    generated block source, so the hot hit path is a single list-index
    increment; :meth:`record_miss` is bound for the (trace-exiting)
    miss path and additionally tracks observed-target churn and feeds
    the telemetry's bounded deopt-event log.
    """

    __slots__ = ("pc", "kind", "counts", "targets", "speculated",
                 "_telemetry")

    def __init__(self, pc, kind, telemetry):
        self.pc = pc
        self.kind = kind
        #: [hits, misses] — bound into generated code as ``gh{k}``
        self.counts = [0, 0]
        #: runtime miss target -> count
        self.targets = {}
        #: distinct targets speculated at compile time
        self.speculated = set()
        self._telemetry = telemetry

    @property
    def hits(self):
        return self.counts[0]

    @property
    def misses(self):
        return self.counts[1]

    @property
    def churn(self):
        """Distinct targets this site was observed to reach (compile-
        time speculations plus runtime miss targets)."""
        return len(self.speculated | set(self.targets))

    def record_miss(self, target):
        """Bound into generated code as ``gm{k}``; the guard compared
        against the speculated target and disagreed."""
        self.counts[1] += 1
        self.targets[target] = self.targets.get(target, 0) + 1
        t = self._telemetry
        if len(t.deopt_events) < t.max_deopt_events:
            t.deopt_events.append({
                "pc": self.pc,
                "reason": f"guard-miss:{self.kind}",
                "target": target,
            })

    def to_dict(self):
        return {
            "pc": self.pc,
            "kind": self.kind,
            "hits": self.hits,
            "misses": self.misses,
            "churn": self.churn,
            "targets": dict(sorted(self.targets.items(),
                                   key=lambda kv: (-kv[1], kv[0]))),
        }

    def __repr__(self):
        return (f"<GuardSite {self.pc:#x} {self.kind} "
                f"hits={self.hits} misses={self.misses}>")


class EngineTelemetry:
    """JIT telemetry collector for one machine's superblock tier
    (or several runs on one machine — counters accumulate).

    The CPU feeds it at compile/dispatch/guard time; it never feeds
    the CPU.  All recording is pure observation: results, fault-time
    state, and every ``RunResult`` counter stay bit-identical to an
    un-instrumented run.
    """

    enabled = True

    def __init__(self, max_deopt_events=DEFAULT_DEOPT_EVENTS,
                 top_blocks=DEFAULT_TOP):
        #: block start pc -> [entries, instructions, cycles]
        self.block_stats = {}
        self.top_blocks = top_blocks

        # -- compile-time accounting
        self.compiles = 0
        self.compile_seconds = 0.0
        self.insns_fused = 0
        self.alloc_regs = 0
        self.source_lines = 0
        self.loop_blocks = 0
        self.trace_lengths = Histogram("engine.trace_length")
        #: why traces ended: reason -> count
        self.ends_by_reason = {}

        # -- speculation accounting
        #: site pc -> :class:`GuardSite`
        self.guards = {}
        self.deopt_events = []
        self.max_deopt_events = max_deopt_events

        # -- lifecycle accounting (mirrors of the CPU's own dicts)
        self.demotions = {}
        self.invalidations = {}

        # -- wall-clock split
        self.runs = 0
        self.run_seconds = 0.0

        #: the attached CPU's engine name (set at attach time)
        self.engine = None

    # -- wiring -------------------------------------------------------------

    def attach(self, machine):
        """Wire this collector into a machine's CPU.

        Attaching drops the block cache (counted as a
        ``telemetry-attach`` invalidation when blocks existed) so every
        block is rebuilt with guard instrumentation baked in; the fused
        tier keeps running — telemetry never demotes.
        """
        machine.telemetry = self
        machine.cpu.attach_telemetry(self)
        return self

    def seed(self, demotions, invalidations):
        """Fold the CPU's pre-attach demotion/invalidation tallies in
        (the CPU counts by cause whether or not telemetry is attached)."""
        for cause, n in demotions.items():
            self.demotions[cause] = self.demotions.get(cause, 0) + n
        for cause, n in invalidations.items():
            self.invalidations[cause] = \
                self.invalidations.get(cause, 0) + n

    # -- hooks (called from the CPU when attached) --------------------------

    def record_compile(self, start, n, loop, reason, seconds,
                       source_lines, alloc_regs):
        """One superblock fused and compiled."""
        self.compiles += 1
        self.compile_seconds += seconds
        self.insns_fused += n
        self.source_lines += source_lines
        self.alloc_regs += alloc_regs
        if loop:
            self.loop_blocks += 1
        self.trace_lengths.observe(n)
        self.ends_by_reason[reason] = \
            self.ends_by_reason.get(reason, 0) + 1

    def guard_site(self, pc, kind, expected):
        """The (shared, cross-block) guard site for one speculated
        instruction; called at fuse time."""
        site = self.guards.get(pc)
        if site is None:
            site = self.guards[pc] = GuardSite(pc, kind, self)
        site.speculated.add(expected)
        return site

    def record_demotion(self, cause):
        self.demotions[cause] = self.demotions.get(cause, 0) + 1

    def record_invalidation(self, cause):
        self.invalidations[cause] = self.invalidations.get(cause, 0) + 1

    def record_run(self, seconds):
        """Wall seconds of one :meth:`~repro.machine.Machine.run`."""
        self.runs += 1
        self.run_seconds += seconds

    # -- reading ------------------------------------------------------------

    @property
    def dispatches(self):
        return sum(s[0] for s in self.block_stats.values())

    @property
    def block_instructions(self):
        return sum(s[1] for s in self.block_stats.values())

    @property
    def guard_checks(self):
        return sum(s.hits + s.misses for s in self.guards.values())

    @property
    def guard_misses(self):
        return sum(s.misses for s in self.guards.values())

    @property
    def guard_failure_rate(self):
        """misses / checks, or None before any guard executed — the
        headline speculation-quality figure of the engine report."""
        checks = self.guard_checks
        return (self.guard_misses / checks) if checks else None

    def hot_blocks(self, top=None):
        """Top-N blocks by attributed cycles:
        ``[{pc, entries, instructions, cycles, cycle_share}, ...]``."""
        top = self.top_blocks if top is None else top
        total = sum(s[2] for s in self.block_stats.values())
        ranked = sorted(self.block_stats.items(),
                        key=lambda kv: (-kv[1][2], kv[0]))
        return [
            {"pc": pc, "entries": st[0], "instructions": st[1],
             "cycles": st[2],
             "cycle_share": (st[2] / total) if total else 0.0}
            for pc, st in ranked[:top]
        ]

    def guard_ranking(self, top=None):
        """Guard sites ranked by misses (then checks), worst first."""
        top = self.top_blocks if top is None else top
        ranked = sorted(self.guards.values(),
                        key=lambda s: (-s.misses,
                                       -(s.hits + s.misses), s.pc))
        return [s.to_dict() for s in ranked[:top]]

    def report(self, top=None):
        """The schema-versioned ``EngineReport/v1`` document."""
        top = self.top_blocks if top is None else top
        checks = self.guard_checks
        misses = self.guard_misses
        execute = max(0.0, self.run_seconds - self.compile_seconds)
        return {
            "schema": ENGINE_REPORT_SCHEMA,
            "engine": self.engine,
            "blocks": {
                "compiled": self.compiles,
                "dispatches": self.dispatches,
                "instructions": self.block_instructions,
                "cycles": sum(s[2] for s in self.block_stats.values()),
            },
            "hot_blocks": self.hot_blocks(top),
            "trace_shape": {
                "lengths": self.trace_lengths.summary(),
                "loop_blocks": self.loop_blocks,
                "ends_by_reason": dict(sorted(
                    self.ends_by_reason.items())),
            },
            "guards": {
                "sites": len(self.guards),
                "checks": checks,
                "hits": checks - misses,
                "misses": misses,
                "failure_rate": self.guard_failure_rate,
                "ranking": self.guard_ranking(top),
            },
            "deopt_events": list(self.deopt_events),
            "compile": {
                "blocks": self.compiles,
                "seconds": self.compile_seconds,
                "insns_fused": self.insns_fused,
                "alloc_regs": self.alloc_regs,
                "source_lines": self.source_lines,
            },
            "cache": {
                # Every dispatch either hit the block cache or compiled.
                "hits": max(0, self.dispatches - self.compiles),
                "compiles": self.compiles,
                "invalidations": dict(sorted(
                    self.invalidations.items())),
            },
            "demotions": dict(sorted(self.demotions.items())),
            "time_split": {
                "runs": self.runs,
                "run_seconds": self.run_seconds,
                "compile_seconds": self.compile_seconds,
                "execute_seconds": execute,
                "compile_fraction": (
                    self.compile_seconds / self.run_seconds
                    if self.run_seconds else None),
            },
        }

    def to_dict(self):
        return self.report()

    def to_json(self, indent=None):
        return json.dumps(self.report(), indent=indent)

    def __repr__(self):
        return (f"<EngineTelemetry blocks={self.compiles} "
                f"dispatches={self.dispatches} "
                f"guards={len(self.guards)}>")


def render_engine_report(source, top=None):
    """Human-readable engine report (the JIT sibling of
    :func:`repro.obs.flight.render_flight_report`).

    ``source`` is an :class:`EngineTelemetry` or an already-built
    ``EngineReport/v1`` dict.
    """
    r = source.report(top) if hasattr(source, "report") else source
    lines = [f"engine report ({r['engine'] or '?'})", "-" * 64]

    b = r["blocks"]
    lines.append(
        f"blocks            : {b['compiled']} compiled, "
        f"{b['dispatches']} dispatches, "
        f"{b['instructions']:,} instructions, {b['cycles']:,} cycles"
    )

    shape = r["trace_shape"]
    lens = shape["lengths"]
    if lens["count"]:
        lines.append(
            f"trace shape       : mean {lens['mean']:.1f} insns, "
            f"max {lens['max']}, {shape['loop_blocks']} loop trace(s)"
        )
    if shape["ends_by_reason"]:
        lines.append("  ends by reason  : " + ", ".join(
            f"{reason}={count}" for reason, count in
            shape["ends_by_reason"].items()))

    c = r["compile"]
    split = r["time_split"]
    if split["run_seconds"]:
        lines.append(
            f"time split        : compile {c['seconds'] * 1e3:.2f}ms / "
            f"run {split['run_seconds'] * 1e3:.2f}ms "
            f"({split['compile_fraction']:.1%} compiling)"
        )
    else:
        lines.append(f"compile           : {c['seconds'] * 1e3:.2f}ms")

    cache = r["cache"]
    inval = cache["invalidations"]
    lines.append(
        f"block cache       : {cache['hits']} hits, "
        f"{cache['compiles']} compiles"
        + (", invalidated " + ", ".join(
            f"{cause}={n}" for cause, n in inval.items())
           if inval else "")
    )
    if r["demotions"]:
        lines.append("demotions         : " + ", ".join(
            f"{cause}={n}" for cause, n in r["demotions"].items()))

    for row in r["hot_blocks"]:
        lines.append(
            f"  hot block       : {row['pc']:#10x}  "
            f"x{row['entries']:<8} {row['instructions']:>10,} insns  "
            f"{row['cycles']:>10,} cyc  ({row['cycle_share']:.1%})"
        )

    g = r["guards"]
    rate = (f"{g['failure_rate']:.2%}"
            if g["failure_rate"] is not None else "n/a")
    lines.append(
        f"guards            : {g['sites']} site(s), {g['checks']} "
        f"checks, {g['misses']} misses (failure rate {rate})"
    )
    for row in g["ranking"]:
        targets = ", ".join(f"{t:#x}x{n}" for t, n in
                            list(row["targets"].items())[:3])
        lines.append(
            f"  guard site      : {row['pc']:#10x}  {row['kind']:<5} "
            f"hits={row['hits']:<8} miss={row['misses']:<6} "
            f"churn={row['churn']}"
            + (f"  [{targets}]" if targets else "")
        )
    for ev in r["deopt_events"][:5]:
        lines.append(
            f"  deopt           : pc={ev['pc']:#x} {ev['reason']} "
            f"-> {ev['target']:#x}"
        )
    return "\n".join(lines)
