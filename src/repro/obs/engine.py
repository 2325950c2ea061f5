"""The engine observatory: the one runtime collector.

The paper's dynamic claims live at run time (Sections 6-7): trampoline
hops, ``.ra_map`` return-address translation during C++ unwinding and
Go tracebacks, and the control flow of the relocated code.  The
superblock tier runs cold code per-step and fuses the paths that hot
trace heads actually take.  An :class:`EngineTelemetry` attached to a
:class:`repro.machine.Machine` observes both, fed at these moments:

* **fuse/compile time** — per-block compile wall seconds, trace shape
  (length, loop closure, why recording stopped: the path returned to
  its head (``loop``), reached a fused block (``block``), entered the
  kernel (``kernel``), crossed a watch-region boundary
  (``watch-boundary``) or hit the superblock cap (``cap``)), and
  codegen-pass accounting (registers promoted to frame locals,
  generated source lines);
* **dispatch time** — per-block execution counts with exact
  instruction and cycle attribution (one entry/instructions/cycles
  triple per block start address), and the block entry that follows;
* **every control transfer in cold code** — a bounded ring of block
  entries with the cycle count at entry (the last blocks before a
  fault) and an exact histogram of cycles between block entries;
* **trampoline sites** — hits per loaded site, resolved to the
  trampoline's kind and host function via the ``trampoline_sites``
  map the rewriter stores in the rewritten binary's metadata.  Cold
  code counts a hit as the site executes; a fused dispatch recovers
  its hits exactly from the executed prefix (a block of per-pass
  length ``n`` returning ``done`` instructions executed trace index
  ``i`` exactly ``done // n + (1 if i < done % n else 0)`` times), so
  hit counts are identical on both engines;
* **kernel hooks** — RA translations per path (``cxx-unwind``,
  ``go``) split into map hits and pass-through misses with a bounded
  miss-event log, and unwind walks (kind, engine, frames);
* **run end** — the instructions the per-step tier retired and the
  cycles it charged (cold code and trace recording), so fused plus
  cold instructions and cycles add up to every instruction and cycle
  of the runs;
* **guard time** — per guard site (``callr``/``jmpr``/``ret`` guards
  on the recorded targets, baked into generated blocks): hit/miss
  counts, the churn of observed targets, and a bounded deopt-event log
  with the site pc and reason.

Attaching rebuilds the block cache with guard instrumentation baked
into the generated source (pure side effects on pre-bound counter
lists — accounting and fault recovery stay bit-identical to the
un-instrumented tier).  Detached CPUs pay only the established ``is
None`` discipline: one test per *block dispatch* and per cold step,
held under the 2% budget by ``benchmarks/bench_emulator_throughput.py``
and ``benchmarks/bench_runtime_profile.py``.  Unattached, the
collector is a ring plus a region lookup: ``repro diff-run`` feeds it
by hand while single-stepping.

Demotions away from the fused tier (a manual
:meth:`~repro.machine.cpu.CPU.step`) and block-cache invalidations
(``invalidate_code``, watch-region change, telemetry attach/detach)
are counted by cause on the CPU; the report reads the attached CPU's
own tallies.

Everything reads out as a schema-versioned :data:`EngineReport/v2
<ENGINE_REPORT_SCHEMA>` document — hot-block top-N, guard-failure
ranking, compile-vs-execute time split, trampoline and RA-translation
tallies, the last blocks — rendered by :func:`render_engine_report`
and surfaced as ``repro run BINARY --telemetry FILE``.
"""

import json
from collections import deque


#: Schema tag; bump when a field changes meaning.
ENGINE_REPORT_SCHEMA = "EngineReport/v2"

#: Default cap on each recorded event log (deopts, RA-translation
#: misses).
DEFAULT_EVENTS = 64

#: Default number of block entries kept in the ring.
DEFAULT_RING = 256

#: Number of hot blocks / guard sites / trampoline sites a report ranks.
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
        if len(t.deopt_events) < t.max_events:
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


def _distribution(counts):
    """Count/sum/min/max/mean and nearest-rank p50/p90/p99 of a
    ``value -> occurrences`` histogram (None placeholders when
    empty)."""
    n = sum(counts.values())
    if not n:
        return {"count": 0, "sum": 0, "min": None, "max": None,
                "mean": 0.0, "p50": None, "p90": None, "p99": None}
    total = sum(v * c for v, c in counts.items())
    ordered = sorted(counts.items())
    out = {"count": n, "sum": total, "min": ordered[0][0],
           "max": ordered[-1][0], "mean": total / n}
    for p in (50, 90, 99):
        rank = max(1, -(-p * n // 100))
        seen = 0
        for value, c in ordered:
            seen += c
            if seen >= rank:
                out[f"p{p}"] = value
                break
    return out


class EngineTelemetry:
    """Runtime collector for one machine (or several runs on one
    machine — counters accumulate).

    The CPU and kernel feed it; it never feeds them.  All recording is
    pure observation: results, fault-time state, and every
    ``RunResult`` counter stay bit-identical to an un-instrumented run.
    """

    def __init__(self, ring_size=DEFAULT_RING, max_events=DEFAULT_EVENTS):
        if ring_size < 1:
            raise ValueError("ring capacity must be >= 1")
        #: block start pc -> [entries, instructions, cycles]
        self.block_stats = {}
        #: instructions retired and cycles charged by the per-step tier
        #: (cold code and trace recording)
        self.cold_instructions = 0
        self.cold_cycles = 0
        self.max_events = max_events

        # -- compile-time accounting
        self.compiles = 0
        self.compile_seconds = 0.0
        self.insns_fused = 0
        self.alloc_regs = 0
        self.source_lines = 0
        self.loop_blocks = 0
        #: fused trace length (instructions) -> blocks built
        self.trace_lengths = {}
        #: why traces ended: reason -> count
        self.ends_by_reason = {}

        # -- speculation accounting
        #: site pc -> :class:`GuardSite`
        self.guards = {}
        self.deopt_events = []

        # -- block entries
        #: the most recent ``(pc, cycles)`` block entries
        self.ring = deque(maxlen=ring_size)
        #: cycles between consecutive block entries -> occurrences
        self.block_cycles = {}
        self._last_cycles = None

        # -- trampolines
        #: loaded trampoline-site address -> (kind, function)
        self.tramp_sites = {}
        self.tramp_hits = {}
        #: block filename -> ((trace index, site addr), ...) of the
        #: trampoline sites inside that fused block
        self._block_sites = {}

        # -- kernel hooks
        #: per-path {"hits": n, "misses": n} for RA translation
        self.ra_stats = {}
        self.ra_miss_events = []
        #: (kind, engine) -> {"walks": n, "frames": n}
        self.unwind_stats = {}

        #: loaded (lo, hi, label) address regions for rendering
        self.regions = []

        # -- wall-clock split
        self.runs = 0
        self.run_seconds = 0.0

        #: the attached CPU's engine name and its demotion and
        #: invalidation tallies by cause (set at attach time)
        self.engine = None
        self.demotions = {}
        self.invalidations = {}

    # -- wiring -------------------------------------------------------------

    def attach(self, machine):
        """Wire this collector into a machine's CPU and learn the
        layout of every image already loaded.

        Attaching drops the block cache (counted as a
        ``telemetry-attach`` invalidation when blocks existed) so every
        block is rebuilt with guard instrumentation baked in; the fused
        tier keeps running — telemetry never demotes.
        """
        machine.telemetry = self
        machine.cpu.attach_telemetry(self)
        for image in machine.images:
            self.observe_image(image)
        return self

    def observe_image(self, image):
        """Resolve trampoline sites and code regions for one image."""
        binary = image.binary
        bias = image.bias
        text = binary.metadata.get("text_range")
        if text:
            self.regions.append((text[0] + bias, text[1] + bias, ".text"))
        info = binary.metadata.get("rewrite")
        if not info:
            return
        for site, kind, function in info.get("trampoline_sites", ()):
            self.tramp_sites[site + bias] = (kind, function)
        instr = info.get("instr_range")
        if instr:
            self.regions.append((instr[0] + bias, instr[1] + bias,
                                 ".instr"))

    def region_of(self, pc):
        for lo, hi, label in self.regions:
            if lo <= pc < hi:
                return label
        return "?"

    # -- hooks (called from the CPU/kernel when attached) -------------------

    def record_block(self, pc, cycles):
        """One block entered at ``pc`` with ``cycles`` on the clock."""
        self.ring.append((pc, cycles))
        last = self._last_cycles
        if last is not None:
            hist = self.block_cycles
            delta = cycles - last
            hist[delta] = hist.get(delta, 0) + 1
        self._last_cycles = cycles

    def tramp_hit(self, site, n=1):
        """``n`` executions of a known trampoline site."""
        self.tramp_hits[site] = self.tramp_hits.get(site, 0) + n

    def record_dispatch(self, pc, block, done, cycles, next_pc, now):
        """One fused-block dispatch at ``pc`` that executed ``done``
        instructions costing ``cycles`` and left for ``next_pc`` at
        ``now``.

        Trampoline sites inside the block are charged for the executed
        prefix *exactly*: a trace of ``n`` instructions per pass that
        returns ``done`` ran ``q = done // n`` full passes plus a
        ``rem = done % n``-instruction prefix, so trace index ``i`` ran
        ``q + (1 if i < rem else 0)`` times.
        """
        st = self.block_stats.get(pc)
        if st is None:
            st = self.block_stats[pc] = [0, 0, 0]
        st[0] += 1
        st[1] += done
        st[2] += cycles
        self.record_block(next_pc, now)
        tramp_sites = self.tramp_sites
        if not tramp_sites:
            return
        # The block's filename is unique per generated block.
        sites = self._block_sites.get(block[5])
        if sites is None:
            sites = self._block_sites[block[5]] = tuple(
                (i, a) for i, a in enumerate(block[3]) if a in tramp_sites)
        if sites:
            q, rem = divmod(done, block[1])
            for idx, addr in sites:
                hits = q + 1 if idx < rem else q
                if hits:
                    self.tramp_hit(addr, hits)

    def ra_event(self, path, pc, hit):
        """One RA translation on ``path`` (``cxx-unwind`` or ``go``)."""
        stats = self.ra_stats.get(path)
        if stats is None:
            stats = self.ra_stats[path] = {"hits": 0, "misses": 0}
        if hit:
            stats["hits"] += 1
        else:
            stats["misses"] += 1
            if len(self.ra_miss_events) < self.max_events:
                self.ra_miss_events.append(
                    {"path": path, "pc": pc, "region": self.region_of(pc)})

    def unwind_event(self, kind, engine, frames):
        """One completed (or aborted) unwind walk."""
        stats = self.unwind_stats.get((kind, engine))
        if stats is None:
            stats = self.unwind_stats[(kind, engine)] = {
                "walks": 0, "frames": 0,
            }
        stats["walks"] += 1
        stats["frames"] += frames

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
        self.trace_lengths[n] = self.trace_lengths.get(n, 0) + 1
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

    def last_blocks(self, n=None):
        """The most recent block entries, oldest first:
        ``[(pc, cycles), ...]``."""
        out = list(self.ring)
        return out if n is None else out[-n:]

    def hits_by_kind(self):
        out = {}
        for site, count in self.tramp_hits.items():
            kind = self.tramp_sites.get(site, ("?", "?"))[0]
            out[kind] = out.get(kind, 0) + count
        return out

    def hot_blocks(self, top=DEFAULT_TOP):
        """Top-N blocks by attributed cycles:
        ``[{pc, entries, instructions, cycles, cycle_share}, ...]``."""
        total = sum(s[2] for s in self.block_stats.values())
        ranked = sorted(self.block_stats.items(),
                        key=lambda kv: (-kv[1][2], kv[0]))
        return [
            {"pc": pc, "entries": st[0], "instructions": st[1],
             "cycles": st[2],
             "cycle_share": (st[2] / total) if total else 0.0}
            for pc, st in ranked[:top]
        ]

    def guard_ranking(self, top=DEFAULT_TOP):
        """Guard sites ranked by misses (then checks), worst first."""
        ranked = sorted(self.guards.values(),
                        key=lambda s: (-s.misses,
                                       -(s.hits + s.misses), s.pc))
        return [s.to_dict() for s in ranked[:top]]

    def hottest_sites(self, top=DEFAULT_TOP):
        """Trampoline sites ranked by hits."""
        ranked = sorted(self.tramp_hits.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        return [
            {"site": site, "hits": count,
             "kind": self.tramp_sites.get(site, ("?", "?"))[0],
             "function": self.tramp_sites.get(site, ("?", "?"))[1]}
            for site, count in ranked[:top]
        ]

    def report(self, top=DEFAULT_TOP):
        """The schema-versioned ``EngineReport/v2`` document."""
        checks = self.guard_checks
        misses = self.guard_misses
        execute = max(0.0, self.run_seconds - self.compile_seconds)
        sites = len(self.tramp_sites)
        sites_hit = len(self.tramp_hits)
        return {
            "schema": ENGINE_REPORT_SCHEMA,
            "engine": self.engine,
            "blocks": {
                "compiled": self.compiles,
                "dispatches": self.dispatches,
                "instructions": self.block_instructions,
                "cycles": sum(s[2] for s in self.block_stats.values()),
                "cold_instructions": self.cold_instructions,
                "cold_cycles": self.cold_cycles,
            },
            "hot_blocks": self.hot_blocks(top),
            "trace_shape": {
                "lengths": _distribution(self.trace_lengths),
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
            "trampolines": {
                "sites": sites,
                "sites_hit": sites_hit,
                "occupancy": (sites_hit / sites) if sites else None,
                "hits_total": sum(self.tramp_hits.values()),
                "by_kind": dict(sorted(self.hits_by_kind().items())),
                "hottest": self.hottest_sites(top),
            },
            "ra_translation": {
                **{path: dict(stats)
                   for path, stats in sorted(self.ra_stats.items())},
                "miss_events": list(self.ra_miss_events),
            },
            "unwind": {
                f"{kind}:{engine}": dict(stats)
                for (kind, engine), stats in sorted(
                    self.unwind_stats.items())
            },
            "last_blocks": [{"pc": pc, "cycles": cycles,
                             "region": self.region_of(pc)}
                            for pc, cycles in self.ring],
            "block_cycles": _distribution(self.block_cycles),
        }

    def to_dict(self):
        return self.report()

    def to_json(self, indent=None):
        return json.dumps(self.report(), indent=indent)

    def __repr__(self):
        return (f"<EngineTelemetry blocks={self.compiles} "
                f"dispatches={self.dispatches} "
                f"guards={len(self.guards)} "
                f"tramp_hits={sum(self.tramp_hits.values())}>")


def render_engine_report(source):
    """Human-readable engine report (the run-time sibling of
    :func:`repro.obs.trace.render_profile`).

    ``source`` is an :class:`EngineTelemetry` or an already-built
    ``EngineReport/v2`` dict.
    """
    r = source.report() if hasattr(source, "report") else source
    lines = [f"engine report ({r['engine'] or '?'})", "-" * 64]

    b = r["blocks"]
    lines.append(
        f"blocks            : {b['compiled']} compiled, "
        f"{b['dispatches']} dispatches, "
        f"{b['instructions']:,} instructions, {b['cycles']:,} cycles"
    )

    total = b["instructions"] + b["cold_instructions"]
    if total:
        lines.append(
            f"cold tier         : {b['cold_instructions']:,} "
            f"instructions, {b['cold_cycles']:,} cycles per-step "
            f"({b['cold_instructions'] / total:.1%} of executed)")

    bc = r["block_cycles"]
    if bc["count"]:
        lines.append(
            "block cycles      : "
            f"mean {bc['mean']:.1f}  p50 {bc['p50']}  "
            f"p90 {bc['p90']}  p99 {bc['p99']}  max {bc['max']}"
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

    t = r["trampolines"]
    if t["sites"]:
        occupancy = f"{t['occupancy']:.1%}"
        lines.append(
            f"trampolines       : {t['hits_total']} hits over "
            f"{t['sites_hit']}/{t['sites']} sites (occupancy {occupancy})"
        )
        if t["by_kind"]:
            lines.append("  by kind         : " + ", ".join(
                f"{kind}={count}" for kind, count in t["by_kind"].items()))
        for row in t["hottest"]:
            lines.append(
                f"  hot site        : {row['site']:#x} x{row['hits']} "
                f"({row['kind']} in {row['function']})"
            )

    ra = r["ra_translation"]
    for path in sorted(k for k in ra if k != "miss_events"):
        stats = ra[path]
        lines.append(
            f"ra-translation    : {path}: {stats['hits']} hits, "
            f"{stats['misses']} misses"
        )
    for ev in ra["miss_events"][:5]:
        lines.append(
            f"  miss            : {ev['path']} pc={ev['pc']:#x} "
            f"({ev['region']})"
        )

    for key, stats in r["unwind"].items():
        lines.append(
            f"unwind walks      : {key}: {stats['walks']} walks, "
            f"{stats['frames']} frames"
        )

    ring = r["last_blocks"][-DEFAULT_TOP:]
    if ring:
        lines.append(f"last {len(ring)} blocks:")
        for entry in ring:
            lines.append(
                f"  {entry['pc']:#10x}  cyc={entry['cycles']:<10} "
                f"{entry['region']}"
            )
    return "\n".join(lines)
