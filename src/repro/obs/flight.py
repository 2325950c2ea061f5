"""The runtime flight recorder: execution observability for the machine.

PR 1 made the *rewrite-time* pipeline observable; this module does the
same for *run time*, where the paper's dynamic claims live (Sections
6-7): trampoline hops, ``.ra_map`` return-address translation during
unwinding, and the block-level control flow of the rewritten image.

A :class:`FlightRecorder` attached to a :class:`repro.machine.Machine`
records:

* a bounded **ring buffer of block entries** — every control-transfer
  target, with the cycle count at entry (so the last N blocks before a
  fault are always available as forensics);
* **per-address trampoline hit counts**, resolved to the trampoline's
  kind and host function via the ``trampoline_sites`` map the rewriter
  stores in the rewritten binary's metadata;
* **RA-translation counters and miss events** for both unwinding paths
  (C++/DWARF ``translate_unwind_pc`` and Go's ``translate_go_pc``),
  split into map hits and pass-through misses;
* **unwind-walk events** (engine, frame count) from both unwinder
  implementations;
* a **block-cycle histogram** (latency between block entries) rendered
  with percentiles in :func:`render_flight_report`.

Recording comes in two granularities.  The default, ``"block"``,
*rides the superblock tier*: cold code, which that tier runs per-step,
records every control transfer and trampoline hit as it happens, and
the CPU calls :meth:`record_superblock` once per fused-block dispatch,
which rings the next block entry and recovers **exact**
trampoline-hit counts from the dispatch's executed prefix (a block of
per-pass length ``n`` returning ``done`` instructions executed trace
index ``i`` exactly ``done // n + (1 if i < done % n else 0)``
times).  Hit counts and cycle totals are bit-exact; only the
*ordering* inside the ring/chain is coarsened to one entry per
dispatch of fused code.  ``granularity="step"`` keeps the original
per-transfer stream by demoting the run to the per-step tier — no
longer silently: the demotion is counted on the CPU, mirrored to the
machine's metrics as ``engine.demoted``, and traced as an
``engine-demoted`` event.

The disabled path follows PR 1's design: the CPU/kernel hot paths hold a
``flight`` attribute that defaults to ``None`` and guard every hook with
a single ``is not None`` test on a local — cheaper than even a no-op
singleton call, so un-instrumented runs pay near-zero cost.
"""

import json

from repro.obs.metrics import Histogram

#: Default number of block entries kept in the ring.
DEFAULT_RING = 256
#: Default cap on recorded RA-translation miss events.
DEFAULT_MISS_EVENTS = 64
#: Default number of recent trampoline hits kept for chain forensics.
DEFAULT_TRAMP_RING = 32


class Ring:
    """A fixed-capacity ring buffer preserving arrival order."""

    __slots__ = ("buf", "n")

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.buf = [None] * capacity
        self.n = 0

    def push(self, item):
        self.buf[self.n % len(self.buf)] = item
        self.n += 1

    def __len__(self):
        return min(self.n, len(self.buf))

    def items(self, last=None):
        """Oldest-to-newest retained items (optionally only the last N)."""
        size = len(self.buf)
        kept = min(self.n, size)
        start = self.n - kept
        out = [self.buf[i % size] for i in range(start, self.n)]
        if last is not None:
            out = out[-last:]
        return out


class FlightRecorder:
    """Execution observer for one machine run (or several runs on one
    machine — counters accumulate)."""

    enabled = True

    def __init__(self, ring_size=DEFAULT_RING,
                 max_miss_events=DEFAULT_MISS_EVENTS,
                 tramp_ring=DEFAULT_TRAMP_RING, granularity="block"):
        if granularity not in ("block", "step"):
            raise ValueError(
                f"unknown flight granularity {granularity!r}; "
                "expected 'block' or 'step'")
        #: ``"block"`` rides the superblock tier (one record per fused
        #: dispatch, exact hit counts); ``"step"`` demotes the run to
        #: the per-step tier for a per-transfer stream.
        self.granularity = granularity
        self.ring = Ring(ring_size)
        self.blocks = 0
        #: fused-block dispatches observed (block granularity only)
        self.superblocks = 0
        self.block_cycles = Histogram("flight.block_cycles")
        self._last_cycles = None
        #: block addrs tuple -> ((trace index, site addr), ...) of the
        #: trampoline sites inside that trace
        self._site_cache = {}

        #: loaded trampoline-site address -> (kind, function)
        self.tramp_sites = {}
        self.tramp_hits = {}
        self.recent_tramps = Ring(tramp_ring)

        #: per-path {"hits": n, "misses": n} for RA translation
        self.ra_stats = {}
        self.ra_miss_events = []
        self.max_miss_events = max_miss_events

        #: (kind, engine) -> {"walks": n, "frames": n}
        self.unwind_stats = {}

        #: loaded (lo, hi, label) address regions for rendering
        self.regions = []

    # -- wiring -------------------------------------------------------------

    def attach(self, machine):
        """Wire this recorder into a machine's CPU and kernel and learn
        the layout of every image already loaded.

        At the default ``"block"`` granularity the superblock tier
        keeps running: its cold code feeds :meth:`record_block` and
        :meth:`tramp_hit` per transfer and site, its fused blocks
        :meth:`record_superblock` per dispatch.
        ``"step"`` granularity demotes ``CPU.run`` to the per-step
        tier — block events must then be observed at every control
        transfer — and says so: the demotion is counted by cause on
        the CPU, mirrored as an ``engine.demoted`` metric, and traced
        as an ``engine-demoted`` event.  Accounting is identical
        either way; only wall-clock speed differs."""
        machine.flight = self
        cpu = machine.cpu
        cpu.flight = self
        machine.kernel.flight = self
        if self.granularity == "step" and cpu.engine == "superblock":
            # Never silent: _demote mirrors an ``engine.demoted``
            # metric and an ``engine-demoted`` event via the machine.
            cpu._demote("flight-recorder")
            if cpu._blocks:
                cpu._invalidate_cause("recorder-attach")
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

    # -- hooks (called from the CPU/kernel hot paths when attached) ---------

    def record_block(self, pc, cycles):
        """One control-transfer target reached at ``cycles``."""
        self.blocks += 1
        self.ring.push((pc, cycles))
        last = self._last_cycles
        if last is not None:
            self.block_cycles.observe(cycles - last)
        self._last_cycles = cycles

    def tramp_hit(self, site):
        """The instruction at a known trampoline site executed."""
        self.tramp_hits[site] = self.tramp_hits.get(site, 0) + 1
        self.recent_tramps.push(site)

    def tramp_hit_n(self, site, n):
        """``n`` executions of a trampoline site observed at once (one
        fused-block dispatch); the chain ring gets a single entry."""
        self.tramp_hits[site] = self.tramp_hits.get(site, 0) + n
        self.recent_tramps.push(site)

    def record_superblock(self, block, next_pc, done, cycles):
        """One fused-block dispatch (block granularity): ring the next
        block entry and charge trampoline sites for the executed
        prefix — *exactly*.

        A block whose trace is ``n`` instructions per pass and which
        returns ``done`` executed ``q = done // n`` full passes plus a
        ``rem = done % n``-instruction prefix, so trace index ``i`` ran
        ``q + (1 if i < rem else 0)`` times.  Hit counts therefore
        match the per-step tier bit for bit; only the ring/chain
        ordering is coarsened to one entry per dispatch.
        """
        self.superblocks += 1
        self.record_block(next_pc, cycles)
        tramp_sites = self.tramp_sites
        if not tramp_sites:
            return
        addrs = block[3]
        sites = self._site_cache.get(addrs)
        if sites is None:
            sites = tuple((i, a) for i, a in enumerate(addrs)
                          if a in tramp_sites)
            self._site_cache[addrs] = sites
        if not sites:
            return
        q, rem = divmod(done, block[1])
        for idx, addr in sites:
            hits = q + 1 if idx < rem else q
            if hits:
                self.tramp_hit_n(addr, hits)

    def ra_event(self, path, pc, new_pc, hit):
        """One RA translation on ``path`` (``cxx-unwind`` or ``go``)."""
        stats = self.ra_stats.get(path)
        if stats is None:
            stats = self.ra_stats[path] = {"hits": 0, "misses": 0}
        if hit:
            stats["hits"] += 1
        else:
            stats["misses"] += 1
            if len(self.ra_miss_events) < self.max_miss_events:
                self.ra_miss_events.append(
                    {"path": path, "pc": pc, "region": self.region_of(pc)}
                )

    def unwind_event(self, kind, engine, frames):
        """One completed (or aborted) unwind walk."""
        stats = self.unwind_stats.get((kind, engine))
        if stats is None:
            stats = self.unwind_stats[(kind, engine)] = {
                "walks": 0, "frames": 0,
            }
        stats["walks"] += 1
        stats["frames"] += frames

    # -- reading ------------------------------------------------------------

    def last_blocks(self, n=None):
        """The most recent block entries, oldest first:
        ``[(pc, cycles), ...]``."""
        return self.ring.items(last=n)

    def trampoline_chain(self, n=None):
        """Recent trampoline hits, oldest first:
        ``[(site, kind, function), ...]``."""
        return [(site,) + self.tramp_sites.get(site, ("?", "?"))
                for site in self.recent_tramps.items(last=n)]

    def hits_by_kind(self):
        out = {}
        for site, count in self.tramp_hits.items():
            kind = self.tramp_sites.get(site, ("?", "?"))[0]
            out[kind] = out.get(kind, 0) + count
        return out

    def hottest_sites(self, n=8):
        ranked = sorted(self.tramp_hits.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        return [
            {"site": site, "hits": count,
             "kind": self.tramp_sites.get(site, ("?", "?"))[0],
             "function": self.tramp_sites.get(site, ("?", "?"))[1]}
            for site, count in ranked[:n]
        ]

    def summary(self):
        """JSON-ready digest of everything recorded."""
        hist = self.block_cycles
        sites = len(self.tramp_sites)
        sites_hit = len(self.tramp_hits)
        return {
            "granularity": self.granularity,
            "blocks": self.blocks,
            "superblocks": self.superblocks,
            "ring": [{"pc": pc, "cycles": cycles,
                      "region": self.region_of(pc)}
                     for pc, cycles in self.last_blocks()],
            # summary() carries p50/p90/p99 whenever anything was
            # observed; None placeholders keep the empty shape stable.
            "block_cycles": {"p50": None, "p90": None, "p99": None,
                             **hist.summary()},
            "trampolines": {
                "sites": sites,
                "sites_hit": sites_hit,
                "occupancy": (sites_hit / sites) if sites else None,
                "hits_total": sum(self.tramp_hits.values()),
                "by_kind": self.hits_by_kind(),
                "hottest": self.hottest_sites(),
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
        }

    def to_dict(self):
        return self.summary()

    def to_json(self, indent=None):
        return json.dumps(self.summary(), indent=indent)

    def __repr__(self):
        return (f"<FlightRecorder blocks={self.blocks} "
                f"tramp_hits={sum(self.tramp_hits.values())}>")


def render_flight_report(recorder, last_blocks=16):
    """A human-readable runtime profile for one :class:`FlightRecorder`
    (the run-time sibling of :func:`repro.obs.trace.render_profile`)."""
    s = recorder.summary()
    lines = ["flight report", "-" * 64]

    bc = s["block_cycles"]
    lines.append(f"blocks executed   : {s['blocks']}")
    if bc["count"]:
        lines.append(
            "block cycles      : "
            f"mean {bc['mean']:.1f}  p50 {bc['p50']}  "
            f"p90 {bc['p90']}  p99 {bc['p99']}  max {bc['max']}"
        )

    t = s["trampolines"]
    occupancy = (f"{t['occupancy']:.1%}" if t["occupancy"] is not None
                 else "n/a")
    lines.append(
        f"trampolines       : {t['hits_total']} hits over "
        f"{t['sites_hit']}/{t['sites']} sites (occupancy {occupancy})"
    )
    if t["by_kind"]:
        lines.append("  by kind         : " + ", ".join(
            f"{kind}={count}" for kind, count in sorted(
                t["by_kind"].items())))
    for row in t["hottest"][:5]:
        lines.append(
            f"  hot site        : {row['site']:#x} x{row['hits']} "
            f"({row['kind']} in {row['function']})"
        )

    ra = s["ra_translation"]
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

    for key, stats in sorted(s["unwind"].items()):
        lines.append(
            f"unwind walks      : {key}: {stats['walks']} walks, "
            f"{stats['frames']} frames"
        )

    ring = s["ring"][-last_blocks:]
    if ring:
        lines.append(f"last {len(ring)} blocks:")
        for entry in ring:
            lines.append(
                f"  {entry['pc']:#10x}  cyc={entry['cycles']:<10} "
                f"{entry['region']}"
            )
    return "\n".join(lines)
