"""The incremental CFG patching rewriter (the paper's system).

Pipeline::

    CFG construction  (per-function failure containment)
        -> function-pointer analysis
        -> degradation planning (the per-function mode ladder)
        -> CFL-block computation (mode-dependent)
        -> trampoline placement analysis (superblocks, scratch pools)
        -> relocation into .instr (+ instrumentation, clones, veneers)
        -> trampoline installation (short/long/hop/save-restore/trap)
        -> function-pointer redirection (func-ptr mode)
        -> .ra_map / .trap_map emission, section layout, report

Failure semantics follow Figure 2: analysis failures *lower coverage*,
they never abort the rewrite.  A function whose analysis failed is left
in place; a function whose analysis cannot support the requested mode
walks down the degradation ladder — ``func-ptr -> jt -> dir -> skip``
(:mod:`repro.core.modes`) — one rung at a time, each walk recorded in a
:class:`~repro.core.modes.DegradationReport` on the
:class:`RewriteReport`.  The old whole-binary refusal (``func-ptr`` mode
raising :class:`RewriteError` on imprecise pointer identification)
survives only behind ``degrade=False``, which the Figure-2 experiment
uses to exhibit the *raw* failure consequences.

Every stage runs under a trace span (:data:`PIPELINE_STAGES`, see
:mod:`repro.obs`); each skipped function is recorded as a structured
``function-skipped`` event and each ladder walk as a
``function-degraded`` event, both carrying Figure-2 categories.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.analysis.construction import ConstructionOptions, build_cfg
from repro.analysis.failures import audit_jump_tables, classify_failure
from repro.analysis.funcptr import analyze_function_pointers
from repro.analysis.liveness import LivenessAnalysis
from repro.binfmt.sections import Section
from repro.core.cfl import CflAnalysis
from repro.core.instrumentation import EmptyInstrumentation
from repro.core.layout import prepare_output
from repro.core.modes import (
    MODE_SKIP,
    DegradationReport,
    RewriteMode,
    mode_rewrites_jump_tables,
)
from repro.core.placement import padding_ranges, place_trampolines
from repro.core.relocate import Relocator
from repro.core.runtime_lib import RuntimeLibrary, pack_addr_map
from repro.core.trampolines import ScratchPool, TrampolineInstaller
from repro.isa import get_arch
from repro.isa.archspec import ILLEGAL_BYTE
from repro.obs import NULL_TRACER
from repro.util.errors import RewriteError

#: Trace span names of the eight pipeline stages (module docstring),
#: opened in this order by :meth:`IncrementalRewriter.rewrite`.  Stages a
#: mode does not perform (e.g. ``funcptr-redirection`` under ``dir``)
#: still get a span, marked with ``skipped=True``, so every trace has the
#: same shape.
PIPELINE_STAGES = (
    "cfg-construction",
    "funcptr-analysis",
    "degradation-planning",
    "cfl-computation",
    "trampoline-placement",
    "relocation",
    "trampoline-installation",
    "funcptr-redirection",
    "emit-layout",
)


class FailedFunction(NamedTuple):
    """One skipped function: structured so the report and the
    failure-forensics trace events agree."""

    name: str
    reason: str

    @property
    def category(self):
        """The Figure-2 failure category of :attr:`reason`."""
        return classify_failure(self.reason)


@dataclass
class RewriteReport:
    """Everything the evaluation harness reads off one rewrite."""

    mode: str
    arch: str
    total_functions: int = 0
    relocated_functions: int = 0
    #: :class:`FailedFunction` ``(name, reason)`` entries, one per
    #: skipped function
    failed_functions: list = field(default_factory=list)
    cfl_blocks: int = 0
    superblocks: int = 0
    trampolines: dict = field(default_factory=dict)
    traps: int = 0
    clones: int = 0
    redirected_slots: int = 0
    ra_entries: int = 0
    original_loaded: int = 0
    rewritten_loaded: int = 0
    #: None = pointer analysis not consulted; True/False = its verdict
    funcptr_precise: Optional[bool] = field(default=None)
    funcptr_reasons: list = field(default_factory=list)
    #: the degradation ladder's per-function walks
    #: (:class:`repro.core.modes.DegradationReport`)
    degradation: DegradationReport = field(
        default_factory=DegradationReport)

    @property
    def coverage(self):
        """Instrumented fraction of functions (paper's coverage metric)."""
        if self.total_functions == 0:
            return 1.0
        return self.relocated_functions / self.total_functions

    @property
    def size_increase(self):
        if self.original_loaded == 0:
            return 0.0
        return self.rewritten_loaded / self.original_loaded - 1.0


class IncrementalRewriter:
    """Incremental CFG patching, as a reusable object."""

    #: recycle unused superblock bytes as hop-slot scratch (Section 7);
    #: baselines without the scratch-block analysis turn this off
    pool_leftovers = True
    #: extra bytes per trap-map entry (mainstream Dyninst's legacy trap
    #: structures are far larger than the 16-byte packed pairs here)
    trap_map_entry_pad = 0

    def __init__(self, mode=RewriteMode.JT, instrumentation=None,
                 construction_options=None, scorch_original=False,
                 call_emulation=False, cfg_hook=None,
                 function_order="address", block_order="address",
                 tracer=None, degrade=True):
        self.mode = (RewriteMode.parse(mode) if isinstance(mode, str)
                     else mode)
        self.instrumentation = instrumentation or EmptyInstrumentation()
        self.construction_options = (construction_options
                                     or ConstructionOptions())
        #: observability sink (:mod:`repro.obs`); a no-op by default
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: emission order for the BOLT-comparison experiments (Section
        #: 8.3): "address" or "reverse"
        self.function_order = function_order
        self.block_order = block_order
        #: fill original bytes of relocated functions with illegal
        #: instructions (the strong rewrite test of Section 8)
        self.scorch_original = scorch_original
        #: SRBI-style call emulation instead of RA translation
        self.call_emulation = call_emulation
        #: optional CFG mutation hook (failure injection, Figure 2)
        self.cfg_hook = cfg_hook
        #: walk unsupported functions down the mode ladder instead of
        #: refusing the whole binary; ``False`` restores the historical
        #: hard :class:`RewriteError` (the Figure-2 experiment needs the
        #: raw failure consequences observable)
        self.degrade = degrade

    # -- public ---------------------------------------------------------------

    def rewrite(self, binary):
        """Rewrite; returns (rewritten Binary, RewriteReport).

        Each pipeline stage runs under a :data:`PIPELINE_STAGES` trace
        span; per-function failures become ``function-skipped`` events.
        """
        with self.tracer.span("rewrite", mode=str(self.mode),
                              arch=binary.arch_name):
            return self._rewrite_traced(binary, self.tracer)

    def _rewrite_traced(self, binary, tr):
        spec = get_arch(binary.arch_name)

        with tr.span("cfg-construction"):
            cfg = build_cfg(binary, self.construction_options, tracer=tr)
            if self.cfg_hook is not None:
                cfg = self.cfg_hook(cfg) or cfg
            self._pre_checks(binary, cfg)
            failed_fns = [FailedFunction(f.name, f.failed)
                          for f in cfg.failed_functions()]
            for rec in failed_fns:
                tr.event(
                    "function-skipped",
                    function=rec.name,
                    reason=rec.reason,
                    category=rec.category,
                    mode=str(self.mode),
                )

        with tr.span("funcptr-analysis"):
            funcptrs = analyze_function_pointers(binary, cfg, spec,
                                                 tracer=tr)
            tr.count("data_defs", len(funcptrs.data_defs))
            tr.count("code_defs", len(funcptrs.code_defs))
            tr.count("derived_defs", len(funcptrs.derived_defs))
            if self.mode.rewrites_function_pointers \
                    and not funcptrs.precise and not self.degrade:
                raise RewriteError(
                    "func-ptr mode requires precise function-pointer "
                    "identification: " + "; ".join(funcptrs.reasons[:3])
                )

        all_functions = [
            f for f in cfg.sorted_functions() if not f.is_runtime_support
        ]
        candidate_fns = [
            f for f in all_functions
            if f.ok and self.instrumentation.wants_function(f)
        ]

        with tr.span("degradation-planning") as span:
            degradation = DegradationReport(
                requested_mode=str(self.mode))
            fn_modes = {}
            forced_cfl = {}
            if self.degrade:
                fn_modes, forced_cfl = self._plan_degradations(
                    binary, cfg, funcptrs, candidate_fns, degradation,
                )
                for rec in degradation.entries:
                    tr.event(
                        "function-degraded",
                        function=rec.function,
                        requested=rec.requested,
                        final=rec.final,
                        reason=rec.reason,
                        category=rec.category,
                    )
            else:
                span.attrs["skipped"] = True
            tr.count("degraded_functions", len(degradation))
            degraded_entries = set(fn_modes)
            skip_entries = {entry for entry, m in fn_modes.items()
                            if m == MODE_SKIP}

        relocated_fns = [
            f for f in candidate_fns if f.entry not in skip_entries
        ]
        relocated_set = {f.entry for f in relocated_fns}

        with tr.span("cfl-computation"):
            extra = self.instrumentation.prepare(binary, cfg)
            out, dead_ranges, extra_addrs = prepare_output(binary, extra)
            if hasattr(self.instrumentation, "section_addr") \
                    and ".icounters" in extra_addrs:
                self.instrumentation.section_addr = \
                    extra_addrs[".icounters"]

            special_points, derived_by_slot = self._derived_flow_points(
                funcptrs
            )
            extra_cfl = self._unrewritten_landing_points(
                cfg, funcptrs, relocated_set, degraded_entries
            )
            for name, points in forced_cfl.items():
                extra_cfl.setdefault(name, set()).update(points)
            cfl = CflAnalysis(
                binary, cfg, self.mode, funcptrs,
                call_emulation=self.call_emulation,
                relocated=relocated_set,
                extra_cfl_points=extra_cfl,
                fn_modes=fn_modes,
            )

        with tr.span("trampoline-placement"):
            placement = self._compute_placement(cfg, cfl)
            cfl_blocks = sum(len(v)
                             for v in placement.cfl_by_function.values())
            tr.count("cfl_blocks", cfl_blocks)
            tr.count("superblocks", len(placement.superblocks))

        with tr.span("relocation"):
            code_defs = ()
            if self.mode.rewrites_function_pointers:
                code_defs = self._redirectable_code_defs(
                    cfg, funcptrs, degraded_entries
                )
            relocator = Relocator(
                binary, spec, cfg, self.mode, self.instrumentation,
                section_labels=extra_addrs,
                call_emulation=self.call_emulation,
                special_points=special_points,
                funcptr_code_defs=code_defs,
                fn_modes=fn_modes,
                **self._relocator_kwargs(),
            )
            emit_order = list(relocated_fns)
            if self.function_order == "reverse":
                emit_order.reverse()
            reloc = relocator.relocate(emit_order,
                                       block_order=self.block_order)

            instr_base = out.next_free_addr(64)
            reloc.stream.assign_addresses(spec, instr_base)
            instr_bytes = reloc.stream.render(spec, instr_base)
            out.add_section(Section(".instr", instr_base, instr_bytes,
                                    ("ALLOC", "EXEC"), 16))
            tr.count("relocated_functions", len(emit_order))
            tr.count("clones", len(reloc.clones))
            tr.count("instr_bytes", len(instr_bytes))

        with tr.span("trampoline-installation"):
            pad_ranges = padding_ranges(binary, cfg, spec)
            pool = ScratchPool(
                list(placement.scratch_ranges)
                + pad_ranges
                + list(dead_ranges)
            )
            installer = TrampolineInstaller(
                out, spec, pool, toc_base=binary.metadata.get("toc_base"),
                pool_leftovers=self.pool_leftovers,
                tracer=tr,
            )
            liveness_cache = {}
            for sb in placement.superblocks:
                fcfg = cfg.by_name[sb.function]
                if fcfg.name not in liveness_cache:
                    liveness_cache[fcfg.name] = LivenessAnalysis(fcfg,
                                                                 spec)
                target = reloc.block_labels[sb.cfl_start].resolved()
                dead = liveness_cache[fcfg.name].dead_gprs_at(
                    sb.cfl_start)
                installer.install(sb.function, sb.cfl_start, sb.size,
                                  target, dead)

        with tr.span("funcptr-redirection") as span:
            redirected = 0
            if self.mode.rewrites_function_pointers:
                redirected = self._redirect_pointers(
                    out, funcptrs, derived_by_slot, reloc, relocated_set,
                    degraded_entries,
                )
                tr.count("redirected_slots", redirected)
            else:
                span.attrs["skipped"] = True

        with tr.span("emit-layout"):
            if self.scorch_original:
                self._scorch(out, cfg, relocated_fns, installer)

            self._emit_maps(out, reloc, installer)
            self._post_layout(out, reloc, installer)
            ra_map = reloc.ra_map()
            tr.count("ra_entries", len(ra_map))
            tr.count("trap_map_entries", len(installer.trap_map))

            wrap_unwind = (not self.call_emulation
                           and bool(binary.landing_pads))
            go_hooks = (not self.call_emulation
                        and bool(binary.func_table))
            out.metadata["rewrite"] = {
                "mode": str(self.mode),
                "wrap_unwind": wrap_unwind,
                "go_hooks": go_hooks,
                "call_emulation": self.call_emulation,
                "text_range": binary.metadata.get("text_range"),
                "instr_range": [instr_base,
                                instr_base + len(instr_bytes)],
                "trampolines": installer.stats.as_dict(),
                "trampoline_sites": [[r.site, r.kind, r.function]
                                     for r in installer.records],
            }

        report = RewriteReport(
            mode=str(self.mode),
            arch=spec.name,
            total_functions=len(all_functions),
            relocated_functions=len(relocated_fns),
            failed_functions=failed_fns,
            cfl_blocks=cfl_blocks,
            superblocks=len(placement.superblocks),
            trampolines=installer.stats.as_dict(),
            traps=installer.stats.trap,
            clones=len(reloc.clones),
            redirected_slots=redirected,
            ra_entries=len(ra_map),
            original_loaded=binary.loaded_size(),
            rewritten_loaded=out.loaded_size(),
            funcptr_precise=funcptrs.precise,
            funcptr_reasons=list(funcptrs.reasons),
            degradation=degradation,
        )
        return out, report

    def runtime_library(self, rewritten):
        """The runtime library to LD_PRELOAD with the rewritten binary."""
        return RuntimeLibrary.from_binary(rewritten)

    # -- overridable hooks (baseline rewriters subclass these) --------------------

    def _pre_checks(self, binary, cfg):
        """Raise RewriteError for binaries this rewriter cannot handle."""

    def _compute_placement(self, cfg, cfl):
        """Trampoline placement strategy (Section 4.2); the default is
        CFL-blocks-only with superblock extension."""
        return place_trampolines(cfg, cfl, tracer=self.tracer)

    def _relocator_kwargs(self):
        """Extra keyword arguments for the Relocator."""
        return {}

    def _post_layout(self, out, reloc, installer):
        """Called after the output binary is fully laid out."""

    # -- internals -------------------------------------------------------------------

    def _plan_degradations(self, binary, cfg, funcptrs, candidates,
                           report):
        """Walk every function that cannot be rewritten at the requested
        mode down the ladder (``func-ptr -> jt -> dir -> skip``).

        Two detectors drive the walk:

        * the pointer analysis's per-function imprecision attribution
          (:attr:`FuncPtrAnalysis.imprecise_by_function`) knocks a
          function out of ``func-ptr``: down to ``jt`` for reasons the
          weaker mode side-steps (unredirected pointers land on the
          original entry, which stays CFL), straight to ``skip`` for
          functions that *build or consume* runtime code pointers —
          relocating such a function while its computed pointers keep
          original values would split its identity between two copies;
        * :func:`repro.analysis.failures.audit_jump_tables` knocks a
          function out of ``jt``: a table whose image contents disagree
          with the analysis (a missed edge, Figure 2's dangerous arrow)
          must not be cloned.  When the audit recovered the true target
          list the function falls to ``dir`` with those targets forced
          CFL (the original table keeps working and every real landing
          site gets a trampoline); an unreadable table forces ``skip``.

        Returns ``({entry: final mode}, {function name: forced CFL
        points})`` and fills ``report`` with one entry per degraded
        function (reasons joined across rungs;
        :func:`~repro.analysis.failures.classify_failure` prefers the
        dangerous category on mixed reasons).
        """
        fn_modes = {}
        forced_cfl = {}
        imprecise = (funcptrs.imprecise_by_function
                     if not funcptrs.precise else {})
        for fcfg in candidates:
            mode = self.mode
            reasons = []
            if mode.rewrites_function_pointers \
                    and fcfg.name in imprecise:
                reason = imprecise[fcfg.name][0]
                reasons.append(reason)
                if "computed code pointer" in reason \
                        or "indirect transfer" in reason:
                    mode = MODE_SKIP
                else:
                    mode = mode.downgrade()
            if mode_rewrites_jump_tables(mode) and fcfg.jump_tables:
                findings = audit_jump_tables(binary, fcfg)
                if findings:
                    reason, true_targets = findings[0]
                    reasons.append(reason)
                    mode = RewriteMode.DIR
                    if true_targets is None:
                        mode = MODE_SKIP
                    else:
                        points = {t for t in true_targets
                                  if t in fcfg.blocks}
                        unrepaired = (set(true_targets)
                                      - set(fcfg.blocks))
                        if unrepaired:
                            # A true target outside the known blocks
                            # cannot get a trampoline; nothing below
                            # dir is safe except skipping.
                            mode = MODE_SKIP
                        else:
                            forced_cfl[fcfg.name] = points
            if mode is not self.mode:
                if mode == MODE_SKIP:
                    forced_cfl.pop(fcfg.name, None)
                fn_modes[fcfg.entry] = mode
                joined = "; ".join(reasons)
                report.add(fcfg.name, fcfg.entry, mode, joined,
                           classify_failure(joined))
        return fn_modes, forced_cfl

    def _redirectable_code_defs(self, cfg, funcptrs, degraded_entries):
        """Code-site pointer definitions still eligible for retargeting:
        a def is dropped when its *target* function degraded below
        func-ptr (the entry stays CFL, the pointer must keep its
        original value) or when its *containing* function did (that
        function no longer performs func-ptr rewriting)."""
        if not degraded_entries:
            return funcptrs.code_defs
        kept = []
        for cdef in funcptrs.code_defs:
            if cdef.target in degraded_entries:
                continue
            addrs = [a for a in cdef.prov[1:] if isinstance(a, int)]
            home = cfg.function_at(min(addrs)) if addrs else None
            if home is not None and home.entry in degraded_entries:
                continue
            kept.append(cdef)
        return kept

    def _unrewritten_landing_points(self, cfg, funcptrs, relocated_set,
                                    degraded_entries=frozenset()):
        """Known mid-function landing points of *unrewritten* pointers.

        Go's entry+1 pointers (paper Listing 1) land one byte past a
        function entry.  When func-ptr mode redirects the pointer, the
        relocator handles it; in dir/jt mode the original value survives
        and execution can land at entry+delta in original code — a
        mid-block landing that would otherwise fall into the middle of
        the entry trampoline.  We split the block there and make the
        split point CFL, exactly the Section-4.3 over-approximation
        machinery applied on purpose.

        A slot whose target function the ladder degraded below func-ptr
        is never redirected, so it needs the same treatment even when
        the requested mode rewrites pointers.
        """
        redirecting = self.mode.rewrites_function_pointers
        if redirecting and funcptrs.precise and not degraded_entries:
            return {}
        by_slot = {d.slot: d for d in funcptrs.data_defs}
        extra = {}
        for flow in funcptrs.derived_defs:
            data_def = by_slot.get(flow.src_slot)
            if data_def is None or flow.delta == 0:
                continue
            if data_def.target not in relocated_set:
                continue
            if redirecting and data_def.target not in degraded_entries:
                continue   # the slot is redirected; relocation handles it
            fcfg = cfg.function_at(data_def.target)
            if fcfg is None or not fcfg.ok:
                continue
            point = data_def.target + flow.delta
            fcfg.split_block(point)
            if point in fcfg.blocks:
                extra.setdefault(fcfg.name, set()).add(point)
        return extra

    def _derived_flow_points(self, funcptrs):
        """Original insn addresses needing relocation labels (entry+delta)."""
        if not self.mode.rewrites_function_pointers:
            return set(), {}
        by_slot = {d.slot: d for d in funcptrs.data_defs}
        points = set()
        derived_by_slot = {}
        for flow in funcptrs.derived_defs:
            data_def = by_slot.get(flow.src_slot)
            if data_def is None:
                continue
            points.add(data_def.target + flow.delta)
            derived_by_slot[flow.src_slot] = (flow, data_def)
        return points, derived_by_slot

    def _redirect_pointers(self, out, funcptrs, derived_by_slot, reloc,
                           relocated_set, degraded_entries=frozenset()):
        """func-ptr mode: point every identified definition at the
        relocated code (Section 5.2).  Slots targeting ladder-degraded
        functions keep their original values — those entries stay CFL,
        so an unredirected pointer is merely a trampoline bounce."""
        redirected = 0
        new_relocs = []
        patched = {}
        for data_def in funcptrs.data_defs:
            if data_def.target not in relocated_set:
                continue   # target stays original; value remains correct
            if data_def.target in degraded_entries:
                continue   # entry stays CFL; original value stays valid
            pair = derived_by_slot.get(data_def.slot)
            if pair is not None:
                flow, _ = pair
                point = data_def.target + flow.delta
                new_value = (reloc.point_labels[point].resolved()
                             - flow.delta)
            else:
                base = reloc.block_labels.get(data_def.target)
                if base is None:
                    continue
                new_value = base.resolved() + data_def.delta
            patched[data_def.slot] = new_value
            out.write_int(data_def.slot, new_value, 8)
            redirected += 1
        for rel in out.relocations:
            if rel.where in patched:
                rel = type(rel)(rel.where, rel.kind, patched[rel.where],
                                rel.size)
            new_relocs.append(rel)
        out.relocations = new_relocs
        return redirected

    def _scorch(self, out, cfg, relocated_fns, installer):
        """Overwrite the original bytes of every relocated function with
        illegal instructions, sparing trampolines/hop slots and inline
        jump tables — the strong rewrite test (Section 8)."""
        keep = list(installer.written_ranges)
        for fcfg in relocated_fns:
            for table in fcfg.jump_tables:
                section = out.section_containing(table.table_addr)
                if section is not None and section.is_exec:
                    keep.append((
                        table.table_addr,
                        table.table_addr
                        + table.count * table.entry_size,
                    ))
        keep.sort()
        for fcfg in relocated_fns:
            start = fcfg.entry
            end = fcfg.range_end if fcfg.range_end is not None \
                else fcfg.high
            for lo, hi in _subtract_ranges(start, end, keep):
                out.write(lo, bytes([ILLEGAL_BYTE]) * (hi - lo))

    def _emit_maps(self, out, reloc, installer):
        ra_bytes = pack_addr_map(reloc.ra_map())
        addr = out.next_free_addr(16)
        out.add_section(
            Section(".ra_map", addr, ra_bytes, ("ALLOC",), 8)
        )
        trap_bytes = pack_addr_map(installer.trap_map)
        trap_bytes += b"\0" * (len(installer.trap_map)
                               * self.trap_map_entry_pad)
        addr = out.next_free_addr(16)
        out.add_section(
            Section(".trap_map", addr, trap_bytes, ("ALLOC",), 8)
        )
        # Non-ALLOC forensics map (original block start -> relocated
        # address): never loaded, so run-time layout and loaded_size are
        # untouched; the differential runner reads it offline to pair up
        # sync points between the two images.
        reloc_map = {start: lab.addr
                     for start, lab in reloc.block_labels.items()
                     if lab.addr is not None}
        addr = out.next_free_addr(16)
        out.add_section(
            Section(".reloc_map", addr, pack_addr_map(reloc_map), (), 8)
        )


def _subtract_ranges(start, end, keep_sorted):
    """Yield subranges of [start, end) not covered by keep_sorted."""
    cur = start
    for lo, hi in keep_sorted:
        if hi <= cur or lo >= end:
            continue
        if lo > cur:
            yield (cur, min(lo, end))
        cur = max(cur, hi)
        if cur >= end:
            return
    if cur < end:
        yield (cur, end)


def rewrite_binary(binary, mode=RewriteMode.JT, instrumentation=None,
                   tracer=None, **kwargs):
    """One-call convenience: returns (rewritten, report, runtime_lib).

    The tracer is explicit (rather than swallowed by ``**kwargs``) so
    call sites get signature help and typos fail loudly; remaining
    keywords forward to :class:`IncrementalRewriter`.
    """
    rewriter = IncrementalRewriter(mode=mode,
                                   instrumentation=instrumentation,
                                   tracer=tracer, **kwargs)
    rewritten, report = rewriter.rewrite(binary)
    return rewritten, report, rewriter.runtime_library(rewritten)
