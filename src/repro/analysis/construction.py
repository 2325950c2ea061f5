"""CFG construction by recursive-traversal disassembly.

Implements the pipeline the paper builds on (Sections 4 and 5.1):

1. seed functions from symbols, the binary entry point, landing-pad
   owners and discovered call targets;
2. per function, iterate: linear-sweep runs from every known leader,
   resolving jump tables as indirect jumps are reached (resolved targets
   become new leaders);
3. for still-unresolved indirect jumps, apply the *function-layout gap
   heuristic*: when the function's address range contains no undecoded
   gaps (or only nop padding), unresolved indirect jumps are classified
   as indirect tail calls and the function stays instrumentable;
   otherwise the function is marked failed ("analysis reporting
   failure", Figure 2);
4. cut basic blocks at leaders/terminators and wire edges.

Per-function failures are *contained*: a failed function is recorded with
``failed = reason`` and the rest of the binary is still analyzed — the
property that distinguishes incremental CFG patching from all-or-nothing
IR lowering.

:func:`build_function_cfg` is the side-effect-free per-function entry
point: a pure function of the binary image, the function identity and
the construction options.  :func:`build_cfg` runs it over waves of a
discovery worklist (call targets found inside one wave seed the next)
in deterministic worklist order.  The result is a pure function of the
image and the options, which is what lets the rewriter cache the whole
stage (see :mod:`repro.core.cache`); :func:`record_cfg` replays the
stage's counters and failure events from the CFG alone.
"""

import time

from repro.analysis.cfg import (
    BRANCH,
    BasicBlock,
    BinaryCFG,
    CALL_FALLTHROUGH,
    FALLTHROUGH,
    FunctionCFG,
    JUMP_TABLE,
    LANDING_PAD,
    TAIL_CALL,
)
from repro.analysis.failures import classify_failure
from repro.analysis.jumptable import JumpTableAnalyzer
from repro.isa import get_arch
from repro.obs import NULL_METRICS, NULL_TRACER
from repro.toolchain.codegen import RUNTIME_SUPPORT_FUNCS
from repro.util.errors import AnalysisError, DecodingError

#: Mnemonics that end a linear run during traversal (calls *do* end
#: blocks here: call fall-through blocks are first-class, as the CFL
#: analysis needs them).
_RUN_ENDERS = frozenset({
    "jmp", "jmp.s", "beq", "bne", "blt", "bge", "bgt", "ble",
    "jmpr", "call", "callr", "ret", "trap",
})


class ConstructionOptions:
    """Knobs for CFG construction strength (baseline modeling)."""

    def __init__(self, track_spills=True, tail_call_heuristic=True,
                 resolve_jump_tables=True):
        #: memory tracking through stack spills in jump-table slicing
        self.track_spills = track_spills
        #: the paper's improved gap-based indirect-tail-call heuristic;
        #: when off, any unresolved indirect jump fails the function
        #: (Dyninst-10.2 behaviour)
        self.tail_call_heuristic = tail_call_heuristic
        #: when off, never even attempt jump-table resolution
        self.resolve_jump_tables = resolve_jump_tables


def build_function_cfg(binary, name, entry, range_end=None,
                       pad_handlers=(), options=None, spec=None):
    """Side-effect-free per-function CFG construction.

    A pure function of the binary image, the function identity
    ``(name, entry, range_end, pad_handlers)`` and the construction
    options: no shared state is read or written.  Returns ``(fcfg,
    discovered_calls, instruction_count)`` with the discovered call
    targets sorted.
    """
    options = options or ConstructionOptions()
    spec = spec if spec is not None else get_arch(binary.arch_name)
    builder = _FunctionBuilder(
        binary, spec, name, entry, range_end, pad_handlers, options
    )
    fcfg, discovered_calls = builder.build()
    if name in RUNTIME_SUPPORT_FUNCS:
        fcfg.is_runtime_support = True
    return fcfg, tuple(sorted(discovered_calls)), len(builder.insn_at)


def initial_seeds(binary):
    """Construction seeds: ``{entry: (name, range_end)}`` from symbols
    plus the binary entry point."""
    seeds = {}
    for sym in binary.function_symbols():
        seeds[sym.addr] = (sym.name, sym.end if sym.size else None)
    if binary.entry not in seeds:
        seeds[binary.entry] = ("_entry", None)
    return seeds


def build_cfg(binary, options=None, tracer=None, metrics=None):
    """Build the whole-binary CFG by orchestrating per-function units.

    Functions are built over waves of a discovery worklist (call
    targets found in one wave seed the next), each under a
    ``pipeline-analysis`` span and counted in ``cfg.constructions``
    (``tracer``/``metrics``, see :mod:`repro.obs`).  Each function's
    instruction count and construction seconds land on the returned
    :class:`BinaryCFG`, from which :func:`record_cfg` derives the
    stage's counters and failure events.
    """
    options = options or ConstructionOptions()
    tracer = tracer if tracer is not None else NULL_TRACER
    metrics = metrics if metrics is not None else NULL_METRICS
    cfg = BinaryCFG()

    seeds = initial_seeds(binary)
    pads_by_owner = _landing_pads_by_owner(binary, seeds)

    # Every entry enters ``pending`` once: ``seeds`` gates discovery.
    pending = sorted(seeds)
    while pending:
        wave, pending = pending, []
        for entry in wave:
            name, range_end = seeds[entry]
            with tracer.span("pipeline-analysis", function=name,
                             artifact="cfg"):
                t0 = time.perf_counter()
                fcfg, discovered_calls, insn_count = build_function_cfg(
                    binary, name, entry, range_end,
                    pads_by_owner.get(entry, ()), options)
                cfg.seconds[entry] = time.perf_counter() - t0
            metrics.inc("cfg.constructions")
            cfg.instructions[entry] = insn_count
            cfg.add(fcfg)
            for target in discovered_calls:
                if target not in seeds:
                    seeds[target] = (f"func_{target:x}", None)
                    pending.append(target)
    return cfg


def record_cfg(cfg, tracer=None, metrics=None):
    """The construction stage's accounting, read off a built CFG.

    Per-function ``cfg.*`` counters, one ``analysis-failure`` event per
    contained failure (with its Figure-2 category) and the stage's
    ``functions`` count, in construction order — the same whether
    :func:`build_cfg` just ran or the CFG came from a cache.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    metrics = metrics if metrics is not None else NULL_METRICS
    for fcfg in cfg:
        metrics.inc("cfg.functions")
        if fcfg.failed is not None:
            metrics.inc("cfg.functions_failed")
            tracer.event(
                "analysis-failure",
                function=fcfg.name,
                reason=fcfg.failed,
                category=classify_failure(fcfg.failed),
            )
        else:
            metrics.inc("cfg.blocks", len(fcfg.blocks))
            metrics.inc("cfg.instructions", cfg.instructions[fcfg.entry])
            metrics.inc("cfg.jump_tables", len(fcfg.jump_tables))
    tracer.count("functions", len(cfg.functions))


def _landing_pads_by_owner(binary, seeds):
    """Map function entry -> handler addresses inside that function."""
    owners = {}
    entries = sorted(seeds)
    for pad in binary.landing_pads:
        owner = None
        for entry in entries:
            name, range_end = seeds[entry]
            if range_end is not None and entry <= pad.handler < range_end:
                owner = entry
                break
        if owner is not None:
            owners.setdefault(owner, set()).add(pad.handler)
    return owners


class _FunctionBuilder:
    def __init__(self, binary, spec, name, entry, range_end, pad_handlers,
                 options):
        self.binary = binary
        self.spec = spec
        self.name = name
        self.entry = entry
        self.range_end = range_end
        self.pad_handlers = set(pad_handlers)
        self.options = options
        self.fn_entries = {s.addr for s in binary.function_symbols()}

        self.insn_at = {}
        self.leaders = {entry} | self.pad_handlers
        self.run_of = {}        # run start -> list of insns
        self.call_targets = set()
        self.unresolved_jmprs = []   # (run_start, jmpr insn)
        self.jt_analyzer = JumpTableAnalyzer(
            binary, spec, track_spills=options.track_spills
        )
        self.fcfg = FunctionCFG(name, entry, range_end)
        self.jt_by_dispatch = {}
        self.tail_call_sites = set()

    # -- top level ------------------------------------------------------------

    def build(self):
        try:
            self._traverse()
            self._classify_unresolved()
            self._cut_blocks()
            self._wire_edges()
        except AnalysisError as exc:
            self.fcfg.failed = str(exc)
        return self.fcfg, self.call_targets

    # -- traversal -------------------------------------------------------------

    def _in_range(self, addr):
        if addr < self.entry:
            return False
        if self.range_end is not None:
            return addr < self.range_end
        return True

    def _traverse(self):
        pending = sorted(self.leaders)
        seen_runs = set()
        while pending:
            start = pending.pop()
            if start in seen_runs:
                continue
            seen_runs.add(start)
            new_leaders = self._walk_run(start)
            for leader in new_leaders:
                if leader not in self.leaders:
                    self.leaders.add(leader)
                if leader not in seen_runs:
                    pending.append(leader)

    def _walk_run(self, start):
        """Decode linearly from ``start``; returns newly found leaders."""
        insns = []
        new_leaders = []
        cur = start
        while True:
            insn = self.insn_at.get(cur)
            if insn is None:
                insn = self._decode_at(cur)
                self.insn_at[cur] = insn
            insns.append(insn)
            m = insn.mnemonic
            nxt = cur + insn.length
            if m in _RUN_ENDERS:
                self._handle_run_end(start, insns, insn, nxt, new_leaders)
                break
            if m == "syscall" and insn.operands[0] == 0:
                break
            if nxt in self.leaders and nxt != start:
                # Falling into another leader: implicit fallthrough edge.
                new_leaders.append(nxt)
                break
            cur = nxt
        self.run_of[start] = insns
        return new_leaders

    def _decode_at(self, addr):
        section = self.binary.section_containing(addr)
        if section is None or not section.is_exec:
            raise AnalysisError(
                f"{self.name}: control flow reaches non-code address "
                f"{addr:#x}"
            )
        window = min(16, section.end - addr)
        try:
            return self.spec.decode(
                self.binary.read(addr, window), 0, addr=addr
            )
        except (DecodingError, KeyError, ValueError):
            raise AnalysisError(
                f"{self.name}: undecodable bytes at {addr:#x}"
            )

    def _handle_run_end(self, run_start, insns, insn, nxt, new_leaders):
        m = insn.mnemonic
        if m in ("jmp", "jmp.s"):
            target = insn.target
            if target in self.fn_entries and target != self.entry:
                self.tail_call_sites.add(insn.addr)
                self.fcfg.tail_targets.add(target)
            elif self._in_range(target):
                new_leaders.append(target)
            else:
                # Direct jump out of the function: tail call to a
                # (possibly new) function.
                self.tail_call_sites.add(insn.addr)
                self.fcfg.tail_targets.add(target)
                self.call_targets.add(target)
        elif m in ("beq", "bne", "blt", "bge", "bgt", "ble"):
            target = insn.target
            if not self._in_range(target):
                raise AnalysisError(
                    f"{self.name}: conditional branch to {target:#x} "
                    f"outside function"
                )
            new_leaders.append(target)
            new_leaders.append(nxt)
        elif m == "call":
            self.call_targets.add(insn.target)
            self.fcfg.call_sites.append((insn.addr, insn.target))
            new_leaders.append(nxt)
        elif m == "callr":
            new_leaders.append(nxt)
        elif m == "jmpr":
            self._handle_indirect_jump(run_start, insns, insn, new_leaders)
        # ret / trap: nothing to add.

    def _handle_indirect_jump(self, run_start, insns, insn, new_leaders):
        if not self.options.resolve_jump_tables:
            self.unresolved_jmprs.append((run_start, insn))
            return
        try:
            table = self.jt_analyzer.analyze(insns, self.insn_at, self.fcfg)
        except AnalysisError:
            self.unresolved_jmprs.append((run_start, insn))
            return
        self.fcfg.jump_tables.append(table)
        self.jt_by_dispatch[insn.addr] = table
        for target in table.targets:
            if self._in_range(target):
                new_leaders.append(target)

    # -- unresolved indirect jumps ------------------------------------------------

    def _classify_unresolved(self):
        if not self.unresolved_jmprs:
            return
        if not self.options.tail_call_heuristic:
            raise AnalysisError(
                f"{self.name}: unresolved indirect jump at "
                f"{self.unresolved_jmprs[0][1].addr:#x}"
            )
        if not self._gaps_are_padding():
            raise AnalysisError(
                f"{self.name}: unresolved indirect jump with undiscovered "
                f"code in the function body"
            )
        for _, insn in self.unresolved_jmprs:
            self.tail_call_sites.add(insn.addr)
            self.fcfg.indirect_tail_call_sites.append(insn.addr)

    def _gaps_are_padding(self):
        """The paper's layout heuristic: no gaps, or nop-only gaps."""
        if self.range_end is None:
            # No size information (stripped binary): be conservative.
            return False
        covered = bytearray(self.range_end - self.entry)
        for insn in self.insn_at.values():
            off = insn.addr - self.entry
            for i in range(insn.length):
                if 0 <= off + i < len(covered):
                    covered[off + i] = 1
        for table in self.fcfg.jump_tables:
            # Resolved inline tables (ppc64) are data, not gaps.
            section = self.binary.section_containing(table.table_addr)
            if section is not None and section.is_exec:
                off = table.table_addr - self.entry
                size = table.count * table.entry_size
                for i in range(size):
                    if 0 <= off + i < len(covered):
                        covered[off + i] = 1
        addr = self.entry
        end = self.range_end
        while addr < end:
            if covered[addr - self.entry]:
                addr += 1
                continue
            gap_start = addr
            while addr < end and not covered[addr - self.entry]:
                addr += 1
            if not self._gap_is_nops(gap_start, addr):
                return False
        return True

    def _gap_is_nops(self, start, end):
        cur = start
        while cur < end:
            try:
                insn = self.spec.decode(
                    self.binary.read(cur, min(16, end - cur)), 0, addr=cur
                )
            except (DecodingError, KeyError, ValueError):
                return False
            if insn.mnemonic != "nop" or cur + insn.length > end:
                return False
            cur += insn.length
        return True

    # -- block cutting & edges ---------------------------------------------------------

    def _cut_blocks(self):
        if not self.insn_at:
            raise AnalysisError(f"{self.name}: no instructions decoded")
        addrs = sorted(self.insn_at)
        leaders = {a for a in self.leaders if a in self.insn_at}
        blocks = []
        current = []
        for addr in addrs:
            insn = self.insn_at[addr]
            if current and (addr in leaders
                            or current[-1].addr + current[-1].length != addr):
                blocks.append(current)
                current = []
            current.append(insn)
            if insn.mnemonic in _RUN_ENDERS or (
                    insn.mnemonic == "syscall" and insn.operands[0] == 0):
                blocks.append(current)
                current = []
        if current:
            blocks.append(current)
        for insns in blocks:
            block = BasicBlock(insns[0].addr, insns, self.name)
            self.fcfg.add_block(block)
        self.fcfg.landing_pad_blocks = {
            h for h in self.pad_handlers if h in self.fcfg.blocks
        }

    def _wire_edges(self):
        fcfg = self.fcfg
        for block in fcfg.sorted_blocks():
            term = block.terminator
            m = term.mnemonic
            nxt = block.end
            if m in ("jmp", "jmp.s"):
                if term.addr in self.tail_call_sites:
                    block.succs.append((TAIL_CALL, term.target))
                else:
                    block.succs.append((BRANCH, term.target))
            elif m in ("beq", "bne", "blt", "bge", "bgt", "ble"):
                block.succs.append((BRANCH, term.target))
                block.succs.append((FALLTHROUGH, nxt))
            elif m in ("call", "callr"):
                block.succs.append((CALL_FALLTHROUGH, nxt))
            elif m == "jmpr":
                table = self.jt_by_dispatch.get(term.addr)
                if table is not None:
                    for target in sorted(set(table.targets)):
                        if target in fcfg.blocks:
                            block.succs.append((JUMP_TABLE, target))
                elif term.addr in self.tail_call_sites:
                    block.succs.append((TAIL_CALL, None))
            elif m in ("ret", "trap"):
                pass
            elif m == "syscall":
                pass
            else:
                if nxt in fcfg.blocks:
                    block.succs.append((FALLTHROUGH, nxt))
        for handler in fcfg.landing_pad_blocks:
            fcfg.blocks[handler].preds.append((LANDING_PAD, None))
        for block in fcfg.sorted_blocks():
            for kind, target in block.succs:
                if target is not None and target in fcfg.blocks:
                    fcfg.blocks[target].preds.append((kind, block.start))
