"""The CPU interpreter.

Executes binary code directly from emulated memory bytes.  This is what
makes the strong rewrite test (Section 8) meaningful: after rewriting, the
original ``.text`` is filled with illegal bytes, so any control flow that
the rewriter failed to intercept faults immediately instead of silently
executing stale code.

Every opcode's semantics is written once, as Python source in
:data:`_TEMPLATES`: register and memory effects, bounds checks with
their fault messages, the signed compare of conditional branches, the
return-address push/pop of calls and returns, and how the instruction
retires (next pc, taken-branch/call/return cost).  Both execution tiers
are generated from that one table:

* **per-step tier** — each opcode's template is compiled once per
  process, with its operands as parameters, and every decoded
  instruction becomes a function instantiated from that cached code
  object (:class:`types.FunctionType` with the operands as defaults),
  keyed by address; repeated execution (loops) runs it without
  re-decoding.  :meth:`CPU.step` (lockstep/differential use) always
  runs here; :meth:`CPU.run` runs cold code and trace recording here,
  and everything when ``engine="step"`` is selected.
* **superblock tier** — the default for :meth:`CPU.run`.  Code runs
  per-step (*cold*) until a trace head — the target of a backward
  transfer, a pc where a fused block exits, or a pc where the kernel
  resumes after ``trap``/``syscall`` — has been entered
  :data:`HOT_THRESHOLD` times.  On that entry the per-step tier
  records the path it actually executes (up to a return to the head,
  an existing block, a kernel entry, a watch-region boundary or
  :data:`SUPERBLOCK_CAP`), and exactly that path is fused into one
  generated block function: every instruction's template is formatted
  with its concrete operands, branches leave the trace on the
  direction that was not recorded, and i-cache tag checks are emitted
  into the same source.  A block is dispatched once per entry with
  pre-computed instruction/cycle deltas, so hot straight-line runs
  skip per-step bookkeeping entirely, and code that runs only a few
  times is never compiled.

Demotions away from the fused tier are never silent: a manual
:meth:`CPU.step` on a superblock CPU counts a ``manual-step`` cause in
:attr:`CPU.demotions`, which the machine traces as an
``engine-demoted`` event.  An attached
:class:`~repro.obs.engine.EngineTelemetry` rides the fused tier: it
observes fuse/compile/guard activity, one record per block dispatch
(with exact trampoline-hit recovery) and one per control transfer and
trampoline site in cold code.  Block-cache
invalidations are counted by cause in :attr:`CPU.invalidations`
(``invalidate_code``, ``watch-region``,
``telemetry-attach``/``-detach``).  The ``is None`` discipline keeps
the detached collector's tax to one test per block dispatch and per
cold step (budgeted under 2% by the throughput and runtime-profile
benches).

Accounting stays *exact* across tiers (and with the collector attached):
cycle costs follow
:class:`repro.machine.costs.CostModel` (including :attr:`CostModel.insn`
per executed instruction), i-cache misses are modeled per line actually
crossed inside a block, watch-region transitions are counted once per
(region-homogeneous) block, and faults — step limit, unmapped access,
illegal instruction, kernel errors — leave the same ``icount``,
``cycles`` and ``pc`` as per-step execution, down to the instruction.
"""

import itertools
import re
import struct
from time import perf_counter
from types import FunctionType

from repro.isa.insn import (
    COND_BRANCH_MNEMONICS,
    LOAD_SIZES,
    PCREL_LOAD_MNEMONICS,
    SIGNED_LOADS,
    STORE_SIZES,
)
from repro.isa.registers import LR, NUM_REGS, SP
from repro.machine.costs import CostModel
from repro.util.errors import (
    DecodingError,
    IllegalInstructionFault,
    MachineFault,
    UnmappedMemoryFault,
)

#: Default dynamic-instruction budget per run.
DEFAULT_STEP_LIMIT = 80_000_000

#: Known execution-engine tiers, in preference order.
ENGINES = ("superblock", "step")

#: Upper bound on instructions fused into one superblock.  A straight
#: line longer than this is split; exactness is unaffected, because the
#: follow-on block resumes accounting at the split point.
SUPERBLOCK_CAP = 128

#: Entries of one trace head after which the path executed next is
#: recorded and fused; until then the head's code runs per-step.  A
#: prime, so the recorded pass is never the exit pass of a loop whose
#: trip count divides the threshold: at 256 every 8-trip inner loop
#: was recorded on its exit pass and ran its body as a side exit.
HOT_THRESHOLD = 127

#: Base-plus-displacement loads and stores (their fused address line
#: can fold into the access).
_LOADS_STORES = (set(LOAD_SIZES) - set(PCREL_LOAD_MNEMONICS)) \
    | set(STORE_SIZES)

#: Trace item kind per mnemonic (conditional branches and everything
#: straight-line are classified in :meth:`CPU._build_block`).
_ITEM_KINDS = {"jmp": "jmp", "jmp.s": "jmp", "call": "call",
               "callr": "callr", "jmpr": "jmpr", "ret": "ret",
               "trap": "end", "syscall": "end"}


def _templates(pushes):
    """Every opcode's semantics as source templates, for the call
    convention ``pushes`` (return address on the stack vs in LR).

    Each mnemonic is written as ``(operands, effect, retire)`` and
    returned as its :func:`_template`.  ``operands`` names the
    instruction's operands in order (a memory operand
    ``mem`` splits into ``$base`` + ``$off``; ``$pc``, ``$nxt`` and,
    for pc-relative ``$disp``, ``$target`` are always available).
    ``effect`` is the architectural effect: register/memory writes,
    bounds checks, the signed compare of a conditional branch (its last
    line is the open ``if``), the return-address push/pop (the popped
    or read target lands in ``p``), kernel entry.  ``retire`` finishes
    the instruction per step: the next pc and the transfer cost.

    ``$M``/``$SIGN``/``$WRAP``/``$SP``/``$LR`` are constants; ``$msize``
    is the memory size and ``$tb``/``$cc``/``$rc`` the taken-branch,
    call and return costs.  Names bound in both tiers: ``s`` (the CPU),
    ``r`` (the register file), ``d`` (memory bytes), ``UF``
    (:class:`UnmappedMemoryFault`) and the :data:`_MEM_OPS` accessors
    (``u8``/``g4``/``p2``...).
    """
    nxt = ("s.pc = $nxt",)

    def taken(pc, cost):
        return (f"s.pc = {pc}", f"s.cycles += ${cost}",
                "s.taken_branches += 1")

    def push(m, value):
        return ("a = (r[$SP] - 8) & $M",
                f'if a > $msize - 8: raise UF(f"{m} at {{a:#x}}", pc=$pc)',
                f"p8(d, a, {value})",
                "r[$SP] = a")

    def pop(m, dest):
        return ("a = r[$SP]",
                f'if a > $msize - 8: raise UF(f"{m} at {{a:#x}}", pc=$pc)',
                f"{dest} = u8(d, a)[0]",
                "r[$SP] = (a + 8) & $M")

    t = {
        "nop": ("", (), nxt),
        "mov": ("rd ra", ("r[$rd] = r[$ra]",), nxt),
        "movi": ("rd imm", ("r[$rd] = $imm & $M",), nxt),
        "lis": ("rd imm", ("r[$rd] = ($imm << 16) & $M",), nxt),
        "addis": ("rd ra imm",
                  ("r[$rd] = (r[$ra] + ($imm << 16)) & $M",), nxt),
        "adrp": ("rd imm",
                 ("r[$rd] = (($pc & ~0xFFF) + ($imm << 12)) & $M",), nxt),
        "addi": ("rd ra imm", ("r[$rd] = (r[$ra] + $imm) & $M",), nxt),
        "shl": ("rd ra rb",
                ("r[$rd] = (r[$ra] << (r[$rb] & 63)) & $M",), nxt),
        "shr": ("rd ra rb", ("r[$rd] = r[$ra] >> (r[$rb] & 63)",), nxt),
        "shli": ("rd ra imm",
                 ("r[$rd] = (r[$ra] << ($imm & 63)) & $M",), nxt),
        "shri": ("rd ra imm", ("r[$rd] = r[$ra] >> ($imm & 63)",), nxt),
        "inc": ("rd", ("r[$rd] = (r[$rd] + 1) & $M",), nxt),
        "leapc": ("rd disp", ("r[$rd] = $target & $M",), nxt),
        "push": ("rs", push("push", "r[$rs]"), nxt),
        "pop": ("rd", pop("pop", "r[$rd]"), nxt),
        "jmp": ("disp", (), taken("$target", "tb")),
        "jmp.s": ("disp", (), taken("$target", "tb")),
        "jmpr": ("rt", ("p = r[$rt]",), taken("p", "tb")),
        "trap": ("", ("s.pc = $pc", "s.kernel.handle_trap(s)"), ()),
        "syscall": ("num", ("s.pc = $pc", "s.kernel.syscall(s, $num)",
                            "if s.running and s.pc == $pc: s.pc = $nxt"),
                    ()),
    }
    for m, op in (("add", "+"), ("sub", "-"), ("mul", "*")):
        t[m] = ("rd ra rb", (f"r[$rd] = (r[$ra] {op} r[$rb]) & $M",), nxt)
    # Bitwise results of two 64-bit values need no mask.
    for m, op in (("and", "&"), ("or", "|"), ("xor", "^")):
        t[m] = ("rd ra rb", (f"r[$rd] = r[$ra] {op} r[$rb]",), nxt)
    # Ordered compares are signed: one expression per operand.
    signed = "(r[${0}] - $WRAP if r[${0}] >= $SIGN else r[${0}])".format
    for m, op in (("beq", "=="), ("bne", "!="), ("blt", "<"),
                  ("bge", ">="), ("bgt", ">"), ("ble", "<=")):
        compare = (f"if r[$ra] {op} r[$rb]:" if m in ("beq", "bne") else
                   f"if {signed('ra')} {op} {signed('rb')}:")
        t[m] = ("ra rb disp", (compare,),
                tuple("    " + line for line in taken("$target", "tb"))
                + ("else:", "    s.pc = $nxt"))
    for m, size in LOAD_SIZES.items():
        if m in PCREL_LOAD_MNEMONICS:
            t[m] = ("rd disp",
                    ("a = $target",
                     f"if a < 0 or a > $msize - {size}: raise UF("
                     f'f"pc-relative load at {{a:#x}}", pc=$pc)',
                     f"r[$rd] = u{size}(d, a)[0]"), nxt)
            continue
        # A signed unpack plus the 64-bit mask is the sign extension.
        value = (f"g{size}(d, a)[0] & $M" if m in SIGNED_LOADS
                 else f"u{size}(d, a)[0]")
        t[m] = ("rd mem",
                ("a = (r[$base] + $off) & $M",
                 f'if a > $msize - {size}: raise UF(f"load at {{a:#x}} '
                 f'(pc={{$pc:#x}})", pc=$pc)',
                 f"r[$rd] = {value}"), nxt)
    for m, size in STORE_SIZES.items():
        value = "r[$rs]" if size == 8 else \
            f"r[$rs] & {(1 << (size * 8)) - 1:#x}"
        t[m] = ("rs mem",
                ("a = (r[$base] + $off) & $M",
                 f'if a > $msize - {size}: raise UF(f"store at {{a:#x}} '
                 f'(pc={{$pc:#x}})", pc=$pc)',
                 f"p{size}(d, a, {value})"), nxt)
    link = (lambda m: push(m, "$nxt")) if pushes \
        else (lambda m: ("r[$LR] = $nxt",))
    t["call"] = ("disp", link("call"), taken("$target", "cc"))
    t["callr"] = ("rt", link("callr") + ("p = r[$rt]",), taken("p", "cc"))
    t["ret"] = ("", pop("ret", "p") if pushes else ("p = r[$LR]",),
                taken("p", "rc"))
    return {m: _template(names, effect, retire)
            for m, (names, effect, retire) in t.items()}


def _template(names, effect, retire):
    """One opcode's template in both tiers' forms: ``(operand names,
    per-step lines, fused effect, fused retire)``.

    Fused lines name guest registers as frame locals (``r[{rd}]`` ->
    ``v{rd}``, ``r[16]`` -> ``v16``), and every register write is a
    line of its own, ``v{rd} = ...``, so the fuser knows which locals
    to load and write back.
    """
    effect = tuple(map(_format_src, effect))
    retire = tuple(map(_format_src, retire))
    return (tuple(names.split()), effect + retire,
            tuple(_REG_REF.sub(_as_local, line) for line in effect),
            tuple(_REG_REF.sub(_as_local, line) for line in retire))


#: A guest-register reference in a template format: ``r[{field}]`` or
#: ``r[16]``.
_REG_REF = re.compile(r"\br\[(?:\{(\w+)\}|(\d+))\]")


def _as_local(mo):
    field, index = mo.groups()
    return "v{%s}" % field if field else "v" + index


#: A guest register as a fused-block frame local, and a line writing one.
_LOCAL = re.compile(r"\bv(\d+)\b")
_WRITE = re.compile(r"^\s*v(\d+) = ")
#: A register plus a zero displacement, masked: the register's value.
_PLUS_ZERO = re.compile(r"\((v\d+) \+ 0\) & 0xffffffffffffffff")
#: A register write whose value is a sum or left shift of non-negative
#: terms, masked: only a result past 64 bits needs the mask.
_NONNEG_WRAP = re.compile(
    r"^(v\d+) = \((v\d+ (?:\+|<<) (?:v\d+|\d+|\((?:v\d+|\d+) & 63\)))\)"
    r" & (0xffffffffffffffff)$")
#: A memory access's address line once its displacement is folded.
_ADDRESS = re.compile(r"^a = (v\d+)$")
#: A name in generated source.
_NAME = re.compile(r"\b[A-Za-z_]\w*\b")


_PLACEHOLDER = re.compile(r"\$(\w+)")
_CONSTS = {"M": "0xffffffffffffffff", "SIGN": str(1 << 63),
           "WRAP": str(1 << 64), "SP": str(SP), "LR": str(LR)}


def _format_src(line):
    """A template line as a :meth:`str.format` string: constants filled
    in, every other ``$name`` a ``{name}`` field."""
    line = line.replace("{", "{{").replace("}", "}}")
    return _PLACEHOLDER.sub(
        lambda mo: _CONSTS.get(mo.group(1), "{%s}" % mo.group(1)), line)


#: call convention (``call_pushes_return_address``) -> mnemonic -> the
#: :func:`_template` tuple.
_TEMPLATES = {pushes: _templates(pushes) for pushes in (False, True)}


def _operand_values(insn, names):
    """The template fields of one decoded instruction."""
    addr = insn.addr
    values = {"pc": addr, "nxt": addr + insn.length}
    for name, op in zip(names, insn.operands):
        if name == "mem":
            values["base"] = op.base
            values["off"] = op.disp
        else:
            values[name] = op
    if "disp" in values:
        values["target"] = addr + values["disp"]
    return values


class _Fields(dict):
    """Formats a template with each field as its own name (the per-step
    tier's parameters), remembering which fields were used."""

    def __missing__(self, key):
        self[key] = key
        return key


#: Names the per-step functions may bind besides template fields.
_ENV_NAME = re.compile(r"\b(s|r|d|UF|[ugp][1248])\b")
#: (mnemonic, call convention) -> (code object, parameter names).
_STEP_CODE = {}


def _step_code(mnemonic, pushes):
    """The per-step code object for one opcode, compiled once per
    process with the template's fields and bound names as parameters."""
    key = (mnemonic, pushes)
    entry = _STEP_CODE.get(key)
    if entry is None:
        fields = _Fields()
        body = [line.format_map(fields)
                for line in _TEMPLATES[pushes][mnemonic][1]]
        params = sorted(set(fields) | set(_ENV_NAME.findall(
            "\n".join(body))))
        src = (f"def op({', '.join(params)}):\n"
               + "".join(f"    {line}\n" for line in body or ["pass"]))
        namespace = {}
        exec(compile(src, f"<step {mnemonic}>", "exec"), namespace)
        entry = _STEP_CODE[key] = (namespace["op"].__code__,
                                   tuple(params))
    return entry


#: Globals of the per-step functions (they reference none).
_STEP_GLOBALS = {"__builtins__": __builtins__}

#: Unique filename suffix per generated superblock (fault forensics
#: match tracebacks against the block's filename).
_block_ids = itertools.count()

#: Pre-compiled memory accessors bound into generated code:
#: ``u{size}``/``g{size}`` unpack unsigned/signed little-endian
#: integers, ``p{size}`` packs them — measurably faster than slicing
#: plus ``int.from_bytes``/``to_bytes`` on the hot path.
_MEM_OPS = {}
for _size, _u, _g in ((1, "B", "b"), (2, "H", "h"),
                      (4, "I", "i"), (8, "Q", "q")):
    _MEM_OPS[f"u{_size}"] = struct.Struct("<" + _u).unpack_from
    _MEM_OPS[f"g{_size}"] = struct.Struct("<" + _g).unpack_from
    _MEM_OPS[f"p{_size}"] = struct.Struct("<" + _u).pack_into
del _size, _u, _g


class CPU:
    """One hardware thread executing from a :class:`Memory`."""

    def __init__(self, memory, spec, kernel, costs=None,
                 step_limit=DEFAULT_STEP_LIMIT, engine="superblock"):
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; known tiers: "
                + ", ".join(ENGINES))
        self.memory = memory
        self.spec = spec
        self.kernel = kernel
        self.costs = costs or CostModel.default()
        self.step_limit = step_limit
        #: Execution engine for :meth:`run`: ``"superblock"`` (default)
        #: or ``"step"`` (always per-instruction).
        self.engine = engine

        self.regs = [0] * NUM_REGS
        self.pc = 0
        self.cycles = 0
        self.icount = 0
        self.running = False
        self.exit_code = None

        # Counters surfaced to the evaluation harness.
        self.taken_branches = 0
        self.icache_misses = 0
        self.transitions = 0

        #: Optional :class:`repro.obs.engine.EngineTelemetry`; None
        #: keeps the run loop at one identity test per block dispatch
        #: and per cold step.
        self.telemetry = None
        #: Demotions away from the fused tier, by cause (always
        #: counted, telemetry attached or not).
        self.demotions = {}
        #: Block-cache invalidations that dropped fused blocks, by
        #: cause (always counted, telemetry attached or not).
        self.invalidations = {}
        #: Optional ``fn(cause)`` invoked on every demotion — the
        #: Machine wires this to its tracer so demotions are never
        #: silent.
        self.on_demote = None
        self._step_demoted = False

        #: per-step function per address (see :meth:`_compile`)
        self._compiled = {}
        #: decoded Instruction per address (both tiers decode through it)
        self._insns = {}
        #: superblock start address -> block record (see _build_block)
        self._blocks = {}
        #: trace head -> entries so far (see :meth:`run`)
        self._heat = {}
        #: addresses of decoded ``trap``/``syscall`` instructions: the
        #: kernel resumes at a trace head after each
        self._kernel_pcs = set()
        self._watch_regions = None
        #: Direct-mapped i-cache tags (None without an i-cache model):
        #: one list for the whole CPU, because fused blocks bind it and
        #: check it from generated source; reset by every :meth:`run`.
        self._icache_tags = ([-1] * self.costs.icache_lines
                             if self.costs.icache_enabled else None)
        #: Template fields fixed per CPU (both tiers).
        self._fields = {"msize": memory.size,
                        "tb": self.costs.taken_branch,
                        "cc": self.costs.call, "rc": self.costs.ret}
        #: What the per-step functions bind besides their operands.
        self._step_env = {"s": self, "r": self.regs, "d": memory.data,
                          "UF": UnmappedMemoryFault, **_MEM_OPS,
                          **self._fields}

    # -- public API --------------------------------------------------------

    @property
    def watch_regions(self):
        """Optional pair of (lo, hi) address regions; transitions between
        them are counted (used to measure .text <-> .instr bouncing)."""
        return self._watch_regions

    @watch_regions.setter
    def watch_regions(self, regions):
        # Superblocks are fused with watch-region boundaries baked in,
        # so changing the regions invalidates every block (and the heat
        # that selected them).
        self._watch_regions = regions
        self._heat.clear()
        if self._blocks:
            self._invalidate_cause("watch-region")

    def invalidate_code(self):
        """Drop decoded instructions, per-step functions, fused
        superblocks and trace-head heat (call after writing to code
        memory)."""
        self._compiled.clear()
        self._insns.clear()
        self._kernel_pcs.clear()
        self._heat.clear()
        if self._blocks:
            self._invalidate_cause("invalidate_code")

    def attach_telemetry(self, telemetry):
        """Wire an :class:`~repro.obs.engine.EngineTelemetry` in (or
        out, with ``None``).

        Existing fused blocks were generated without (or with a
        previous collector's) guard instrumentation, so the block cache
        is dropped — counted as a ``telemetry-attach``/``-detach``
        invalidation — and rebuilt lazily with the right counters baked
        in.  The collector reports this CPU's own demotion and
        invalidation tallies.
        """
        if telemetry is self.telemetry:
            return
        if self._blocks:
            self._invalidate_cause(
                "telemetry-attach" if telemetry is not None
                else "telemetry-detach")
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.engine = self.engine
            telemetry.demotions = self.demotions
            telemetry.invalidations = self.invalidations

    def _demote(self, cause):
        """Count one demotion away from the fused tier, by cause, and
        signal it through the machine's ``on_demote`` event hook."""
        self.demotions[cause] = self.demotions.get(cause, 0) + 1
        cb = self.on_demote
        if cb is not None:
            cb(cause)

    def _invalidate_cause(self, cause):
        """Drop every fused block and count why."""
        self._blocks.clear()
        self.invalidations[cause] = \
            self.invalidations.get(cause, 0) + 1

    def step(self):
        """Execute exactly one instruction (lockstep/differential use).

        Always runs the per-step tier and skips the run loop's
        icache/watch/telemetry accounting; callers own whatever bookkeeping
        they need.  On a superblock CPU the first manual step counts a
        ``manual-step`` demotion (once per CPU), so fused-tier escapes
        are visible in the engine observatory.
        """
        if not self._step_demoted and self.engine == "superblock":
            self._step_demoted = True
            self._demote("manual-step")
        pc = self.pc
        fn = self._compiled.get(pc)
        if fn is None:
            fn = self._compile(pc)
            if pc not in self._blocks:
                self._compiled[pc] = fn
        fn()
        self.icount += 1
        self.cycles += self.costs.insn

    def run(self, entry=None, step_limit=None):
        """Execute until an exit syscall; returns the exit code.

        One per-step loop body runs cold code, records traces, and
        serves ``engine="step"`` (which never fuses).  On the
        superblock engine, a pc reached as a *trace head* — the target
        of a backward transfer, a pc where a fused block exits, a pc
        where the kernel resumes after ``trap``/``syscall`` — gains one
        unit of heat; its :data:`HOT_THRESHOLD`-th entry records the
        path executed next and fuses it (:meth:`_build_block`).  Any pc
        with a fused block dispatches it (an attached collector rides
        the fused tier), except that a block which could
        reach the step limit runs per-step instead, so the limit fault
        lands on the exact instruction.  A fault while recording
        propagates as per-step and builds nothing.  ``icount`` is
        committed in a ``finally`` so faulting runs report exactly the
        instructions that completed.
        """
        if entry is not None:
            self.pc = entry
        limit = step_limit if step_limit is not None else self.step_limit
        compiled = self._compiled
        compile_one = self._compile
        decoded = self._insns
        costs = self.costs
        insn_cost = costs.insn
        tags = self._icache_tags
        if tags is not None:
            tags[:] = [-1] * len(tags)
            line_bits = costs.icache_line_bits
            mask = len(tags) - 1
            miss_cost = costs.icache_miss
        watch = self._watch_regions
        if watch:
            (a_lo, a_hi), (b_lo, b_hi) = watch
            prev_region = -1
        collector = self.telemetry
        if collector is not None:
            tsites = collector.tramp_sites
            collector.record_block(self.pc, self.cycles)
        fusing = self.engine == "superblock"
        blocks = self._blocks
        heat = self._heat
        kernel_pcs = self._kernel_pcs
        hot = HOT_THRESHOLD
        trace = None    # the path being recorded: [(insn, next pc)]
        head = False    # whether the pc was reached as a trace head
        self.running = True
        steps = 0
        # Instructions and cycles of fused blocks, counted for the
        # collector (the per-step tier has the rest).
        fused = fused_cycles = 0
        cycles_at_entry = self.cycles
        try:
            while self.running:
                pc = self.pc
                fn = compiled.get(pc)
                if fn is None:
                    # Not yet decoded, or a fused block's start (block
                    # starts are kept out of ``compiled``).
                    b = blocks.get(pc)
                    if b is None:
                        fn = compiled[pc] = compile_one(pc)
                    elif steps + b[1] < limit:
                        if watch:
                            region = b[2]
                            if region is not None and region != prev_region:
                                if prev_region != -1:
                                    self.transitions += 1
                                prev_region = region
                        c0 = self.cycles
                        done = 0
                        try:
                            # Fused blocks take the remaining step budget
                            # (loop blocks iterate internally until it
                            # nears exhaustion), charge their cycles and
                            # return the number of instructions executed.
                            done = b[0](limit - steps)
                        except BaseException as exc:
                            done = self._fault_index(b, exc)
                            raise
                        finally:
                            steps += done
                            if collector is not None:
                                spent = self.cycles - c0
                                fused += done
                                fused_cycles += spent
                                collector.record_dispatch(
                                    pc, b, done, spent, self.pc,
                                    self.cycles)
                        head = True
                        continue
                    else:
                        # The final strides before the step limit run
                        # per-step, so the limit fault is exact.
                        fn = compile_one(pc)
                        head = False
                if head:
                    head = False
                    if trace is None:
                        heat[pc] = entries = heat.get(pc, 0) + 1
                        if entries >= hot:
                            trace = []
                # Per-step tier: cold code, trace recording,
                # engine="step" and the final strides of a run
                # approaching its step limit.
                if tags is not None:
                    line = pc >> line_bits
                    idx = line & mask
                    if tags[idx] != line:
                        tags[idx] = line
                        self.cycles += miss_cost
                        self.icache_misses += 1
                if watch:
                    if a_lo <= pc < a_hi:
                        region = 0
                    elif b_lo <= pc < b_hi:
                        region = 1
                    else:
                        region = prev_region
                    if region != prev_region:
                        if prev_region != -1:
                            self.transitions += 1
                        prev_region = region
                fn()
                steps += 1
                self.cycles += insn_cost
                if collector is not None:
                    if pc in tsites:
                        collector.tramp_hit(pc)
                    npc = self.pc
                    if npc != pc + decoded[pc].length:
                        collector.record_block(npc, self.cycles)
                if steps >= limit:
                    raise MachineFault(
                        f"step limit of {limit} exceeded "
                        f"at pc={self.pc:#x}",
                        pc=self.pc,
                    )
                if fusing:
                    npc = self.pc
                    if npc <= pc or pc in kernel_pcs:
                        head = True
                    if trace is not None:
                        trace.append((decoded[pc], npc))
                        end = self._trace_end(trace, npc)
                        if end is not None:
                            self._build_block(trace, end)
                            trace = None
                            head = True
        finally:
            # Committed even when a fault propagates, so failed runs
            # report exactly the instructions that completed.
            self.icount += steps
            if collector is not None:
                collector.cold_instructions += steps - fused
                collector.cold_cycles += (self.cycles - cycles_at_entry
                                          - fused_cycles)
        return self.exit_code

    def _trace_end(self, trace, npc):
        """Why recording ``trace`` stops before ``npc``, or ``None`` to
        keep recording."""
        insn = trace[0][0]
        if trace[-1][0].mnemonic in ("trap", "syscall"):
            return "kernel"
        if npc == insn.addr:
            return "loop"
        if npc in self._blocks:
            return "block"
        if len(trace) >= SUPERBLOCK_CAP:
            return "cap"
        if self._region_of(npc) != self._region_of(insn.addr):
            return "watch-boundary"
        return None

    def _region_of(self, addr):
        """The watch region (0 or 1) holding ``addr``, else ``None``."""
        watch = self._watch_regions
        if watch:
            (a_lo, a_hi), (b_lo, b_hi) = watch
            if a_lo <= addr < a_hi:
                return 0
            if b_lo <= addr < b_hi:
                return 1
        return None

    # -- decoder and per-step tier ----------------------------------------

    def _decode(self, addr):
        """The instruction at ``addr`` (decoded once per address)."""
        insn = self._insns.get(addr)
        if insn is None:
            if addr < 0 or addr >= self.memory.size:
                raise UnmappedMemoryFault(f"fetch at {addr:#x}", pc=addr)
            try:
                insn = self.spec.decode(self.memory.data, addr, addr=addr)
            except DecodingError as exc:
                raise IllegalInstructionFault(
                    f"illegal instruction at {addr:#x}: {exc}", pc=addr
                )
            self._insns[addr] = insn
        return insn

    def _compile(self, addr):
        """The per-step function for the instruction at ``addr``: its
        opcode's cached code object with the operands as defaults."""
        insn = self._decode(addr)
        if insn.mnemonic in ("trap", "syscall"):
            self._kernel_pcs.add(addr)
        pushes = self.spec.call_pushes_return_address
        code, params = _step_code(insn.mnemonic, pushes)
        values = _operand_values(insn,
                                 _TEMPLATES[pushes][insn.mnemonic][0])
        env = self._step_env
        return FunctionType(code, _STEP_GLOBALS, None, tuple(
            values[p] if p in values else env[p] for p in params))

    # -- superblock fuser --------------------------------------------------

    def _build_block(self, trace, reason):
        """Fuse a recorded path into a superblock.

        ``trace`` is what the per-step tier executed from a hot trace
        head, as ``(insn, next pc)`` pairs; ``reason`` is why recording
        stopped (see :meth:`_trace_end`; telemetry trace shape).  Each
        instruction becomes a ``(kind, insn, next pc)`` item: a
        conditional branch continues in the recorded direction and
        side-exits on the other (``cond``: fall-through recorded,
        ``condtaken``: taken recorded); ``jmp``/``call`` inline their
        transfer; ``callr``/``jmpr``/``ret`` guard on the recorded
        target; ``trap``/``syscall`` end the trace.  A path that
        returned to its head closes into a *loop trace* that iterates
        inside the generated function; any other trace seals the pc
        at the recorded end.

        The block record is a tuple ``(fn, n, region, addrs, linemap,
        filename, alloc, nowb, per_pass)``:

        * ``fn`` — the fused block function; called with the remaining
          step budget, charges the cycles of what it ran and returns
          the number of instructions executed;
        * ``n`` — instructions per full pass through the trace (early
          side exits return less; loop traces return accumulated
          totals);
        * ``region`` — the watch-region class shared by every
          instruction: recording stops at watch-region boundaries, so
          a single entry check reproduces the per-step transition
          count;
        * ``addrs``/``linemap``/``filename`` — fault forensics: the
          instruction addresses plus the generated-source line ->
          ``(index, restore_pc, cycles, taken)`` map that reconstructs
          exact partial accounting when a block faults mid-flight;
        * ``alloc``/``nowb`` — the guest registers promoted to frame
          locals by :meth:`_fuse` and the kernel-entry lines where a
          fault must not write those locals back;
        * ``per_pass`` — ``(cycles, taken transfers)`` of one full
          pass.
        """
        telem = self.telemetry
        t0 = perf_counter() if telem is not None else 0.0
        items = []
        for insn, npc in trace:
            mn = insn.mnemonic
            if mn in COND_BRANCH_MNEMONICS:
                kind = ("cond" if npc == insn.addr + insn.length
                        else "condtaken")
            else:
                kind = _ITEM_KINDS.get(mn, "s")
            items.append((kind, insn, npc))
        loop = reason == "loop"
        addrs = tuple(insn.addr for insn, _ in trace)
        n = len(items)
        fused, linemap, filename, alloc, nowb, source_lines, per_pass = \
            self._fuse(items, addrs, loop)
        self._blocks[addrs[0]] = (fused, n, self._region_of(addrs[0]),
                                  addrs, linemap, filename, alloc, nowb,
                                  per_pass)
        self._compiled.pop(addrs[0], None)
        if telem is not None:
            telem.record_compile(
                addrs[0], n, loop=loop, reason=reason,
                seconds=perf_counter() - t0,
                source_lines=source_lines,
                alloc_regs=len(alloc))

    def _fuse(self, items, addrs, loop):
        """Generate the fused block function for a trace.

        ``items`` are :meth:`_build_block`'s ``(kind, insn, next pc)``
        triples.  Every instruction is its :data:`_TEMPLATES` effect
        formatted with its concrete operands; the fuser adds only what
        differs from per-step retirement — side exits, guards on the
        recorded indirect targets, and one pc seal per exit.  Every
        exit sets ``e``/``c``/``b`` (instructions, cycles and taken
        transfers of the current pass so far — constants, since the
        path to each exit is fixed) and breaks to one epilogue that
        charges them and writes registers back; no cost counter runs
        on the recorded path.  The generated function takes the
        remaining step budget and returns the number of instructions
        it executed.  Two shapes:

        * a *plain trace* makes one pass inside ``while True:``, so
          each item runs at most once.  A conditional branch becomes
          a side exit on the direction that was not recorded (the
          exit sets the pc); followed jmps and calls are inlined; the
          end either retires a kernel entry (``trap``, ``syscall``) or
          seals ``s.pc`` once at the recorded next pc.
        * a *loop trace* (``loop``: the recorded path returned to the
          trace's own start) runs its passes in ``for j in
          range(...)``, as many as fit the step budget, so the pass
          number ``j`` gives the finished passes' instructions and
          cycles.  Hot loops iterate inside the generated function
          without touching the dispatch loop at all, which is where
          superblocks beat per-step execution by a wide margin.

        Concrete operands let the formatted effects shrink where the
        template's general form is redundant: a zero displacement adds
        nothing (a load or store then addresses memory by its base
        register), and a sum or left shift of non-negative terms needs
        its 64-bit mask only when the result overflows.

        Under an i-cache cost model, a tag check is emitted before
        every instruction whose cache line differs from the previous
        trace instruction's (and before the first), charging misses in
        exactly the per-step order: consecutive instructions on one
        line are guaranteed hits, since nothing else runs in between.

        When an :class:`~repro.obs.engine.EngineTelemetry` is attached,
        every guard (``callr``/``jmpr``/``ret``) also gets
        a hit counter (one list-index increment on the fall-through
        path, bound as ``gh{k}``) and a miss recorder (``gm{k}``, on
        the trace-exiting path) baked into the generated source.  Both
        are pure side effects on pre-bound objects: accounting, fault
        recovery, and the register-allocation pass are untouched, so
        instrumented blocks stay bit-identical in every observable.

        Returns ``(function, linemap, filename, alloc, nowb,
        source_lines, per_pass)``.
        ``linemap`` maps generated line numbers to ``(index,
        restore_pc, cycles, taken)``: ``index`` is the number of
        instructions completed *within the current pass* when that line
        raises (total = ``j`` full passes + ``index``), ``cycles`` and
        ``taken`` what those instructions cost, and ``restore_pc``
        marks lines where the faulting instruction's pc must be
        re-established (kernel entries and post-branch bookkeeping
        manage ``s.pc`` themselves).  ``alloc`` lists the guest
        registers promoted to frame locals and ``nowb`` the line
        numbers of kernel entries, where fault recovery must *not*
        write the (stale) locals back over the register file.
        """
        costs = self.costs
        fields = self._fields
        templates = _TEMPLATES[self.spec.call_pushes_return_address]
        names = [("s", self), ("r", self.regs),
                 ("d", self.memory.data),
                 ("UF", UnmappedMemoryFault)]
        names.extend(_MEM_OPS.items())
        tags = self._icache_tags
        if tags is not None:
            names.append(("T", tags))
            line_bits = costs.icache_line_bits
            set_mask = len(tags) - 1
        telem = self.telemetry
        n = len(items)
        start = addrs[0]
        # What the instructions before each one in a pass cost, as
        # (cycles, taken transfers): every transfer on the recorded
        # path runs once per pass, so no counter is kept at run time.
        transfer = {"condtaken": costs.taken_branch,
                    "jmp": costs.taken_branch, "jmpr": costs.taken_branch,
                    "call": costs.call, "callr": costs.call,
                    "ret": costs.ret}
        pre = [(0, 0)]
        for kind, _, _ in items:
            cycles, taken = pre[-1]
            if kind in transfer:
                cycles, taken = cycles + transfer[kind], taken + 1
            pre.append((cycles + costs.insn, taken))

        body = []   # (source line, linemap entry or None)

        def emit(indent, text, entry=None):
            body.append(("    " * indent + text, entry))

        def emit_insn(k, insn):
            """The i-cache tag check (when due) and the effect of
            instruction ``k``; returns its retire lines."""
            if tags is not None:
                line = addrs[k] >> line_bits
                if k == 0 or line != addrs[k - 1] >> line_bits:
                    idx = line & set_mask
                    emit(2, f"if T[{idx}] != {line}: T[{idx}] = "
                         f"{line}; s.cycles += {costs.icache_miss}; "
                         "s.icache_misses += 1", (k, True))
            operands, _, effect, retire = templates[insn.mnemonic]
            values = _operand_values(insn, operands)
            values.update(fields)
            lines = []
            for text in effect:
                text = _PLUS_ZERO.sub(r"\1", text.format_map(values))
                lines.append(_NONNEG_WRAP.sub(
                    r"\1 = m if (m := \2) <= \3 else m & \3", text))
            address = _ADDRESS.match(lines[0]) if lines else None
            if address and insn.mnemonic in _LOADS_STORES:
                # A load or store through a register as is: address
                # memory by the register itself.
                lines = [re.sub(r"\ba\b", address.group(1), text)
                         for text in lines[1:]]
            for text in lines:
                emit(2, text, (k, not text.startswith("s.kernel.")))
            return (text.format_map(values) for text in retire)

        def emit_exit(depth, k, cost):
            """Leave the trace after ``k`` instructions of this pass
            that cost ``(cycles, taken transfers)``."""
            emit(depth, f"e = {k}; c = {cost[0]}; b = {cost[1]}")
            emit(depth, "break")

        def branch_exit(k, taken):
            """Side-exit after conditional branch ``k`` went the
            direction that was not recorded."""
            cycles, count = pre[k]
            if taken:
                cycles, count = cycles + costs.taken_branch, count + 1
            emit_exit(3, k + 1, (cycles + costs.insn, count))

        def emit_guard(k, kind, insn, extra):
            """Guard on the recorded transfer target, ``p`` at run
            time."""
            if telem is not None:
                site = telem.guard_site(insn.addr, kind, extra)
                names.append((f"gh{k}", site.counts))
                names.append((f"gm{k}", site.record_miss))
            emit(2, f"if p != {extra}:", (k + 1, False))
            emit(3, "s.pc = p", (k + 1, False))
            if telem is not None:
                emit(3, f"gm{k}(p)", (k + 1, False))
            emit_exit(3, k + 1, pre[k + 1])
            if telem is not None:
                emit(2, f"gh{k}[0] += 1", (k + 1, True))

        for k, (kind, insn, extra) in enumerate(items):
            retire = emit_insn(k, insn)
            if kind == "cond":
                # The effect ends in the open ``if`` of the compare.
                target = insn.addr + insn.operands[2]
                emit(3, f"s.pc = {target}", (k + 1, False))
                branch_exit(k, True)
            elif kind == "condtaken":
                # The recorded direction was taken: exit on fall-through.
                emit(3, "pass")
                emit(2, "else:")
                emit(3, f"s.pc = {insn.addr + insn.length}",
                     (k + 1, False))
                branch_exit(k, False)
            elif kind in ("callr", "jmpr", "ret"):
                emit_guard(k, kind, insn, extra)
            elif kind == "end":
                for text in retire:
                    emit(2, text, (k + 1, False))
        if loop:
            # Back at the trace's start: the ``for`` runs every pass
            # that fits the step budget, then seals the start pc.
            if not body:
                emit(2, "pass")     # a jump to itself
            emit(1, "else:")
            emit(2, f"s.pc = {start}", (0, False))
            emit(2, "j += 1; e = c = b = 0")
        else:
            if kind != "end":
                # Recording stopped mid-stream: seal the recorded next
                # pc once for the whole pass.
                emit(2, f"s.pc = {extra}", (n, False))
            emit_exit(2, n, pre[n])
        # Register allocation: a guest register the generated code
        # touches is a frame local (``v3`` for ``r[3]``), loaded once at
        # entry and, if the block writes it, written back around kernel
        # entries (the kernel reads and writes the shared ``r`` list)
        # and once after the loop that every exit breaks out of.
        # Inside a loop trace the registers live in locals across
        # iterations, which is the single biggest throughput lever; a
        # plain trace accesses a register it touches only once in ``r``
        # directly, which is cheaper than a load plus a write-back.  At
        # any fault point the locals *are* the architectural register
        # state; :meth:`_fault_index` writes them back — except when
        # the fault came from inside the kernel (``nowb`` lines), where
        # the pre-flushed ``r`` list already carries the kernel's
        # partial effects and the locals are stale.
        refs = {}
        for text, _ in body:
            for i in _LOCAL.findall(text):
                refs[i] = refs.get(i, 0) + 1
        alloc = tuple(sorted(int(i) for i, count in refs.items()
                             if loop or count > 1))
        if len(alloc) < len(refs):
            local = {str(i) for i in alloc}
            body = [(_LOCAL.sub(lambda mo: mo.group(0)
                                if mo.group(1) in local
                                else f"r[{mo.group(1)}]", text), entry)
                    for text, entry in body]
        written = sorted({int(i) for text, _ in body
                          for i in _WRITE.findall(text)})
        load = "; ".join(f"v{i} = r[{i}]" for i in alloc)
        store = "; ".join(f"r[{i}] = v{i}" for i in written)
        out = [("    " + load, None)] if alloc else []
        out.append((f"    for j in range((budget - 1) // {n}):" if loop
                    else "    while True:", None))
        nowb = set()
        for text, entry in body:
            if entry is not None:
                entry += pre[entry[0]]
            if alloc and text.lstrip().startswith("s.kernel."):
                indent = text[:len(text) - len(text.lstrip())]
                if written:
                    out.append((indent + store, None))
                out.append((text, entry))
                nowb.add(len(out) + 1)  # final line number
                out.append((indent + load, None))
            else:
                out.append((text, entry))
        # The one exit: charge the cycles, write registers back.
        if loop:
            cycles, count = pre[n]
            out.append((f"    s.cycles += j * {cycles} + c", None))
            out.append((f"    s.taken_branches += j * {count} + b", None))
        else:
            out.append(("    s.cycles += c", None))
            out.append(("    s.taken_branches += b", None))
        if written:
            out.append(("    " + store, None))
        out.append((f"    return j * {n} + e" if loop else "    return e",
                    None))
        body = out
        used = set(_NAME.findall("\n".join(text for text, _ in body)))
        names = [(nm, value) for nm, value in names if nm in used]
        header = ("def _sb(budget, "
                  + ", ".join(f"{nm}=_{nm}" for nm, _ in names) + "):")
        src = header + "\n" + "\n".join(
            text for text, _ in body) + "\n"
        linemap = {}
        for i, (_, entry) in enumerate(body):
            if entry is not None:
                linemap[i + 2] = entry
        filename = (f"<superblock {start:#x}+{n}"
                    f" #{next(_block_ids)}>")
        namespace = {f"_{nm}": value for nm, value in names}
        exec(compile(src, filename, "exec"), namespace)
        return (namespace["_sb"], linemap, filename, alloc,
                frozenset(nowb), len(body), pre[n])

    def _fault_index(self, block, exc):
        """How many instructions of ``block`` completed before ``exc``.

        Recovered from the traceback's line in the generated source
        plus the generated frame's locals (loop blocks keep their pass
        number in ``j``), so the happy path carries no per-instruction
        bookkeeping at all.  The cycles and taken transfers of the
        completed instructions are charged here, and the faulting
        instruction's pc is re-established where the per-step tier
        would have it, matching that tier bit for bit.
        """
        n, addrs, linemap, filename, alloc, nowb, per_pass = \
            block[1], *block[3:]
        tb = exc.__traceback__
        while tb is not None:
            frame = tb.tb_frame
            if frame.f_code.co_filename == filename:
                idx, restore, cycles, taken = linemap.get(
                    tb.tb_lineno, (0, False, 0, 0))
                locs = frame.f_locals
                j = locs.get("j", 0)
                self.cycles += j * per_pass[0] + cycles
                self.taken_branches += j * per_pass[1] + taken
                if alloc and tb.tb_lineno not in nowb:
                    # The frame locals are the architectural register
                    # state at the fault point (kernel-entry lines
                    # excepted: there the pre-flushed register file is
                    # authoritative and the locals are stale).
                    regs = self.regs
                    for i in alloc:
                        name = f"v{i}"
                        if name in locs:
                            regs[i] = locs[name]
                if restore and idx < len(addrs):
                    self.pc = addrs[idx]
                return j * n + idx
            tb = tb.tb_next
        return 0
