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
  runs here, and :meth:`CPU.run` falls back to it when
  ``engine="step"`` is selected or a *step-granularity*
  :class:`~repro.obs.flight.FlightRecorder` is attached (per-transfer
  block events demand per-step execution).
* **superblock tier** — the default for :meth:`CPU.run`.  At first
  execution of an address, the trace from that address up to the next
  indirect or kernel transfer (or watch-region boundary, or
  :data:`SUPERBLOCK_CAP`) is fused into one generated block function:
  every instruction's template is formatted with its concrete operands,
  and i-cache tag checks are emitted into the same source.  A block is
  dispatched once per entry with pre-computed instruction/cycle deltas,
  so straight-line runs skip per-step bookkeeping entirely.

Demotions away from the fused tier are never silent: a manual
:meth:`CPU.step` on a superblock CPU and a step-granularity recorder
attach each count a cause in :attr:`CPU.demotions` (mirrored to the
machine's metrics as ``engine.demoted`` and traced as an
``engine-demoted`` event).  The default block-granularity
:class:`~repro.obs.flight.FlightRecorder` *rides* the fused tier — one
ring entry per block dispatch with exact trampoline-hit recovery — and
an attached :class:`~repro.obs.engine.EngineTelemetry` observes
fuse/compile/dispatch/guard activity without demoting.  Block-cache
invalidations are likewise counted by cause in
:attr:`CPU.invalidations` (``invalidate_code``, ``watch-region``,
``recorder-attach``, ``telemetry-attach``/``-detach``).  The ``is
None`` discipline keeps the detached observer tax to one boolean test
per block dispatch (budgeted under 2% by the throughput bench).

Accounting stays *exact* across tiers (and with observers attached): cycle costs follow
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

_MASK = (1 << 64) - 1

#: Default dynamic-instruction budget per run.
DEFAULT_STEP_LIMIT = 80_000_000

#: Known execution-engine tiers, in preference order.
ENGINES = ("superblock", "step")

#: Upper bound on instructions fused into one superblock.  A straight
#: line longer than this is split; exactness is unaffected, because the
#: follow-on block resumes accounting at the split point.
SUPERBLOCK_CAP = 128

#: Mnemonics that end a superblock unless the fuser follows them: anything
#: that can move the pc non-sequentially or enter the kernel (which may
#: redirect the pc, stop the machine, or raise).
_TRANSFERS = frozenset({
    "jmp", "jmp.s", "beq", "bne", "blt", "bge", "bgt", "ble",
    "jmpr", "call", "callr", "ret", "trap", "syscall",
})


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
                f'if a + 8 > $msize: raise UF(f"{m} at {{a:#x}}", pc=$pc)',
                f"p8(d, a, {value})",
                "r[$SP] = a")

    def pop(m, dest):
        return ("a = r[$SP]",
                f'if a + 8 > $msize: raise UF(f"{m} at {{a:#x}}", pc=$pc)',
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
    for m, op in (("add", "+"), ("sub", "-"), ("mul", "*"), ("and", "&"),
                  ("or", "|"), ("xor", "^")):
        t[m] = ("rd ra rb", (f"r[$rd] = (r[$ra] {op} r[$rb]) & $M",), nxt)
    for m, op in (("beq", "=="), ("bne", "!="), ("blt", "<"),
                  ("bge", ">="), ("bgt", ">"), ("ble", "<=")):
        t[m] = ("ra rb disp",
                ("x = r[$ra]", "y = r[$rb]",
                 "if x >= $SIGN: x -= $WRAP", "if y >= $SIGN: y -= $WRAP",
                 f"if x {op} y:"),
                tuple("    " + line for line in taken("$target", "tb"))
                + ("else:", "    s.pc = $nxt"))
    for m, size in LOAD_SIZES.items():
        if m in PCREL_LOAD_MNEMONICS:
            t[m] = ("rd disp",
                    ("a = $target",
                     f"if a < 0 or a + {size} > $msize: raise UF("
                     f'f"pc-relative load at {{a:#x}}", pc=$pc)',
                     f"r[$rd] = u{size}(d, a)[0]"), nxt)
            continue
        # A signed unpack plus the 64-bit mask is the sign extension.
        value = (f"g{size}(d, a)[0] & $M" if m in SIGNED_LOADS
                 else f"u{size}(d, a)[0]")
        t[m] = ("rd mem",
                ("a = (r[$base] + $off) & $M",
                 f'if a + {size} > $msize: raise UF(f"load at {{a:#x}} '
                 f'(pc={{$pc:#x}})", pc=$pc)',
                 f"r[$rd] = {value}"), nxt)
    for m, size in STORE_SIZES.items():
        value = "r[$rs]" if size == 8 else \
            f"r[$rs] & {(1 << (size * 8)) - 1:#x}"
        t[m] = ("rs mem",
                ("a = (r[$base] + $off) & $M",
                 f'if a + {size} > $msize: raise UF(f"store at {{a:#x}} '
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
    per-step lines, fused effect, fused retire, registers)``.

    Fused lines name guest registers as frame locals (``r[{rd}]`` ->
    ``v{rd}``, ``r[16]`` -> ``v16``); ``registers`` lists the operand
    fields and constant indices they reference, so the fuser knows
    which locals to load and write back.
    """
    effect = tuple(map(_format_src, effect))
    retire = tuple(map(_format_src, retire))
    registers = tuple(field or int(index) for line in effect + retire
                      for field, index in _REG_REF.findall(line))
    return (tuple(names.split()), effect + retire,
            tuple(_REG_REF.sub(_as_local, line) for line in effect),
            tuple(_REG_REF.sub(_as_local, line) for line in retire),
            registers)


#: A guest-register reference in a template format: ``r[{field}]`` or
#: ``r[16]``.
_REG_REF = re.compile(r"\br\[(?:\{(\w+)\}|(\d+))\]")


def _as_local(mo):
    field, index = mo.groups()
    return "v{%s}" % field if field else "v" + index


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
        #: or ``"step"`` (always per-instruction).  A step-granularity
        #: FlightRecorder forces the per-step tier regardless of this
        #: setting — counted in :attr:`demotions`, never silent.
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

        #: Optional :class:`repro.obs.flight.FlightRecorder`; None keeps
        #: the hot loop at a single identity test per step.
        self.flight = None
        #: Optional :class:`repro.obs.engine.EngineTelemetry`; None
        #: keeps the dispatch loop at one boolean test per block.
        self.telemetry = None
        #: Demotions away from the fused tier, by cause (always
        #: counted, telemetry attached or not).
        self.demotions = {}
        #: Block-cache invalidations that dropped fused blocks, by
        #: cause (always counted, telemetry attached or not).
        self.invalidations = {}
        #: Optional ``fn(cause)`` invoked on every demotion — the
        #: Machine wires this to its metrics/tracer so demotions are
        #: never silent.
        self.on_demote = None
        self._step_demoted = False

        #: per-step function per address (see :meth:`_compile`)
        self._compiled = {}
        #: decoded Instruction per address (both tiers decode through it)
        self._insns = {}
        #: superblock start address -> block record (see _build_block)
        self._blocks = {}
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
        # so changing the regions invalidates every block.
        self._watch_regions = regions
        if self._blocks:
            self._invalidate_cause("watch-region")

    def invalidate_code(self):
        """Drop decoded instructions, per-step functions and fused
        superblocks (call after writing to code memory)."""
        self._compiled.clear()
        self._insns.clear()
        if self._blocks:
            self._invalidate_cause("invalidate_code")

    def attach_telemetry(self, telemetry):
        """Wire an :class:`~repro.obs.engine.EngineTelemetry` in (or
        out, with ``None``).

        Existing fused blocks were generated without (or with a
        previous collector's) guard instrumentation, so the block cache
        is dropped — counted as a ``telemetry-attach``/``-detach``
        invalidation — and rebuilt lazily with the right counters baked
        in.  Pre-attach demotion/invalidation tallies are folded into
        the collector so nothing is lost.
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
            telemetry.seed(self.demotions, self.invalidations)

    def _demote(self, cause):
        """Count one demotion away from the fused tier, by cause, and
        signal it (telemetry mirror plus the machine's ``on_demote``
        metrics/event hook)."""
        self.demotions[cause] = self.demotions.get(cause, 0) + 1
        t = self.telemetry
        if t is not None:
            t.record_demotion(cause)
        cb = self.on_demote
        if cb is not None:
            cb(cause)

    def _invalidate_cause(self, cause):
        """Drop every fused block and count why."""
        self._blocks.clear()
        self.invalidations[cause] = \
            self.invalidations.get(cause, 0) + 1
        t = self.telemetry
        if t is not None:
            t.record_invalidation(cause)

    def step(self):
        """Execute exactly one instruction (lockstep/differential use).

        Always runs the per-step tier and skips the run loop's
        icache/watch/flight accounting; callers own whatever bookkeeping
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
            self._compiled[pc] = fn
        fn()
        self.icount += 1
        self.cycles += self.costs.insn

    def run(self, entry=None, step_limit=None):
        """Execute until an exit syscall; returns the exit code.

        Dispatches fused superblocks unless ``engine="step"`` was
        selected or a step-granularity flight recorder is attached
        (block-granularity recorders and engine telemetry ride the
        fused tier); the last strides of a run approaching its step
        limit always finish per-step, so the limit fault lands on the
        exact instruction.  ``icount`` is committed in a ``finally`` so
        faulting runs report exactly the instructions that completed.
        """
        if entry is not None:
            self.pc = entry
        limit = step_limit if step_limit is not None else self.step_limit
        compiled = self._compiled
        compile_one = self._compile
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
        flight = self.flight
        if flight is not None:
            decoded = self._insns
            fsites = flight.tramp_sites
            flight.record_block(self.pc, self.cycles)
        self.running = True
        steps = 0
        try:
            if self.engine == "superblock" and (
                    flight is None or flight.granularity == "block"):
                blocks = self._blocks
                build = self._build_block
                telem = self.telemetry
                observe = telem is not None or flight is not None
                tstats = telem.block_stats if telem is not None else None
                while self.running:
                    b = blocks.get(self.pc)
                    if b is None:
                        b = build(self.pc)
                    n = b[1]
                    if steps + n >= limit:
                        break
                    if watch:
                        region = b[2]
                        if region is not None and region != prev_region:
                            if prev_region != -1:
                                self.transitions += 1
                            prev_region = region
                    if observe:
                        pc0 = self.pc
                        c0 = self.cycles
                    try:
                        # Fused blocks take the remaining step budget
                        # (loop blocks iterate internally until it nears
                        # exhaustion) and return the number of
                        # instructions executed.
                        done = b[0](limit - steps)
                    except BaseException as exc:
                        done = self._fault_index(b, exc)
                        steps += done
                        self.cycles += done * insn_cost
                        raise
                    steps += done
                    self.cycles += done * insn_cost
                    if observe:
                        if tstats is not None:
                            st = tstats.get(pc0)
                            if st is None:
                                tstats[pc0] = [1, done, self.cycles - c0]
                            else:
                                st[0] += 1
                                st[1] += done
                                st[2] += self.cycles - c0
                        if flight is not None:
                            flight.record_superblock(
                                b, self.pc, done, self.cycles)
            # Per-step tier: flight recording, engine="step", and the
            # final strides of a run approaching its step limit.
            while self.running:
                pc = self.pc
                fn = compiled.get(pc)
                if fn is None:
                    fn = compile_one(pc)
                    compiled[pc] = fn
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
                if flight is not None:
                    if pc in fsites:
                        flight.tramp_hit(pc)
                    npc = self.pc
                    if npc != pc + decoded[pc].length:
                        flight.record_block(npc, self.cycles)
                if steps >= limit:
                    raise MachineFault(
                        f"step limit of {limit} exceeded "
                        f"at pc={self.pc:#x}",
                        pc=self.pc,
                    )
        finally:
            # Committed even when a fault propagates, so failed runs
            # report exactly the instructions that completed.
            self.icount += steps
        return self.exit_code

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
        pushes = self.spec.call_pushes_return_address
        code, params = _step_code(insn.mnemonic, pushes)
        values = _operand_values(insn,
                                 _TEMPLATES[pushes][insn.mnemonic][0])
        env = self._step_env
        return FunctionType(code, _STEP_GLOBALS, None, tuple(
            values[p] if p in values else env[p] for p in params))

    # -- superblock fuser --------------------------------------------------

    def _build_block(self, addr):
        """Fuse the execution trace starting at ``addr`` into a
        superblock.

        Trace formation: decoding follows the
        *fall-through* of conditional branches (emitted as side exits)
        and follows unconditional ``jmp``s (their taken-branch cost is
        inlined), so a whole loop — head test, body, backward latch —
        fuses into one block.  A branch or jmp targeting the trace's
        own start closes it into a *loop trace* that iterates inside
        the generated function.  Traces end at indirect/kernel
        transfers (``jmpr``/``call``/``callr``/``ret``/``trap``/
        ``syscall``), at a jmp to an address already in the trace, at
        :data:`SUPERBLOCK_CAP`, at watch-region boundaries, and at
        unfetchable addresses.

        The block record is a tuple ``(fn, n, region, addrs, linemap,
        filename, alloc, nowb)``:

        * ``fn`` — the fused block function; called with the remaining
          step budget, returns the number of instructions executed;
        * ``n`` — instructions per full pass through the trace (early
          side exits return less; loop traces return accumulated
          totals);
        * ``region`` — the watch-region class shared by every
          instruction: traces are cut at watch-region boundaries, so a
          single entry check reproduces the per-step transition count;
        * ``addrs``/``linemap``/``filename`` — fault forensics: the
          instruction addresses plus the generated-source line ->
          ``(index, restore_pc)`` map that reconstructs exact partial
          accounting when a block faults mid-flight;
        * ``alloc``/``nowb`` — the guest registers promoted to frame
          locals by :meth:`_fuse` and the kernel-entry lines where a
          fault must not write those locals back.
        """
        telem = self.telemetry
        t0 = perf_counter() if telem is not None else 0.0
        watch = self._watch_regions
        if watch:
            (a_lo, a_hi), (b_lo, b_hi) = watch
        reason = None   # why the trace ended (telemetry trace shape)
        msize = self.memory.size
        regs = self.regs
        pushes = self.spec.call_pushes_return_address
        items = []      # (kind, insn, extra)
        addrs = []
        callstack = []  # return addresses of calls followed in-trace
        # Static effects on the return-address machinery since trace
        # start, used to predict where an unmatched ``ret`` lands:
        # the net SP displacement (while statically known) and whether
        # the link register has been overwritten.
        sp_delta = 0
        sp_known = True
        lr_dirty = False
        region = None
        a = addr
        while True:
            try:
                insn = self._decode(a)
            except MachineFault:
                if not items:
                    raise   # faulting first fetch: as per-step
                reason = "unfetchable"
                break       # seal here; the next dispatch faults
            if watch:
                r = (0 if a_lo <= a < a_hi
                     else 1 if b_lo <= a < b_hi else None)
                if not items:
                    region = r
                elif r != region:
                    reason = "watch-boundary"
                    break       # watch-region boundary ends the trace
            mn = insn.mnemonic
            addrs.append(a)
            if mn in COND_BRANCH_MNEMONICS:
                target = a + insn.operands[2]
                if target == addr:
                    items.append(("condclose", insn, None))
                    reason = "loop-cond"
                    break
                items.append(("cond", insn, None))
                a += insn.length
            elif mn in ("jmp", "jmp.s"):
                target = a + insn.operands[0]
                if target == addr:
                    items.append(("jmpclose", insn, None))
                    reason = "loop-jmp"
                    break
                items.append(("jmp", insn, None))
                a = target
            elif mn == "call":
                # Direct call: the return address is a compile-time
                # constant, so the push/link inlines and the trace
                # continues into the callee.
                items.append(("call", insn, None))
                callstack.append(a + insn.length)
                if pushes:
                    sp_delta -= 8
                else:
                    lr_dirty = True
                a = a + insn.operands[0]
            elif mn == "callr" and regs[insn.operands[0]] < msize:
                # Indirect call: speculate on the target the register
                # holds right now (block building happens mid-run, at
                # first execution); the generated code re-reads the
                # register and exits the trace if it disagrees.
                observed = regs[insn.operands[0]]
                items.append(("callr", insn, observed))
                callstack.append(a + insn.length)
                if pushes:
                    sp_delta -= 8
                else:
                    lr_dirty = True
                a = observed
            elif mn == "jmpr" and regs[insn.operands[0]] < msize:
                observed = regs[insn.operands[0]]
                items.append(("jmpr", insn, observed))
                a = observed
            elif mn == "ret" and (expected := self._predict_return(
                        callstack, sp_delta, sp_known,
                        lr_dirty)) is not None:
                # Speculate the return lands at the matching call's
                # continuation (or, for a trace entered at a callee,
                # at the return address the stack/link register holds
                # now); the generated code pops the real return
                # address and exits the trace if it disagrees.
                items.append(("ret", insn, expected))
                if pushes:
                    sp_delta += 8
                a = expected
            elif mn in _TRANSFERS:
                items.append(("end", insn, None))
                reason = f"transfer:{mn}"
                break
            else:
                if mn == "push":
                    sp_delta -= 8
                elif mn == "pop":
                    sp_delta += 8
                if mn != "push" and insn.operands \
                        and isinstance(insn.operands[0], int):
                    # operands[0] is the destination for every
                    # register-writing straight-line insn (for stores
                    # it is a source — flagging those too merely costs
                    # a speculation opportunity).
                    if insn.operands[0] == SP:
                        sp_known = False
                    if insn.operands[0] == LR:
                        lr_dirty = True
                items.append(("s", insn, None))
                a += insn.length
            if len(items) >= SUPERBLOCK_CAP:
                break
        n = len(items)
        fused, linemap, filename, alloc, nowb, source_lines = \
            self._fuse(items, addrs)
        block = (fused, n, region, tuple(addrs), linemap, filename,
                 alloc, nowb)
        self._blocks[addr] = block
        if telem is not None:
            telem.record_compile(
                addr, n,
                loop=items[-1][0] in ("condclose", "jmpclose"),
                reason=reason if reason is not None else "cap",
                seconds=perf_counter() - t0,
                source_lines=source_lines,
                alloc_regs=len(alloc))
        return block

    def _predict_return(self, callstack, sp_delta, sp_known, lr_dirty):
        """Where the next ``ret`` most plausibly lands, or ``None``.

        A call followed earlier in the trace pins the answer (and is
        popped off ``callstack`` here).  Otherwise — a trace entered at
        a callee — the prediction reads the return-address slot the
        machine holds *right now*: the stack slot at the statically
        tracked SP displacement, or the link register if untouched.
        Mispredictions are harmless: the generated guard compares
        against the real popped address and exits the trace with it.
        """
        if callstack:
            return callstack.pop()
        if self.spec.call_pushes_return_address:
            if not sp_known:
                return None
            slot = (self.regs[SP] + sp_delta) & _MASK
            if slot + 8 > self.memory.size:
                return None
            p = int.from_bytes(self.memory.data[slot:slot + 8],
                               "little")
        else:
            if lr_dirty:
                return None
            p = self.regs[LR]
        return p if p < self.memory.size else None

    def _fuse(self, items, addrs):
        """Generate the fused block function for a trace.

        Every instruction is its :data:`_TEMPLATES` effect formatted
        with its concrete operands; the fuser adds only what differs
        from per-step retirement — side exits, speculation guards,
        deferred costs, and one pc seal per exit.  The generated
        function takes the remaining step budget and returns the number
        of instructions it executed.  Two shapes:

        * a *plain trace* runs each instruction at most once.
          Conditional branches become side exits (taken path sets the
          pc, accounts the branch, and returns its instruction count);
          followed jmps inline their taken-branch accounting; the end
          either retires a terminator (``jmpr``/``callr``/``ret`` not
          speculated, ``trap``, ``syscall``) or seals ``s.pc`` once.
        * a *loop trace* — closed by a branch or ``jmp`` back to the
          trace's own start — wraps the same body in ``while True``,
          deferring taken-branch accounting to frame-local counters
          (``done`` instructions retired in finished passes, ``t``
          taken branches), flushed at every exit.  Hot loops re-enter
          the generated ``while`` without touching the dispatch loop
          at all, which is where superblocks beat per-step execution
          by a wide margin.  The closing branch stops iterating when
          one more pass would reach the step budget.

        Under an i-cache cost model, a tag check is emitted before
        every instruction whose cache line differs from the previous
        trace instruction's (and before the first), charging misses in
        exactly the per-step order: consecutive instructions on one
        line are guaranteed hits, since nothing else runs in between.

        When an :class:`~repro.obs.engine.EngineTelemetry` is attached,
        every speculation guard (``callr``/``jmpr``/``ret``) also gets
        a hit counter (one list-index increment on the fall-through
        path, bound as ``gh{k}``) and a miss recorder (``gm{k}``, on
        the trace-exiting path) baked into the generated source.  Both
        are pure side effects on pre-bound objects: accounting, fault
        recovery, and the register-allocation pass are untouched, so
        instrumented blocks stay bit-identical in every observable.

        Returns ``(function, linemap, filename, alloc, nowb,
        source_lines)``.
        ``linemap`` maps generated line numbers to ``(index,
        restore_pc)``: ``index`` is the number of instructions
        completed *within the current pass* when that line raises
        (total = frame-local ``done`` + ``index``), and ``restore_pc``
        marks lines where the faulting instruction's pc must be
        re-established (kernel entries and post-branch bookkeeping
        manage ``s.pc`` themselves).  ``alloc`` lists the guest
        registers promoted to frame locals and ``nowb`` the line
        numbers of kernel entries, where fault recovery must *not*
        write the (stale) locals back over the register file.
        """
        costs = self.costs
        tb_cost = costs.taken_branch
        call_cost = costs.call
        ret_cost = costs.ret
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
        last_kind = items[-1][0]
        loop = last_kind in ("condclose", "jmpclose")
        start = addrs[0]
        kinds = {kind for kind, _, _ in items}
        # Deferred cost counters for loop traces: taken branches (t),
        # calls (u), returns (w); flushed at every exit and on fault.
        counters = []
        if loop:
            if kinds & {"cond", "jmp", "jmpr", "condclose",
                        "jmpclose"}:
                counters.append(("t", tb_cost))
            if kinds & {"call", "callr"}:
                counters.append(("u", call_cost))
            if "ret" in kinds:
                counters.append(("w", ret_cost))
        flush_lines = []
        if counters:
            flush_lines.append(
                "s.cycles += "
                + " + ".join(f"{c} * {cost}" for c, cost in counters))
            flush_lines.append(
                "s.taken_branches += "
                + " + ".join(c for c, _ in counters))

        body = []   # (source line, linemap entry or None)
        used = set()    # guest registers referenced (as frame locals)

        def emit(indent, text, entry=None):
            body.append(("    " * indent + text, entry))

        def emit_flush(depth, entry):
            for text in flush_lines:
                emit(depth, text, entry)

        def emit_insn(depth, k, insn):
            """The i-cache tag check (when due) and the effect of
            instruction ``k``; returns its retire lines."""
            if tags is not None:
                line = addrs[k] >> line_bits
                if k == 0 or line != addrs[k - 1] >> line_bits:
                    idx = line & set_mask
                    emit(depth, f"if T[{idx}] != {line}: T[{idx}] = "
                         f"{line}; s.cycles += {costs.icache_miss}; "
                         "s.icache_misses += 1", (k, True))
            operands, _, effect, retire, registers = \
                templates[insn.mnemonic]
            values = _operand_values(insn, operands)
            values.update(fields)
            for reg in registers:
                used.add(values[reg] if reg.__class__ is str else reg)
            for text in effect:
                text = text.format_map(values)
                emit(depth, text, (k, not text.startswith("s.kernel.")))
            return (text.format_map(values) for text in retire)

        def emit_return(depth, k):
            """Side exit after ``k`` instructions of this pass."""
            if loop:
                emit_flush(depth, (k, False))
                emit(depth, f"return done + {k}", (k, False))
            else:
                emit(depth, f"return {k}")

        def emit_exit(depth, k, kind, insn, extra):
            """Speculation guard on the transfer target in ``p``."""
            if telem is not None:
                site = telem.guard_site(insn.addr, kind, extra)
                names.append((f"gh{k}", site.counts))
                names.append((f"gm{k}", site.record_miss))
            emit(depth, f"if p != {extra}:", (k + 1, False))
            emit(depth + 1, "s.pc = p", (k + 1, False))
            if telem is not None:
                emit(depth + 1, f"gm{k}(p)", (k + 1, False))
            emit_return(depth + 1, k + 1)
            if telem is not None:
                emit(depth, f"gh{k}[0] += 1", (k + 1, True))

        def emit_cost(depth, counter, cost, entry):
            if loop:
                emit(depth, f"{counter} += 1", entry)
            else:
                emit(depth, f"s.cycles += {cost}", entry)
                emit(depth, "s.taken_branches += 1", entry)

        depth = 2 if loop else 1
        if loop:
            emit(1, "done = 0")
            for c, _ in counters:
                emit(1, f"{c} = 0")
            emit(1, "while True:")
        for k, (kind, insn, extra) in enumerate(items):
            retire = emit_insn(depth, k, insn)
            if kind == "cond":
                # The effect ends in the open ``if`` of the compare.
                target = insn.addr + insn.operands[2]
                emit(depth + 1, f"s.pc = {target}", (k + 1, False))
                emit_cost(depth + 1, "t", tb_cost, (k + 1, False))
                emit_return(depth + 1, k + 1)
            elif kind == "jmp":
                # Followed unconditional jmp: only its cost remains.
                emit_cost(depth, "t", tb_cost, (k + 1, True))
            elif kind in ("call", "callr"):
                emit_cost(depth, "u", call_cost, (k + 1, True))
                if kind == "callr":
                    emit_exit(depth, k, kind, insn, extra)
            elif kind == "jmpr":
                emit_cost(depth, "t", tb_cost, (k + 1, False))
                emit_exit(depth, k, kind, insn, extra)
            elif kind == "ret":
                emit_cost(depth, "w", ret_cost, (k + 1, False))
                emit_exit(depth, k, kind, insn, extra)
            elif kind == "end":
                for text in retire:
                    emit(1, text, (k + 1, False))
                emit(1, f"return {n}")
            elif kind == "condclose":
                emit(3, "t += 1", (n, False))
                emit(3, f"done += {n}", (n, False))
                emit(3, f"if done + {n} < budget:", (0, False))
                emit(4, "continue", (0, False))
                emit(3, f"s.pc = {start}", (0, False))
                emit_flush(3, (0, False))
                emit(3, "return done", (0, False))
                emit(2, f"s.pc = {insn.addr + insn.length}", (n, False))
                emit(2, f"done += {n}", (n, False))
                emit_flush(2, (0, False))
                emit(2, "return done", (0, False))
            elif kind == "jmpclose":
                emit(2, "t += 1", (n, False))
                emit(2, f"done += {n}", (n, False))
                emit(2, f"if done + {n} < budget:", (0, False))
                emit(3, "continue", (0, False))
                emit(2, f"s.pc = {start}", (0, False))
                emit_flush(2, (0, False))
                emit(2, "return done", (0, False))
        if last_kind not in ("condclose", "jmpclose", "end"):
            # Trace cut mid-stream (cap, watch boundary, unfetchable
            # next address): seal the pc of the not-taken continuation
            # once for the whole pass.
            kind, last_insn, extra = items[-1]
            if kind in ("s", "cond"):
                seal = last_insn.addr + last_insn.length
            elif kind in ("jmp", "call"):
                seal = last_insn.addr + last_insn.operands[0]
            else:   # ret/callr/jmpr: the guard confirmed this target
                seal = extra
            emit(1, f"s.pc = {seal}", (n, False))
            emit(1, f"return {n}")
        # Register allocation: every guest register the generated code
        # touches is a frame local (``v3`` for ``r[3]``), loaded once at
        # entry, written back at every exit and around kernel entries
        # (the kernel reads and writes the shared ``r`` list).
        # Inside a loop trace the registers live in locals across
        # iterations, which is the single biggest throughput lever.  At
        # any fault point the locals *are* the architectural register
        # state; :meth:`_fault_index` writes them back — except when
        # the fault came from inside the kernel (``nowb`` lines), where
        # the pre-flushed ``r`` list already carries the kernel's
        # partial effects and the locals are stale.
        alloc = tuple(sorted(used))
        nowb = set()
        if alloc:
            load = "; ".join(f"v{i} = r[{i}]" for i in alloc)
            store = "; ".join(f"r[{i}] = v{i}" for i in alloc)
            head = 1 + len(counters) if loop else 0
            out = list(body[:head])
            out.append(("    " + load, None))
            if loop:
                out.append(body[head])      # the ``while True:`` line
                head += 1
            for text, entry in body[head:]:
                stripped = text.lstrip()
                indent = text[:len(text) - len(stripped)]
                if stripped.startswith("s.kernel."):
                    out.append((indent + store, None))
                    out.append((text, entry))
                    nowb.add(len(out) + 1)  # final line number
                    out.append((indent + load, None))
                elif stripped.startswith("return"):
                    out.append((indent + store, None))
                    out.append((text, entry))
                else:
                    out.append((text, entry))
            body = out
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
                frozenset(nowb), len(body))

    def _fault_index(self, block, exc):
        """How many instructions of ``block`` completed before ``exc``.

        Recovered from the traceback's line in the generated source
        plus the generated frame's locals (loop blocks keep their
        iteration progress in ``done``/``t``), so the happy path
        carries no per-instruction bookkeeping at all.  Pending
        taken-branch accounting is flushed here, and the faulting
        instruction's pc is re-established where the per-step tier
        would have it, matching that tier bit for bit.
        """
        addrs, linemap, filename, alloc, nowb = block[3:]
        tb = exc.__traceback__
        while tb is not None:
            frame = tb.tb_frame
            if frame.f_code.co_filename == filename:
                idx, restore = linemap.get(tb.tb_lineno, (0, False))
                locs = frame.f_locals
                t = locs.get("t", 0)
                u = locs.get("u", 0)
                w = locs.get("w", 0)
                if t or u or w:
                    self.cycles += (t * self.costs.taken_branch
                                    + u * self.costs.call
                                    + w * self.costs.ret)
                    self.taken_branches += t + u + w
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
                return locs.get("done", 0) + idx
            tb = tb.tb_next
        return 0
