"""Differential tier fuzzer: ``engine="step"`` vs ``engine="superblock"``.

Random ISA-level programs for every architecture — only the mnemonics
the architecture supports — run once per execution tier, and every
observable must agree: each ``RunResult`` field, the register file, a
memory window (data area, stack top, the last bytes of memory), and on
a fault its type, message, pc, ``icount`` and ``cycles``.

The generator covers loops (backward conditional branches and jmps,
and counted loops whose back edge is taken and then falls through),
calls and returns, speculated ``jmpr``/``callr`` targets that change
mid-run, out-of-range loads and stores, step limits that cut a loop
midway, watch regions, i-cache models on and off, ``ldpc`` targets out
of range, kernel entries (print, throw, traceback, bad syscalls, traps)
and raw encodings whose register fields name no register.

Programs are drawn through two primitives, ``pick(options)`` and
``num(lo, hi)``, so the same generator runs under Hypothesis (the fuzz
test) and under a seeded :class:`random.Random` (the scenario-coverage
check, which also asserts tier agreement on its cases).

The programs are short, so the superblock tier runs with
``HOT_THRESHOLD`` lowered to 1 and 2: trace heads fuse on their first
or second entry, mid-run, and faults and step limits land in cold
code, while recording a trace, and inside fused blocks.
"""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.binfmt import Binary, make_alloc_section
from repro.isa import Instruction as I, Mem, get_arch
from repro.isa.insn import PCREL_DISP_INDEX
from repro.isa.registers import R0, R2, R8, R9, R10, R11, R12, SP
from repro.machine import CostModel, machine_for
from repro.machine import cpu as cpu_module
from repro.util.errors import EncodingError, ReproError

from tests.conftest import ARCHES

#: Text base: low enough that a negative ``ldpc`` displacement on the
#: fixed-length arches (16-bit range) reaches below address 0.
TEXT = 0x4000
#: Data area the pointer registers aim at (well clear of code).
DATA = 0x200000
#: Memory size of every fuzz machine (``machine_for``'s minimum).
MSIZE = 4 << 20

#: Registers the random body computes with; pointer registers are only
#: written by the prologue, so stores never reach code.
GP = tuple(range(R0, R8))
PTRS = (R8, R9)
#: Indirect-transfer target register (set by ``leapc``/prologue only).
TGT = R10
#: Counted-loop counter and the zero it is compared against (set by
#: the prologue and the ``count`` shape only).
CNT, ZERO = R11, R12

POINTERS = (DATA, DATA + 0x31, MSIZE - 4, MSIZE - 8, 1 << 40,
            (1 << 64) - 8)
#: Kernel entries besides print: exit, throw, traceback,
#: dynamic translation (no runtime library) and a bad number.
SYSCALLS = (0, 2, 3, 5, 9)
COST_MODELS = (
    CostModel.default(),
    CostModel.with_icache(),
    CostModel(icache_enabled=True, icache_line_bits=4, icache_lines=4),
    CostModel(insn=3, taken_branch=2, call=5, ret=7, syscall=11,
              icache_enabled=True, icache_line_bits=3, icache_lines=2,
              icache_miss=13),
)
#: Instruction shapes, repeated to weight the draw.
SHAPES = ("alu", "alu", "alu", "alu", "imm", "imm", "imm", "load",
          "load", "store", "store", "cond", "cond", "cond", "count", "jmp",
          "call",
          "ret", "ind", "leapc", "ldpc", "print", "stack", "stack", "nop",
          "hazard")
#: Shapes that usually end a run early, drawn only via "hazard".
HAZARDS = ("raw", "trap", "sys", "ldpc")

ALU3 = ("add", "sub", "mul", "and", "or", "xor", "shl", "shr")
IMM_OPS = ("addi", "shli", "shri", "addis", "movi", "lis", "adrp",
           "mov", "inc")
LOADS = ("ld8", "ld16", "ld32", "ld64", "lds8", "lds16", "lds32")
STORES = ("st8", "st16", "st32", "st64")
IMMS = (0, 1, 3, 63, 64, 65, 127, 200, -1, -128, -0x8000, 0x7FFF)
CONDS = ("beq", "bne", "blt", "bge", "bgt", "ble")


@dataclasses.dataclass(frozen=True)
class Target:
    """A code address by body slot: ``slot`` (clamped into the
    program) plus a byte ``offset`` (non-zero lands mid-instruction)."""

    slot: int
    offset: int = 0


@dataclasses.dataclass
class Case:
    arch: str
    slots: list          # Instruction (operands may hold a Target) or bytes
    costs: CostModel
    step_limit: int
    watch: tuple         # None or ((lo, hi), (lo, hi))
    tags: frozenset      # generation-time scenario tags

    def binary(self):
        spec = get_arch(self.arch)
        insns = _layout(spec, self.slots)
        text = b"".join(item if isinstance(item, bytes)
                        else spec.encode(item) for item in insns)
        binary = Binary("fuzz", self.arch, "EXEC", entry=TEXT)
        binary.add_section(make_alloc_section(".text", TEXT, text,
                                              exec_=True))
        return binary


def _signed(value):
    value &= (1 << 64) - 1
    return value - (1 << 64) if value >> 63 else value


def set_reg(spec, rd, value):
    """Instructions loading ``value`` into ``rd`` on any arch (the
    fixed-length ones have no ``movi``)."""
    if spec.supports("movi"):
        return [I("movi", rd, _signed(value))]
    v = _signed(value)
    out = [I("xor", rd, rd, rd)]
    if -0x8000 <= v < 0x8000:
        return out + [I("addi", rd, rd, v)]
    chunks = []
    v &= (1 << 64) - 1
    while v:
        chunks.append(v & 0x7FFF)
        v >>= 15
    for i, chunk in enumerate(reversed(chunks)):
        if i:
            out.append(I("shli", rd, rd, 15))
        if chunk:
            out.append(I("addi", rd, rd, chunk))
    return out


def _length(spec, item):
    return len(item) if isinstance(item, bytes) else spec.insn_length(item)


def _layout(spec, slots):
    """Place the slots at :data:`TEXT` and resolve every :class:`Target`
    into a pc-relative displacement (``jmp.s`` falls back to ``jmp``
    when its target is out of 8-bit range)."""
    slots = list(slots)
    while True:
        addrs = []
        addr = TEXT
        for item in slots:
            addrs.append(addr)
            addr += _length(spec, item)
        addrs.append(addr)
        placed = []
        widened = False
        for i, item in enumerate(slots):
            if isinstance(item, bytes):
                placed.append(item)
                continue
            ops = list(item.operands)
            for k, op in enumerate(ops):
                if isinstance(op, Target):
                    slot = min(op.slot, len(slots))
                    ops[k] = addrs[slot] + op.offset - addrs[i]
            insn = I(item.mnemonic, *ops).at(addrs[i])
            idx = PCREL_DISP_INDEX.get(insn.mnemonic)
            if idx is not None:
                lo, hi = spec.pcrel_range(insn.mnemonic)
                if not lo <= ops[idx] <= hi:
                    if insn.mnemonic != "jmp.s":
                        raise AssertionError(f"unreachable {insn}")
                    slots[i] = I("jmp", *item.operands)
                    widened = True
            placed.append(insn)
        if not widened:
            return placed


def generate(pick, num, arch):
    """One random :class:`Case` for ``arch``."""
    spec = get_arch(arch)
    tags = set()
    prologue = []
    for reg in PTRS:
        prologue += set_reg(spec, reg, pick(POINTERS))
    for reg in GP[:4]:
        prologue += set_reg(spec, reg, pick((0, 1, 7, -1, -8, 1 << 63,
                                             (1 << 63) - 1, 0x1234)))
    prologue += set_reg(spec, CNT, pick((2, 3, 6)))
    prologue += set_reg(spec, ZERO, 0)
    count = num(1, 24)
    base = len(prologue) + 1          # +1: the leapc below

    def target():
        slot = num(0, count)
        offset = 1 if arch == "x86" and num(0, 19) == 0 else 0
        if offset:
            tags.add("mid-insn")
        return Target(base + slot, offset)

    prologue.append(I("leapc", TGT, target()))
    body = []
    for _ in range(count):
        here = base + len(body)
        shape = pick(SHAPES)
        hazard = shape == "hazard"
        if hazard:
            shape = pick(HAZARDS)
        if shape == "alu":
            m = pick(ALU3)
            body.append(I(m, pick(GP), pick(GP), pick(GP)))
        elif shape == "imm":
            m = pick([m for m in IMM_OPS if spec.supports(m)])
            rd = pick(GP)
            if m == "mov":
                body.append(I(m, rd, pick(GP)))
            elif m == "inc":
                body.append(I(m, rd))
            else:
                ops = (rd, pick(GP)) if m in ("addi", "shli", "shri",
                                             "addis") else (rd,)
                imms = [imm for imm in IMMS
                        if _encodes(spec, I(m, *ops, imm))]
                body.append(I(m, *ops, pick(imms)))
        elif shape in ("load", "store"):
            m = pick(LOADS if shape == "load" else STORES)
            mem = Mem(pick(PTRS + (SP,)), pick((0, 8, -8, 3, 0x30, -64)))
            body.append(I(m, pick(GP), mem))
        elif shape == "cond":
            dest = target()
            if dest.slot <= here:
                tags.add("loop")
            body.append(I(pick(CONDS), pick(GP), pick(GP), dest))
        elif shape == "count":
            # Back to an earlier slot while the counter stays positive,
            # then fall through: a branch that is taken for a few passes
            # and then not.
            body.append(I("addi", CNT, CNT, -1))
            body.append(I("bgt", CNT, ZERO, Target(num(base, here))))
            tags.add("counted-loop")
        elif shape == "jmp":
            m = "jmp.s" if spec.supports("jmp.s") and num(0, 1) else "jmp"
            dest = target()
            if dest.slot <= here:
                tags.add("loop")
            body.append(I(m, dest))
        elif shape == "call":
            body.append(I("call", target()))
        elif shape == "ret":
            body.append(I("ret"))
        elif shape == "ind":
            body.append(I(pick(("jmpr", "callr")), TGT))
            tags.add("indirect")
        elif shape == "leapc":
            body.append(I("leapc", TGT, target()))
        elif shape == "ldpc":
            m = pick(("ldpc8", "ldpc16", "ldpc32", "ldpc64"))
            if not hazard:
                body.append(I(m, pick(GP), target()))
            else:
                lo, hi = spec.pcrel_range(m)
                body.append(I(m, pick(GP), pick((lo, hi))))
                tags.add("ldpc-out-of-range")
        elif shape == "print":
            body.append(I("syscall", 1))
        elif shape == "sys":
            body.append(I("syscall", pick(SYSCALLS)))
        elif shape == "trap":
            body.append(I("trap"))
        elif shape == "stack":
            # Moving SP onto a pointer makes pushes, pops, calls and
            # returns reach the data area or run off memory.
            if num(0, 2) == 0:
                body.append(I("mov", SP, pick(PTRS)))
            elif spec.supports("push"):
                body.append(I(pick(("push", "pop")), pick(GP)))
            else:
                body.append(I("addi", SP, SP, pick((-16, 16))))
        elif shape == "raw":
            body.append(_bad_register(spec, num))
            tags.add("bad-register")
        else:
            body.append(I("nop"))
    epilogue = [I("syscall", 1), I("syscall", 0)]
    slots = prologue + body + epilogue

    costs = pick(COST_MODELS)
    if costs.icache_enabled:
        tags.add("icache")
    watch = None
    if num(0, 2):
        addrs = [TEXT]
        for item in _layout(spec, slots):
            addrs.append(addrs[-1] + _length(spec, item))
        mid, end = addrs[num(base, len(slots) - 1)], addrs[-1]
        gap = pick((0, 0, 4))
        watch = ((TEXT, mid), (mid + gap, end))
        tags.add("watch")
    step_limit = pick((num(1, 40), num(40, 3000), num(40, 3000)))
    return Case(arch, slots, costs, step_limit, watch, frozenset(tags))


def _encodes(spec, insn):
    try:
        spec.encode(insn.at(TEXT))
    except EncodingError:
        return False
    return True


def _bad_register(spec, num):
    """Raw bytes of an instruction whose register field is past
    ``NUM_REGS`` (data decoded as code)."""
    if spec.fixed_length:
        word = int.from_bytes(spec.encode(I("add", R0, R0, R0)), "little")
        field = num(0, 2)
        return (word | (num(20, 31) << (21 - 5 * field))).to_bytes(
            4, "little")
    raw = bytearray(spec.encode(I("mov", R0, R0)))
    raw[num(1, 2)] = num(20, 255)
    return bytes(raw)


# -- the comparison ----------------------------------------------------------


def observe(case, engine, binary=None):
    """Everything one tier makes observable for ``case``."""
    binary = binary or case.binary()
    machine = machine_for(binary, costs=case.costs, engine=engine,
                          step_limit=case.step_limit)
    assert machine.memory.size == MSIZE
    image = machine.load(binary)
    if case.watch is not None:
        machine.watch_bounce(*case.watch)
    out = {}
    try:
        out["result"] = dataclasses.asdict(machine.run(image))
        out["fault"] = None
    except ReproError as exc:
        out["result"] = None
        out["fault"] = (type(exc).__name__, str(exc),
                        getattr(exc, "pc", None))
    cpu = machine.cpu
    data = machine.memory.data
    out.update(
        pc=cpu.pc, icount=cpu.icount, cycles=cpu.cycles,
        taken_branches=cpu.taken_branches,
        icache_misses=cpu.icache_misses, transitions=cpu.transitions,
        running=cpu.running, regs=list(cpu.regs),
        output=list(machine.kernel.output),
        counters=dict(machine.kernel.counters),
        data=bytes(data[DATA - 64:DATA + 128]),
        stack=bytes(data[MSIZE - 512:MSIZE]),
        blocks=len(cpu._blocks),
    )
    return out


def divergence(case, hot=1):
    """Names of the observables on which the two tiers disagree for
    ``case`` (empty when they agree) with trace heads fused on their
    ``hot``-th entry, plus each tier's view."""
    binary = case.binary()
    step = observe(case, "step", binary)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cpu_module, "HOT_THRESHOLD", hot)
        fused = observe(case, "superblock", binary)
    diff = sorted(key for key in step
                  if key != "blocks" and step[key] != fused[key])
    return diff, step, fused


def _outcome_tags(obs):
    fault = obs["fault"]
    if fault is None:
        return {"exit"}
    kind, message, _ = fault
    if "step limit" in message:
        return {"step-limit"}
    return {kind, message.split(" at ")[0]}


# -- the fuzz test -----------------------------------------------------------


@st.composite
def cases(draw, arch):
    return generate(lambda options: draw(st.sampled_from(options)),
                    lambda lo, hi: draw(st.integers(lo, hi)), arch)


@pytest.mark.parametrize("arch", ARCHES)
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=st.data())
def test_tiers_agree(arch, data):
    case = data.draw(cases(arch))
    for hot in (1, 2):
        diff, _, _ = divergence(case, hot)
        assert diff == [], (hot, diff)


@pytest.mark.parametrize("arch", ARCHES)
def test_generator_covers_every_scenario(arch):
    """Seeded cases hit every scenario the fuzzer promises — both at
    generation time and in how the runs actually end — and the tiers
    agree on each of them."""
    rng = random.Random(f"tiers-{arch}")
    seen = set()
    for _ in range(150):
        case = generate(rng.choice, rng.randint, arch)
        diff, step, fused = divergence(case)
        assert diff == [], (diff, case)
        seen |= case.tags | _outcome_tags(step)
        if fused["blocks"]:
            seen.add("fused")
        if step["transitions"]:
            seen.add("transitions")
        if step["icache_misses"]:
            seen.add("icache-misses")
    expected = {"loop", "counted-loop", "indirect", "ldpc-out-of-range",
                "bad-register", "icache", "icache-misses", "watch",
                "transitions",
                "exit", "step-limit", "IllegalInstructionFault",
                "UnmappedMemoryFault", "load", "store",
                "pc-relative load", "unhandled trap", "fused"}
    if arch == "x86":
        expected.add("mid-insn")
        # Stack-pointer faults (push/pop and call/ret return
        # addresses) need SP moved off the stack first: rarer, so any
        # one of them suffices.
        assert seen & {"push", "pop", "call", "callr", "ret"}
    assert expected <= seen, sorted(expected - seen)


# -- the fuzzer can fail -----------------------------------------------------


def test_compare_reports_a_fused_tier_defect(monkeypatch):
    """A defect planted in fused-tier fault recovery only — the frame
    locals are not written back to the register file — must surface as
    a register divergence on a fixed example."""
    from repro.machine.cpu import CPU

    # The loop's first pass runs cold, its second is recorded, and the
    # fused loop faults once R8 walks below 0.
    case = Case("x86", [
        I("movi", R8, 16),
        I("inc", R0),
        I("ld64", R2, Mem(R8, 0)),     # faults: unmapped at R8 = -8
        I("addi", R8, R8, -8),
        I("jmp", Target(1)),
        I("syscall", 0),
    ], CostModel.default(), 1000, None, frozenset())
    diff, _, fused = divergence(case)
    assert diff == [] and fused["blocks"] == 1

    fault_index = CPU._fault_index

    def no_writeback(self, block, exc):
        saved = list(self.regs)
        done = fault_index(self, block, exc)
        self.regs[:] = saved
        return done

    monkeypatch.setattr(CPU, "_fault_index", no_writeback)
    diff, _, _ = divergence(case)
    assert diff == ["regs"]
