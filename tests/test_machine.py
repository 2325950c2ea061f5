"""Emulator: per-instruction semantics, conventions, faults, costs."""

import pytest

from repro.binfmt import Binary, make_alloc_section
from repro.isa import Instruction as I, Mem, get_arch
from repro.isa.insn import COND_BRANCH_MNEMONICS
from repro.isa.registers import LR, R0, R1, R2, R3, SP, TOC
from repro.machine import CostModel, Machine, machine_for, run_binary
from repro.obs import EngineTelemetry
from repro.util.errors import (
    IllegalInstructionFault,
    MachineFault,
    UnmappedMemoryFault,
)

BASE = 0x10000


def assemble(arch, insns, data_sections=(), entry=None, kind="EXEC",
             metadata=None):
    """Hand-assemble a binary from (possibly label-free) instructions."""
    spec = get_arch(arch)
    addr = BASE
    placed = []
    for insn in insns:
        insn = insn.at(addr)
        placed.append(insn)
        addr += spec.insn_length(insn)
    binary = Binary("t", arch, kind, entry=entry or BASE)
    binary.add_section(make_alloc_section(
        ".text", BASE, spec.encode_stream(placed), exec_=True
    ))
    for name, at, payload, writable in data_sections:
        binary.add_section(make_alloc_section(name, at, payload,
                                              writable=writable))
    if metadata:
        binary.metadata.update(metadata)
    return binary


def run(arch, insns, **kw):
    return run_binary(assemble(arch, insns, **kw))


def exit_with(reg=R0):
    return [I("syscall", 0)]


class TestArithmetic:
    def test_add_wraps_64bit(self):
        res = run("x86", [
            I("movi", R0, -1),
            I("movi", R1, 2),
            I("add", R0, R0, R1),
            I("syscall", 1),
            I("syscall", 0),
        ])
        assert res.output == [1]

    def test_mul_and_masks(self):
        res = run("x86", [
            I("movi", R0, 123456789),
            I("movi", R1, 987654321),
            I("mul", R0, R0, R1),
            I("movi", R1, 0xFFFF),
            I("and", R0, R0, R1),
            I("syscall", 1),
            I("syscall", 0),
        ])
        assert res.output == [(123456789 * 987654321) & 0xFFFF]

    def test_shifts(self):
        res = run("x86", [
            I("movi", R0, 1),
            I("shli", R0, R0, 40),
            I("shri", R0, R0, 8),
            I("syscall", 1),
            I("syscall", 0),
        ])
        assert res.output == [1 << 32]

    def test_signed_compare_branches(self):
        # -1 < 1 signed (but not unsigned): blt must be signed.
        spec = get_arch("x86")
        insns = [
            I("movi", R0, -1),
            I("movi", R1, 1),
        ]
        blt_len = spec.insn_length("blt")
        movi_len = spec.insn_length("movi")
        insns.append(I("blt", R0, R1, blt_len + movi_len))
        insns.append(I("movi", R0, 99))   # skipped when branch taken
        insns.append(I("syscall", 1))
        insns.append(I("syscall", 0))
        res = run_binary(assemble("x86", insns))
        assert res.output == [-1]

    def test_inc(self):
        res = run("x86", [I("movi", R0, 7), I("inc", R0),
                          I("syscall", 1), I("syscall", 0)])
        assert res.output == [8]

    def test_lis_addis_build_constants(self):
        res = run("ppc64", [
            I("lis", R0, 2),              # 0x20000
            I("addi", R0, R0, -1),
            I("syscall", 1),
            I("syscall", 0),
        ])
        assert res.output == [0x1FFFF]


class TestMemory:
    def test_load_store_sizes(self):
        data = ("mem", 0x20000, b"\0" * 64, True)
        res = run("x86", [
            I("movi", R1, 0x20000),
            I("movi", R0, -2),
            I("st16", R0, Mem(R1, 0)),
            I("ld16", R2, Mem(R1, 0)),      # zero-extended
            I("mov", R0, R2),
            I("syscall", 1),
            I("lds16", R2, Mem(R1, 0)),     # sign-extended
            I("mov", R0, R2),
            I("syscall", 1),
            I("syscall", 0),
        ], data_sections=[data])
        assert res.output == [0xFFFE, -2]

    def test_pc_relative_load(self):
        # ldpc reads relative to the instruction's own address.
        spec = get_arch("x86")
        insns = [
            I("ldpc64", R0, 0),   # patched target: the data below
            I("syscall", 1),
            I("syscall", 0),
        ]
        tail = (spec.insn_length("ldpc64") + spec.insn_length("syscall") * 2)
        insns[0] = I("ldpc64", R0, tail)
        binary = assemble("x86", insns)
        binary.section(".text").data.extend((1234).to_bytes(8, "little"))
        res = run_binary(binary)
        assert res.output == [1234]

    def test_push_pop(self):
        res = run("x86", [
            I("movi", R0, 42),
            I("push", R0),
            I("movi", R0, 0),
            I("pop", R1),
            I("mov", R0, R1),
            I("syscall", 1),
            I("syscall", 0),
        ])
        assert res.output == [42]

    def test_unmapped_load_faults(self):
        with pytest.raises(UnmappedMemoryFault):
            run("x86", [I("movi", R1, 1 << 40),
                        I("ld64", R0, Mem(R1, 0)),
                        I("syscall", 0)])


class TestCallConventions:
    def test_x86_call_pushes_return_address(self):
        spec = get_arch("x86")
        # call target; target: syscall 1 with popped RA; exit
        call = I("call", 0)
        lens = [spec.insn_length(i) for i in (call, I("jmp", 0))]
        insns = [
            I("call", lens[0] + lens[1]),     # over the jmp
            I("jmp", 0),                      # never reached (callee exits)
            I("pop", R0),                     # RA == addr after call
            I("syscall", 1),
            I("syscall", 0),
        ]
        res = run_binary(assemble("x86", insns))
        assert res.output == [BASE + lens[0]]

    def test_fixed_call_sets_lr(self):
        res = run("ppc64", [
            I("call", 8),
            I("syscall", 0),       # return lands here, exits with R0
            I("mov", R0, LR),
            I("syscall", 1),
            I("ret"),              # blr
        ])
        assert res.output == [BASE + 4]
        assert res.exit_code == BASE + 4

    def test_x86_ret_pops(self):
        spec = get_arch("x86")
        movi_len = spec.insn_length("movi")
        push_len = spec.insn_length("push")
        insns = [
            I("movi", R0, BASE + movi_len + push_len + 1),
            I("push", R0),
            I("ret"),                        # jumps to the pushed addr
            I("movi", R0, 7),
            I("syscall", 1),
            I("syscall", 0),
        ]
        res = run_binary(assemble("x86", insns))
        assert res.output == [7]

    def test_toc_register_initialized(self):
        binary = assemble("ppc64", [
            I("mov", R0, TOC),
            I("syscall", 1),
            I("syscall", 0),
        ], metadata={"toc_base": 0x12340})
        res = run_binary(binary)
        assert res.output == [0x12340]


class TestAdrp:
    def test_adrp_is_page_relative(self):
        res = run("aarch64", [
            I("adrp", R0, 1),
            I("syscall", 1),
            I("syscall", 0),
        ])
        assert res.output == [(BASE & ~0xFFF) + 0x1000]


class TestFaultsAndLimits:
    def test_illegal_instruction(self):
        binary = assemble("x86", [I("nop")])
        binary.section(".text").data[0] = 0xFF
        with pytest.raises(IllegalInstructionFault):
            run_binary(binary)

    def test_step_limit(self):
        binary = assemble("x86", [I("jmp", 0)])   # jmp-to-self
        with pytest.raises(MachineFault, match="step limit"):
            run_binary(binary, step_limit=1000)

    def test_unhandled_trap(self):
        with pytest.raises(MachineFault, match="unhandled trap"):
            run("x86", [I("trap")])

    def test_bad_syscall(self):
        with pytest.raises(MachineFault, match="bad syscall"):
            run("x86", [I("syscall", 99)])


class TestCostsAndCounters:
    def test_taken_branch_cost(self):
        costs = CostModel()
        insns = [I("movi", R0, 0), I("syscall", 0)]
        base = run_binary(assemble("x86", insns)).cycles
        spec = get_arch("x86")
        jlen = spec.insn_length("jmp")
        insns2 = [I("movi", R0, 0), I("jmp", jlen), I("syscall", 0)]
        jumped = run_binary(assemble("x86", insns2)).cycles
        assert jumped == base + costs.insn + costs.taken_branch

    def test_icache_model_counts_misses(self):
        binary = assemble("x86", [I("movi", R0, 0), I("syscall", 0)])
        machine = machine_for(binary, costs=CostModel.with_icache())
        image = machine.load(binary)
        result = machine.run(image)
        assert result.icache_misses >= 1

    def test_bounce_watching(self):
        spec = get_arch("x86")
        jlen = spec.insn_length("jmp")
        # region A: first jmp; region B: the rest.
        insns = [I("jmp", jlen), I("movi", R0, 0), I("syscall", 0)]
        binary = assemble("x86", insns)
        machine = machine_for(binary)
        image = machine.load(binary)
        machine.watch_bounce((BASE, BASE + jlen), (BASE + jlen, BASE + 64))
        result = machine.run(image)
        assert result.transitions == 1


class TestPie:
    def test_pie_loads_with_bias_and_relocations(self):
        spec = get_arch("x86")
        from repro.binfmt import Relocation, R_RELATIVE
        # Data slot holds &target (link-time); loader rebases it.
        insns = [
            I("movi", R1, 0),        # replaced: ldpc64 below
            I("syscall", 0),
        ]
        binary = assemble("x86", [
            I("ldpc64", R0, 0),      # patched
            I("syscall", 1),
            I("syscall", 0),
        ], data_sections=[(".data", 0x20000, b"\0" * 8, True)],
            kind="PIE")
        slot = 0x20000
        binary.relocations.append(Relocation(slot, R_RELATIVE, 0x1234))
        # patch the ldpc64 displacement to reach slot from BASE
        text = binary.section(".text")
        text.data[:spec.insn_length("ldpc64")] = spec.encode(
            I("ldpc64", R0, slot - BASE, addr=BASE)
        )
        res = run_binary(binary)
        from repro.machine.loader import DEFAULT_PIE_BIAS
        assert res.output == [0x1234 + DEFAULT_PIE_BIAS]

    def test_position_dependent_refuses_bias(self):
        binary = assemble("x86", [I("syscall", 0)])
        machine = machine_for(binary)
        with pytest.raises(Exception):
            machine.load(binary, bias=0x1000)


# -- the per-opcode semantics table ------------------------------------------
#
# Both execution tiers share one semantics source, so they cannot check
# each other's semantics: this table pins every mnemonic's effect with
# hand-written literals.  Each row runs one instruction at ``T`` on a
# machine whose text is otherwise filled with ``trap`` (so execution
# stops, with an "unhandled trap" fault, wherever the instruction sent
# the pc), on both engines and on every arch that supports the mnemonic.

T = 0x4000          # low enough for an ldpc below address 0 on every arch
D = 0x80000         # data area
MEM = 4 << 20       # machine_for's minimum memory size
ALL = (1 << 64) - 1
BYTES = bytes(range(0x81, 0x89))          # 81 82 83 ... 88
NEXT = "next"
PUSHES, LINKS = ("x86",), ("ppc64", "aarch64")


def op_row(name, insn, regs=None, mem=None, out_regs=None, out_mem=None,
           pc=NEXT, cycles=1, fault=None, output=(), arches=None):
    """One table row per arch that supports ``insn`` (narrowed to
    ``arches`` where the convention differs)."""
    return [
        pytest.param(arch, insn, regs or {}, mem or {}, out_regs or {},
                     out_mem or {}, pc, cycles, fault, list(output),
                     id=f"{name}-{arch}")
        for arch in ("x86", "ppc64", "aarch64")
        if get_arch(arch).supports(insn.mnemonic)
        and (arches is None or arch in arches)
    ]


OPCODE_ROWS = [param for rows in [
    op_row("nop", I("nop")),
    op_row("mov", I("mov", R1, R2), {R2: 0xDEAD}, out_regs={R1: 0xDEAD}),
    op_row("movi-negative", I("movi", R1, -2),
           out_regs={R1: 0xFFFFFFFFFFFFFFFE}),
    op_row("lis-negative", I("lis", R1, -2),
           out_regs={R1: 0xFFFFFFFFFFFE0000}),
    op_row("addis-wraps", I("addis", R1, R2, 3), {R2: ALL},
           out_regs={R1: 0x2FFFF}),
    op_row("adrp", I("adrp", R1, 2), out_regs={R1: 0x6000}),
    op_row("addi-negative", I("addi", R1, R2, -3), {R2: 1},
           out_regs={R1: 0xFFFFFFFFFFFFFFFE}),
    op_row("add-wraps", I("add", R1, R2, R3), {R2: ALL, R3: 2},
           out_regs={R1: 1}),
    op_row("sub-borrows", I("sub", R1, R2, R3), {R2: 1, R3: 2},
           out_regs={R1: ALL}),
    op_row("mul-truncates", I("mul", R1, R2, R3),
           {R2: 1 << 32, R3: (1 << 32) + 3}, out_regs={R1: 3 << 32}),
    op_row("and", I("and", R1, R2, R3), {R2: 0xFF0F, R3: 0x0FF0},
           out_regs={R1: 0x0F00}),
    op_row("or", I("or", R1, R2, R3), {R2: 0xF000, R3: 0x000F},
           out_regs={R1: 0xF00F}),
    op_row("xor", I("xor", R1, R2, R3), {R2: 0xFF00, R3: 0x0FF0},
           out_regs={R1: 0xF0F0}),
    op_row("shl-drops-high-bits", I("shl", R1, R2, R3),
           {R2: 0x8000000000000001, R3: 1}, out_regs={R1: 2}),
    op_row("shl-by-64-is-by-0", I("shl", R1, R2, R3), {R2: 5, R3: 64},
           out_regs={R1: 5}),
    op_row("shl-by-65-is-by-1", I("shl", R1, R2, R3), {R2: 5, R3: 65},
           out_regs={R1: 10}),
    op_row("shr", I("shr", R1, R2, R3), {R2: 1 << 63, R3: 63},
           out_regs={R1: 1}),
    op_row("shr-by-64-is-by-0", I("shr", R1, R2, R3), {R2: 5, R3: 64},
           out_regs={R1: 5}),
    op_row("shli", I("shli", R1, R2, 4), {R2: 0xF000000000000001},
           out_regs={R1: 0x10}),
    op_row("shli-by-64-is-by-0", I("shli", R1, R2, 64), {R2: 7},
           out_regs={R1: 7}),
    op_row("shri-is-logical", I("shri", R1, R2, 60), {R2: 1 << 63},
           out_regs={R1: 8}),
    op_row("shri-by-65-is-by-1", I("shri", R1, R2, 65), {R2: 6},
           out_regs={R1: 3}),
    op_row("inc-wraps", I("inc", R1), {R1: ALL}, out_regs={R1: 0}),
    # loads: base + displacement, little-endian, zero or sign extended
    op_row("ld8", I("ld8", R1, Mem(R2, 8)), {R2: D - 8}, {D: BYTES},
           out_regs={R1: 0x81}),
    op_row("ld16", I("ld16", R1, Mem(R2, 8)), {R2: D - 8}, {D: BYTES},
           out_regs={R1: 0x8281}),
    op_row("ld32", I("ld32", R1, Mem(R2, 8)), {R2: D - 8}, {D: BYTES},
           out_regs={R1: 0x84838281}),
    op_row("ld64", I("ld64", R1, Mem(R2, 8)), {R2: D - 8}, {D: BYTES},
           out_regs={R1: 0x8887868584838281}),
    op_row("lds8-extends-sign", I("lds8", R1, Mem(R2, 0)), {R2: D},
           {D: BYTES}, out_regs={R1: 0xFFFFFFFFFFFFFF81}),
    op_row("lds8-positive", I("lds8", R1, Mem(R2, 0)), {R2: D},
           {D: b"\x7f"}, out_regs={R1: 0x7F}),
    op_row("lds16-extends-sign", I("lds16", R1, Mem(R2, 0)), {R2: D},
           {D: BYTES}, out_regs={R1: 0xFFFFFFFFFFFF8281}),
    op_row("lds32-extends-sign", I("lds32", R1, Mem(R2, 0)), {R2: D},
           {D: BYTES}, out_regs={R1: 0xFFFFFFFF84838281}),
    op_row("load-runs-off-memory", I("ld64", R1, Mem(R2, 0)),
           {R2: MEM - 4}, pc=T, cycles=0, fault=(
               UnmappedMemoryFault, "load at 0x3ffffc (pc=0x4000)")),
    # stores truncate to their width and leave the next bytes alone
    op_row("st8-truncates", I("st8", R1, Mem(R2, 4)),
           {R1: 0x1122334455667788, R2: D - 4}, {D: b"\xee" * 9},
           out_mem={D: b"\x88" + b"\xee" * 8}),
    op_row("st16-truncates", I("st16", R1, Mem(R2, 0)),
           {R1: 0x1122334455667788, R2: D}, {D: b"\xee" * 9},
           out_mem={D: b"\x88\x77" + b"\xee" * 7}),
    op_row("st32-truncates", I("st32", R1, Mem(R2, 0)),
           {R1: 0x1122334455667788, R2: D}, {D: b"\xee" * 9},
           out_mem={D: b"\x88\x77\x66\x55" + b"\xee" * 5}),
    op_row("st64", I("st64", R1, Mem(R2, 0)),
           {R1: 0x1122334455667788, R2: D}, {D: b"\xee" * 9},
           out_mem={D: bytes.fromhex("8877665544332211ee")}),
    op_row("store-out-of-range", I("st32", R1, Mem(R2, 0)),
           {R2: 1 << 40}, pc=T, cycles=0, fault=(
               UnmappedMemoryFault,
               "store at 0x10000000000 (pc=0x4000)")),
    # pc-relative: the data sits 0x40 past the instruction
    op_row("ldpc8", I("ldpc8", R1, 0x40), out_regs={R1: 0x81}),
    op_row("ldpc16", I("ldpc16", R1, 0x40), out_regs={R1: 0x8281}),
    op_row("ldpc32", I("ldpc32", R1, 0x40), out_regs={R1: 0x84838281}),
    op_row("ldpc64", I("ldpc64", R1, 0x40),
           out_regs={R1: 0x8887868584838281}),
    op_row("ldpc-below-zero", I("ldpc64", R1, -0x8000), pc=T, cycles=0,
           fault=(UnmappedMemoryFault, "pc-relative load at -0x4000")),
    op_row("ldpc-past-memory", I("ldpc8", R1, 0x7FFFFFFF), pc=T,
           cycles=0, arches=PUSHES, fault=(
               UnmappedMemoryFault, "pc-relative load at 0x80003fff")),
    op_row("leapc", I("leapc", R1, 0x40), out_regs={R1: 0x4040}),
    # the stack
    op_row("push", I("push", R1), {R1: 0xABCD, SP: D + 16},
           out_regs={SP: D + 8},
           out_mem={D + 8: b"\xcd\xab" + bytes(6)}),
    op_row("push-wraps-and-faults", I("push", R1), {SP: 4}, pc=T,
           cycles=0, fault=(UnmappedMemoryFault,
                            "push at 0xfffffffffffffffc")),
    op_row("pop", I("pop", R1), {SP: D}, {D: BYTES},
           out_regs={R1: 0x8887868584838281, SP: D + 8}),
    op_row("pop-into-sp-keeps-the-increment", I("pop", SP), {SP: D},
           {D: BYTES}, out_regs={SP: D + 8}),
    op_row("pop-runs-off-memory", I("pop", R1), {SP: MEM - 4}, pc=T,
           cycles=0, fault=(UnmappedMemoryFault, "pop at 0x3ffffc")),
    # control flow (taken branches cost one cycle, calls/returns two)
    op_row("jmp", I("jmp", 0x10), pc=T + 0x10, cycles=2),
    op_row("jmp.s-backward", I("jmp.s", -4), pc=T - 4, cycles=2),
    op_row("beq-taken", I("beq", R1, R2, 0x10), {R1: 3, R2: 3},
           pc=T + 0x10, cycles=2),
    op_row("beq-not-taken", I("beq", R1, R2, 0x10), {R1: 3, R2: 4}),
    op_row("bne-taken", I("bne", R1, R2, 0x10), {R1: 3, R2: 4},
           pc=T + 0x10, cycles=2),
    op_row("bne-not-taken", I("bne", R1, R2, 0x10), {R1: ALL, R2: ALL}),
    op_row("blt-signed-taken", I("blt", R1, R2, 0x10), {R1: ALL, R2: 1},
           pc=T + 0x10, cycles=2),
    op_row("blt-not-taken", I("blt", R1, R2, 0x10), {R1: 1, R2: 1}),
    op_row("bge-equal-taken", I("bge", R1, R2, 0x10),
           {R1: 1 << 63, R2: 1 << 63}, pc=T + 0x10, cycles=2),
    op_row("bge-signed-not-taken", I("bge", R1, R2, 0x10),
           {R1: 1 << 63, R2: 0}),
    op_row("bgt-signed-taken", I("bgt", R1, R2, 0x10),
           {R1: (1 << 63) - 1, R2: 1 << 63}, pc=T + 0x10, cycles=2),
    op_row("bgt-signed-not-taken", I("bgt", R1, R2, 0x10),
           {R1: 1 << 63, R2: 0}),
    op_row("ble-signed-taken", I("ble", R1, R2, 0x10), {R1: ALL, R2: 0},
           pc=T + 0x10, cycles=2),
    op_row("ble-not-taken", I("ble", R1, R2, 0x10), {R1: 2, R2: 1}),
    op_row("jmpr", I("jmpr", R1), {R1: T + 0x20}, pc=T + 0x20, cycles=2),
    op_row("call-pushes", I("call", 0x20), {SP: D + 8},
           out_regs={SP: D}, out_mem={D: b"\x05\x40" + bytes(6)},
           pc=T + 0x20, cycles=3, arches=PUSHES),
    op_row("call-links", I("call", 0x20), out_regs={LR: T + 4},
           pc=T + 0x20, cycles=3, arches=LINKS),
    op_row("call-push-faults", I("call", 0x20), {SP: 4}, pc=T, cycles=0,
           arches=PUSHES, fault=(UnmappedMemoryFault,
                                 "call at 0xfffffffffffffffc")),
    op_row("callr-pushes", I("callr", R1), {R1: T + 0x20, SP: D + 8},
           out_regs={SP: D}, out_mem={D: b"\x02\x40" + bytes(6)},
           pc=T + 0x20, cycles=3, arches=PUSHES),
    op_row("callr-links", I("callr", R1), {R1: T + 0x20},
           out_regs={LR: T + 4}, pc=T + 0x20, cycles=3, arches=LINKS),
    op_row("callr-through-link-register", I("callr", LR), {LR: T + 0x20},
           out_regs={LR: T + 4}, pc=T + 4, cycles=3, arches=LINKS),
    op_row("callr-push-faults", I("callr", R1), {R1: T + 0x20, SP: 4},
           pc=T, cycles=0, arches=PUSHES, fault=(
               UnmappedMemoryFault, "callr at 0xfffffffffffffffc")),
    op_row("ret-pops", I("ret"), {SP: D}, {D: b"\x18\x40" + bytes(6)},
           out_regs={SP: D + 8}, pc=T + 0x18, cycles=3, arches=PUSHES),
    op_row("ret-links", I("ret"), {LR: T + 0x18}, pc=T + 0x18, cycles=3,
           arches=LINKS),
    op_row("ret-pop-faults", I("ret"), {SP: MEM - 4}, pc=T, cycles=0,
           arches=PUSHES, fault=(UnmappedMemoryFault, "ret at 0x3ffffc")),
    # kernel entries
    op_row("trap-unhandled", I("trap"), pc=T, cycles=0,
           fault=(MachineFault, "unhandled trap at 0x4000")),
    op_row("syscall-print", I("syscall", 1), {R0: ALL - 4}, cycles=11,
           output=[-5]),
    op_row("syscall-bad-number", I("syscall", 9), pc=T, cycles=10,
           fault=(MachineFault, "bad syscall 9 at 0x4000")),
] for param in rows]


def _run_one_opcode(arch, engine, insn, regs, mem, recorded=None):
    """Run ``insn`` at :data:`T` until it lands on a ``trap``; returns
    ``(machine, register file before, fault)``.  With a ``recorded``
    next pc, the instruction is first fused into a one-instruction
    block at :data:`T` as if that path had been recorded, so the run
    dispatches it."""
    spec = get_arch(arch)
    trap = spec.encode(I("trap").at(0))
    text = bytearray(trap * (0x80 // len(trap)))
    code = spec.encode(insn.at(T))
    text[:len(code)] = code
    text[0x40:0x48] = BYTES
    # Fill below T too, so backward branches land on traps.
    binary = Binary("op", arch, "EXEC", entry=T - 0x20)
    binary.add_section(make_alloc_section(
        ".text", T - 0x20, trap * (0x20 // len(trap)) + bytes(text),
        exec_=True))
    telemetry = EngineTelemetry() if recorded is not None else None
    machine = machine_for(binary, engine=engine, telemetry=telemetry)
    assert machine.memory.size == MEM
    machine.load(binary)
    machine.prepare_run(entry=T)
    for addr, payload in mem.items():
        machine.memory.write_bytes(addr, payload)
    for reg, value in regs.items():
        machine.cpu.regs[reg] = value
    if recorded is not None:
        cpu = machine.cpu
        cpu._build_block([(cpu._decode(T), recorded)],
                         "kernel" if insn.mnemonic in ("trap", "syscall")
                         else "cap")
    before = list(machine.cpu.regs)
    try:
        machine.cpu.run(T)
    except MachineFault as exc:
        return machine, before, exc
    raise AssertionError("the row's instruction never reached a trap")


def _recorded_paths(arch, insn, pc):
    """Next pcs to fuse ``insn`` along: the one the row takes and, for
    a conditional branch or a guarded transfer, one it does not take
    (the block then side-exits)."""
    paths = [pc]
    if insn.mnemonic in COND_BRANCH_MNEMONICS:
        taken = T + insn.operands[2]
        paths.append(T + get_arch(arch).insn_length(insn) if pc == taken
                     else taken)
    elif insn.mnemonic in ("callr", "jmpr", "ret"):
        paths.append(pc + 0x10)
    return paths


@pytest.mark.parametrize("engine", ["step", "superblock"])
@pytest.mark.parametrize(
    "arch, insn, regs, mem, out_regs, out_mem, pc, cycles, fault, output",
    OPCODE_ROWS)
def test_opcode_semantics(arch, engine, insn, regs, mem, out_regs,
                          out_mem, pc, cycles, fault, output):
    if pc == NEXT:
        pc = T + get_arch(arch).insn_length(insn)
    # The superblock tier runs the row's instruction fused: once along
    # the path the row takes and, for branches and guarded transfers,
    # once along a path it does not take.
    for recorded in ([None] if engine == "step"
                     else _recorded_paths(arch, insn, pc)):
        machine, expected_regs, exc = _run_one_opcode(
            arch, engine, insn, regs, mem, recorded)
        cpu = machine.cpu
        for reg, value in out_regs.items():
            expected_regs[reg] = value
        assert cpu.regs == expected_regs
        for addr, payload in out_mem.items():
            assert machine.memory.read_bytes(addr, len(payload)) \
                == payload
        assert cpu.pc == pc
        assert cpu.cycles == cycles
        assert machine.kernel.output == output
        if fault is None:
            assert str(exc) == f"unhandled trap at {pc:#x}"
            assert cpu.icount == 1
        else:
            kind, message = fault
            assert (type(exc), str(exc), exc.pc) == (kind, message, T)
            assert cpu.icount == 0
        if recorded is not None:
            assert list(cpu._blocks) == [T]
            assert cpu.telemetry.block_stats[T][0] == 1


def test_opcode_table_covers_every_mnemonic():
    from repro.isa.insn import OPERAND_KINDS
    covered = {param.values[1].mnemonic for param in OPCODE_ROWS}
    assert covered == set(OPERAND_KINDS)


class TestCodeGeneration:
    def test_compile_once_per_opcode_and_once_per_block(
            self, monkeypatch, fuse_on_first_entry):
        # The per-step tier compiles each opcode's template once and
        # instantiates a function per instruction from that code object;
        # the superblock tier compiles once per fused block.  Neither
        # calls compile() per instruction.
        from repro.machine import cpu as cpu_module

        from tests.conftest import workload

        filenames = []

        def counting_compile(source, filename, mode):
            filenames.append(filename)
            return compile(source, filename, mode)

        monkeypatch.setattr(cpu_module, "_STEP_CODE", {})
        monkeypatch.setattr(cpu_module, "compile", counting_compile,
                            raising=False)
        binary = workload("602.sgcc_s", "x86")[1]

        machine = machine_for(binary, engine="step")
        machine.load(binary)
        machine.run()
        cpu = machine.cpu
        opcodes = {insn.mnemonic for insn in cpu._insns.values()}
        assert sorted(filenames) == sorted(f"<step {m}>" for m in opcodes)
        assert len(cpu._compiled) > 10 * len(filenames)

        filenames.clear()
        telemetry = EngineTelemetry()
        machine = machine_for(binary, engine="superblock",
                              telemetry=telemetry)
        machine.load(binary)
        machine.run()
        # Cold code reuses the opcode code objects compiled above.
        assert filenames
        assert all(name.startswith("<superblock") for name in filenames)
        assert len(filenames) == len(machine.cpu._blocks)
        assert telemetry.dispatches > len(filenames)
