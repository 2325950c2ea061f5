"""ISA layer: encode/decode roundtrips, lengths, ranges, invalid bytes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import (
    ARCH_NAMES,
    get_arch,
    ILLEGAL_BYTE,
    Instruction,
    Mem,
    SIM_RANGE_SCALE,
)
from repro.isa.archspec import FixedLengthSpec, VariableLengthSpec
from repro.isa.insn import OPERAND_KINDS
from repro.isa.registers import CTR, LR, NUM_REGS, SP, TOC, reg_index, reg_name
from repro.util.errors import DecodingError, EncodingError


class TestArchRegistry:
    def test_known_arches(self):
        assert set(ARCH_NAMES) == {"x86", "ppc64", "aarch64"}

    @pytest.mark.parametrize("alias,name", [
        ("x86-64", "x86"), ("X86_64", "x86"), ("amd64", "x86"),
        ("ppc64le", "ppc64"), ("POWER9", "ppc64"), ("arm64", "aarch64"),
    ])
    def test_aliases(self, alias, name):
        assert get_arch(alias).name == name

    def test_unknown_arch(self):
        with pytest.raises(KeyError):
            get_arch("mips")

    def test_singletons(self):
        assert get_arch("x86") is get_arch("x86")


class TestRegisters:
    def test_names_roundtrip(self):
        for idx in range(NUM_REGS):
            assert reg_index(reg_name(idx)) == idx

    def test_special_registers(self):
        assert reg_name(SP) == "sp"
        assert reg_name(LR) == "lr"
        assert reg_name(TOC) == "toc"
        assert reg_name(CTR) == "ctr"


def _sample_instructions(spec):
    """One representative instruction per mnemonic the arch supports."""
    samples = {
        "mov": Instruction("mov", 1, 2),
        "movi": Instruction("movi", 3, -123456789),
        "lis": Instruction("lis", 3, -5),
        "addis": Instruction("addis", 3, TOC, 0x1234),
        "adrp": Instruction("adrp", 3, -7),
        "addi": Instruction("addi", 4, 5, -42),
        "add": Instruction("add", 1, 2, 3),
        "sub": Instruction("sub", 1, 2, 3),
        "mul": Instruction("mul", 4, 5, 6),
        "and": Instruction("and", 1, 2, 3),
        "or": Instruction("or", 1, 2, 3),
        "xor": Instruction("xor", 1, 2, 3),
        "shl": Instruction("shl", 1, 2, 3),
        "shr": Instruction("shr", 1, 2, 3),
        "shli": Instruction("shli", 1, 2, 5),
        "shri": Instruction("shri", 1, 2, 5),
        "inc": Instruction("inc", 9),
        "ld8": Instruction("ld8", 1, Mem(2, 16)),
        "ld16": Instruction("ld16", 1, Mem(2, -8)),
        "ld32": Instruction("ld32", 1, Mem(SP, 0)),
        "ld64": Instruction("ld64", 1, Mem(2, 0x100)),
        "lds8": Instruction("lds8", 1, Mem(2, 4)),
        "lds16": Instruction("lds16", 1, Mem(2, 4)),
        "lds32": Instruction("lds32", 1, Mem(2, 4)),
        "st8": Instruction("st8", 1, Mem(2, 4)),
        "st16": Instruction("st16", 1, Mem(2, 4)),
        "st32": Instruction("st32", 1, Mem(2, 4)),
        "st64": Instruction("st64", 1, Mem(SP, -16)),
        "ldpc8": Instruction("ldpc8", 1, 0x40),
        "ldpc16": Instruction("ldpc16", 1, 0x40),
        "ldpc32": Instruction("ldpc32", 1, 0x40),
        "ldpc64": Instruction("ldpc64", 1, 0x40),
        "leapc": Instruction("leapc", 1, -0x40),
        "push": Instruction("push", 5),
        "pop": Instruction("pop", 5),
        "jmp": Instruction("jmp", 0x100),
        "jmp.s": Instruction("jmp.s", -0x10),
        "beq": Instruction("beq", 1, 2, 0x20),
        "bne": Instruction("bne", 1, 2, 0x20),
        "blt": Instruction("blt", 1, 2, -0x20),
        "bge": Instruction("bge", 1, 2, 0x20),
        "bgt": Instruction("bgt", 1, 2, 0x20),
        "ble": Instruction("ble", 1, 2, 0x20),
        "jmpr": Instruction("jmpr", CTR),
        "call": Instruction("call", 0x200),
        "callr": Instruction("callr", 7),
        "ret": Instruction("ret"),
        "trap": Instruction("trap"),
        "nop": Instruction("nop"),
        "syscall": Instruction("syscall", 1),
    }
    return {m: samples[m] for m in spec.mnemonics}


class TestRoundtrip:
    def test_every_mnemonic_roundtrips(self, spec):
        for mnemonic, insn in _sample_instructions(spec).items():
            encoded = spec.encode(insn)
            decoded = spec.decode(encoded, 0, addr=0x1000)
            assert decoded == insn, mnemonic
            assert decoded.length == len(encoded)

    def test_length_matches_insn_length(self, spec):
        for insn in _sample_instructions(spec).values():
            assert len(spec.encode(insn)) == spec.insn_length(insn)

    def test_fixed_arch_all_four_bytes(self):
        for name in ("ppc64", "aarch64"):
            spec = get_arch(name)
            for insn in _sample_instructions(spec).values():
                assert len(spec.encode(insn)) == 4

    def test_x86_variable_lengths(self):
        spec = get_arch("x86")
        assert spec.insn_length("jmp.s") == 2
        assert spec.insn_length("jmp") == 5
        assert spec.insn_length("ret") == 1
        assert spec.insn_length("nop") == 1
        assert spec.insn_length("trap") == 1
        assert spec.insn_length("movi") == 10


class TestRangeEnforcement:
    def test_x86_short_jump_range(self):
        spec = get_arch("x86")
        spec.encode(Instruction("jmp.s", 0x7F))
        spec.encode(Instruction("jmp.s", -0x80))
        with pytest.raises(EncodingError):
            spec.encode(Instruction("jmp.s", 0x80))

    def test_ppc64_branch_range_is_scaled(self):
        spec = get_arch("ppc64")
        limit = (32 << 20) // SIM_RANGE_SCALE
        spec.encode(Instruction("jmp", limit - 1))
        with pytest.raises(EncodingError):
            spec.encode(Instruction("jmp", limit))

    def test_aarch64_branch_range_is_scaled(self):
        spec = get_arch("aarch64")
        limit = (128 << 20) // SIM_RANGE_SCALE
        spec.encode(Instruction("call", -limit))
        with pytest.raises(EncodingError):
            spec.encode(Instruction("call", -limit - 1))

    def test_fixed_imm16_field(self):
        spec = get_arch("ppc64")
        spec.encode(Instruction("addi", 1, 2, 0x7FFF))
        with pytest.raises(EncodingError):
            spec.encode(Instruction("addi", 1, 2, 0x8000))

    def test_branch_reaches(self, spec):
        assert spec.branch_reaches("jmp", 0x1000, 0x1100)
        far = 0x1000 + spec.pcrel_ranges["jmp"][1] + 1
        assert not spec.branch_reaches("jmp", 0x1000, far)


class TestInvalidEncodings:
    def test_unknown_mnemonic(self, spec):
        with pytest.raises(EncodingError):
            spec.encode(Instruction("bogus", 1))

    def test_wrong_operand_count(self, spec):
        with pytest.raises(EncodingError):
            spec.encode(Instruction("add", 1, 2))

    def test_illegal_byte_never_decodes(self, spec):
        with pytest.raises(DecodingError):
            spec.decode(bytes([ILLEGAL_BYTE] * 8), 0)

    def test_zero_bytes_never_decode(self, spec):
        with pytest.raises(DecodingError):
            spec.decode(b"\x00" * 8, 0)

    def test_truncated_decode(self, spec):
        encoded = spec.encode(Instruction("jmp", 0x40))
        with pytest.raises(DecodingError):
            spec.decode(encoded[:1], 0)

    @pytest.mark.parametrize("field", [1, 2, 3])
    def test_x86_register_out_of_range_never_decodes(self, field):
        # Data bytes decoded as code (a stale speculated jump target)
        # must not yield register indices past the register file.
        spec = get_arch("x86")
        raw = bytearray(spec.encode(Instruction("sub", 1, 2, 3)))
        raw[field] = NUM_REGS
        with pytest.raises(DecodingError):
            spec.decode(bytes(raw), 0)
        raw[field] = NUM_REGS - 1
        assert spec.decode(bytes(raw), 0).operands[field - 1] == \
            NUM_REGS - 1

    def test_x86_mem_base_out_of_range_never_decodes(self):
        spec = get_arch("x86")
        raw = bytearray(spec.encode(Instruction("ld64", 1, Mem(SP, 8))))
        raw[2] = 0xFF
        with pytest.raises(DecodingError):
            spec.decode(bytes(raw), 0)

    @pytest.mark.parametrize("name", ["ppc64", "aarch64"])
    @pytest.mark.parametrize("insn,shift", [
        (Instruction("add", 1, 2, 3), 21),
        (Instruction("add", 1, 2, 3), 16),
        (Instruction("add", 1, 2, 3), 11),
        (Instruction("ld64", 1, Mem(SP, 8)), 16),
    ])
    def test_fixed_register_out_of_range_never_decodes(self, name, insn,
                                                        shift):
        spec = get_arch(name)
        word = int.from_bytes(spec.encode(insn), "little")
        word = (word & ~(0x1F << shift)) | (NUM_REGS << shift)
        with pytest.raises(DecodingError):
            spec.decode(word.to_bytes(4, "little"), 0)

    def test_x86_only_mnemonics_rejected_on_fixed(self):
        for name in ("ppc64", "aarch64"):
            spec = get_arch(name)
            for m in ("push", "pop", "inc", "jmp.s", "movi"):
                assert not spec.supports(m)

    def test_fixed_only_mnemonics_rejected_on_x86(self):
        spec = get_arch("x86")
        for m in ("lis", "addis", "adrp"):
            assert not spec.supports(m)


class TestDecodeRange:
    def test_decode_stream(self, spec):
        insns = [Instruction("nop"), Instruction("add", 1, 2, 3),
                 Instruction("ret")]
        blob = spec.encode_stream(insns)
        decoded = spec.decode_range(blob, 0, len(blob), 0x2000)
        assert [d.mnemonic for d in decoded] == ["nop", "add", "ret"]
        assert decoded[0].addr == 0x2000

    def test_straddling_end_raises(self, spec):
        blob = spec.encode(Instruction("add", 1, 2, 3))
        with pytest.raises(DecodingError):
            spec.decode_range(blob, 0, len(blob) - 1, 0)


# -- property-based: any encodable instruction roundtrips -------------------

_REG = st.integers(min_value=0, max_value=NUM_REGS - 1)


def _operand_strategy(kind, fixed):
    if kind == "r":
        return _REG
    if kind == "m":
        return st.builds(Mem, _REG,
                         st.integers(-0x8000, 0x7FFF) if fixed
                         else st.integers(-(2 ** 31), 2 ** 31 - 1))
    if kind == "u":
        return st.integers(0, 255)
    # immediates: keep within the tightest field across arches
    return st.integers(-0x7F, 0x7F)


@st.composite
def _encodable(draw, arch_name):
    spec = get_arch(arch_name)
    fixed = isinstance(spec, FixedLengthSpec)
    mnemonic = draw(st.sampled_from(sorted(spec.mnemonics)))
    kinds = OPERAND_KINDS[mnemonic]
    ops = [draw(_operand_strategy(k, fixed)) for k in kinds]
    return Instruction(mnemonic, *ops)


@pytest.mark.parametrize("arch_name", ARCH_NAMES)
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_property_roundtrip(arch_name, data):
    spec = get_arch(arch_name)
    insn = data.draw(_encodable(arch_name))
    try:
        encoded = spec.encode(insn)
    except EncodingError:
        return  # out-of-range draw: fine, encoder refused
    decoded = spec.decode(encoded, 0, addr=0)
    assert decoded == insn
    assert decoded.length == len(encoded)
