"""Architecture specifications: encodings, lengths and branch ranges.

Two encoding families are modeled, mirroring the split that drives the
paper's trampoline design (Section 7):

* :class:`VariableLengthSpec` — x86-like.  One opcode byte followed by
  raw little-endian operand fields.  Instructions are 1..10 bytes long;
  there is a 2-byte short branch with a tiny range and a 5-byte branch
  with effectively unlimited range.  The rewriting hazard is *space*:
  a basic block may be too short to hold the branch you need.

* :class:`FixedLengthSpec` — ppc64le/aarch64-like.  Every instruction is
  a 4-byte bit-packed word, so there is always room for *a* branch, but
  the single-instruction branch has a limited range and long-range
  transfers need multi-instruction sequences with a scratch register.
  The rewriting hazard is *range*.

Branch-range scaling
--------------------
Real hardware ranges (±32 MB for ppc64 ``b``, ±128 MB for aarch64 ``b``)
never bind on simulation-sized binaries, so the fixed-length specs declare
ranges divided by :data:`SIM_RANGE_SCALE` (= 1024).  A simulated binary
whose sections span more than ±32 KB therefore stresses ppc64 exactly the
way a >32 MB binary stresses real ppc64, reproducing the paper's
observation that ppc64 rewriting suffers the most range pressure.
x86 ranges are real (±0x7f / ±2^31); the short-branch squeeze the paper
inherits from E9Patch appears at true scale.
"""

import struct

from repro.isa.insn import Instruction, Mem, PCREL_DISP_INDEX
from repro.isa.registers import NUM_REGS
from repro.util.errors import DecodingError, EncodingError
from repro.util.ints import fits_signed, fits_unsigned, sign_extend

#: Factor by which fixed-length architecture branch ranges are scaled down
#: so that range pressure is reproduced on simulation-sized binaries.
SIM_RANGE_SCALE = 1024

#: Byte used to fill scorched/unreachable code.  It is not a valid opcode
#: on any architecture, so executing it faults immediately.
ILLEGAL_BYTE = 0xFF


class ArchSpec:
    """Common interface of all architecture specifications."""

    #: architecture name, e.g. "x86"
    name = None
    #: fixed instruction length in bytes, or None for variable-length
    fixed_length = None
    #: mnemonics this architecture can encode
    mnemonics = frozenset()
    #: {mnemonic: (lo, hi)} inclusive byte range for PC-relative displacements
    pcrel_ranges = {}
    #: function-start alignment the toolchain uses on this architecture
    function_alignment = 16
    #: does `call` push the return address on the stack (x86) or set LR?
    call_pushes_return_address = False
    #: register conventionally reserved by the toolchain for inter-procedural
    #: scratch (veneers); None when no such convention exists.
    scratch_convention_reg = None

    # -- encoding interface ----------------------------------------------

    def encode(self, insn):
        """Encode one instruction to bytes; raises EncodingError."""
        raise NotImplementedError

    def decode(self, data, offset=0, addr=None):
        """Decode one instruction from ``data[offset:]``.

        Returns an :class:`Instruction` with ``addr`` and ``length`` set.
        Raises :class:`DecodingError` on invalid bytes.
        """
        raise NotImplementedError

    def insn_length(self, insn):
        """Length in bytes the instruction will occupy once encoded."""
        raise NotImplementedError

    def encode_stream(self, insns):
        """Encode a sequence of instructions to a single bytes object."""
        return b"".join(self.encode(i) for i in insns)

    def decode_range(self, data, start, end, base_addr):
        """Decode all instructions in ``data[start:end]``.

        ``base_addr`` is the address of ``data[start]``.  Stops with
        DecodingError if an instruction straddles ``end``.
        """
        insns = []
        offset = start
        while offset < end:
            insn = self.decode(data, offset, addr=base_addr + (offset - start))
            if offset + insn.length > end:
                raise DecodingError(
                    f"instruction at {insn.addr:#x} straddles range end"
                )
            insns.append(insn)
            offset += insn.length
        return insns

    # -- range queries used by the trampoline planner ---------------------

    def pcrel_range(self, mnemonic):
        """Inclusive (lo, hi) displacement range for a PC-relative mnemonic."""
        return self.pcrel_ranges[mnemonic]

    def branch_reaches(self, mnemonic, from_addr, to_addr):
        """Can a ``mnemonic`` branch at ``from_addr`` reach ``to_addr``?"""
        lo, hi = self.pcrel_ranges[mnemonic]
        return lo <= (to_addr - from_addr) <= hi

    def supports(self, mnemonic):
        return mnemonic in self.mnemonics

    def _check_pcrel(self, insn):
        idx = PCREL_DISP_INDEX.get(insn.mnemonic)
        if idx is None:
            return
        disp = insn.operands[idx]
        lo, hi = self.pcrel_ranges.get(insn.mnemonic, (None, None))
        if lo is not None and not (lo <= disp <= hi):
            raise EncodingError(
                f"{self.name}: displacement {disp:#x} out of range "
                f"[{lo:#x},{hi:#x}] for {insn.mnemonic}"
            )

    def __repr__(self):
        return f"<ArchSpec {self.name}>"


def _bad_reg(what, value):
    """The error for a register field that names no architectural
    register — data bytes decoded as code."""
    return DecodingError(f"{what}: register field {value} out of range")


class VariableLengthSpec(ArchSpec):
    """x86-like encoding: opcode byte + raw operand fields.

    Subclasses provide ``OPCODES: {mnemonic: (code, fmt)}`` where ``fmt``
    is a tuple of field tokens: ``r`` (register byte), ``i8/i16/i32/i64``
    (signed little-endian immediates), ``u8`` (unsigned byte), ``m32``
    (memory operand: base register byte + signed 32-bit displacement).
    """

    OPCODES = {}
    _FIELD_SIZES = {"r": 1, "i8": 1, "i16": 2, "i32": 4, "i64": 8,
                    "u8": 1, "m32": 5}
    _STRUCT = {"i8": "<b", "i16": "<h", "i32": "<i", "i64": "<q"}

    def __init__(self):
        self._by_code = {}
        self._lengths = {}
        for mnemonic, (code, fmt) in self.OPCODES.items():
            if code in self._by_code:
                raise ValueError(f"duplicate opcode {code:#x}")
            self._by_code[code] = (mnemonic, fmt)
            self._lengths[mnemonic] = 1 + sum(
                self._FIELD_SIZES[tok] for tok in fmt
            )
        self.mnemonics = frozenset(self.OPCODES)

    def insn_length(self, insn):
        mnemonic = insn if isinstance(insn, str) else insn.mnemonic
        try:
            return self._lengths[mnemonic]
        except KeyError:
            raise EncodingError(f"{self.name}: unknown mnemonic {mnemonic!r}")

    def encode(self, insn):
        try:
            code, fmt = self.OPCODES[insn.mnemonic]
        except KeyError:
            raise EncodingError(
                f"{self.name}: cannot encode mnemonic {insn.mnemonic!r}"
            )
        if len(insn.operands) != len(fmt):
            raise EncodingError(
                f"{self.name}: {insn.mnemonic} expects {len(fmt)} operands, "
                f"got {len(insn.operands)}"
            )
        self._check_pcrel(insn)
        out = bytearray([code])
        for tok, operand in zip(fmt, insn.operands):
            if tok == "r":
                if not isinstance(operand, int) or not 0 <= operand < 256:
                    raise EncodingError(f"bad register operand {operand!r}")
                out.append(operand)
            elif tok == "u8":
                if not fits_unsigned(operand, 8):
                    raise EncodingError(f"{operand} does not fit u8")
                out.append(operand)
            elif tok == "m32":
                if not isinstance(operand, Mem):
                    raise EncodingError(f"expected Mem operand, got {operand!r}")
                if not fits_signed(operand.disp, 32):
                    raise EncodingError(f"disp {operand.disp} does not fit i32")
                out.append(operand.base)
                out += struct.pack("<i", operand.disp)
            else:
                bits = int(tok[1:])
                if not fits_signed(operand, bits):
                    raise EncodingError(
                        f"{operand} does not fit signed {bits}-bit field "
                        f"of {insn.mnemonic}"
                    )
                out += struct.pack(self._STRUCT[tok], operand)
        return bytes(out)

    def decode(self, data, offset=0, addr=None):
        if offset >= len(data):
            raise DecodingError("decode past end of data")
        code = data[offset]
        try:
            mnemonic, fmt = self._by_code[code]
        except KeyError:
            raise DecodingError(f"{self.name}: invalid opcode {code:#x}")
        length = self._lengths[mnemonic]
        if offset + length > len(data):
            raise DecodingError(
                f"{self.name}: truncated {mnemonic} at offset {offset}"
            )
        pos = offset + 1
        operands = []
        for tok in fmt:
            if tok == "r":
                reg = data[pos]
                if reg >= NUM_REGS:
                    raise _bad_reg(mnemonic, reg)
                operands.append(reg)
                pos += 1
            elif tok == "u8":
                operands.append(data[pos])
                pos += 1
            elif tok == "m32":
                base = data[pos]
                if base >= NUM_REGS:
                    raise _bad_reg(mnemonic, base)
                disp = struct.unpack_from("<i", data, pos + 1)[0]
                operands.append(Mem(base, disp))
                pos += 5
            else:
                size = self._FIELD_SIZES[tok]
                value = struct.unpack_from(self._STRUCT[tok], data, pos)[0]
                operands.append(value)
                pos += size
        return Instruction(mnemonic, *operands, addr=addr, length=length)


class FixedLengthSpec(ArchSpec):
    """4-byte bit-packed encoding shared by the ppc64 and aarch64 models.

    Word layout: ``opcode`` in bits [31:26]; payload per format:

    * ``R1/R2/R3`` — registers in 5-bit fields at [25:21], [20:16], [15:11]
    * ``RI16``     — register at [25:21], signed imm16 at [15:0]
    * ``RRI16``    — registers at [25:21]/[20:16], signed imm16 at [15:0]
    * ``RM16``     — like RRI16 but operands are (reg, Mem(base, disp))
    * ``I26``      — signed imm at [25:0]
    * ``U8``       — unsigned imm at [7:0]
    * ``NONE``     — no payload
    """

    OPCODES = {}
    fixed_length = 4

    def __init__(self):
        self._by_code = {}
        for mnemonic, (code, fmt) in self.OPCODES.items():
            if not 0 <= code < 64:
                raise ValueError(f"opcode {code} out of 6-bit range")
            if code in self._by_code:
                raise ValueError(f"duplicate opcode {code:#x}")
            self._by_code[code] = (mnemonic, fmt)
        self.mnemonics = frozenset(self.OPCODES)

    def insn_length(self, insn):
        mnemonic = insn if isinstance(insn, str) else insn.mnemonic
        if mnemonic not in self.OPCODES:
            raise EncodingError(f"{self.name}: unknown mnemonic {mnemonic!r}")
        return 4

    def _pack(self, insn, fmt):
        ops = insn.operands
        if fmt == "NONE":
            self._expect(insn, 0)
            return 0
        if fmt == "R1":
            self._expect(insn, 1)
            return self._reg(ops[0]) << 21
        if fmt == "R2":
            self._expect(insn, 2)
            return (self._reg(ops[0]) << 21) | (self._reg(ops[1]) << 16)
        if fmt == "R3":
            self._expect(insn, 3)
            return (
                (self._reg(ops[0]) << 21)
                | (self._reg(ops[1]) << 16)
                | (self._reg(ops[2]) << 11)
            )
        if fmt == "RI16":
            self._expect(insn, 2)
            return (self._reg(ops[0]) << 21) | self._imm(ops[1], 16, insn)
        if fmt == "RRI16":
            self._expect(insn, 3)
            return (
                (self._reg(ops[0]) << 21)
                | (self._reg(ops[1]) << 16)
                | self._imm(ops[2], 16, insn)
            )
        if fmt == "RM16":
            self._expect(insn, 2)
            mem = ops[1]
            if not isinstance(mem, Mem):
                raise EncodingError(f"expected Mem operand, got {mem!r}")
            return (
                (self._reg(ops[0]) << 21)
                | (self._reg(mem.base) << 16)
                | self._imm(mem.disp, 16, insn)
            )
        if fmt == "I26":
            self._expect(insn, 1)
            return self._imm(ops[0], 26, insn)
        if fmt == "U8":
            self._expect(insn, 1)
            if not fits_unsigned(ops[0], 8):
                raise EncodingError(f"{ops[0]} does not fit u8")
            return ops[0]
        raise EncodingError(f"unknown format {fmt}")

    @staticmethod
    def _expect(insn, count):
        if len(insn.operands) != count:
            raise EncodingError(
                f"{insn.mnemonic} expects {count} operands, "
                f"got {len(insn.operands)}"
            )

    @staticmethod
    def _reg(value):
        if not isinstance(value, int) or not 0 <= value < 32:
            raise EncodingError(f"bad register operand {value!r}")
        return value

    @staticmethod
    def _imm(value, bits, insn):
        if not fits_signed(value, bits):
            raise EncodingError(
                f"{value} does not fit signed {bits}-bit field "
                f"of {insn.mnemonic}"
            )
        return value & ((1 << bits) - 1)

    def encode(self, insn):
        try:
            code, fmt = self.OPCODES[insn.mnemonic]
        except KeyError:
            raise EncodingError(
                f"{self.name}: cannot encode mnemonic {insn.mnemonic!r}"
            )
        self._check_pcrel(insn)
        word = (code << 26) | self._pack(insn, fmt)
        return struct.pack("<I", word)

    def decode(self, data, offset=0, addr=None):
        if offset + 4 > len(data):
            raise DecodingError("decode past end of data")
        (word,) = struct.unpack_from("<I", data, offset)
        code = word >> 26
        try:
            mnemonic, fmt = self._by_code[code]
        except KeyError:
            raise DecodingError(f"{self.name}: invalid opcode {code:#x}")
        operands = self._unpack(word, fmt)
        return Instruction(mnemonic, *operands, addr=addr, length=4)

    #: how many leading 5-bit register fields each format uses
    _REG_FIELDS = {"R1": 1, "R2": 2, "R3": 3, "RI16": 1, "RRI16": 2,
                   "RM16": 2}

    @classmethod
    def _unpack(cls, word, fmt):
        r1 = (word >> 21) & 0x1F
        r2 = (word >> 16) & 0x1F
        r3 = (word >> 11) & 0x1F
        used = cls._REG_FIELDS.get(fmt, 0)
        if used and (r1 >= NUM_REGS
                     or used > 1 and r2 >= NUM_REGS
                     or used > 2 and r3 >= NUM_REGS):
            raise _bad_reg(fmt, max((r1, r2, r3)[:used]))
        if fmt == "NONE":
            return ()
        if fmt == "R1":
            return (r1,)
        if fmt == "R2":
            return (r1, r2)
        if fmt == "R3":
            return (r1, r2, r3)
        if fmt == "RI16":
            return (r1, sign_extend(word, 16))
        if fmt == "RRI16":
            return (r1, r2, sign_extend(word, 16))
        if fmt == "RM16":
            return (r1, Mem(r2, sign_extend(word, 16)))
        if fmt == "I26":
            return (sign_extend(word, 26),)
        if fmt == "U8":
            return (word & 0xFF,)
        raise DecodingError(f"unknown format {fmt}")
