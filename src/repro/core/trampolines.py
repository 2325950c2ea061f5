"""Trampoline instruction sequences and the installation planner
(Section 7, Table 2).

Per architecture:

==========  =======================================  ========  ======
arch        sequence                                 range     length
==========  =======================================  ========  ======
x86         2-byte branch (``jmp.s``)                ±128B     2B
x86         5-byte branch (``jmp``)                  ±2GB      5B
ppc64       ``b``                                    ±32KB*    4B
ppc64       ``addis/addi/mtspr tar/bctar``           ±2GB      16B
aarch64     ``b``                                    ±128KB*   4B
aarch64     ``adrp/add/br``                          ±4GB      12B
==========  =======================================  ========  ======

(*simulation-scaled, see :mod:`repro.isa.archspec`.)

All sequences are position independent: x86/aarch64 are PC-relative, the
ppc64 long form is TOC-relative.  Long forms need a scratch register from
liveness analysis; with none dead, ppc64 spills one below the stack
pointer (+8 bytes) and aarch64 falls back to a trap.  When a site is too
small for the sequence it needs, the planner uses the *multi-trampoline*
pattern: a short branch into a scratch-pool slot holding the long form.
Traps are the last resort, every one of them recorded in the trap map the
runtime library serves.
"""

import bisect
from dataclasses import dataclass, field

from repro.isa.insn import Instruction, Mem
from repro.isa.registers import CTR, SP, TOC
from repro.obs import NULL_TRACER
from repro.util.errors import RewriteError

#: Preference order for scratch registers (toolchain temporaries first).
_SCRATCH_PREFERENCE = (15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0)


@dataclass
class TrampolineRecord:
    function: str
    site: int
    target: int
    kind: str                  # direct | long | hop | save_restore | trap
    written: list = field(default_factory=list)   # (addr, nbytes)
    hop_slot: int = None


@dataclass
class TrampolineStats:
    direct: int = 0
    long: int = 0
    hop: int = 0
    save_restore: int = 0
    trap: int = 0

    @property
    def total(self):
        return self.direct + self.long + self.hop + self.save_restore \
            + self.trap

    def as_dict(self):
        return {
            "direct": self.direct,
            "long": self.long,
            "hop": self.hop,
            "save_restore": self.save_restore,
            "trap": self.trap,
        }


class ScratchPool:
    """Free byte ranges usable for hop slots and long trampolines."""

    def __init__(self, ranges=()):
        self.ranges = sorted(
            (int(s), int(e)) for s, e in ranges if e > s
        )

    def add(self, start, end):
        if end > start:
            bisect.insort(self.ranges, (start, end))

    def total_free(self):
        return sum(e - s for s, e in self.ranges)

    def take(self, size, lo=None, hi=None):
        """Carve ``size`` bytes from a range within [lo, hi); returns the
        slot address or None."""
        for i, (start, end) in enumerate(self.ranges):
            slot = start if lo is None else max(start, lo)
            if slot + size > end:
                continue
            if hi is not None and slot + size > hi:
                continue
            # Carve [slot, slot+size) out of [start, end).
            del self.ranges[i]
            if slot > start:
                bisect.insort(self.ranges, (start, slot))
            if slot + size < end:
                bisect.insort(self.ranges, (slot + size, end))
            return slot
        return None


def catalog(spec):
    """Table 2 rows for one architecture (for the bench that regenerates
    it): list of (description, range, length_bytes)."""
    if spec.name == "x86":
        return [
            ("2-byte branch", spec.pcrel_ranges["jmp.s"][1] + 1, 2),
            ("5-byte branch", spec.pcrel_ranges["jmp"][1] + 1, 5),
        ]
    if spec.name == "ppc64":
        return [
            ("b", spec.pcrel_ranges["jmp"][1] + 1, 4),
            ("addis reg, r2, off@high; addi reg, reg, off@low; "
             "mtspr tar, reg; bctar", 1 << 31, 16),
        ]
    if spec.name == "aarch64":
        return [
            ("b", spec.pcrel_ranges["jmp"][1] + 1, 4),
            ("adrp reg, off@high; add reg, reg, off@low; br reg",
             1 << 31, 12),
        ]
    raise KeyError(spec.name)


class TrampolineInstaller:
    """Plans and writes trampolines into the (output) binary's .text."""

    def __init__(self, out_binary, spec, pool, toc_base=None,
                 pool_leftovers=True, tracer=None):
        self.binary = out_binary
        self.spec = spec
        self.pool = pool
        self.toc_base = toc_base
        #: recycle unused superblock bytes as hop-slot space; mainstream
        #: SRBI-era rewriters lacked the scratch-block insight and do not
        self.pool_leftovers = pool_leftovers
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.records = []
        self.stats = TrampolineStats()
        self.trap_map = {}
        #: all byte ranges written (kept when scorching the original)
        self.written_ranges = []

    # -- public ----------------------------------------------------------

    def install(self, function, site, size, target, dead_regs):
        """Install one trampoline at ``site`` (a CFL block start) with
        ``size`` bytes of superblock space, aiming at ``target``."""
        if self.spec.name == "x86":
            record = self._install_x86(function, site, size, target)
        else:
            record = self._install_fixed(function, site, size, target,
                                         dead_regs)
        self.records.append(record)
        setattr(self.stats, record.kind,
                getattr(self.stats, record.kind) + 1)
        self.tracer.count("trampolines." + record.kind)
        used_at_site = sum(n for addr, n in record.written if addr == site)
        if self.pool_leftovers and site + used_at_site < site + size:
            # Superblock tail: back into the pool for other sites' hops.
            leftover = size - used_at_site
            self.pool.add(site + used_at_site, site + size)
            self.tracer.count("scratch.recycled_bytes", leftover)
            self.tracer.event(
                "superblock-recycled",
                function=function, site=site, bytes=leftover,
            )
        return record

    # -- x86 -----------------------------------------------------------------

    def _install_x86(self, function, site, size, target):
        long_len = 5
        if size >= long_len:
            self._write_insn(site, Instruction("jmp", target - site))
            return self._record(function, site, target, "long",
                                [(site, long_len)])
        if size >= 2:
            lo, hi = self.spec.pcrel_ranges["jmp.s"]
            slot = self.pool.take(long_len, lo=site + lo,
                                  hi=site + hi + 1)
            if slot is not None:
                self._write_insn(site, Instruction("jmp.s", slot - site))
                self._write_insn(slot, Instruction("jmp", target - slot))
                return self._record(
                    function, site, target, "hop",
                    [(site, 2), (slot, long_len)], hop_slot=slot,
                )
        return self._install_trap(function, site, target)

    # -- fixed-length architectures ----------------------------------------------

    def _long_sequence(self, at, target, reg):
        """The Table 2 long trampoline starting at ``at``; returns
        instruction list."""
        if self.spec.name == "ppc64":
            offset = target - self.toc_base
            lo = ((offset + 0x8000) & 0xFFFF) - 0x8000
            hi = (offset - lo) >> 16
            return [
                Instruction("addis", reg, TOC, hi),
                Instruction("addi", reg, reg, lo),
                Instruction("mov", CTR, reg),    # mtspr tar, reg
                Instruction("jmpr", CTR),        # bctar
            ]
        if self.spec.name == "aarch64":
            page_hi = (target >> 12) - (at >> 12)
            page_off = target & 0xFFF
            return [
                Instruction("adrp", reg, page_hi, addr=at),
                Instruction("addi", reg, reg, page_off),
                Instruction("jmpr", reg),
            ]
        raise RewriteError(f"no long trampoline for {self.spec.name}")

    def _save_restore_sequence(self, at, target, reg):
        """ppc64 fallback when no register is dead: spill one below SP."""
        offset = target - self.toc_base
        lo = ((offset + 0x8000) & 0xFFFF) - 0x8000
        hi = (offset - lo) >> 16
        return [
            Instruction("st64", reg, Mem(SP, -16)),
            Instruction("addis", reg, TOC, hi),
            Instruction("addi", reg, reg, lo),
            Instruction("mov", CTR, reg),
            Instruction("ld64", reg, Mem(SP, -16)),
            Instruction("jmpr", CTR),
        ]

    def _install_fixed(self, function, site, size, target, dead_regs):
        # Single-instruction branch when the range allows.
        if self.spec.branch_reaches("jmp", site, target) and size >= 4:
            self._write_insn(site, Instruction("jmp", target - site))
            return self._record(function, site, target, "direct",
                                [(site, 4)])

        scratch = self._pick_scratch(dead_regs)
        kind = "long"
        if scratch is None:
            if self.spec.name == "aarch64":
                # No dead register: aarch64 falls back to trap.
                return self._install_trap(function, site, target)
            scratch = _SCRATCH_PREFERENCE[0]
            kind = "save_restore"

        def sequence(at):
            if kind == "save_restore":
                return self._save_restore_sequence(at, target, scratch)
            return self._long_sequence(at, target, scratch)

        seq_len = len(sequence(site)) * 4
        if size >= seq_len:
            self._write_sequence(site, sequence(site))
            return self._record(function, site, target, kind,
                                [(site, seq_len)])

        # Multi-trampoline: a short branch into a scratch slot.
        lo, hi = self.spec.pcrel_ranges["jmp"]
        slot = self.pool.take(seq_len, lo=site + lo, hi=site + hi + 1)
        if slot is not None:
            self._write_insn(site, Instruction("jmp", slot - site))
            self._write_sequence(slot, sequence(slot))
            return self._record(
                function, site, target, "hop",
                [(site, 4), (slot, seq_len)], hop_slot=slot,
            )
        return self._install_trap(function, site, target)

    # -- shared -----------------------------------------------------------------------

    def _pick_scratch(self, dead_regs):
        dead = set(dead_regs)
        for reg in _SCRATCH_PREFERENCE:
            if reg in dead:
                return reg
        return None

    def _install_trap(self, function, site, target):
        insn = Instruction("trap")
        length = self.spec.insn_length(insn)
        self._write_insn(site, insn)
        self.trap_map[site] = target
        self.tracer.event("trap-installed", function=function,
                          site=site, target=target)
        return self._record(function, site, target, "trap",
                            [(site, length)])

    def _write_insn(self, addr, insn):
        encoded = self.spec.encode(insn.at(addr))
        self.binary.write(addr, encoded)
        self.written_ranges.append((addr, addr + len(encoded)))

    def _write_sequence(self, addr, insns):
        cur = addr
        for insn in insns:
            encoded = self.spec.encode(insn.at(cur))
            self.binary.write(cur, encoded)
            cur += len(encoded)
        self.written_ranges.append((addr, cur))

    def _record(self, function, site, target, kind, written,
                hop_slot=None):
        return TrampolineRecord(function, site, target, kind,
                                written, hop_slot)
