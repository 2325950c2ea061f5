"""Flat byte-addressable memory for the emulated machine."""

import mmap

from repro.util.errors import UnmappedMemoryFault

#: Default memory size: 8 MiB, enough for SPEC-like workloads.  Large
#: workloads (the libxul-like library) ask for more.
DEFAULT_SIZE = 8 << 20


class Memory:
    """A flat byte array with bounds-checked integer accessors.

    Addresses are direct indices; images are loaded at their (possibly
    biased) virtual addresses, the stack grows down from the top.

    The bytes live in a private anonymous mapping rather than a
    ``bytearray``: untouched pages read as zero without being resident,
    so a machine costs the memory it actually uses, not its full size
    (a ``bytearray`` zero-fills, and so commits, every page up front).
    """

    __slots__ = ("data", "size")

    def __init__(self, size=DEFAULT_SIZE):
        self.size = size
        self.data = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)

    def check(self, addr, length=1):
        if addr < 0 or addr + length > self.size:
            raise UnmappedMemoryFault(
                f"access at {addr:#x} (+{length}) outside memory", pc=None
            )

    def read_bytes(self, addr, length):
        self.check(addr, length)
        return bytes(self.data[addr:addr + length])

    def write_bytes(self, addr, payload):
        self.check(addr, len(payload))
        self.data[addr:addr + len(payload)] = payload

    def read_int(self, addr, size, signed=False):
        self.check(addr, size)
        return int.from_bytes(self.data[addr:addr + size], "little",
                              signed=signed)

    def write_int(self, addr, value, size):
        self.check(addr, size)
        self.data[addr:addr + size] = (value & ((1 << (size * 8)) - 1)).to_bytes(
            size, "little"
        )

    @property
    def stack_top(self):
        """Initial stack pointer (16-byte aligned, small guard gap)."""
        return (self.size - 64) & ~0xF
