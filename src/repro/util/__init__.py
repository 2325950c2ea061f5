"""Shared utilities: errors, deterministic RNG, integer helpers."""

from repro.util.errors import (
    ReproError,
    EncodingError,
    DecodingError,
    AnalysisError,
    RewriteError,
    MachineFault,
    IllegalInstructionFault,
    UnmappedMemoryFault,
    UnwindError,
)
from repro.util.ints import (
    sign_extend,
    fits_signed,
    fits_unsigned,
    align_up,
    align_down,
    MASK64,
    u64,
    s64,
)
from repro.util.rng import DeterministicRng

__all__ = [
    "ReproError",
    "EncodingError",
    "DecodingError",
    "AnalysisError",
    "RewriteError",
    "MachineFault",
    "IllegalInstructionFault",
    "UnmappedMemoryFault",
    "UnwindError",
    "sign_extend",
    "fits_signed",
    "fits_unsigned",
    "align_up",
    "align_down",
    "MASK64",
    "u64",
    "s64",
    "DeterministicRng",
]
