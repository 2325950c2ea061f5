"""Trampoline placement analysis (Section 4.2).

Given a function's CFL block set, every non-CFL block is a *scratch
block* (it can never execute once trampolines intercept all CFL blocks),
and each CFL block extends through the contiguous scratch blocks that
follow it into a *trampoline superblock* — more room for the trampoline.

The analysis also collects the three scratch-space pools of Section 7:

1. inter-function nop padding in ``.text``;
2. unused space in scratch blocks (and superblock tails);
3. the dead, renamed dynamic-linking sections (``.dynsym``/``.dynstr``/
   ``.rela_dyn`` originals) — added later by the layout pass.
"""

import bisect
from dataclasses import dataclass, field

from repro.obs import NULL_TRACER


@dataclass
class Superblock:
    """One trampoline site: the CFL block plus its scratch extension."""

    function: str
    cfl_start: int
    end: int           # extension end (exclusive)

    @property
    def size(self):
        return self.end - self.cfl_start


@dataclass
class PlacementResult:
    """All trampoline sites plus the scratch pool."""

    superblocks: list = field(default_factory=list)
    #: free (start, end) byte ranges usable for hops and long trampolines
    scratch_ranges: list = field(default_factory=list)
    #: per-function CFL sets (for reporting/tests)
    cfl_by_function: dict = field(default_factory=dict)


def place_trampolines(cfg, cfl, relocated=None, tracer=None):
    """Run the placement analysis over every relocated function, in
    address order, each function under a ``pipeline-analysis`` span."""
    tracer = tracer if tracer is not None else NULL_TRACER
    result = PlacementResult()
    relocated_set = cfl.relocated if relocated is None else relocated
    for fcfg in cfg.sorted_functions():
        if not fcfg.ok or fcfg.is_runtime_support:
            continue
        if fcfg.entry not in relocated_set:
            continue
        with tracer.span("pipeline-analysis", function=fcfg.name,
                         artifact="placement"):
            cfl_blocks = frozenset(cfl.cfl_blocks(fcfg))
            _place_in_function(fcfg, cfl_blocks, result)
        result.cfl_by_function[fcfg.name] = set(cfl_blocks)
    result.scratch_ranges.sort()
    return result


def _place_in_function(fcfg, cfl_blocks, result):
    blocks = fcfg.sorted_blocks()
    starts = [b.start for b in blocks]
    used_as_extension = set()

    # Build superblocks: extend each CFL block through the contiguous
    # scratch blocks that follow it.
    for block in blocks:
        if block.start not in cfl_blocks:
            continue
        end = block.end
        idx = bisect.bisect_right(starts, block.start)
        while idx < len(blocks):
            nxt = blocks[idx]
            if nxt.start != end or nxt.start in cfl_blocks:
                break
            used_as_extension.add(nxt.start)
            end = nxt.end
            idx += 1
        result.superblocks.append(
            Superblock(fcfg.name, block.start, end)
        )

    # Scratch blocks not consumed by a superblock join the free pool.
    for block in blocks:
        if block.start in cfl_blocks or block.start in used_as_extension:
            continue
        if block.size > 0:
            result.scratch_ranges.append((block.start, block.end))


def padding_ranges(binary, cfg, spec):
    """Inter-function nop padding in executable sections (pool source 1).

    These are the bytes between one function's end and the next
    function's aligned entry.  Every candidate gap is *verified* to
    decode to nops before it is pooled: a failed function's extent is
    underestimated (its analysis is incomplete), and treating its live
    code as scratch would corrupt the binary.
    """
    ranges = []
    functions = cfg.sorted_functions()
    for i, fcfg in enumerate(functions):
        end = fcfg.range_end if fcfg.range_end is not None else fcfg.high
        if i + 1 < len(functions):
            nxt = functions[i + 1].entry
        else:
            section = binary.section_containing(fcfg.entry)
            nxt = section.end if section is not None else end
        if nxt > end and _is_nop_run(binary, spec, end, nxt):
            ranges.append((end, nxt))
    return ranges


def _is_nop_run(binary, spec, start, end):
    cur = start
    while cur < end:
        try:
            insn = spec.decode(binary.read(cur, min(16, end - cur)), 0,
                               addr=cur)
        except Exception:
            return False
        if insn.mnemonic != "nop" or cur + insn.length > end:
            return False
        cur += insn.length
    return True
