"""CFG data structures.

Matches the paper's Section 4.1 definitions: a CFG is ⟨B, E, F⟩ with
basic blocks as address ranges ``[start, end)`` that have incoming control
flow only at ``start`` and at most one control-flow instruction at the
end; F is the set of function entry blocks.
"""

import bisect

# Edge kinds.
FALLTHROUGH = "fallthrough"
BRANCH = "branch"              # direct jump / taken conditional
CALL_FALLTHROUGH = "call_ft"   # continuation after a call returns
JUMP_TABLE = "jump_table"      # resolved indirect-jump target
TAIL_CALL = "tail_call"        # inter-procedural jump (direct or indirect)
LANDING_PAD = "landing_pad"    # entered by the unwinder (catch block)


class BasicBlock:
    """One basic block: decoded instructions over ``[start, end)``."""

    __slots__ = ("start", "end", "insns", "succs", "preds", "function")

    def __init__(self, start, insns, function):
        self.start = start
        self.insns = insns
        self.end = insns[-1].addr + insns[-1].length if insns else start
        self.succs = []   # (kind, target_addr)
        self.preds = []   # (kind, src_block_start)
        self.function = function

    @property
    def size(self):
        return self.end - self.start

    @property
    def terminator(self):
        return self.insns[-1] if self.insns else None

    def contains(self, addr):
        return self.start <= addr < self.end

    def __repr__(self):
        return (
            f"<Block [{self.start:#x},{self.end:#x}) "
            f"{len(self.insns)} insns in {self.function}>"
        )


class JumpTable:
    """A resolved jump table (analysis output, input to cloning)."""

    def __init__(self, dispatch_addr, table_addr, entry_size, count,
                 tar_kind, tar_base, signed, index_reg, seq_start,
                 targets, shift=0):
        #: address of the indirect jump instruction
        self.dispatch_addr = dispatch_addr
        #: address of the first table entry
        self.table_addr = table_addr
        #: bytes per entry (1, 2, 4 or 8)
        self.entry_size = entry_size
        #: number of entries the analysis believes the table has
        self.count = count
        #: target expression tar(x): "base_plus" -> base + x;
        #: "base_plus_shifted" -> base + (x << shift)
        self.tar_kind = tar_kind
        self.tar_base = tar_base
        self.shift = shift
        self.signed = signed
        #: register holding the raw index at seq_start
        self.index_reg = index_reg
        #: address of the first instruction of the dispatch sequence
        #: (table-base materialization); the rewriter re-emits
        #: [seq_start, dispatch_addr] against the cloned table
        self.seq_start = seq_start
        #: resolved target addresses, one per entry
        self.targets = targets

    def tar(self, x):
        """Evaluate the target expression for an entry value ``x``."""
        if self.tar_kind == "base_plus":
            return self.tar_base + x
        if self.tar_kind == "base_plus_shifted":
            return self.tar_base + (x << self.shift)
        raise ValueError(f"unknown tar kind {self.tar_kind}")

    def solve(self, y, base=None):
        """Solve tar(x) = y for x (optionally against a new base)."""
        b = self.tar_base if base is None else base
        if self.tar_kind == "base_plus":
            return y - b
        if self.tar_kind == "base_plus_shifted":
            delta = y - b
            if delta % (1 << self.shift):
                raise ValueError(
                    f"target {y:#x} not representable with shift "
                    f"{self.shift}"
                )
            return delta >> self.shift
        raise ValueError(f"unknown tar kind {self.tar_kind}")

    def __repr__(self):
        return (
            f"<JumpTable @{self.table_addr:#x} x{self.count} "
            f"entry={self.entry_size}B dispatch={self.dispatch_addr:#x}>"
        )


class FunctionCFG:
    """CFG of one function."""

    def __init__(self, name, entry, range_end=None):
        self.name = name
        self.entry = entry
        self.range_end = range_end   # from the symbol table, may be None
        self.blocks = {}             # start addr -> BasicBlock
        self.call_sites = []         # (insn addr, direct call target)
        self.tail_targets = set()    # direct tail-call target entries
        self.jump_tables = []        # resolved JumpTable objects
        self.indirect_tail_call_sites = []   # jmpr addrs deemed tail calls
        self.landing_pad_blocks = set()      # block starts entered by unwind
        self.failed = None           # reason string when analysis failed
        self.is_runtime_support = False

    @property
    def ok(self):
        return self.failed is None

    def add_block(self, block):
        self.blocks[block.start] = block

    def sorted_blocks(self):
        return [self.blocks[a] for a in sorted(self.blocks)]

    def block_at(self, addr):
        """The block containing ``addr`` (not necessarily at its start)."""
        starts = sorted(self.blocks)
        idx = bisect.bisect_right(starts, addr) - 1
        if idx >= 0:
            block = self.blocks[starts[idx]]
            if block.contains(addr):
                return block
        return None

    def split_block(self, addr):
        """Split the block containing ``addr`` at an instruction boundary.

        Returns the new (second) block, or None when ``addr`` already is
        a block start or is not an instruction boundary inside any block.
        Used for over-approximated incoming edges (Section 4.3) and for
        known mid-block landing points such as Go's entry+1 pointers.
        """
        if addr in self.blocks:
            return None
        block = self.block_at(addr)
        if block is None:
            return None
        lower = [i for i in block.insns if i.addr < addr]
        upper = [i for i in block.insns if i.addr >= addr]
        if not lower or not upper or upper[0].addr != addr:
            return None
        b1 = BasicBlock(block.start, lower, block.function)
        b2 = BasicBlock(addr, upper, block.function)
        b1.succs = [(FALLTHROUGH, addr)]
        b1.preds = block.preds
        b2.succs = block.succs
        b2.preds = [(FALLTHROUGH, b1.start)]
        del self.blocks[block.start]
        self.add_block(b1)
        self.add_block(b2)
        return b2

    @property
    def low(self):
        return min(self.blocks) if self.blocks else self.entry

    @property
    def high(self):
        end = max((b.end for b in self.blocks.values()), default=self.entry)
        if self.range_end is not None:
            end = max(end, self.range_end)
        return end

    def __repr__(self):
        state = "ok" if self.ok else f"FAILED({self.failed})"
        return f"<FunctionCFG {self.name} @{self.entry:#x} {state}>"


class BinaryCFG:
    """Whole-binary CFG: all functions plus global lookup."""

    def __init__(self):
        self.functions = {}   # entry addr -> FunctionCFG
        self.by_name = {}
        #: entry addr -> its construction's wall seconds
        self.seconds = {}

    def add(self, fcfg):
        self.functions[fcfg.entry] = fcfg
        self.by_name[fcfg.name] = fcfg

    def __iter__(self):
        return iter(self.functions.values())

    def function_at(self, entry):
        return self.functions.get(entry)

    def sorted_functions(self):
        return [self.functions[a] for a in sorted(self.functions)]

    def ok_functions(self):
        return [f for f in self.sorted_functions() if f.ok]

    def failed_functions(self):
        return [f for f in self.sorted_functions() if not f.ok]

    def block_containing(self, addr):
        for fcfg in self.functions.values():
            block = fcfg.block_at(addr)
            if block is not None:
                return fcfg, block
        return None, None
