"""Function-pointer analysis (Section 5.2).

Rewriting inter-procedural indirect control flow means rewriting
function-pointer *definitions*, and the paper's safety requirement is
strict: it is only safe when **all** definitions are identified
precisely.  This analysis therefore returns both the definitions it found
and a verdict: ``precise`` or not (with reasons).

Definition kinds found:

* **data slots** — initialized pointer cells carrying a relocation (or,
  position-dependent, an absolute value) that resolves to a function
  entry, possibly plus a small delta;
* **code constants** — address materializations in code (``movi`` /
  ``leapc`` / TOC / page pairs) that produce a function entry;
* **derived flows** — a loaded pointer adjusted by *constant* arithmetic
  and stored back to memory: the paper's Listing 1 ("entry + 1" in Go
  binaries).  The recorded delta lets the rewriter redirect the source
  slot so the runtime arithmetic lands on the matching relocated
  instruction.

Imprecision verdicts (each attributed to the function it implicates via
:attr:`FuncPtrAnalysis.imprecise_by_function`, so the rewriter can
degrade that function down the mode ladder instead of refusing the whole
binary):

* a *computed code pointer*: a value derived from a non-constant load
  flows into a stored pointer or an indirect transfer (Go's vtab
  construction — ``func-ptr`` mode fails on Docker because of these);
* pointer arithmetic with a non-constant amount;
* the same slot written with conflicting deltas.

:func:`scan_function_pointers` is the side-effect-free per-function
code scan (a pure function of the function's CFG plus the whole-binary
inputs it closes over — the entry set, text range and known data slots,
all themselves determined by the binary image).
:func:`analyze_function_pointers` runs the whole-binary data-slot scan,
then each function's code scan, merging the partial results in address
order into one :class:`FuncPtrAnalysis`.
"""

import time

from dataclasses import dataclass, field

from repro.analysis.symeval import Bin, BlockEval, Const, Input, Load
from repro.obs import NULL_TRACER
from repro.isa.insn import Mem
from repro.isa.registers import SP


@dataclass
class DataSlotDef:
    """An initialized data cell pointing at ``target`` (+ ``delta``)."""

    slot: int
    target: int
    delta: int
    reloc: object   # the Relocation entry, or None for raw init


@dataclass
class CodeConstDef:
    """A code-site materialization of a function address."""

    prov: tuple       # ("movi", addr) / ("leapc", addr) / pairs
    target: int
    delta: int


@dataclass
class DerivedFlowDef:
    """load slot -> constant arithmetic -> store (paper Listing 1)."""

    src_slot: int
    delta: int
    store_addr: int   # instruction performing the store
    dest_slot: int    # cell receiving the adjusted pointer (if constant)


@dataclass
class FuncPtrAnalysis:
    precise: bool
    data_defs: list = field(default_factory=list)
    code_defs: list = field(default_factory=list)
    derived_defs: list = field(default_factory=list)
    reasons: list = field(default_factory=list)
    #: {function name: [reasons]} — every imprecision reason attributed
    #: to the function it implicates: the function *containing* the
    #: offending construct for per-function scan reasons, the *target*
    #: function of the ambiguous slot for conflicting-delta reasons.
    #: This is what drives the rewriter's per-function degradation
    #: ladder (func-ptr -> jt -> dir -> skip) instead of a whole-binary
    #: abort.
    imprecise_by_function: dict = field(default_factory=dict)
    #: {function name: its code scan's wall seconds}
    seconds: dict = field(default_factory=dict)

    def implicate(self, function_name, reason):
        self.imprecise_by_function.setdefault(function_name,
                                              []).append(reason)

    def precision_class(self, function_name):
        """The :data:`PRECISION_CLASSES` bucket of one function's
        imprecision reasons (``"precise"`` when none implicate it) —
        the per-function precision label a rewrite record's atlas keeps."""
        return classify_precision(
            self.imprecise_by_function.get(function_name, ()))


#: Precision classes a function's pointer analysis can land in, worst
#: first.  ``classify_precision`` prefers the worst matching class when
#: a function accumulated mixed reasons, mirroring how the degradation
#: ladder treats mixed failure categories.
PRECISION_COMPUTED = "computed-pointer"
PRECISION_CONFLICT = "conflicting-delta"
PRECISION_ARITH = "nonconst-arith"
PRECISION_OTHER = "imprecise-other"
PRECISION_PRECISE = "precise"
PRECISION_CLASSES = (PRECISION_COMPUTED, PRECISION_CONFLICT,
                     PRECISION_ARITH, PRECISION_OTHER, PRECISION_PRECISE)


def classify_precision(reasons):
    """Bucket imprecision reason strings into a precision class.

    The buckets follow the verdicts this module emits (module
    docstring): runtime-built code pointers (the Go-vtab failure,
    forces ``skip``), conflicting per-slot deltas, non-constant or
    oversized pointer arithmetic, and a catch-all for anything newer
    reasons introduce.  Empty reasons mean the function is precise.
    """
    found = set()
    for reason in reasons:
        if "computed code pointer" in reason \
                or "indirect transfer" in reason:
            found.add(PRECISION_COMPUTED)
        elif "conflicting pointer deltas" in reason:
            found.add(PRECISION_CONFLICT)
        elif "non-constant amount" in reason or "large delta" in reason:
            found.add(PRECISION_ARITH)
        else:
            found.add(PRECISION_OTHER)
    for cls in PRECISION_CLASSES:
        if cls in found:
            return cls
    return PRECISION_PRECISE


@dataclass
class FunctionPtrScan:
    """One function's code-scan result, merged into a FuncPtrAnalysis."""

    code_defs: list = field(default_factory=list)
    derived_defs: list = field(default_factory=list)
    reasons: list = field(default_factory=list)


#: Maximum tolerated constant pointer adjustment (Go uses +1).
MAX_DELTA = 8


def scan_function_pointers(binary, spec, fcfg, entries, text_lo, text_hi,
                           known_slots):
    """Side-effect-free per-function pointer scan.

    Pure in its arguments: reads the function's blocks and the binary
    image, writes nothing shared.  Returns a :class:`FunctionPtrScan`.
    """
    partial = FunctionPtrScan()
    resolved_dispatches = {jt.dispatch_addr for jt in fcfg.jump_tables}
    for block in fcfg.sorted_blocks():
        _scan_block(binary, spec, block, entries, text_lo, text_hi,
                    known_slots, resolved_dispatches, partial)
    return partial


def analyze_function_pointers(binary, cfg, spec, tracer=None):
    """Whole-binary function-pointer analysis; returns FuncPtrAnalysis.

    The data-slot scan runs first (its slots feed the code scans); each
    function's code scan then runs under a ``pipeline-analysis`` span
    and merges in address order.
    """
    entries = _function_entries(binary, cfg)
    text_lo, text_hi = binary.metadata.get(
        "text_range", _text_range(binary)
    )
    tracer = tracer if tracer is not None else NULL_TRACER
    result = FuncPtrAnalysis(precise=True)
    _scan_data_slots(binary, entries, text_lo, text_hi, result)

    known_slots = frozenset(d.slot for d in result.data_defs)
    for fcfg in cfg.ok_functions():
        with tracer.span("pipeline-analysis", function=fcfg.name,
                         artifact="funcptr"):
            t0 = time.perf_counter()
            partial = scan_function_pointers(binary, spec, fcfg, entries,
                                             text_lo, text_hi, known_slots)
            result.seconds[fcfg.name] = time.perf_counter() - t0
        result.code_defs.extend(partial.code_defs)
        result.derived_defs.extend(partial.derived_defs)
        result.reasons.extend(partial.reasons)
        for reason in partial.reasons:
            result.implicate(fcfg.name, reason)

    # Conflicting deltas through one slot make redirection ambiguous.
    # The reason implicates the slot's *target* function: its entry may
    # be landed on at entry+either-delta, so that function is the one
    # the ladder must treat conservatively.
    by_slot = {d.slot: d for d in result.data_defs}
    deltas = {}
    for d in result.derived_defs:
        deltas.setdefault(d.src_slot, set()).add(d.delta)
    for slot, ds in sorted(deltas.items()):
        if len(ds) > 1:
            result.precise = False
            reason = (f"slot {slot:#x} used with conflicting pointer "
                      f"deltas {sorted(ds)}")
            result.reasons.append(reason)
            data_def = by_slot.get(slot)
            if data_def is not None:
                target_fn = cfg.function_at(data_def.target)
                if target_fn is not None:
                    result.implicate(target_fn.name, reason)
    if result.reasons:
        result.precise = False
    return result


def _function_entries(binary, cfg):
    entries = {f.entry for f in cfg}
    for sym in binary.function_symbols():
        entries.add(sym.addr)
    return entries


def _text_range(binary):
    exec_secs = binary.exec_sections()
    return (min(s.addr for s in exec_secs), max(s.end for s in exec_secs))


def _resolve_entry(value, entries, text_lo, text_hi):
    """Match a constant against a function entry (+ small delta)."""
    if not (text_lo <= value < text_hi):
        return None
    for delta in range(MAX_DELTA + 1):
        if value - delta in entries:
            return value - delta, delta
    return None


def _scan_data_slots(binary, entries, text_lo, text_hi, result):
    reloc_at = {r.where: r for r in binary.relocations}
    for reloc in binary.relocations:
        match = _resolve_entry(reloc.addend, entries, text_lo, text_hi)
        if match is not None:
            target, delta = match
            result.data_defs.append(
                DataSlotDef(reloc.where, target, delta, reloc)
            )
    # Position-dependent binaries may have pointer cells without run-time
    # relocations at all (the toolchain still records ABS64 entries, but a
    # raw scan keeps the analysis honest for hand-built binaries).
    for section in binary.alloc_sections():
        if not section.is_writable:
            continue
        for off in range(0, section.size - 7, 8):
            addr = section.addr + off
            if addr in reloc_at:
                continue
            value = int.from_bytes(section.data[off:off + 8], "little")
            match = _resolve_entry(value, entries, text_lo, text_hi)
            if match is not None:
                target, delta = match
                result.data_defs.append(
                    DataSlotDef(addr, target, delta, None)
                )


def _scan_block(binary, spec, block, entries, text_lo, text_hi,
                known_slots, resolved_dispatches, result):
    ev = BlockEval(binary, spec)
    for insn in block.insns:
        m = insn.mnemonic
        if m in ("st64",) and not _is_sp_mem(insn.operands[1]):
            value = ev.reg(insn.operands[0])
            addr_val = ev._add(ev.reg(insn.operands[1].base),
                               Const(insn.operands[1].disp))
            _classify_store(insn, value, addr_val, entries,
                            text_lo, text_hi, known_slots, result)
        elif m in ("jmpr", "callr"):
            # Resolved jump-table dispatches are intra-procedural control
            # flow, not function pointers.
            if insn.addr not in resolved_dispatches:
                value = ev.reg(insn.operands[0])
                _classify_transfer(insn, value, text_lo, text_hi, result)
        ev.step(insn)
        if m in ("movi", "leapc") or (
                m in ("addi",) and isinstance(ev.reg(insn.operands[0]),
                                              Const)):
            const = ev.reg(insn.operands[0])
            if isinstance(const, Const) and const.prov is not None:
                match = _resolve_entry(const.value, entries, text_lo,
                                       text_hi)
                if match is not None:
                    target, delta = match
                    result.code_defs.append(
                        CodeConstDef(const.prov, target, delta)
                    )


def _is_sp_mem(operand):
    return isinstance(operand, Mem) and operand.base == SP


def _classify_store(insn, value, addr_val, entries, text_lo, text_hi,
                    known_slots, result):
    """A store of a possibly-pointer value to memory."""
    dest = value_const(addr_val)
    # Derived flow: Load(slot) + constant delta.
    base, delta = _split_const_delta(value)
    if isinstance(base, Load):
        src = value_const(base.addr)
        if src is not None and src in known_slots and delta is not None:
            if 0 <= delta <= MAX_DELTA:
                result.derived_defs.append(DerivedFlowDef(
                    src_slot=src,
                    delta=delta,
                    store_addr=insn.addr,
                    dest_slot=dest if dest is not None else -1,
                ))
            else:
                result.reasons.append(
                    f"pointer arithmetic with large delta {delta} at "
                    f"{insn.addr:#x}"
                )
            return
        if src is not None and src in known_slots and delta is None:
            result.reasons.append(
                f"pointer adjusted by non-constant amount at {insn.addr:#x}"
            )
            return
    # Computed code pointer: text-base constant + loaded value (Go vtab).
    if _is_computed_code_pointer(value, text_lo, text_hi):
        result.reasons.append(
            f"computed code pointer stored at {insn.addr:#x} "
            f"(runtime-built function table)"
        )


def _classify_transfer(insn, value, text_lo, text_hi, result):
    if _is_computed_code_pointer(value, text_lo, text_hi):
        result.reasons.append(
            f"indirect transfer through computed code pointer at "
            f"{insn.addr:#x}"
        )


def _is_computed_code_pointer(value, text_lo, text_hi):
    """Const-in-text combined with a non-constant load: unanalyzable."""
    if not isinstance(value, Bin) or value.op != "+":
        return False
    parts = [value.a, value.b]
    has_text_const = any(
        isinstance(p, Const) and text_lo <= p.value < text_hi
        for p in parts
    )
    has_load = any(isinstance(p, Load) for p in parts)
    return has_text_const and has_load


def _split_const_delta(value):
    """Split value into (base_node, constant delta) when possible."""
    if isinstance(value, Load):
        return value, 0
    if isinstance(value, Bin) and value.op == "+":
        if isinstance(value.b, Const):
            return value.a, value.b.value
        if isinstance(value.a, Const):
            return value.b, value.a.value
    return value, None


def value_const(value):
    return value.value if isinstance(value, Const) else None
