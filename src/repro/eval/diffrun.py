"""Differential execution: original vs rewritten, in lockstep.

The strongest check a rewrite can face is not a checksum but a replay:
run the original and the rewritten image side by side, force them to
agree at every point where they are supposed to agree, and stop at the
first place they do not.  The ``.reloc_map`` the rewriter embeds (one
``original block start -> relocated address`` pair per relocated block)
provides exactly those agreement points: whenever the original program
enters a relocated block, the rewritten program must enter that block's
relocated copy — possibly a few instructions later, after bouncing
through a trampoline and an instrumentation snippet, which is why the
two sides are advanced *to the next sync point* rather than instruction
by instruction.

:func:`differential_run` returns a :class:`ForensicsBundle`: whether the
images diverged, the first :class:`Divergence` (diverging block pair,
decoded instructions, output/exit/memory mismatch), the last-N block
rings of both sides, and the trampoline chain the rewritten side took on
its way to the divergence.  :func:`render_forensics` formats the bundle
for humans; ``repro diff-run`` is the CLI entry.
"""

from dataclasses import dataclass, field
from typing import Optional

from repro.core.runtime_lib import RuntimeLibrary, unpack_addr_map
from repro.machine.machine import machine_for
from repro.obs.engine import EngineTelemetry
from repro.util.errors import MachineFault, ReproError, UnwindError

#: Per-side dynamic-instruction budget for one differential run.
DEFAULT_DIFF_STEPS = 5_000_000


@dataclass
class Divergence:
    """The first observed disagreement between the two executions."""

    #: control-flow | output | exit-code | memory | fault | stall
    kind: str
    detail: str
    #: Index of the sync point at which the disagreement surfaced.
    sync_index: int
    #: What the original side did (block addr, loaded pc, instruction).
    expected: Optional[dict] = None
    #: What the rewritten side did instead.
    actual: Optional[dict] = None

    def to_dict(self):
        return {"kind": self.kind, "detail": self.detail,
                "sync_index": self.sync_index,
                "expected": self.expected, "actual": self.actual}


@dataclass
class ForensicsBundle:
    """Everything :func:`differential_run` learned."""

    diverged: bool
    divergence: Optional[Divergence]
    #: Sync points both sides agreed on before the verdict.
    syncs: int
    #: Per-side summaries: exit_code, output, cycles, icount, last_blocks.
    original: dict = field(default_factory=dict)
    rewritten: dict = field(default_factory=dict)
    #: Trampoline hops the rewritten side took, oldest first:
    #: ``[(site, kind, function), ...]`` in loaded addresses.
    tramp_chain: list = field(default_factory=list)

    def to_dict(self):
        return {
            "diverged": self.diverged,
            "divergence": self.divergence.to_dict()
            if self.divergence else None,
            "syncs": self.syncs,
            "original": self.original,
            "rewritten": self.rewritten,
            "tramp_chain": [list(t) for t in self.tramp_chain],
        }


def _describe(machine, pc):
    """Best-effort decode of the instruction at ``pc``."""
    try:
        insn = machine.spec.decode(machine.memory.data, pc, addr=pc)
    except Exception:
        return "?"
    ops = ", ".join(str(op) for op in insn.operands)
    return f"{insn.mnemonic} {ops}".strip()


def _side_summary(machine, recorder, last=16):
    cpu = machine.cpu
    return {
        "exit_code": cpu.exit_code,
        "output": list(machine.kernel.output),
        "cycles": cpu.cycles,
        "icount": cpu.icount,
        "pc": cpu.pc,
        "last_blocks": [
            {"pc": pc, "cycles": cycles,
             "region": recorder.region_of(pc)}
            for pc, cycles in recorder.last_blocks(last)
        ],
    }


class _Side:
    """One machine being single-stepped toward its next sync point."""

    def __init__(self, binary, runtime_lib, bias, step_budget, ring,
                 costs):
        # Lockstep forensics single-step via ``cpu.step()``, which
        # always runs the per-step tier; pin the engine so nothing
        # about this machine ever dispatches fused superblocks.
        self.machine = machine_for(binary, costs=costs, engine="step")
        self.image = self.machine.load(binary, bias)
        if runtime_lib is not None:
            self.machine.install_runtime(runtime_lib, self.image)
        self.machine.prepare_run(self.image)
        # Unattached: a block ring plus a region lookup, fed by hand.
        self.recorder = EngineTelemetry(ring_size=ring)
        self.recorder.observe_image(self.image)
        self.budget = step_budget
        #: loaded pc -> original-space sync address
        self.sync = {}
        #: loaded trampoline-site addr -> (kind, function); rew side only
        self.tramp_sites = {}
        self.chain = []

    def advance(self):
        """Run to the next sync point.  Returns one of
        ``("sync", orig_addr)``, ``("exit", None)``,
        ``("fault", exc)``, ``("stall", None)``."""
        cpu = self.machine.cpu
        sync = self.sync
        tramps = self.tramp_sites
        recorder = self.recorder
        while cpu.running:
            if self.budget <= 0:
                return ("stall", None)
            self.budget -= 1
            if tramps and cpu.pc in tramps:
                site = cpu.pc
                self.chain.append((site,) + tramps[site])
            try:
                cpu.step()
            except (MachineFault, UnwindError) as exc:
                return ("fault", exc)
            pc = cpu.pc
            orig = sync.get(pc)
            if orig is not None:
                recorder.record_block(pc, cpu.cycles)
                return ("sync", orig)
        return ("exit", None)


def differential_run(original, rewritten, runtime_lib=None, ring=64,
                     max_steps=DEFAULT_DIFF_STEPS, bias=None, costs=None):
    """Execute ``original`` and ``rewritten`` in lockstep; returns a
    :class:`ForensicsBundle` describing the first divergence (if any).

    ``rewritten`` must carry the ``.reloc_map`` section the rewriters
    emit; ``runtime_lib`` defaults to the one packed into the rewritten
    binary's own sections.
    """
    reloc_section = rewritten.get_section(".reloc_map")
    if reloc_section is None:
        raise ReproError(
            f"{rewritten.name} has no .reloc_map section; rewrite it "
            "with this tree's rewriters to enable differential runs"
        )
    reloc_map = unpack_addr_map(bytes(reloc_section.data))
    if runtime_lib is None and "rewrite" in rewritten.metadata:
        runtime_lib = RuntimeLibrary.from_binary(rewritten)

    orig_side = _Side(original, None, bias, max_steps, ring, costs)
    rew_side = _Side(rewritten, runtime_lib, bias, max_steps, ring,
                     costs)

    bias_o = orig_side.image.bias
    bias_r = rew_side.image.bias
    orig_side.sync = {start + bias_o: start for start in reloc_map}
    rew_side.sync = {relocated + bias_r: start
                     for start, relocated in reloc_map.items()}
    info = rewritten.metadata.get("rewrite", {})
    rew_side.tramp_sites = {
        site + bias_r: (kind, function)
        for site, kind, function in info.get("trampoline_sites", ())
    }

    # When the rewritten entry still points at the original entry (the
    # incremental and instruction-patching rewriters keep it there, in
    # front of a trampoline), the rewritten side crosses one extra sync
    # point — the relocated entry block — that the original side never
    # reports, because sync membership is only checked *after* a step.
    # Consume it before the lockstep loop.
    syncs = 0
    if (rewritten.entry == original.entry
            and original.entry in reloc_map):
        status, value = rew_side.advance()
        if status != "sync" or value != original.entry:
            return _verdict(
                orig_side, rew_side, syncs,
                Divergence(
                    kind="control-flow",
                    detail="rewritten prologue never reached the "
                           "relocated entry block",
                    sync_index=0,
                    expected={"orig": original.entry},
                    actual=_arm_info(rew_side, status, value),
                ),
            )

    checked_output = 0
    while True:
        so, vo = orig_side.advance()
        sr, vr = rew_side.advance()

        if so == "sync" and sr == "sync":
            if vo != vr:
                return _verdict(
                    orig_side, rew_side, syncs,
                    Divergence(
                        kind="control-flow",
                        detail="the two executions entered different "
                               "blocks",
                        sync_index=syncs,
                        expected=_block_info(orig_side, vo, bias_o),
                        actual=_block_info(rew_side, vr, bias_o,
                                           reloc_map, bias_r),
                    ),
                )
            syncs += 1
        elif so == "exit" and sr == "exit":
            pass
        else:
            return _verdict(
                orig_side, rew_side, syncs,
                Divergence(
                    kind="fault" if "fault" in (so, sr)
                    else "stall" if "stall" in (so, sr)
                    else "control-flow",
                    detail=f"original {_arm_text(so, vo)}; "
                           f"rewritten {_arm_text(sr, vr)}",
                    sync_index=syncs,
                    expected=_arm_info(orig_side, so, vo),
                    actual=_arm_info(rew_side, sr, vr),
                ),
            )

        out_o = orig_side.machine.kernel.output
        out_r = rew_side.machine.kernel.output
        common = min(len(out_o), len(out_r))
        if out_o[checked_output:common] != out_r[checked_output:common]:
            idx = next(i for i in range(checked_output, common)
                       if out_o[i] != out_r[i])
            return _verdict(
                orig_side, rew_side, syncs,
                Divergence(
                    kind="output",
                    detail=f"output item {idx} differs",
                    sync_index=syncs,
                    expected={"value": out_o[idx]},
                    actual={"value": out_r[idx]},
                ),
            )
        checked_output = common

        if so == "exit":
            break

    divergence = _compare_final(orig_side, rew_side, syncs, original,
                                bias_o, bias_r)
    return _verdict(orig_side, rew_side, syncs, divergence)


def _compare_final(orig_side, rew_side, syncs, original, bias_o, bias_r):
    """Both sides exited: compare exit codes, full output, and the
    writable memory of the original's data sections."""
    cpu_o = orig_side.machine.cpu
    cpu_r = rew_side.machine.cpu
    if cpu_o.exit_code != cpu_r.exit_code:
        return Divergence(
            kind="exit-code",
            detail="exit codes differ",
            sync_index=syncs,
            expected={"exit_code": cpu_o.exit_code},
            actual={"exit_code": cpu_r.exit_code},
        )
    out_o = orig_side.machine.kernel.output
    out_r = rew_side.machine.kernel.output
    if out_o != out_r:
        return Divergence(
            kind="output",
            detail=f"output lengths differ "
                   f"({len(out_o)} vs {len(out_r)})",
            sync_index=syncs,
            expected={"length": len(out_o)},
            actual={"length": len(out_r)},
        )
    mem_o = orig_side.machine.memory.data
    mem_r = rew_side.machine.memory.data
    for section in original.alloc_sections():
        if not section.is_writable:
            continue
        size = section.size
        lo_o = section.addr + bias_o
        lo_r = section.addr + bias_r
        a = bytes(mem_o[lo_o:lo_o + size])
        b = bytes(mem_r[lo_r:lo_r + size])
        if a != b:
            off = next(i for i in range(size) if a[i] != b[i])
            return Divergence(
                kind="memory",
                detail=f"writable section {section.name} differs at "
                       f"{section.addr + off:#x}",
                sync_index=syncs,
                expected={"addr": section.addr + off, "byte": a[off]},
                actual={"addr": section.addr + off, "byte": b[off]},
            )
    return None


def _block_info(side, orig_addr, bias_o, reloc_map=None, bias_r=None):
    """Describe one side's sync block (orig-space addr + loaded pc +
    decoded instruction)."""
    pc = side.machine.cpu.pc
    return {"orig": orig_addr, "loaded": pc,
            "insn": _describe(side.machine, pc)}


def _arm_info(side, status, value):
    cpu = side.machine.cpu
    if status == "sync":
        return {"status": status, "orig": value, "loaded": cpu.pc,
                "insn": _describe(side.machine, cpu.pc)}
    if status == "fault":
        return {"status": status, "error": str(value), "loaded": cpu.pc}
    if status == "exit":
        return {"status": status, "exit_code": cpu.exit_code}
    return {"status": status, "loaded": cpu.pc}


def _arm_text(status, value):
    if status == "sync":
        return f"reached block {value:#x}"
    if status == "fault":
        return f"faulted ({value})"
    if status == "exit":
        return "exited"
    return "ran out of steps"


def _verdict(orig_side, rew_side, syncs, divergence):
    return ForensicsBundle(
        diverged=divergence is not None,
        divergence=divergence,
        syncs=syncs,
        original=_side_summary(orig_side.machine, orig_side.recorder),
        rewritten=_side_summary(rew_side.machine, rew_side.recorder),
        tramp_chain=list(rew_side.chain),
    )


def render_forensics(bundle, last_blocks=8, last_tramps=8):
    """Human-readable report for one :class:`ForensicsBundle`."""
    lines = ["differential run", "-" * 64]
    if not bundle.diverged:
        lines.append(
            f"verdict           : EQUIVALENT over {bundle.syncs} sync "
            "points"
        )
    else:
        d = bundle.divergence
        lines.append(f"verdict           : DIVERGED ({d.kind}) after "
                     f"{bundle.syncs} agreed sync points")
        lines.append(f"detail            : {d.detail}")
        for label, info in (("original", d.expected),
                            ("rewritten", d.actual)):
            if not info:
                continue
            parts = []
            for key in ("status", "orig", "loaded", "insn", "value",
                        "exit_code", "error", "addr", "byte",
                        "length"):
                if key in info and info[key] is not None:
                    val = info[key]
                    if key in ("orig", "loaded", "addr") \
                            and isinstance(val, int):
                        val = f"{val:#x}"
                    parts.append(f"{key}={val}")
            lines.append(f"  {label:<9}       : " + "  ".join(parts))
    for label, side in (("original", bundle.original),
                        ("rewritten", bundle.rewritten)):
        lines.append(
            f"{label:<9} state   : exit={side['exit_code']} "
            f"outputs={len(side['output'])} cycles={side['cycles']} "
            f"icount={side['icount']} pc={side['pc']:#x}"
        )
    for label, side in (("original", bundle.original),
                        ("rewritten", bundle.rewritten)):
        blocks = side["last_blocks"][-last_blocks:]
        if blocks:
            lines.append(f"last {len(blocks)} blocks ({label}):")
            for entry in blocks:
                lines.append(
                    f"  {entry['pc']:#10x}  cyc={entry['cycles']:<10} "
                    f"{entry['region']}"
                )
    chain = bundle.tramp_chain[-last_tramps:]
    if chain:
        lines.append(f"trampoline chain (last {len(chain)}):")
        for site, kind, function in chain:
            lines.append(f"  {site:#10x}  {kind:<12} {function}")
    return "\n".join(lines)
