"""The stack-unwinding runtime.

Models the two language runtimes whose unwinding the paper supports
(Section 6):

* **C++ exceptions** — :meth:`Unwinder.throw` walks call frames using the
  original binary's ``.eh_frame``-like recipes, searching each frame's
  landing-pad table for a handler.  Every PC it consults passes through
  :meth:`Kernel.translate_unwind_pc`, the model of wrapping libunwind's
  ``_ULx86_64_step`` with the RA-translation routine.

* **Go tracebacks** — :meth:`Unwinder.traceback` resolves every frame PC
  through the binary's ``pclntab``-like function table (``findfunc``);
  a PC that resolves to nothing aborts with Go's "unknown pc" fatal
  error.  PCs pass through :meth:`Kernel.translate_go_pc`, the model of
  instrumenting ``runtime.findfunc``/``runtime.pcvalue`` entries.

Both walks are the *language runtime*, not user code: they read the
emulated stack and registers but run at Python level, charging
:attr:`CostModel.unwind_frame` cycles per frame (frame unwinding is
expensive — DWARF lookups and register-state updates — which is why one
extra translation per frame is negligible, the paper's core cost
argument).
"""

from repro.binfmt.unwind import RA_IN_LR, RA_ON_STACK
from repro.isa.registers import LR, R0, SP
from repro.util.errors import UnwindError


class Unwinder:
    """DWARF-style frame walker over the emulated stack."""

    #: Engine tag surfaced in the collector's unwind events.
    engine = "dwarf"

    def __init__(self, kernel):
        self.kernel = kernel

    # -- C++ exceptions ---------------------------------------------------

    def throw(self, cpu, payload):
        """Raise an exception at ``cpu.pc``; transfers to a handler.

        Raises :class:`UnwindError` when no frame catches (std::terminate)
        or when a frame PC has no unwind recipe (broken unwind info — the
        failure rewriting without RA translation produces).
        """
        before = self.kernel.counters["unwound_frames"]
        try:
            return self._throw(cpu, payload)
        finally:
            t = cpu.telemetry
            if t is not None:
                t.unwind_event(
                    "throw", self.engine,
                    self.kernel.counters["unwound_frames"] - before,
                )

    def _throw(self, cpu, payload):
        kernel = self.kernel
        pc = kernel.translate_unwind_pc(cpu.pc, cpu)
        sp = cpu.regs[SP]
        first_frame = True
        for _ in range(4096):
            cpu.cycles += kernel.costs.unwind_frame
            kernel.counters["unwound_frames"] += 1
            # Return addresses point one past the call; the standard
            # unwinder convention looks frames up at ip-1 so a call at
            # the very end of a try region still finds its handler.
            lookup = pc if first_frame else pc - 1
            image = kernel.image_at(lookup)
            if image is None:
                raise UnwindError(
                    f"unwind pc {pc:#x} is outside every loaded image"
                )
            orig_pc = image.to_orig(lookup)
            binary = image.binary
            pad = self._find_landing_pad(binary, orig_pc)
            if pad is not None:
                cpu.pc = image.to_loaded(pad.handler)
                cpu.regs[R0] = payload
                cpu.regs[SP] = sp
                return
            recipe = binary.unwind.recipe_for(orig_pc)
            if recipe is None:
                raise UnwindError(
                    f"no unwind recipe for pc {orig_pc:#x} in {binary.name}"
                )
            ra = self._frame_return_address(cpu, sp, recipe, first_frame)
            # DWARF register rules: popping this frame restores the
            # callee-saved registers it spilled, so handler-frame locals
            # survive the throw.
            for reg, offset in recipe.saved_regs:
                cpu.regs[reg] = kernel.memory.read_int(sp + offset, 8)
            sp += recipe.frame_size
            ra = kernel.translate_unwind_pc(ra, cpu)
            if ra == 0:
                raise UnwindError("uncaught exception (std::terminate)")
            pc = ra
            first_frame = False
        raise UnwindError("unwind did not terminate (corrupt stack?)")

    # -- Go tracebacks ------------------------------------------------------

    def traceback(self, cpu):
        """Walk every frame like Go's GC/scheduler does; returns frame names.

        Raises :class:`UnwindError` ("unknown pc") when a frame PC is not
        covered by the function table.
        """
        before = self.kernel.counters["unwound_frames"]
        try:
            return self._traceback(cpu)
        finally:
            t = cpu.telemetry
            if t is not None:
                t.unwind_event(
                    "traceback", self.engine,
                    self.kernel.counters["unwound_frames"] - before,
                )

    def _traceback(self, cpu):
        kernel = self.kernel
        pc = kernel.translate_go_pc(cpu.pc, cpu)
        sp = cpu.regs[SP]
        first_frame = True
        frames = []
        for _ in range(4096):
            cpu.cycles += kernel.costs.unwind_frame
            kernel.counters["unwound_frames"] += 1
            lookup = pc if first_frame else pc - 1
            image = kernel.image_at(lookup)
            if image is None:
                raise UnwindError(f"runtime: unknown pc {pc:#x}")
            orig_pc = image.to_orig(lookup)
            binary = image.binary
            func = self._findfunc(binary, orig_pc)
            if func is None:
                raise UnwindError(
                    f"runtime: unknown pc {orig_pc:#x} in {binary.name}"
                )
            frames.append(func.name)
            recipe = binary.unwind.recipe_for(orig_pc)
            if recipe is None:
                raise UnwindError(
                    f"runtime: no frame info for pc {orig_pc:#x}"
                )
            ra = self._frame_return_address(cpu, sp, recipe, first_frame)
            sp += recipe.frame_size
            ra = kernel.translate_go_pc(ra, cpu)
            if ra == 0:
                return frames
            pc = ra
            first_frame = False
        raise UnwindError("traceback did not terminate (corrupt stack?)")

    # -- helpers ------------------------------------------------------------------

    def _frame_return_address(self, cpu, sp, recipe, first_frame):
        if recipe.ra_rule == RA_IN_LR:
            if not first_frame:
                raise UnwindError(
                    "RA-in-LR recipe in a non-innermost frame"
                )
            return cpu.regs[LR]
        if recipe.ra_rule == RA_ON_STACK:
            return self.kernel.memory.read_int(sp + recipe.ra_offset, 8)
        raise UnwindError(f"unknown ra_rule {recipe.ra_rule}")

    @staticmethod
    def _find_landing_pad(binary, orig_pc):
        for pad in binary.landing_pads:
            if pad.covers(orig_pc):
                return pad
        return None

    @staticmethod
    def _findfunc(binary, orig_pc):
        for func in binary.func_table:
            if func.covers(orig_pc):
                return func
        return None
