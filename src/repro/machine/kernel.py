"""The OS layer: syscalls, trap (signal) delivery, runtime-library hooks.

The paper's runtime library is injected with ``LD_PRELOAD`` and provides
two services (Section 3): a trap-signal handler that redirects trap-based
trampolines, and the return-address translation routine consulted during
stack unwinding.  :meth:`Kernel.install_runtime` models the preload; the
installed object supplies the maps (see
:class:`repro.core.runtime_lib.RuntimeLibrary`).
"""

from repro.isa.registers import R0, R15
from repro.machine.unwind import Unwinder
from repro.util.errors import MachineFault
from repro.util.ints import s64

SYS_EXIT = 0
SYS_PRINT = 1
SYS_THROW = 2
SYS_GC = 3
SYS_DYNTRANS = 5


class Kernel:
    """Syscall + signal layer shared by all CPUs of a machine."""

    def __init__(self, memory, costs):
        self.memory = memory
        self.costs = costs
        self.images = []
        self.output = []
        self.runtime_lib = None
        self.unwinder = Unwinder(self)
        self.last_traceback = None
        self.counters = {
            "traps": 0,
            "ra_translations": 0,
            "dyn_translations": 0,
            "unwound_frames": 0,
            "exceptions": 0,
            "tracebacks": 0,
        }

    # -- images & runtime library ------------------------------------------

    def add_image(self, image):
        self.images.append(image)

    def image_at(self, addr):
        for image in self.images:
            if image.contains(addr):
                return image
        return None

    def install_runtime(self, runtime_lib, image):
        """Model LD_PRELOAD-injecting the runtime library for ``image``."""
        runtime_lib.attach(image)
        self.runtime_lib = runtime_lib

    # -- return-address translation hooks ------------------------------------

    def translate_unwind_pc(self, pc, cpu):
        """RA translation during C++/DWARF unwinding (wrapped step function).

        Active only when the injected runtime library wraps the unwinder;
        unmapped PCs pass through unchanged, which is how unwinding crosses
        uninstrumented binaries (Section 6).
        """
        lib = self.runtime_lib
        if lib is None or not lib.wrap_unwind:
            return pc
        cpu.cycles += self.costs.ra_translate
        self.counters["ra_translations"] += 1
        t = cpu.telemetry
        if t is not None:
            t.ra_event("cxx-unwind", pc, hit=lib.has_mapping(pc))
        return lib.translate(pc)

    def translate_go_pc(self, pc, cpu):
        """RA translation in Go's ``findfunc``/``pcvalue`` entry hooks."""
        lib = self.runtime_lib
        if lib is None or not lib.go_hooks:
            return pc
        cpu.cycles += self.costs.ra_translate
        self.counters["ra_translations"] += 1
        t = cpu.telemetry
        if t is not None:
            t.ra_event("go", pc, hit=lib.has_mapping(pc))
        return lib.translate(pc)

    # -- syscalls ----------------------------------------------------------------

    def syscall(self, cpu, num):
        cpu.cycles += self.costs.syscall
        if num == SYS_EXIT:
            cpu.exit_code = s64(cpu.regs[R0])
            cpu.running = False
        elif num == SYS_PRINT:
            self.output.append(s64(cpu.regs[R0]))
        elif num == SYS_THROW:
            self.counters["exceptions"] += 1
            self.unwinder.throw(cpu, cpu.regs[R0])
        elif num == SYS_GC:
            self.counters["tracebacks"] += 1
            self.last_traceback = self.unwinder.traceback(cpu)
        elif num == SYS_DYNTRANS:
            self._dynamic_translate(cpu)
        else:
            raise MachineFault(f"bad syscall {num} at {cpu.pc:#x}", pc=cpu.pc)

    def _dynamic_translate(self, cpu):
        """Multiverse-style dynamic translation of an indirect target.

        The baseline rewriter replaces an indirect transfer with a call to
        the translation routine; the target arrives in the scratch
        register R15 and execution resumes at the translated (relocated)
        address.
        """
        lib = self.runtime_lib
        if lib is None:
            raise MachineFault(
                "dynamic translation syscall without a runtime library",
                pc=cpu.pc,
            )
        cpu.cycles += self.costs.dyn_translate
        self.counters["dyn_translations"] += 1
        cpu.pc = lib.dynamic_lookup(cpu.regs[R15])

    # -- signals ------------------------------------------------------------------

    def handle_trap(self, cpu):
        """Deliver a trap signal: redirect via the runtime library's map."""
        lib = self.runtime_lib
        if lib is not None:
            target = lib.trap_target(cpu.pc)
            if target is not None:
                cpu.cycles += self.costs.trap
                self.counters["traps"] += 1
                cpu.pc = target
                return
        raise MachineFault(f"unhandled trap at {cpu.pc:#x}", pc=cpu.pc)
