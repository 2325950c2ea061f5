"""The machine facade: memory + kernel + CPU + loader, ready to run."""

from dataclasses import dataclass, field
from time import perf_counter

from repro.isa import get_arch
from repro.isa.registers import LR, SP, TOC
from repro.machine.costs import CostModel
from repro.machine.cpu import CPU, DEFAULT_STEP_LIMIT
from repro.machine.kernel import Kernel
from repro.machine.loader import load_binary
from repro.machine.memory import Memory
from repro.obs import NULL_TRACER
from repro.util.ints import align_up

#: Kernel counters mirrored onto the ``machine-run`` span.
_KERNEL_COUNTERS = ("traps", "ra_translations", "dyn_translations",
                    "unwound_frames", "exceptions", "tracebacks")


@dataclass
class RunResult:
    """Everything the evaluation harness wants to know about one run."""

    exit_code: int
    output: list
    cycles: int
    icount: int
    counters: dict = field(default_factory=dict)
    transitions: int = 0
    icache_misses: int = 0
    last_traceback: list = None

    @property
    def checksum(self):
        """The program's printed output as a comparable tuple."""
        return (self.exit_code, tuple(self.output))


class Machine:
    """A single emulated machine that loads and runs binaries."""

    def __init__(self, arch, costs=None, mem_size=None,
                 step_limit=DEFAULT_STEP_LIMIT, tracer=None,
                 engine="superblock", telemetry=None):
        self.spec = get_arch(arch) if isinstance(arch, str) else arch
        self.costs = costs or CostModel.default()
        #: observability sink (:mod:`repro.obs`); a no-op by default
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.memory = Memory(mem_size) if mem_size else Memory()
        self.kernel = Kernel(self.memory, self.costs)
        self.cpu = CPU(self.memory, self.spec, self.kernel, self.costs,
                       step_limit, engine=engine)
        self.cpu.on_demote = self._on_demote
        self.images = []
        #: optional :class:`repro.obs.EngineTelemetry`; None = not
        #: observing
        self.telemetry = None
        if telemetry is not None:
            telemetry.attach(self)

    def _on_demote(self, cause):
        """Fused-tier demotions are never silent: mirror each one as a
        trace event naming the cause."""
        self.tracer.event("engine-demoted", cause=cause)

    def load(self, binary, bias=None):
        image = load_binary(binary, self.memory, bias)
        self.kernel.add_image(image)
        self.images.append(image)
        self.cpu.invalidate_code()
        if self.telemetry is not None:
            self.telemetry.observe_image(image)
        return image

    def install_runtime(self, runtime_lib, image=None):
        """LD_PRELOAD the rewriter's runtime library for ``image``."""
        if image is None:
            image = self.images[-1]
        self.kernel.install_runtime(runtime_lib, image)

    def watch_bounce(self, range_a, range_b):
        """Count control transfers between two address ranges.

        Used to measure the .text <-> .instr ping-pong the paper identifies
        as the main patching overhead (Section 3).
        """
        self.cpu.watch_regions = (range_a, range_b)

    def prepare_run(self, image=None, entry=None):
        """Set up the initial stack and registers for a run from
        ``entry`` (default: the binary's entry point); returns the
        ``(image, start)`` pair with the CPU parked at ``start``.

        :meth:`run` calls this internally; the differential runner calls
        it directly and then single-steps the CPU itself.
        """
        if image is None:
            image = self.images[0]
        binary = image.binary
        cpu = self.cpu
        cpu.regs[:] = [0] * len(cpu.regs)
        sp = self.memory.stack_top
        if self.spec.call_pushes_return_address:
            sp -= 8
            self.memory.write_int(sp, 0, 8)  # sentinel return address
        else:
            cpu.regs[LR] = 0
        cpu.regs[SP] = sp
        toc_base = binary.metadata.get("toc_base")
        if toc_base is not None:
            cpu.regs[TOC] = image.to_loaded(toc_base)
        start = entry if entry is not None else image.to_loaded(binary.entry)
        cpu.pc = start
        cpu.running = True
        return image, start

    def run(self, image=None, entry=None, step_limit=None):
        """Set up the initial stack and run from the binary entry point."""
        image, start = self.prepare_run(image, entry)
        cpu = self.cpu
        icount0, cycles0 = cpu.icount, cpu.cycles
        counters0 = dict(self.kernel.counters)
        telemetry = self.telemetry
        with self.tracer.span("machine-run",
                              arch=self.spec.name) as span:
            t0 = perf_counter() if telemetry is not None else 0.0
            try:
                exit_code = cpu.run(start, step_limit)
            finally:
                if telemetry is not None:
                    telemetry.record_run(perf_counter() - t0)
                self._record_run(span, cpu, icount0, cycles0, counters0)
        return RunResult(
            exit_code=exit_code,
            output=list(self.kernel.output),
            cycles=cpu.cycles,
            icount=cpu.icount,
            counters=dict(self.kernel.counters),
            transitions=cpu.transitions,
            icache_misses=cpu.icache_misses,
            last_traceback=self.kernel.last_traceback,
        )

    def _record_run(self, span, cpu, icount0, cycles0, counters0):
        """Mirror one run's instruction/trap/unwind tallies onto the
        trace span (deltas, so repeated runs on one machine stay
        attributable)."""
        span.count("instructions", cpu.icount - icount0)
        span.count("cycles", cpu.cycles - cycles0)
        for name in _KERNEL_COUNTERS:
            delta = self.kernel.counters.get(name, 0) \
                - counters0.get(name, 0)
            if delta:
                span.count(name, delta)


def machine_for(binary, costs=None, step_limit=DEFAULT_STEP_LIMIT,
                stack_headroom=1 << 20, tracer=None,
                engine="superblock", telemetry=None):
    """A machine sized to fit ``binary`` plus stack headroom."""
    alloc = binary.alloc_sections()
    top = max((s.end for s in alloc), default=0)
    # Leave room for a PIE bias plus the stack.
    size = align_up(top + 0x80000 + stack_headroom, 0x1000)
    size = max(size, 4 << 20)
    return Machine(binary.arch_name, costs=costs, mem_size=size,
                   step_limit=step_limit, tracer=tracer, engine=engine,
                   telemetry=telemetry)


def run_binary(binary, runtime_lib=None, costs=None, bias=None,
               step_limit=DEFAULT_STEP_LIMIT, watch_bounce=None,
               tracer=None, engine="superblock", telemetry=None):
    """Load and run a binary on a fresh machine; returns a RunResult."""
    machine = machine_for(binary, costs=costs, step_limit=step_limit,
                          tracer=tracer, engine=engine,
                          telemetry=telemetry)
    image = machine.load(binary, bias)
    if runtime_lib is not None:
        machine.install_runtime(runtime_lib, image)
    if watch_bounce is not None:
        machine.watch_bounce(*watch_bounce)
    return machine.run(image)
