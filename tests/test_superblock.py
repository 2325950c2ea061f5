"""Superblock execution tier: exact accounting, engine parity, and
trace selection.

The superblock tier must be a pure speed change: every observable —
``RunResult`` fields, per-fault ``icount``/``cycles``/``pc``, register
state at a fault, kernel counters — must match the per-step tier bit
for bit, across cost models, watch regions, rewritten binaries, and
faulting runs.  Tests of fused-tier fault recovery use the
``fuse_on_first_entry`` fixture, so their short programs fault inside
a dispatched block rather than in cold per-step code.
"""

import pytest

from repro.isa import Instruction as I, Mem, get_arch
from repro.core.runtime_lib import RuntimeLibrary
from repro.isa.registers import R0, R1, R2, R3, R10
from repro.machine import CostModel, machine_for, run_binary
from repro.machine.cpu import HOT_THRESHOLD
from repro.obs import EngineTelemetry, Tracer
from repro.util.errors import MachineFault, UnmappedMemoryFault

from tests.conftest import workload
from tests.test_machine import BASE, assemble

ENGINES = ("step", "superblock")

#: RunResult fields that must agree bit-for-bit between engines.
PARITY_FIELDS = ("checksum", "cycles", "icount", "icache_misses",
                 "transitions", "counters")

WORKLOADS = ("602.sgcc_s", "619.lbm_s", "648.exchange2_s")


@pytest.fixture(scope="module")
def workload_binaries():
    return {name: workload(name, "x86")[1] for name in WORKLOADS}


def _run_engine(binary, engine, costs=None, watch=False,
                step_limit=None, telemetry=None):
    machine = machine_for(binary, costs=costs, engine=engine,
                          telemetry=telemetry)
    image = machine.load(binary)
    if watch:
        text = binary.section(".text")
        mid = (text.addr + text.end) // 2
        machine.watch_bounce((text.addr, mid), (mid, text.end))
    result = machine.run(image, step_limit=step_limit)
    return result, machine


def assert_parity(res_a, res_b):
    for field in PARITY_FIELDS:
        assert getattr(res_a, field) == getattr(res_b, field), field


class TestEngineParity:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("config", ["default", "icache", "watch"])
    @pytest.mark.parametrize("observed", [False, True],
                             ids=["plain", "telemetry"])
    def test_workload_parity(self, workload_binaries, workload, config,
                             observed):
        binary = workload_binaries[workload]
        costs = CostModel.with_icache() if config == "icache" else None
        watch = config == "watch"
        # Telemetry must be a pure observer: the instrumented
        # superblock tier stays bit-identical to per-step execution.
        telemetry = EngineTelemetry() if observed else None
        step, _ = _run_engine(binary, "step", costs=costs, watch=watch)
        sb, machine = _run_engine(binary, "superblock", costs=costs,
                                  watch=watch, telemetry=telemetry)
        assert_parity(step, sb)
        if config == "watch":
            assert sb.transitions > 0
        if config == "icache":
            assert sb.icache_misses > 0
        if observed:
            assert telemetry.dispatches > 0
            assert telemetry.block_instructions \
                + telemetry.cold_instructions == sb.icount
            assert sum(st[2] for st in telemetry.block_stats.values()) \
                + telemetry.cold_cycles == sb.cycles

    def test_rewritten_binary_parity(self, workload_binaries):
        from repro.core import RewriteMode, rewrite_binary

        binary = workload_binaries["619.lbm_s"]
        rewritten, _, runtime = rewrite_binary(binary, RewriteMode.JT,
                                               scorch_original=True)
        results = {}
        for engine in ENGINES:
            machine = machine_for(rewritten, engine=engine)
            image = machine.load(rewritten)
            machine.install_runtime(runtime, image)
            results[engine] = machine.run(image)
        assert_parity(results["step"], results["superblock"])

    def test_cli_engine_flag_parity(self, workload_binaries):
        binary = workload_binaries["619.lbm_s"]
        by_engine = {eng: run_binary(binary, engine=eng)
                     for eng in ENGINES}
        assert_parity(by_engine["step"], by_engine["superblock"])


X86 = get_arch("x86")


def _countdown(body):
    """``body`` in a loop whose pointer ``R1`` walks 16, 8, 0 and then
    off the address space.  Under ``fuse_on_first_entry`` the first
    pass runs cold, the second is recorded and fused, and the fused
    loop faults on the fourth pass (``R1 = 2**64 - 8``)."""
    back = sum(map(X86.insn_length, body)) + X86.insn_length("addi")
    return ([I("movi", R1, 16)] + body
            + [I("addi", R1, R1, -8), I("jmp", -back), I("syscall", 0)])


def _fault_states(binary, fault=UnmappedMemoryFault, **kwargs):
    """Per engine, the machine left by a run that raises ``fault``; the
    superblock run must have dispatched a fused block."""
    machines = {}
    for engine in ENGINES:
        telemetry = EngineTelemetry() if engine == "superblock" else None
        machine = machine_for(binary, engine=engine, telemetry=telemetry,
                              **kwargs)
        machine.load(binary)
        with pytest.raises(fault):
            machine.run()
        if telemetry is not None:
            assert telemetry.dispatches > 0
        machines[engine] = machine
    return machines


@pytest.mark.usefixtures("fuse_on_first_entry")
class TestFaultAccounting:
    def test_fault_keeps_icount(self):
        # The historical bug: CPU.run raised before adding the step
        # count, so faulting runs under-reported instructions.  Both
        # tiers must report every retired instruction.
        body = [I("inc", R0), I("movi", R2, 9),
                I("ld64", R3, Mem(R1, 0))]   # faults on pass 4
        binary = assemble("x86", _countdown(body))
        fault_pc = BASE + sum(map(X86.insn_length,
                                  [I("movi", R1, 16)] + body[:2]))
        for engine, machine in _fault_states(binary).items():
            cpu = machine.cpu
            # 1 + 3 passes of 5 + the faulting pass's 2.
            assert cpu.icount == 18, engine
            assert cpu.pc == fault_pc, engine
            # The faulting load retired nothing; completed work stands.
            assert cpu.regs[R0] == 4 and cpu.regs[R2] == 9, engine

    def test_store_fault_parity(self):
        binary = assemble("x86", _countdown([
            I("movi", R0, 5), I("st64", R0, Mem(R1, 0))]))
        states = {engine: (m.cpu.icount, m.cpu.cycles, m.cpu.pc,
                           list(m.cpu.regs))
                  for engine, m in _fault_states(binary).items()}
        assert states["step"] == states["superblock"]

    def test_loop_fault_parity(self):
        # A loop trace that walks a pointer off the address space:
        # fault recovery must flush the deferred loop accounting and
        # write the frame-local registers back, matching per-step
        # execution exactly.
        insns = [
            I("movi", R1, 0x20000),
            I("ld64", R0, Mem(R1, 0)),
            I("addi", R1, R1, -8),
            I("jmp", -(X86.insn_length("ld64")
                       + X86.insn_length("addi"))),
        ]
        binary = assemble("x86", insns)
        states = {}
        for engine, machine in _fault_states(binary).items():
            cpu = machine.cpu
            states[engine] = (cpu.icount, cpu.cycles,
                              cpu.taken_branches, cpu.pc,
                              list(cpu.regs))
        assert states["step"] == states["superblock"]
        assert states["step"][0] > 3     # actually looped

    def test_step_limit_exact(self):
        binary = assemble("x86", [I("jmp", 0)])   # jmp-to-self
        states = {}
        for engine, machine in _fault_states(
                binary, MachineFault, step_limit=1000).items():
            cpu = machine.cpu
            states[engine] = (cpu.icount, cpu.cycles, cpu.pc)
            assert cpu.icount == 1000, engine
        assert states["step"] == states["superblock"]

    def test_metrics_truthful_on_fault(self):
        binary = assemble("x86", _countdown([
            I("movi", R0, 1), I("ld64", R2, Mem(R1, 0))]))
        for engine in ENGINES:
            tracer = Tracer()
            telemetry = EngineTelemetry() if engine == "superblock" \
                else None
            machine = machine_for(binary, engine=engine, tracer=tracer,
                                  telemetry=telemetry)
            machine.load(binary)
            with pytest.raises(UnmappedMemoryFault):
                machine.run()
            counted = tracer.find("machine-run").counters["instructions"]
            # 1 + 3 passes of 4 + the faulting pass's 1.
            assert counted == machine.cpu.icount == 14, engine
            if telemetry is not None:
                assert telemetry.dispatches > 0
                # Fused and cold instructions add up on a fault too.
                assert telemetry.block_instructions \
                    + telemetry.cold_instructions == 14


class TestCostModel:
    def test_insn_cost_honored_in_run(self):
        insns = [I("movi", R0, 1), I("inc", R0), I("syscall", 0)]
        binary = assemble("x86", insns)
        results = {}
        for engine in ENGINES:
            base = _run_engine(binary, engine)[0]
            triple = _run_engine(binary, engine,
                                 costs=CostModel(insn=3))[0]
            # Two extra cycles per retired instruction, nothing else.
            assert triple.cycles == base.cycles + 2 * base.icount
            results[engine] = (base.cycles, triple.cycles)
        assert results["step"] == results["superblock"]

    def test_insn_cost_honored_in_step(self):
        binary = assemble("x86", [I("movi", R0, 1), I("inc", R0),
                                  I("syscall", 0)])

        def stepped(costs):
            machine = machine_for(binary, costs=costs)
            machine.load(binary)
            machine.prepare_run()
            cpu = machine.cpu
            while cpu.running:
                cpu.step()
            return cpu.icount, cpu.cycles

        base_icount, base_cycles = stepped(CostModel.default())
        icount, cycles = stepped(CostModel(insn=3))
        assert icount == base_icount
        assert cycles == base_cycles + 2 * icount


class TestLdpcHoist:
    def test_in_range_ldpc_parity(self):
        spec = get_arch("x86")
        insns = [
            I("ldpc64", R0, 0),
            I("syscall", 1),
            I("syscall", 0),
        ]
        tail = (spec.insn_length("ldpc64")
                + spec.insn_length("syscall") * 2)
        insns[0] = I("ldpc64", R0, tail)
        binary = assemble("x86", insns)
        binary.section(".text").data.extend((4321).to_bytes(8, "little"))
        by_engine = {eng: run_binary(binary, engine=eng)
                     for eng in ENGINES}
        assert by_engine["step"].output == [4321]
        assert_parity(by_engine["step"], by_engine["superblock"])

    def test_out_of_range_ldpc_faults_identically(self):
        # The bounds check is hoisted to compile time; an
        # always-faulting ldpc must still raise the same fault with
        # the same accounting as per-step execution.
        binary = assemble("x86", [I("movi", R0, 3),
                                  I("ldpc64", R1, -(BASE + 0x1000)),
                                  I("syscall", 0)])
        states = {}
        for engine in ENGINES:
            machine = machine_for(binary, engine=engine)
            machine.load(binary)
            with pytest.raises(UnmappedMemoryFault,
                               match="pc-relative load"):
                machine.run()
            cpu = machine.cpu
            states[engine] = (cpu.icount, cpu.cycles, cpu.pc)
            assert cpu.icount == 1, engine
        assert states["step"] == states["superblock"]


def _loop(iterations, body=()):
    """Count ``R0`` down from ``iterations`` to 0 through ``body``, then
    exit: the loop head (:data:`LOOP`) is entered once per taken back
    edge, ``iterations - 1`` times."""
    back = sum(map(X86.insn_length, body)) + X86.insn_length("addi")
    return [I("movi", R0, iterations), I("movi", R1, 0), *body,
            I("addi", R0, R0, -1), I("bne", R0, R1, -back),
            I("syscall", 0)]


#: The head of every :func:`_loop`.
LOOP = BASE + 2 * X86.insn_length("movi")


@pytest.mark.usefixtures("fuse_on_first_entry")
class TestBlockCacheLifecycle:
    def _fused(self):
        binary = assemble("x86", _loop(3))
        telemetry = EngineTelemetry()
        machine = machine_for(binary, telemetry=telemetry)
        machine.load(binary)
        machine.run()
        assert telemetry.dispatches > 0
        assert machine.cpu._blocks
        return machine

    def test_invalidate_code_drops_blocks(self):
        cpu = self._fused().cpu
        cpu.invalidate_code()
        assert not cpu._blocks and not cpu._compiled

    def test_watch_region_change_drops_blocks(self):
        machine = self._fused()
        machine.watch_bounce((BASE, BASE + 8), (BASE + 8, BASE + 64))
        assert not machine.cpu._blocks


class TestObservedFusedTier:
    def test_collector_rides_superblocks(self, workload_binaries):
        binary = workload_binaries["619.lbm_s"]
        telemetry = EngineTelemetry()
        machine = machine_for(binary, telemetry=telemetry)
        machine.load(binary)
        recorded = machine.run()
        # The collector rides the fused tier: blocks are built and
        # dispatched, no demotion is counted, and results still match
        # an unobserved superblock run bit for bit.
        assert machine.cpu._blocks
        assert machine.cpu.demotions == {}
        assert telemetry.dispatches > 0
        plain, _ = _run_engine(binary, "superblock")
        assert_parity(recorded, plain)
        assert len(telemetry.ring) > 0


class TestStaleSpeculation:
    def test_guard_on_stale_register_reaches_data_bytes(
            self, fuse_on_first_entry):
        # libcuda-like variant 9: traces once speculated a ``jmpr`` on
        # the register value at trace start and fused data bytes that
        # decode as ``sub r227, r255, r255``.  Recorded traces hold
        # only what ran, and the decoder refuses register fields past
        # the register file, so the fused run stays exact.
        import dataclasses

        from repro.toolchain import interpret
        from repro.toolchain.workloads import (
            compile_program,
            generate_program,
            libcuda_spec,
        )

        spec = dataclasses.replace(libcuda_spec(),
                                   name=libcuda_spec().name + "#9",
                                   main_reps=1)
        program = generate_program(spec)
        binary = compile_program(program, "x86")
        step = run_binary(binary, engine="step")
        telemetry = EngineTelemetry()
        sb = run_binary(binary, engine="superblock", telemetry=telemetry)
        assert telemetry.dispatches > 0
        assert step == sb
        exit_code, output = interpret(program)
        assert sb.checksum == (exit_code, tuple(output))


def _observed(insns, runtime=None, engine="superblock"):
    """Run ``insns`` with engine telemetry: ``(result, machine,
    telemetry)``."""
    binary = assemble("x86", insns)
    telemetry = EngineTelemetry()
    machine = machine_for(binary, engine=engine, telemetry=telemetry)
    image = machine.load(binary)
    if runtime is not None:
        machine.install_runtime(runtime, image)
    return machine.run(image), machine, telemetry


class TestTraceSelection:
    """Heat-gated trace selection: which pcs are trace heads, when a
    head's path is fused, and what the fused guards compare against."""

    def test_loop_head_fuses_on_its_threshold_entry(self):
        _, machine, t = _observed(_loop(HOT_THRESHOLD))
        assert machine.cpu._heat == {LOOP: HOT_THRESHOLD - 1}
        assert t.compiles == 0 and t.dispatches == 0
        # Two more iterations: the threshold entry records one pass,
        # which returns to the head and closes into a loop block; the
        # last entry dispatches it.
        result, machine, t = _observed(_loop(HOT_THRESHOLD + 2))
        assert t.compiles == 1 and t.loop_blocks == 1
        assert t.ends_by_reason == {"loop": 1}
        assert list(machine.cpu._blocks) == [LOOP]
        assert t.dispatches == 1
        assert t.block_instructions + t.cold_instructions \
            == result.icount
        step, _, _ = _observed(_loop(HOT_THRESHOLD + 2), engine="step")
        assert_parity(result, step)

    def test_forward_direct_target_is_not_a_head(self):
        # A ``jmp`` forward over a nop to the latch: the latch runs
        # every iteration yet never gains heat, and the loop head fuses
        # with the jmp and the latch inside its block.
        latch = LOOP + X86.insn_length("jmp") + X86.insn_length("nop")
        insns = _loop(HOT_THRESHOLD + 2,
                      body=[I("jmp", latch - LOOP), I("nop")])
        result, machine, _ = _observed(insns)
        cpu = machine.cpu
        assert latch not in cpu._heat
        assert cpu._heat[LOOP] == HOT_THRESHOLD
        assert list(cpu._blocks) == [LOOP]
        assert cpu._blocks[LOOP][3] \
            == (LOOP, latch, latch + X86.insn_length("addi"))
        assert result.exit_code == 0

    def test_trap_landing_is_a_head(self):
        # An srbi-style trap trampoline: the trap lands *forward* of
        # itself, yet the landing gains heat on every delivery — as
        # the loop head does only on taken back edges.
        trap = LOOP + X86.insn_length("addi")
        landing = trap + X86.insn_length("trap") + X86.insn_length("movi")
        insns = [I("movi", R0, 5), I("movi", R1, 0),
                 I("addi", R0, R0, -1), I("trap"),
                 I("movi", R0, 99),                  # skipped
                 I("bne", R0, R1, LOOP - landing), I("syscall", 0)]
        runtime = RuntimeLibrary(trap_map={trap: landing})
        result, machine, t = _observed(insns, runtime)
        assert result.counters["traps"] == 5 and result.exit_code == 0
        assert machine.cpu._heat == {landing: 5, LOOP: 4}
        # Hot enough, the landing's path fuses, ending at the trap.
        insns[0] = I("movi", R0, HOT_THRESHOLD + 1)
        runtime = RuntimeLibrary(trap_map={trap: landing})
        result, machine, t = _observed(insns, runtime)
        assert landing in machine.cpu._blocks
        assert t.ends_by_reason["kernel"] >= 1
        step, _, _ = _observed(insns, RuntimeLibrary(
            trap_map={trap: landing}), engine="step")
        assert_parity(result, step)

    def test_invalidation_and_watch_change_reset_heat(self):
        binary = assemble("x86", _loop(5))
        machine = machine_for(binary)
        machine.load(binary)
        machine.run()
        cpu = machine.cpu
        assert cpu._heat == {LOOP: 4}
        cpu.invalidate_code()
        assert cpu._heat == {}
        machine.run()
        assert cpu._heat == {LOOP: 4}
        machine.watch_bounce((BASE, LOOP), (LOOP, LOOP + 64))
        assert cpu._heat == {}

    def test_guard_on_target_loaded_inside_the_trace_hits(self):
        # The callr's target register is loaded inside the loop, so
        # its value when a trace starts (0) is stale: the guard must
        # compare against the target the recorded pass took.
        leapc = X86.insn_length("leapc")
        callr = X86.insn_length("callr")
        addi = X86.insn_length("addi")
        bne = X86.insn_length("bne")
        function = LOOP + leapc + callr + addi + bne \
            + X86.insn_length("syscall")
        insns = _loop(HOT_THRESHOLD + 3, body=[
            I("leapc", R10, function - LOOP), I("callr", R10)])
        insns.append(I("ret"))
        result, _, t = _observed(insns)
        assert t.loop_blocks == 1 and t.dispatches == 1
        assert t.guard_checks >= 2 and t.guard_misses == 0
        assert {site.kind for site in t.guards.values()} \
            == {"callr", "ret"}
        step, _, _ = _observed(insns, engine="step")
        assert_parity(result, step)

    def test_spec_guard_failure_rate(self, fuse_on_first_entry):
        # 600.perlbench_s with every head fused.  Guards compare
        # against the target the recorded pass took, so sites whose
        # target holds hit; with targets read from registers at trace
        # start, every one of perlbench's guard checks missed.  Its
        # switch and function-pointer tables are visited round-robin,
        # so those sites still miss most checks.
        binary = workload("600.perlbench_s", "x86")[1]
        telemetry = EngineTelemetry()
        run_binary(binary, telemetry=telemetry)
        assert telemetry.guard_checks > 1000
        assert {site.kind for site in telemetry.guards.values()
                if site.hits} == {"callr", "jmpr", "ret"}
