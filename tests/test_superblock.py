"""Superblock execution tier: exact accounting and engine parity.

The superblock tier must be a pure speed change: every observable —
``RunResult`` fields, per-fault ``icount``/``cycles``/``pc``, register
state at a fault, kernel counters — must match the per-step tier bit
for bit, across cost models, watch regions, rewritten binaries, and
faulting runs.
"""

import pytest

from repro.isa import Instruction as I, Mem, get_arch
from repro.isa.registers import R0, R1, R2, R3
from repro.machine import CostModel, machine_for, run_binary
from repro.obs import EngineTelemetry, FlightRecorder, Metrics
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


def _run_engine(binary, engine, costs=None, watch=False, flight=None,
                step_limit=None, telemetry=None):
    machine = machine_for(binary, costs=costs, engine=engine,
                          flight=flight, telemetry=telemetry)
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
            assert telemetry.block_instructions == sb.icount

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


class TestFaultAccounting:
    def test_fault_keeps_icount(self):
        # The historical bug: CPU.run raised before adding the step
        # count, so faulting runs under-reported instructions.  Both
        # tiers must report every retired instruction.
        insns = [
            I("movi", R1, 1 << 40),
            I("movi", R0, 7),
            I("movi", R2, 9),
            I("ld64", R3, Mem(R1, 0)),   # faults: unmapped
            I("movi", R0, 0),            # never reached
            I("syscall", 0),
        ]
        binary = assemble("x86", insns)
        spec = get_arch("x86")
        fault_pc = BASE + sum(spec.insn_length(i) for i in insns[:3])
        for engine in ENGINES:
            machine = machine_for(binary, engine=engine)
            machine.load(binary)
            with pytest.raises(UnmappedMemoryFault):
                machine.run()
            cpu = machine.cpu
            assert cpu.icount == 3, engine
            assert cpu.pc == fault_pc, engine
            # The faulting load retired nothing; completed work stands.
            assert cpu.regs[R0] == 7 and cpu.regs[R2] == 9, engine

    def test_store_fault_parity(self):
        insns = [
            I("movi", R1, 1 << 40),
            I("movi", R0, 5),
            I("st64", R0, Mem(R1, 0)),
            I("syscall", 0),
        ]
        binary = assemble("x86", insns)
        states = {}
        for engine in ENGINES:
            machine = machine_for(binary, engine=engine)
            machine.load(binary)
            with pytest.raises(UnmappedMemoryFault):
                machine.run()
            cpu = machine.cpu
            states[engine] = (cpu.icount, cpu.cycles, cpu.pc,
                             list(cpu.regs))
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
            I("jmp", -(get_arch("x86").insn_length("ld64")
                       + get_arch("x86").insn_length("addi"))),
        ]
        binary = assemble("x86", insns)
        states = {}
        for engine in ENGINES:
            machine = machine_for(binary, engine=engine)
            machine.load(binary)
            with pytest.raises(UnmappedMemoryFault):
                machine.run()
            cpu = machine.cpu
            states[engine] = (cpu.icount, cpu.cycles,
                             cpu.taken_branches, cpu.pc,
                             list(cpu.regs))
        assert states["step"] == states["superblock"]
        assert states["step"][0] > 3     # actually looped

    def test_step_limit_exact(self):
        binary = assemble("x86", [I("jmp", 0)])   # jmp-to-self
        states = {}
        for engine in ENGINES:
            machine = machine_for(binary, engine=engine,
                                  step_limit=1000)
            machine.load(binary)
            with pytest.raises(MachineFault, match="step limit"):
                machine.run()
            cpu = machine.cpu
            states[engine] = (cpu.icount, cpu.cycles, cpu.pc)
            assert cpu.icount == 1000, engine
        assert states["step"] == states["superblock"]

    def test_metrics_truthful_on_fault(self):
        binary = assemble("x86", [I("movi", R0, 1),
                                  I("movi", R1, 1 << 40),
                                  I("ld64", R2, Mem(R1, 0)),
                                  I("syscall", 0)])
        for engine in ENGINES:
            metrics = Metrics()
            machine = machine_for(binary, engine=engine)
            machine.metrics = metrics
            machine.load(binary)
            with pytest.raises(UnmappedMemoryFault):
                machine.run()
            counted = metrics.counter_values()["machine.instructions"]
            assert counted == machine.cpu.icount == 2, engine


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


class TestBlockCacheLifecycle:
    def test_invalidate_code_drops_blocks(self):
        binary = assemble("x86", [I("movi", R0, 0), I("inc", R0),
                                  I("syscall", 0)])
        machine = machine_for(binary)
        machine.load(binary)
        machine.run()
        cpu = machine.cpu
        assert cpu._blocks
        cpu.invalidate_code()
        assert not cpu._blocks and not cpu._compiled

    def test_watch_region_change_drops_blocks(self):
        binary = assemble("x86", [I("movi", R0, 0), I("inc", R0),
                                  I("syscall", 0)])
        machine = machine_for(binary)
        machine.load(binary)
        machine.run()
        cpu = machine.cpu
        assert cpu._blocks
        machine.watch_bounce((BASE, BASE + 8), (BASE + 8, BASE + 64))
        assert not cpu._blocks


class TestFlightFallback:
    def test_block_granularity_rides_superblocks(self,
                                                 workload_binaries):
        binary = workload_binaries["619.lbm_s"]
        flight = FlightRecorder()   # granularity="block" by default
        machine = machine_for(binary, flight=flight)
        machine.load(binary)
        recorded = machine.run()
        # The default recorder rides the fused tier: blocks are built
        # and dispatched, no demotion is counted, and results still
        # match an unobserved superblock run bit for bit.
        assert machine.cpu._blocks
        assert machine.cpu.demotions == {}
        assert flight.superblocks > 0
        plain, _ = _run_engine(binary, "superblock")
        assert_parity(recorded, plain)
        assert len(flight.ring) > 0

    def test_step_granularity_forces_per_step(self, workload_binaries):
        binary = workload_binaries["619.lbm_s"]
        flight = FlightRecorder(granularity="step")
        machine = machine_for(binary, flight=flight)
        machine.load(binary)
        recorded = machine.run()
        # Superblocks skip per-transfer block events, so an explicit
        # step-granularity recorder demotes run() to the per-step tier
        # — and the demotion is counted, never silent.
        assert not machine.cpu._blocks
        assert machine.cpu.demotions == {"flight-recorder": 1}
        plain, _ = _run_engine(binary, "superblock")
        assert_parity(recorded, plain)
        assert len(flight.ring) > 0


class TestStaleSpeculation:
    def test_guard_on_stale_register_reaches_data_bytes(self):
        # libcuda-like variant 9: a ``jmpr`` guard speculates on a stale
        # register value and fuses a trace into data bytes that decode
        # as ``sub r227, r255, r255``.  The decoder must refuse register
        # fields past the register file, so the trace is sealed as
        # unfetchable instead of loading ``r[227]`` at block entry.
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
        sb = run_binary(binary, engine="superblock")
        assert step == sb
        exit_code, output = interpret(program)
        assert sb.checksum == (exit_code, tuple(output))
