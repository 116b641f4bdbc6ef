"""Behavioural tests of the out-of-order pipeline: semantics, timing,
and -- crucially -- transient execution and its policy gating."""

from __future__ import annotations

import pytest

from repro.cpu.isa import (
    AluOp,
    CodeLayout,
    Function,
    alu,
    br,
    call,
    fence,
    flush,
    icall,
    jmp,
    kret,
    li,
    load,
    ret,
    store,
)
from repro.cpu.memsys import MainMemory
from repro.cpu.pipeline import ExecutionContext, Pipeline
from repro.defenses import (
    DelayOnMissPolicy,
    FencePolicy,
    STTPolicy,
    UnsafePolicy,
)

BASE = 0x100000


def build(*funcs: Function) -> Pipeline:
    layout = CodeLayout(0x40000, stride_ops=128)
    for func in funcs:
        layout.add(func)
    return Pipeline(layout, MainMemory())


def run(pipeline: Pipeline, entry: Function, regs: dict | None = None,
        ctx_id: int = 1):
    context = ExecutionContext(ctx_id, initial_regs=regs or {})
    return pipeline.run(entry, context)


class TestArchitecturalSemantics:
    def test_alu_arithmetic(self):
        f = Function("f", [
            li("r1", 10), li("r2", 3),
            alu("r3", AluOp.ADD, "r1", "r2"),
            alu("r4", AluOp.SUB, "r1", "r2"),
            alu("r5", AluOp.MUL, "r1", "r2"),
            alu("r6", AluOp.SHL, "r1", imm=2),
            alu("r7", AluOp.CMPLT, "r2", "r1"),
            alu("r8", AluOp.CMPEQ, "r1", "r2"),
            kret(),
        ])
        result = run(build(f), f)
        assert result.regs["r3"] == 13
        assert result.regs["r4"] == 7
        assert result.regs["r5"] == 30
        assert result.regs["r6"] == 40
        assert result.regs["r7"] == 1
        assert result.regs["r8"] == 0

    def test_load_store_roundtrip(self):
        f = Function("f", [
            li("r1", BASE), li("r2", 0x77),
            store("r1", "r2", imm=8),
            load("r3", "r1", imm=8),
            kret(),
        ])
        result = run(build(f), f)
        assert result.regs["r3"] == 0x77

    def test_taken_branch_skips(self):
        f = Function("f", [
            li("r1", 1), li("r2", 0),
            br("r1", target=4),
            li("r2", 99),  # skipped
            kret(),
        ])
        assert run(build(f), f).regs["r2"] == 0

    def test_not_taken_branch_falls_through(self):
        f = Function("f", [
            li("r1", 0), li("r2", 0),
            br("r1", target=4),
            li("r2", 99),
            kret(),
        ])
        assert run(build(f), f).regs["r2"] == 99

    def test_loop_executes_n_times(self):
        f = Function("f", [
            li("r1", 5), li("r2", 0),
            alu("r2", AluOp.ADD, "r2", imm=1),
            alu("r1", AluOp.SUB, "r1", imm=1),
            br("r1", target=2),
            kret(),
        ])
        assert run(build(f), f).regs["r2"] == 5

    def test_call_and_return(self):
        callee = Function("callee", [li("r5", 0xAB), ret()])
        caller = Function("caller", [li("r5", 0), call("callee"), kret()])
        result = run(build(caller, callee), caller)
        assert result.regs["r5"] == 0xAB

    def test_indirect_call_through_register(self):
        target = Function("target", [li("r6", 0x42), ret()])
        pipeline_funcs = build(Function("main", []), target)
        main = Function("main2", [
            li("r1", target.base_va), icall("r1"), kret()])
        pipeline_funcs.layout.add(main)
        result = run(pipeline_funcs, main)
        assert result.regs["r6"] == 0x42

    def test_jmp_redirects(self):
        f = Function("f", [li("r1", 1), jmp(3), li("r1", 2), kret()])
        assert run(build(f), f).regs["r1"] == 1

    def test_ret_from_entry_terminates(self):
        f = Function("f", [li("r1", 7), ret()])
        assert run(build(f), f).regs["r1"] == 7

    def test_committed_page_fault_reads_zero(self):
        class Faulting:
            def translate(self, va):
                from repro.cpu.memsys import PageFault
                raise PageFault(va)
        f = Function("f", [li("r1", 0x123), load("r2", "r1"), kret()])
        pipeline = build(f)
        context = ExecutionContext(1, address_space=Faulting())
        result = pipeline.run(f, context)
        assert result.regs["r2"] == 0

    def test_unknown_alu_op_raises_when_executed(self):
        from repro.cpu.isa import MicroOp, Op
        bogus = MicroOp(Op.ALU, dst="r2", src1="r1", alu_op="rotate")
        f = Function("f", [li("r1", 1), br("r1", target=3), bogus, kret()])
        pipeline = build(f)
        assert run(pipeline, f).regs["r1"] == 1  # decodes, never runs
        f.body[1] = MicroOp(Op.NOP)
        with pytest.raises(ValueError, match="unknown ALU op: rotate"):
            run(pipeline, f)

    def test_runaway_program_raises(self):
        f = Function("f", [li("r1", 1), br("r1", target=0)])
        pipeline = build(f)
        pipeline.config.max_committed_ops = 1000
        with pytest.raises(RuntimeError, match="exceeded"):
            run(pipeline, f)


def spectre_gadget(bound: int = 16) -> Function:
    """Bounds check on r0, transient OOB access + transmit on mispredict."""
    body = [
        li("r5", bound),
        alu("r6", AluOp.CMPLT, "r0", "r5"),
        br("r6", target=4),
        ret(),
        alu("r7", AluOp.ADD, "r15", "r0"),
        load("r8", "r7"),
        alu("r9", AluOp.AND, "r8", imm=0xFF),
        alu("r9", AluOp.SHL, "r9", imm=6),
        alu("r9", AluOp.ADD, "r9", "r15"),
        alu("r9", AluOp.ADD, "r9", imm=0x10000),
        load("r3", "r9"),
        ret(),
    ]
    return Function("gadget", body)


class TransientHarness:
    """Mistrains the gadget branch, flushes, runs OOB, probes."""

    def __init__(self, policy):
        self.gadget = spectre_gadget()
        self.pipeline = build(self.gadget)
        self.pipeline.set_policy(policy)
        self.mem = self.pipeline.memory
        self.secret_addr = BASE + 0x8000
        self.mem.store(self.secret_addr, 0x41)

    def attack(self) -> int | None:
        for _ in range(4):  # mistrain in-bounds
            run(self.pipeline, self.gadget, {"r0": 1, "r15": BASE})
        probe_base = BASE + 0x10000
        for byte in range(256):
            self.pipeline.hierarchy.flush_data(probe_base + byte * 64)
        oob = self.secret_addr - BASE
        run(self.pipeline, self.gadget, {"r0": oob, "r15": BASE})
        hits = [byte for byte in range(256)
                if self.pipeline.hierarchy.probe_latency(
                    probe_base + byte * 64) <= 12]
        return hits[0] if len(hits) == 1 else None


class TestTransientExecution:
    def test_mispredict_executes_wrong_path_transiently(self):
        harness = TransientHarness(UnsafePolicy())
        result = run(harness.pipeline, harness.gadget,
                     {"r0": 1, "r15": BASE})  # train taken
        result = run(harness.pipeline, harness.gadget,
                     {"r0": 99, "r15": BASE})  # OOB: mispredicted
        assert result.mispredictions >= 1
        assert result.transient_ops > 0
        assert result.transient_loads_executed > 0

    def test_transient_leak_under_unsafe(self):
        assert TransientHarness(UnsafePolicy()).attack() == 0x41

    def test_fence_blocks_transient_leak(self):
        assert TransientHarness(FencePolicy()).attack() is None

    def test_dom_blocks_transient_leak(self):
        assert TransientHarness(DelayOnMissPolicy()).attack() is None

    def test_stt_blocks_transient_leak(self):
        """STT lets the access load run but blocks the tainted transmit."""
        harness = TransientHarness(STTPolicy())
        assert harness.attack() is None

    def test_transient_stores_never_commit(self):
        f = Function("f", [
            li("r1", 0),
            br("r1", target=4),  # not taken; mispredict after training taken
            li("r2", BASE),
            kret(),
            li("r2", BASE),
            li("r3", 0x99),
            store("r2", "r3", imm=0x40),  # transient-only store
            kret(),
        ])
        pipeline = build(f)
        # Train branch toward taken so the not-taken run mispredicts.
        g = Function("trainer", [li("r1", 1), br("r1", target=3),
                                 kret(), kret()])
        run(pipeline, f)  # may or may not mispredict; value check below
        assert pipeline.memory.load(BASE + 0x40) != 0x99

    def test_fence_op_stops_transient_window(self):
        """An lfence inside the wrong path prevents the leak."""
        gadget = spectre_gadget()
        body = list(gadget.body)
        body.insert(5, fence())  # before the access load
        fenced = Function("gadget", body)
        pipeline = build(fenced)
        mem = pipeline.memory
        mem.store(BASE + 0x8000, 0x41)
        for _ in range(4):
            run(pipeline, fenced, {"r0": 1, "r15": BASE})
        probe_base = BASE + 0x10000
        for byte in range(256):
            pipeline.hierarchy.flush_data(probe_base + byte * 64)
        run(pipeline, fenced, {"r0": 0x8000, "r15": BASE})
        hits = [b for b in range(256)
                if pipeline.hierarchy.probe_latency(probe_base + b * 64) <= 12]
        assert hits == []


class TestTiming:
    def test_fence_policy_slows_dependent_chains(self):
        body = [li("r3", 40)]
        loop = len(body)
        body += [
            alu("r5", AluOp.SHL, "r3", imm=6),
            alu("r6", AluOp.ADD, "r15", "r5"),
            load("r7", "r6"),
            alu("r8", AluOp.AND, "r7", imm=1),
        ]
        at = len(body)
        body += [br("r8", target=at + 2), alu("r9", AluOp.ADD, "r8", imm=1)]
        body += [alu("r3", AluOp.SUB, "r3", imm=1), br("r3", target=loop),
                 kret()]
        f = Function("f", body)

        def timed(policy):
            pipeline = build(f)
            pipeline.set_policy(policy)
            run(pipeline, f, {"r15": BASE})  # warm
            return run(pipeline, f, {"r15": BASE}).cycles

        unsafe, fenced = timed(UnsafePolicy()), timed(FencePolicy())
        assert fenced > unsafe * 1.5

    def test_dom_matches_unsafe_when_l1_hits(self):
        f = Function("f", [li("r1", BASE)] + [
            load("r2", "r1", imm=i * 8) for i in range(10)] + [kret()])
        pipeline = build(f)
        pipeline.set_policy(DelayOnMissPolicy())
        run(pipeline, f)  # warm L1
        warm = run(pipeline, f)
        assert warm.total_fenced == 0

    def test_retpoline_suppresses_indirect_speculation(self):
        target = Function("target", [ret()])
        layout_pipeline = build(target)
        main = Function("main", [li("r1", target.base_va), icall("r1"),
                                 kret()])
        layout_pipeline.layout.add(main)

        class RetpolinePolicy(UnsafePolicy):
            def retpoline_enabled(self):
                return True

        layout_pipeline.set_policy(RetpolinePolicy())
        # Poison the BTB at the icall site: with retpoline, no transient
        # excursion happens (no indirect mispredictions recorded).
        pc = main.va_of(1)
        layout_pipeline.branch_unit.btb.poison(pc, target.base_va + 4,
                                               domain="kernel")
        result = run(layout_pipeline, main)
        assert result.indirect_mispredictions == 0

    def test_kernel_entry_exit_costs_charged(self):
        f = Function("f", [kret()])
        pipeline = build(f)

        class CostlyPolicy(UnsafePolicy):
            def kernel_entry_cost(self, ctx):
                return 100.0

            def kernel_exit_cost(self, ctx):
                return 50.0

        pipeline.run(f, ExecutionContext(1))  # warm the i-cache
        base = pipeline.run(f, ExecutionContext(1)).cycles
        pipeline.set_policy(CostlyPolicy())
        charged = pipeline.run(f, ExecutionContext(1),
                               charge_kernel_entry=True).cycles
        assert charged == pytest.approx(base + 150.0)

    def test_drain_waits_for_inflight_loads(self):
        """A final long-latency load must show up in total cycles."""
        f = Function("f", [li("r1", BASE + 0x90000), load("r2", "r1"),
                           kret()])
        pipeline = build(f)
        result = run(pipeline, f)
        assert result.cycles >= pipeline.hierarchy.DRAM_LATENCY

    def test_flush_op_evicts_line(self):
        f = Function("f", [
            li("r1", BASE), load("r2", "r1"), flush("r1"), kret()])
        pipeline = build(f)
        run(pipeline, f)
        assert pipeline.hierarchy.probe_latency(BASE) > 50
