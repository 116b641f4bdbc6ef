"""Golden digests of the micro-op interpreter.

Small fixed programs run under every registered scheme, with the
load/store queues, the next-line prefetcher and the block JIT each off
and on (plus an event-journal pass with both off).  Each case hashes
every simulated byte it produced -- each run's ``ExecResult`` fields and
registers, the final L1I/L1D/L2/TLB statistics, the predictor state and
main memory (and the block cache's counters and the journal's events
when those are armed) -- and compares the SHA-256 against a digest
recorded before the interpreter's hot path was restructured.  A timing
model change that moves one cycle, one counter or one cache line under
any scheme fails here, including on the LSQ and prefetcher paths that
no committed snapshot covers.

The programs reach every interpreter arm: a committed page-fault load,
InvisiSpec invisible loads, DOM's LRU freeze, FENCE with predictions in
flight, a full ROB (and full LQ/SQ), mispredicted BR/ICALL/RET with
wrong-path loads, a CFI-suppressed return, an STT tainted branch, and
every ALU operation.

Re-record (only for an intended, explained model change)::

    PYTHONPATH=src python tests/test_interpreter_golden.py
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from repro.core.framework import Perspective
from repro.core.views import InstructionSpeculationView
from repro.cpu.isa import (AluOp, Function, alu, br, call, fence, flush,
                           icall, jmp, kret, li, load, nop, ret, store)
from repro.cpu.pipeline import ExecutionContext
from repro.defenses.registry import build_policy, registered_schemes
from repro.kernel.image import shared_image
from repro.kernel.kernel import MiniKernel
from repro.obs import events as ev

#: Functions each Perspective context trusts; the rest (the gadgets and
#: the ROB stressor) fence on the ISV side.
TRUSTED = ("golden_main", "golden_leaf", "golden_icall_a", "golden_after")

#: An unmapped user VA: the committed page-fault load's address.
UNMAPPED = 0x1000


def _main() -> Function:
    """Loop with an alternating branch, tainted loads, a tainted branch,
    a call, an indirect call, a fence with predictions in flight, a
    flush, a store, then every ALU op and a committed faulting load."""
    loop, skip, tail = 1, 14, 28
    body = [
        li("r7", 0),
        # loop (1):
        alu("r8", AluOp.AND, "r7", imm=1),
        load("r9", "r1"),
        load("r10", "r1", imm=64),
        alu("r11", AluOp.AND, "r9", imm=0x38),
        alu("r12", AluOp.ADD, "r1", "r11"),
        load("r13", "r12"),                  # tainted address
        load("r14", "r2"),                   # another context's heap
        br("r8", skip),                      # alternating: mispredicts
        load("r15", "r3"),                   # secret (wrong path on odd)
        alu("r15", AluOp.SHL, "r15", imm=6),
        alu("r15", AluOp.AND, "r15", imm=0xFC0),
        alu("r15", AluOp.ADD, "r1", "r15"),
        load("r0", "r15", imm=256),          # transmit
        # skip (14):
        br("r9", skip + 1),                  # condition loaded: tainted
        call("golden_leaf"),
        icall("r5"),
        fence(),
        flush("r1", imm=128),
        store("r1", "r7", imm=192),
        nop(),
        load("r9", "r1", imm=192),
        alu("r7", AluOp.ADD, "r7", imm=1),
        alu("r8", AluOp.CMPLT, "r7", "r4"),
        br("r8", loop),
        jmp(tail),
        nop(),
        nop(),
        # tail (28):
        alu("r8", AluOp.MOV, "r7"),
        alu("r8", AluOp.SUB, "r8", "r4"),
        alu("r8", AluOp.OR, "r8", imm=0x100),
        alu("r8", AluOp.XOR, "r8", "r10"),
        alu("r8", AluOp.SHR, "r8", imm=3),
        alu("r8", AluOp.MUL, "r8", "r7"),
        alu("r11", AluOp.CMPLTU, "r8", imm=-1),
        alu("r12", AluOp.CMPEQ, "r11", imm=1),
        load("r13", "r6"),                   # committed page fault
        alu("r13", AluOp.ADD, "r13", "r12"),
        kret(),
    ]
    assert body[loop].alu_op is AluOp.AND and body[tail].alu_op is AluOp.MOV
    return Function("golden_main", body)


def _leaf() -> Function:
    return Function("golden_leaf", [
        alu("r10", AluOp.ADD, "r10", imm=3),
        load("r11", "r1", imm=320),
        ret(),
    ])


def _gadget(name: str) -> Function:
    """Wrong-path target: load the secret, transmit it through the cache."""
    return Function(name, [
        load("r12", "r3"),
        alu("r12", AluOp.AND, "r12", imm=0x3F),
        alu("r12", AluOp.SHL, "r12", imm=6),
        alu("r12", AluOp.ADD, "r1", "r12"),
        load("r13", "r12", imm=4096),
        ret(),
    ])


def _after() -> Function:
    return Function("golden_after", [
        load("r14", "r1", imm=384),
        alu("r14", AluOp.ADD, "r14", imm=1),
        kret(),
    ])


def _rob() -> Function:
    """A loop of page-strided loads and dependent stores under
    late-resolving predicted branches: once the I-cache is warm, the
    in-flight memory ops fill the ROB and, when enforced, the LQ/SQ."""
    body = [li("r7", 8)]
    for i in range(40):
        dst = f"r{8 + i % 6}"
        body.append(load(dst, "r1", imm=i * 4096))
        if i % 2:
            body.append(store("r1", dst, imm=i * 4096 + 8))
        if i % 10 == 0:
            body.append(alu("r15", AluOp.OR, dst, imm=1))
            body.append(br("r15", len(body) + 1))
    body += [alu("r1", AluOp.ADD, "r1", imm=40 * 4096),
             alu("r7", AluOp.SUB, "r7", imm=1),
             br("r7", 1),
             kret()]
    return Function("golden_rob", body)


FUNCTIONS = (_main, _leaf, lambda: _gadget("golden_icall_a"),
             lambda: _gadget("golden_icall_b"),
             lambda: _gadget("golden_gadget"), _after, _rob)

CASES = [
    (scheme, lsq, pf, jit, False)
    for scheme in registered_schemes()
    for lsq, pf, jit in itertools.product((False, True), repeat=3)
] + [(scheme, False, False, jit, True)
     for scheme in registered_schemes() for jit in (False, True)]


def case_id(case) -> str:
    scheme, lsq, pf, jit, journal = case
    return (f"{scheme}-lsq{int(lsq)}-pf{int(pf)}-jit{int(jit)}"
            + ("-journal" if journal else ""))


def _result_fields(result) -> tuple:
    return (repr(result.cycles), result.committed_ops,
            result.transient_ops, result.loads, result.speculative_loads,
            sorted(result.fenced_loads.items()), result.mispredictions,
            result.indirect_mispredictions, result.transient_loads_executed,
            result.transient_loads_blocked, result.cfi_suppressions,
            repr(result.fence_stall_cycles), sorted(result.regs.items()))


def run_case(scheme: str, lsq: bool, pf: bool, jit: bool,
             journal: bool) -> str:
    """Run every program once under one configuration; the SHA-256 of
    everything simulated."""
    kernel = MiniKernel(image=shared_image())
    pipeline = kernel.pipeline
    pipeline.config.enforce_lsq = lsq
    pipeline.config.enable_block_cache = jit
    pipeline.hierarchy.prefetcher = pf
    funcs = {f.name: kernel.layout.add(f) for f in
             (make() for make in FUNCTIONS)}
    proc = kernel.create_process("victim")
    other = kernel.create_process("other")
    secret = kernel.plant_secret(proc, b"\x2a\x17\x05\x33")
    ctx = proc.cgroup.cg_id
    if scheme.startswith("perspective"):
        framework = Perspective(kernel)
        framework.install_isv(InstructionSpeculationView(
            ctx, frozenset(TRUSTED), kernel.layout, source="golden"))
        policy = build_policy(scheme, framework=framework)
    else:
        policy = build_policy(scheme, kernel=kernel)
    pipeline.set_policy(policy)
    regs = {"r1": proc.heap_va, "r2": other.heap_va, "r3": secret,
            "r4": 6, "r6": UNMAPPED}
    main = funcs["golden_main"]

    def context(**extra) -> ExecutionContext:
        return ExecutionContext(ctx, "kernel", proc.aspace,
                                {**regs, **extra})

    out = []
    sink = ev.EventJournal() if journal else None
    with ev.journaling(sink):
        # Train the BTB on one target, then mispredict into it.
        for target in ("golden_icall_b", "golden_icall_a"):
            out.append(pipeline.run(main, context(
                r5=funcs[target].base_va), charge_kernel_entry=True))
        # A poisoned RSB entry, then one that fails the CFI label check.
        resume = [(funcs["golden_after"], 0)]
        for poison in (0, 4):
            pipeline.branch_unit.rsb.push(
                funcs["golden_gadget"].base_va + poison)
            out.append(pipeline.run(funcs["golden_leaf"], context(),
                                    initial_call_stack=resume))
        out.append(pipeline.run(funcs["golden_rob"], context()))
    h = pipeline.hierarchy
    state = [[_result_fields(r) for r in out]]
    for level in (h.l1i, h.l1d, h.l2):
        s = level.stats
        state.append((s.hits, s.misses, s.fills, s.evictions, s.flushes,
                      level.resident_lines()))
    state.append((h.prefetches, pipeline.tlb.stats.hits,
                  pipeline.tlb.stats.misses))
    bu = pipeline.branch_unit
    state.append(sorted(bu.conditional._counters.items()))
    state.append(sorted(bu.btb._entries.items()))
    state.append(list(bu.rsb._stack))
    state.append(kernel.memory.digest())
    bc = pipeline._blockcache
    if bc is not None:
        state.append((bc.hits, bc.misses, bc.invalidations,
                      sorted(bc.miss_reasons.items())))
    if journal:
        state.append(sink.to_jsonl())
    return hashlib.sha256(repr(state).encode()).hexdigest()


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_interpreter_golden(case):
    assert run_case(*case) == GOLDEN[case_id(case)]


def test_every_case_recorded():
    assert sorted(GOLDEN) == sorted(case_id(c) for c in CASES)


GOLDEN = {
    'context-lsq0-pf0-jit0':
        '23b8ab768f2894b59e6313339493040d3ccbc805970c1d43acc3118c7fe311b9',
    'context-lsq0-pf0-jit1':
        '2afcd88e0873bb687eb04395efdfadae5a20952832aad96747457b26ce5f0421',
    'context-lsq0-pf1-jit0':
        'af998c1dc3433521ea972d83cad1a950ff560062e8f8a4d7c978ea341ae240ca',
    'context-lsq0-pf1-jit1':
        'c678d62fb67a2a99bf30f5a6f97dffbab1750c5a999834aef0b78590e8218663',
    'context-lsq1-pf0-jit0':
        '6d07ee457a461c6a3ccfa08262e8331d256331429bc03e56a916126fd6dea8d5',
    'context-lsq1-pf0-jit1':
        '6d07ee457a461c6a3ccfa08262e8331d256331429bc03e56a916126fd6dea8d5',
    'context-lsq1-pf1-jit0':
        'd54c34d56e9d83070fa7cb0795619fa0a523d52867c8da66812ed0a1ca29ba3b',
    'context-lsq1-pf1-jit1':
        'd54c34d56e9d83070fa7cb0795619fa0a523d52867c8da66812ed0a1ca29ba3b',
    'dom-lsq0-pf0-jit0':
        'fc9584af9bfa24cee6c7e1fb78d2c2b6ced4ff439d112b1223f55e1b166fb2fa',
    'dom-lsq0-pf0-jit1':
        'f0cd1f9270131e76b251797df7a02fbf2f6783b06d3905bb01e5f59685638bfb',
    'dom-lsq0-pf1-jit0':
        'f165e4f64abb6e6b6c55f184c5bd5986ef58c02ad1a45f2d372dc57083102a3b',
    'dom-lsq0-pf1-jit1':
        'bace04ffd83a5e22b7525eba64e20f8a2107ac979e9db28fcac31137f84a03d9',
    'dom-lsq1-pf0-jit0':
        '67fb28b566cfe36599432d387477fdc4c0318de81b0f88d03607388c6b69fe80',
    'dom-lsq1-pf0-jit1':
        '67fb28b566cfe36599432d387477fdc4c0318de81b0f88d03607388c6b69fe80',
    'dom-lsq1-pf1-jit0':
        '18bb876d11e8cf97e70e8e18251deea72e2466c0d8f1d2e137cd9b265b8c0bfc',
    'dom-lsq1-pf1-jit1':
        '18bb876d11e8cf97e70e8e18251deea72e2466c0d8f1d2e137cd9b265b8c0bfc',
    'fence-lsq0-pf0-jit0':
        'c8d8a1bf66d8765d511066d18bc7c96ab44ae340df11bafe519310d8141c71cd',
    'fence-lsq0-pf0-jit1':
        'aeac1911a757603afe6ae839075fa6816da08be090f5cc18ecd1c5ca880a38c9',
    'fence-lsq0-pf1-jit0':
        '7a23784b318b92eb6482247c6261cc2e2af0177480b299be82dc075ab1389b39',
    'fence-lsq0-pf1-jit1':
        '4d971e6db45b20639c15068a4b6fade08ffde758cdaa2d796f1098418d66a9a3',
    'fence-lsq1-pf0-jit0':
        'f96b5670d48d6bcbb5b21749ca6477d8d00a35f4eccd8785c4fc86169809fd1a',
    'fence-lsq1-pf0-jit1':
        'f96b5670d48d6bcbb5b21749ca6477d8d00a35f4eccd8785c4fc86169809fd1a',
    'fence-lsq1-pf1-jit0':
        '8bc26f439cbcafcba82acca67ac7ea5426ff83652849155ef9d383f5c2e3283f',
    'fence-lsq1-pf1-jit1':
        '8bc26f439cbcafcba82acca67ac7ea5426ff83652849155ef9d383f5c2e3283f',
    'invisispec-lsq0-pf0-jit0':
        '613abc86c939e0f675cbc14c844bf44c76df9e2539c90254548459601a47cd8e',
    'invisispec-lsq0-pf0-jit1':
        '6fcb7505a0a72d3386f8a3b6990e64e4a8b14cc5d6f0ac2b0794abf974d9dc6f',
    'invisispec-lsq0-pf1-jit0':
        '269dff0ffc9343461afa524004b3056495eee7f6ee76b13388bedd13c82a33da',
    'invisispec-lsq0-pf1-jit1':
        '903ae3e9c2b68f78851c95f19739c18520421b5363d2aefc86917808aa5a3831',
    'invisispec-lsq1-pf0-jit0':
        '28a6b4825f88cd55b39385856a55091fef626c2944df11cd0fc669365be7deac',
    'invisispec-lsq1-pf0-jit1':
        '28a6b4825f88cd55b39385856a55091fef626c2944df11cd0fc669365be7deac',
    'invisispec-lsq1-pf1-jit0':
        '957aa5a9634f8946de6432786f9ab457a7ad7bdb7704f8ed977dc4a9c162f76e',
    'invisispec-lsq1-pf1-jit1':
        '957aa5a9634f8946de6432786f9ab457a7ad7bdb7704f8ed977dc4a9c162f76e',
    'perspective-lsq0-pf0-jit0':
        '0e63be8eebd590011c0536faa6c303cc5cf0d768affd3b5522dfd9041d62cb0e',
    'perspective-lsq0-pf0-jit1':
        'dbe787448447cd61f87a1c346452d7625ff3e6aa7b1977641f6187449146ac91',
    'perspective-lsq0-pf1-jit0':
        'a34d8611668ccb9368c658bc599699545c63cb9a9b9b4a34e0a7ead218bbb730',
    'perspective-lsq0-pf1-jit1':
        'fafac097e10d4e1644a207d5f8e2878806320bf08c56169c70e19015c8a779fc',
    'perspective-lsq1-pf0-jit0':
        '70319ece43181f084c48c79ae70a324b5a48eeab243418d34524cee133c4c4c9',
    'perspective-lsq1-pf0-jit1':
        '70319ece43181f084c48c79ae70a324b5a48eeab243418d34524cee133c4c4c9',
    'perspective-lsq1-pf1-jit0':
        '3a9d9b1cbd11a8253af4293f650d1c351eea1c1ead3c89020601a0b616f34765',
    'perspective-lsq1-pf1-jit1':
        '3a9d9b1cbd11a8253af4293f650d1c351eea1c1ead3c89020601a0b616f34765',
    'perspective++-lsq0-pf0-jit0':
        '0e63be8eebd590011c0536faa6c303cc5cf0d768affd3b5522dfd9041d62cb0e',
    'perspective++-lsq0-pf0-jit1':
        'dbe787448447cd61f87a1c346452d7625ff3e6aa7b1977641f6187449146ac91',
    'perspective++-lsq0-pf1-jit0':
        'a34d8611668ccb9368c658bc599699545c63cb9a9b9b4a34e0a7ead218bbb730',
    'perspective++-lsq0-pf1-jit1':
        'fafac097e10d4e1644a207d5f8e2878806320bf08c56169c70e19015c8a779fc',
    'perspective++-lsq1-pf0-jit0':
        '70319ece43181f084c48c79ae70a324b5a48eeab243418d34524cee133c4c4c9',
    'perspective++-lsq1-pf0-jit1':
        '70319ece43181f084c48c79ae70a324b5a48eeab243418d34524cee133c4c4c9',
    'perspective++-lsq1-pf1-jit0':
        '3a9d9b1cbd11a8253af4293f650d1c351eea1c1ead3c89020601a0b616f34765',
    'perspective++-lsq1-pf1-jit1':
        '3a9d9b1cbd11a8253af4293f650d1c351eea1c1ead3c89020601a0b616f34765',
    'perspective-static-lsq0-pf0-jit0':
        '0e63be8eebd590011c0536faa6c303cc5cf0d768affd3b5522dfd9041d62cb0e',
    'perspective-static-lsq0-pf0-jit1':
        'dbe787448447cd61f87a1c346452d7625ff3e6aa7b1977641f6187449146ac91',
    'perspective-static-lsq0-pf1-jit0':
        'a34d8611668ccb9368c658bc599699545c63cb9a9b9b4a34e0a7ead218bbb730',
    'perspective-static-lsq0-pf1-jit1':
        'fafac097e10d4e1644a207d5f8e2878806320bf08c56169c70e19015c8a779fc',
    'perspective-static-lsq1-pf0-jit0':
        '70319ece43181f084c48c79ae70a324b5a48eeab243418d34524cee133c4c4c9',
    'perspective-static-lsq1-pf0-jit1':
        '70319ece43181f084c48c79ae70a324b5a48eeab243418d34524cee133c4c4c9',
    'perspective-static-lsq1-pf1-jit0':
        '3a9d9b1cbd11a8253af4293f650d1c351eea1c1ead3c89020601a0b616f34765',
    'perspective-static-lsq1-pf1-jit1':
        '3a9d9b1cbd11a8253af4293f650d1c351eea1c1ead3c89020601a0b616f34765',
    'safespec-lsq0-pf0-jit0':
        '554508bfcc86a849396e6a226f118e2035de1fe6eb786858c7607f9a412c2884',
    'safespec-lsq0-pf0-jit1':
        '692b61d21150ffb82ec2e4f9458c19c223a197d9ccdee02dc36809fcca79be30',
    'safespec-lsq0-pf1-jit0':
        'f8255b5eaf79877ceaaf9391684e9285f55587ecf8e32446300b0bc2e4ad7c5b',
    'safespec-lsq0-pf1-jit1':
        '5eb51e7dc49ded371c2158a62161e25772073c357bb860d2a0491f905b0867ea',
    'safespec-lsq1-pf0-jit0':
        '572df7ba0db326893eeac73da0a4a204cf267c40d13e4c79282a744245d146f2',
    'safespec-lsq1-pf0-jit1':
        '572df7ba0db326893eeac73da0a4a204cf267c40d13e4c79282a744245d146f2',
    'safespec-lsq1-pf1-jit0':
        'c55830e9ae7761df363267dcdf12e01fa9c0c8350a30dd940644ee10e4174b14',
    'safespec-lsq1-pf1-jit1':
        'c55830e9ae7761df363267dcdf12e01fa9c0c8350a30dd940644ee10e4174b14',
    'spot-lsq0-pf0-jit0':
        'db0c8e1c9cc01fc86c929f9971f0812ca841691123446d0a30364f8a121b8e63',
    'spot-lsq0-pf0-jit1':
        '4c6f2507caf68e68f5328409ad6dc5a1ba0ebaedb0fcd8c0dcf3008c586ff87a',
    'spot-lsq0-pf1-jit0':
        '5a817048cdd285a672c9906637c35246895c40b9ab7c8b5dc3fc40187096eda4',
    'spot-lsq0-pf1-jit1':
        '286078083086ab61642fb87987b477e1c309dffad4f20dce999694f5ebd13f54',
    'spot-lsq1-pf0-jit0':
        'ca3715d0ad92df0cacf05e682c238bf91bffd2c8eddf2f705163705c06cbd9d2',
    'spot-lsq1-pf0-jit1':
        'ca3715d0ad92df0cacf05e682c238bf91bffd2c8eddf2f705163705c06cbd9d2',
    'spot-lsq1-pf1-jit0':
        '6f6f9d158dfdfc854f6f4ba747a374f6e31804f42a8794ad2086303efb830e65',
    'spot-lsq1-pf1-jit1':
        '6f6f9d158dfdfc854f6f4ba747a374f6e31804f42a8794ad2086303efb830e65',
    'spot-ibpb-lsq0-pf0-jit0':
        'db0c8e1c9cc01fc86c929f9971f0812ca841691123446d0a30364f8a121b8e63',
    'spot-ibpb-lsq0-pf0-jit1':
        '4c6f2507caf68e68f5328409ad6dc5a1ba0ebaedb0fcd8c0dcf3008c586ff87a',
    'spot-ibpb-lsq0-pf1-jit0':
        '5a817048cdd285a672c9906637c35246895c40b9ab7c8b5dc3fc40187096eda4',
    'spot-ibpb-lsq0-pf1-jit1':
        '286078083086ab61642fb87987b477e1c309dffad4f20dce999694f5ebd13f54',
    'spot-ibpb-lsq1-pf0-jit0':
        'ca3715d0ad92df0cacf05e682c238bf91bffd2c8eddf2f705163705c06cbd9d2',
    'spot-ibpb-lsq1-pf0-jit1':
        'ca3715d0ad92df0cacf05e682c238bf91bffd2c8eddf2f705163705c06cbd9d2',
    'spot-ibpb-lsq1-pf1-jit0':
        '6f6f9d158dfdfc854f6f4ba747a374f6e31804f42a8794ad2086303efb830e65',
    'spot-ibpb-lsq1-pf1-jit1':
        '6f6f9d158dfdfc854f6f4ba747a374f6e31804f42a8794ad2086303efb830e65',
    'spot-nokpti-lsq0-pf0-jit0':
        'bbddaa4ba2ed15afadbcc3fed71b6b0dde92f790894e7879154fc8d9d5997ab1',
    'spot-nokpti-lsq0-pf0-jit1':
        '87e0957b4fb54548d3c141e0ca1ef19272bfa7992c25cc10cbe091abb49ad937',
    'spot-nokpti-lsq0-pf1-jit0':
        '2ef29ef74276ee65adf83bdd1a6faa5b8c85a984569e5a7382bda6601963befc',
    'spot-nokpti-lsq0-pf1-jit1':
        '1cb4fa26163556682900e58021eca324626e2b964c19a26f93888db41841240b',
    'spot-nokpti-lsq1-pf0-jit0':
        '6864deeeabcce42961a0ee77c69eb76521551ecafd030f8c369c4599da4b3ed9',
    'spot-nokpti-lsq1-pf0-jit1':
        '6864deeeabcce42961a0ee77c69eb76521551ecafd030f8c369c4599da4b3ed9',
    'spot-nokpti-lsq1-pf1-jit0':
        '848eb0ba3a0e5b203d4e36231da9d1a36ffee125a84ce3461c4a4865a0acf2ba',
    'spot-nokpti-lsq1-pf1-jit1':
        '848eb0ba3a0e5b203d4e36231da9d1a36ffee125a84ce3461c4a4865a0acf2ba',
    'stt-lsq0-pf0-jit0':
        '8b9f605fa27244d86be2f7354b5f480638e039ab95808ede544bfde1e40da2ff',
    'stt-lsq0-pf0-jit1':
        'a27158da6af131ce1af2274763fd7e2f00e8e892ba5cd9a01374e0c04815ab76',
    'stt-lsq0-pf1-jit0':
        '5ff166073eb652f7b028ea01686199532f5ce44aa3fcd1349593ccb398fd04b2',
    'stt-lsq0-pf1-jit1':
        '5c4a81b5b93a31322e43be31d0040246f49b2cbc9f991b588a0d09226c53d7e1',
    'stt-lsq1-pf0-jit0':
        '851895fc8e56b9d68901794b81bb1d472a57aaa6eee06e529fa2c10737a2f59a',
    'stt-lsq1-pf0-jit1':
        '851895fc8e56b9d68901794b81bb1d472a57aaa6eee06e529fa2c10737a2f59a',
    'stt-lsq1-pf1-jit0':
        '572296b738dbf9db3958b503e4f0d4eaf54aa2cee81609d1c8281032aba2111d',
    'stt-lsq1-pf1-jit1':
        '572296b738dbf9db3958b503e4f0d4eaf54aa2cee81609d1c8281032aba2111d',
    'unsafe-lsq0-pf0-jit0':
        'e09a08e7d849fa33bda70d7fb5b973474033fdddcc3afc5897a6834002e63f76',
    'unsafe-lsq0-pf0-jit1':
        'e25466255f2378408196083b64c6b4fed9c7e8d891ceff9026f8f2c2fdc231f5',
    'unsafe-lsq0-pf1-jit0':
        '77a9dcdd7b0cb0460ea901d2d11fb046e2cda0e33f9e6d81e6755b7a17913848',
    'unsafe-lsq0-pf1-jit1':
        'b5a2d549d0c7c608d21f5e4f13e519fbf7ac79f7b9bd41cf982d03dce0a04f84',
    'unsafe-lsq1-pf0-jit0':
        'f27911edcb4ee81c3389418b091fad78db01f8bbb6670342fe51ff99e52d3a56',
    'unsafe-lsq1-pf0-jit1':
        'f27911edcb4ee81c3389418b091fad78db01f8bbb6670342fe51ff99e52d3a56',
    'unsafe-lsq1-pf1-jit0':
        'd04b25d49b1a39cb92e452249b98e52569903ac6a95333a46ee6a20a3618581c',
    'unsafe-lsq1-pf1-jit1':
        'd04b25d49b1a39cb92e452249b98e52569903ac6a95333a46ee6a20a3618581c',
    'context-lsq0-pf0-jit0-journal':
        '0c5ce72c6b70ef6d7b31dd0030994aff1ff10559e2738fd57c70cbbf24cdd7c7',
    'context-lsq0-pf0-jit1-journal':
        'b1e9746c75657c31b02cad9c9ee34e4f522a01dba0e7a8e3e3b0bf7ea0bc9bd7',
    'dom-lsq0-pf0-jit0-journal':
        '4556405e78f1aa7ab64d50d2f9565ef02ab54cd45f51da2ef985f8f4782ef7c4',
    'dom-lsq0-pf0-jit1-journal':
        'e2e2fb65c5edb4427d2eb067436c0cd0ea07cfb3de697c65d1cd35a421e04cf8',
    'fence-lsq0-pf0-jit0-journal':
        '4cf4b0331f843459514b5e9822ab42b1d4986155cb3c4bd92b7e26d771ff2f47',
    'fence-lsq0-pf0-jit1-journal':
        '6b610ef60324fc2869c05d233fe761e42e3e113e4809f0baf37f9047c143dcc6',
    'invisispec-lsq0-pf0-jit0-journal':
        '3cffd255b9cd1b6623081acbd6c1ddb1e3b99931bb7b50483c627388f2038c89',
    'invisispec-lsq0-pf0-jit1-journal':
        '2bfa461451aa927db51d6940e0d2a26da32faed1385b89c1f49ca949752714bb',
    'perspective-lsq0-pf0-jit0-journal':
        'f95c5baa4836ed34b252defd0bf3c2464059f647a9d77bb89975badec74ac708',
    'perspective-lsq0-pf0-jit1-journal':
        'bcd1746cae4a4b711fc25e0fd5bd2f4a410e862a354907edb73aaf8de33e7c7a',
    'perspective++-lsq0-pf0-jit0-journal':
        'f95c5baa4836ed34b252defd0bf3c2464059f647a9d77bb89975badec74ac708',
    'perspective++-lsq0-pf0-jit1-journal':
        'bcd1746cae4a4b711fc25e0fd5bd2f4a410e862a354907edb73aaf8de33e7c7a',
    'perspective-static-lsq0-pf0-jit0-journal':
        'f95c5baa4836ed34b252defd0bf3c2464059f647a9d77bb89975badec74ac708',
    'perspective-static-lsq0-pf0-jit1-journal':
        'bcd1746cae4a4b711fc25e0fd5bd2f4a410e862a354907edb73aaf8de33e7c7a',
    'safespec-lsq0-pf0-jit0-journal':
        '09f8fe0b467588b08a708a8a83090c5fc6f5d3bf4c51d1c34f644547244355b0',
    'safespec-lsq0-pf0-jit1-journal':
        'd470a8b7c9e09d2f22650dffd3f9860a57cdb2b1ba02f09bb875279297cc63aa',
    'spot-lsq0-pf0-jit0-journal':
        '1d905fcb9f128d529a1436e1e03be6807f657899b24b4293cba58c1c9ad5a72d',
    'spot-lsq0-pf0-jit1-journal':
        'f4b316aec6c4edd39fe3181b4fb66c983b15796d4301a2ba2056ce18c826d750',
    'spot-ibpb-lsq0-pf0-jit0-journal':
        '1d905fcb9f128d529a1436e1e03be6807f657899b24b4293cba58c1c9ad5a72d',
    'spot-ibpb-lsq0-pf0-jit1-journal':
        'f4b316aec6c4edd39fe3181b4fb66c983b15796d4301a2ba2056ce18c826d750',
    'spot-nokpti-lsq0-pf0-jit0-journal':
        '58f78bc96e9f3cd9d8853482931e4013752b5ae18fc0e97fa0c4c6a55d1bff0d',
    'spot-nokpti-lsq0-pf0-jit1-journal':
        '764329d984a7578581164d6624f66aafb2e6a540d7450c12828e12ef9e6b1d84',
    'stt-lsq0-pf0-jit0-journal':
        'a7927da57bc90ed503b8c05b4db5bf2e69acbfbc65d01dd961a7c1d22b44a149',
    'stt-lsq0-pf0-jit1-journal':
        '932c541d4c69483f8c17acd700f88255a0f31d532a6c33d89a31abdb83b8c8c0',
    'unsafe-lsq0-pf0-jit0-journal':
        'bf3c811123baaf08dcc2afe6c8d6e147a74cda15cd8c4f01a93d71574e5ea221',
    'unsafe-lsq0-pf0-jit1-journal':
        '4b4331b179f00660002eadd17c751099ae311214524290f6ff61986e5823a20e',
}


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        print(f"    {case_id(case)!r}:\n        {run_case(*case)!r},")
    print("}")
