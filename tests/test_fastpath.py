"""Fast-path correctness: closure-compiled execution must be
indistinguishable from the interpretive paths it replaces.

Three layers are covered:

- :func:`repro.tol.ir_eval.compile_ops` closures vs :func:`eval_ops`,
  instruction by instruction on cloned state/memory;
- the IM interpreter with ``fastpath`` on vs off, in lockstep and in
  aggregate accounting (``ir_ops_evaluated`` == sum of per-step ``ir_ops``);
- the host emulator's generated programs vs its reference loop, via
  full-system counter identity.

Plus the satellite fixes: REP string-op chunking and the
``validate_min_icount_gap`` epoch knob.
"""

import math
import struct

import pytest

from repro.guest.assembler import Assembler, EAX, EBX, ECX, EDI, EDX, ESI
from repro.guest.memory import PagedMemory
from repro.guest.state import GuestState
from repro.guest.syscalls import GuestOS, SYS_WRITE
from repro.system.controller import run_codesigned
from repro.tol.config import TolConfig
from repro.tol.decoder import GisaFrontend
from repro.tol.interp import END, OK, SYSCALL, Interpreter
from repro.tol.ir import CF, ZF, Const, FTmp, GFReg, GReg, IRInstr
from repro.tol.ir_eval import (
    EXIT, FALLTHROUGH, IRAssertFailure, compile_ops, eval_ops,
)
from repro.workloads import SyntheticSpec, generate

#: Specs covering every operand class the compiler specializes on:
#: integer ALU + branches, memory, scalar FP, trig, vectors, string ops
#: (string ops stay interpreter-native but exercise the cache-kind split).
SPECS = [
    SyntheticSpec(seed=11, hot_loops=2, trip_count=60, bb_size=8,
                  branchy=True, mem_ops=2),
    SyntheticSpec(seed=23, hot_loops=1, trip_count=50, bb_size=4,
                  fp_ops=2, trig_ops=1, mem_ops=1),
    SyntheticSpec(seed=37, hot_loops=1, trip_count=40, bb_size=3,
                  vec_ops=2, mem_ops=1, branchy=False),
]


def _fresh(program):
    memory = PagedMemory()
    program.load_into(memory)
    state = GuestState()
    state.eip = program.entry
    state.set("ESP", program.stack_top)
    return state, memory


def _clone_memory(memory):
    clone = PagedMemory()
    for page in memory.present_pages():
        clone.install_page(page, memory.export_page(page))
    return clone


def _run(interp, os, on_step=None, max_steps=200_000):
    per_step_ops = 0
    while True:
        result = interp.step()
        per_step_ops += result.ir_ops
        if on_step is not None:
            on_step(result)
        if result.status == SYSCALL:
            os.execute(interp.state, interp.memory)
            per_step_ops += interp.advance_past_syscall()
            if os.exited:
                return per_step_ops
        elif result.status == END:
            return per_step_ops
        max_steps -= 1
        assert max_steps > 0, "interpreter did not finish"


# -- compile_ops vs eval_ops, instruction for instruction ---------------------


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"seed{s.seed}")
def test_compiled_closure_matches_eval_ops_per_instruction(spec):
    """At every decode address reached by a real run, the compiled closure
    and eval_ops must produce identical (outcome, pc) and identical
    architectural + memory effects from identical inputs."""
    program = generate(spec)
    state, memory = _fresh(program)
    frontend = GisaFrontend()
    interp = Interpreter(frontend, state, memory, fastpath=False)
    os = GuestOS()
    compiled = 0
    checked_pcs = set()

    def check(_result):
        pc = state.eip
        if pc in checked_pcs:
            return
        checked_pcs.add(pc)
        decoded, fn = frontend.decode_compiled(memory, pc)
        if fn is None or not decoded.ops or decoded.interpreter_only:
            return
        if decoded.guest.mnemonic in ("SYSCALL", "HLT"):
            return
        nonlocal compiled
        compiled += 1
        s_ref, s_fast = state.copy(), state.copy()
        m_ref, m_fast = _clone_memory(memory), _clone_memory(memory)
        ref = eval_ops(decoded.ops, s_ref, m_ref)
        fast = fn(s_fast, m_fast)
        assert fast == ref, f"outcome mismatch at {pc:#x}: {decoded.ops}"
        assert not s_fast.diff(s_ref), (
            f"state mismatch at {pc:#x}: {s_fast.diff(s_ref)}")
        mismatch = m_fast.first_difference(m_ref,
                                           list(m_ref.present_pages()))
        assert mismatch is None, f"memory mismatch at {pc:#x}: {mismatch}"

    _run(interp, os, on_step=check)
    assert os.exited and os.exit_code == 0
    # The compiler must cover the bulk of real decode addresses, not just
    # a token few.
    assert compiled > 20


def test_compile_ops_covers_superblock_control_ops():
    """assert/side-exit/guard ops (superblock-only IR, never produced by
    the decoder) compile to the same behaviour as eval_ops."""
    a, b = GReg(0), GReg(1)

    passing = [
        IRInstr("mov", dst=a, srcs=(Const(5),)),
        IRInstr("cmpeq", dst=ZF, srcs=(a, Const(5))),
        IRInstr("assert_true", srcs=(ZF,)),
        IRInstr("side_exit_true", srcs=(b,), attrs={"target_pc": 0x900}),
        IRInstr("guard_exit_false", srcs=(ZF,), attrs={"target_pc": 0x800}),
        IRInstr("exit", attrs={"next_pc": 0x1234}),
    ]
    fn = compile_ops(passing)
    assert fn is not None
    state = GuestState()
    ref_state = state.copy()
    memory = PagedMemory()
    assert fn(state, memory) == (EXIT, 0x1234)
    assert eval_ops(passing, ref_state, memory) == (EXIT, 0x1234)
    assert not state.diff(ref_state)

    # A failing assert raises IRAssertFailure on both paths, leaving the
    # same partial state behind.
    failing = [
        IRInstr("mov", dst=a, srcs=(Const(1),)),
        IRInstr("assert_false", srcs=(a,)),
        IRInstr("mov", dst=b, srcs=(Const(99),)),
    ]
    fn = compile_ops(failing)
    state, ref_state = GuestState(), GuestState()
    with pytest.raises(IRAssertFailure):
        fn(state, memory)
    with pytest.raises(IRAssertFailure):
        eval_ops(failing, ref_state, memory)
    assert not state.diff(ref_state)
    assert state.gpr[1] != 99          # ops after the assert never ran

    # A triggering side exit leaves the region at its target.
    exiting = [
        IRInstr("mov", dst=a, srcs=(Const(0),)),
        IRInstr("side_exit_false", srcs=(a,), attrs={"target_pc": 0x700}),
        IRInstr("mov", dst=b, srcs=(Const(99),)),
    ]
    fn = compile_ops(exiting)
    state = GuestState()
    assert fn(state, memory) == (EXIT, 0x700)
    assert state.gpr[1] != 99


def _fpr_bits(state):
    return [struct.pack("<d", value) for value in state.fpr]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.0],
                         ids=["nan", "inf", "-inf", "-0.0"])
def test_compile_ops_non_finite_and_signed_zero_constants(value):
    """Constants are parameters of the closure's shape, so every float
    compiles, and the closure's results match eval_ops bit for bit."""
    ops = [
        IRInstr("fmov", dst=GFReg(0), srcs=(Const(value),)),
        IRInstr("fadd", dst=GFReg(1), srcs=(GFReg(1), Const(value))),
        IRInstr("fmul", dst=FTmp(7), srcs=(Const(value), Const(-1.0))),
        IRInstr("fmov", dst=GFReg(2), srcs=(FTmp(7),)),
        IRInstr("fcmpun", dst=ZF, srcs=(GFReg(0), Const(value))),
        IRInstr("fcmplt", dst=CF, srcs=(Const(value), GFReg(3))),
    ]
    fn = compile_ops(ops)
    assert fn is not None
    state = GuestState()
    state.fpr[1], state.fpr[3] = 2.5, -1.0
    ref_state = state.copy()
    memory = PagedMemory()
    assert fn(state, memory) == eval_ops(ops, ref_state, memory)
    assert _fpr_bits(state) == _fpr_bits(ref_state)
    assert state.flags == ref_state.flags
    assert struct.pack("<d", state.fpr[0]) == struct.pack("<d", value)


def test_int_and_float_constants_share_a_shape():
    """``Const(1)`` and ``Const(1.0)`` are one shape; each closure keeps
    its own constant."""
    def ops(one):
        return [IRInstr("fadd", dst=FTmp(0), srcs=(GFReg(1), Const(one))),
                IRInstr("fmov", dst=GFReg(0), srcs=(FTmp(0),))]

    by_int, by_float = compile_ops(ops(1)), compile_ops(ops(1.0))
    assert by_int.__code__ is by_float.__code__
    for fn, one in ((by_int, 1), (by_float, 1.0)):
        assert [type(cell.cell_contents) for cell in fn.__closure__] \
            == [type(one)]
        state = GuestState()
        state.fpr[1] = 0.5
        ref_state = state.copy()
        memory = PagedMemory()
        assert fn(state, memory) == eval_ops(ops(one), ref_state, memory)
        assert _fpr_bits(state) == _fpr_bits(ref_state)
        assert state.fpr[0] == 1.5


# -- interpreter: fastpath on vs off ------------------------------------------


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"seed{s.seed}")
def test_interpreter_fastpath_lockstep_with_slow_path(spec):
    program = generate(spec)
    fast_state, fast_memory = _fresh(program)
    slow_state, slow_memory = _fresh(program)
    fast = Interpreter(GisaFrontend(), fast_state, fast_memory,
                       fastpath=True)
    slow = Interpreter(GisaFrontend(), slow_state, slow_memory,
                       fastpath=False)
    fast_os, slow_os = GuestOS(), GuestOS()
    for step in range(200_000):
        rf, rs = fast.step(), slow.step()
        assert (rf.status, rf.ir_ops, rf.ended_bb, rf.completed) == \
            (rs.status, rs.ir_ops, rs.ended_bb, rs.completed), \
            f"step result diverged at step {step}"
        diff = fast_state.diff(slow_state)
        assert not diff, f"state diverged at step {step}: {diff}"
        if rf.status == SYSCALL:
            fast_os.execute(fast_state, fast_memory)
            slow_os.execute(slow_state, slow_memory)
            fast.advance_past_syscall()
            slow.advance_past_syscall()
            if fast_os.exited:
                break
        elif rf.status == END:
            break
    else:
        raise AssertionError("did not finish")
    assert fast.icount == slow.icount
    assert fast.ir_ops_evaluated == slow.ir_ops_evaluated
    assert fast_os.stdout == slow_os.stdout


@pytest.mark.parametrize("fastpath", [True, False],
                         ids=["fast", "slow"])
def test_ir_ops_evaluated_equals_per_step_sum(fastpath):
    """Satellite fix: ir_ops_evaluated must equal the sum of per-step
    ir_ops plus the advance_past_syscall contributions — on both paths,
    string ops and syscalls included."""
    def body(asm):
        data = asm.data(0x7000, bytes(512))
        asm.mov(ESI, data)
        asm.mov(EDI, 0x7200)
        asm.mov(ECX, 64)
        asm.rep_movsd()
        msg = asm.data(0x7400, b"hi")
        asm.mov(EAX, SYS_WRITE)
        asm.mov(EBX, 1)
        asm.mov(ECX, msg)
        asm.mov(EDX, 2)
        asm.syscall()
        asm.exit(0)
    asm = Assembler()
    body(asm)
    program = asm.program()
    state, memory = _fresh(program)
    interp = Interpreter(GisaFrontend(), state, memory, fastpath=fastpath)
    per_step = _run(interp, GuestOS())
    assert per_step == interp.ir_ops_evaluated
    assert interp.ir_ops_evaluated > 0


def test_rep_string_op_chunked_and_restartable():
    """Satellite fix: a REP with a large count yields in bounded chunks
    (completed=False), decrementing ECX as it goes; EIP and icount only
    advance when the count reaches zero."""
    def body(asm):
        asm.data(0x7000, bytes(4 * 64))
        asm.mov(ESI, 0x7000)
        asm.mov(EDI, 0x7400)
        asm.mov(ECX, 10)
        asm.rep_movsd()
        asm.exit(0)
    asm = Assembler()
    body(asm)
    program = asm.program()
    state, memory = _fresh(program)
    interp = Interpreter(GisaFrontend(), state, memory)
    interp.string_chunk_elements = 4          # force chunking
    for _ in range(3):                        # the leading movs
        assert interp.step().status == OK
    rep_eip = state.eip
    icount_before = interp.icount

    r1 = interp.step()
    assert (r1.completed, r1.ir_ops) == (False, 4 * 3)
    assert state.get("ECX") == 6
    assert state.eip == rep_eip               # still on the REP
    assert interp.icount == icount_before     # not retired yet

    r2 = interp.step()
    assert (r2.completed, state.get("ECX")) == (False, 2)

    r3 = interp.step()
    assert (r3.completed, r3.ir_ops) == (True, 2 * 3)
    assert state.get("ECX") == 0
    assert state.eip != rep_eip
    assert interp.icount == icount_before + 1
    # Accounting covered all 10 elements exactly once.
    assert r1.ir_ops + r2.ir_ops + r3.ir_ops == 10 * 3


# -- host emulator fast path: full-system identity -----------------------------


def test_host_fastpath_full_system_identity():
    """With fast paths on vs off, every simulated quantity must be
    byte-identical: only wall-clock is allowed to change."""
    spec = SyntheticSpec(seed=5, hot_loops=2, trip_count=400, bb_size=6,
                        branchy=True, mem_ops=1, fp_ops=1)
    base = dict(bbm_threshold=3, sbm_threshold=8)

    def run(fast):
        result, controller = run_codesigned(
            generate(spec),
            config=TolConfig(host_fastpath=fast, **base))
        tol = controller.codesigned.tol
        return result, tol

    result_fast, tol_fast = run(True)
    result_slow, tol_slow = run(False)
    assert result_fast.exit_code == result_slow.exit_code == 0
    assert result_fast.guest_icount == result_slow.guest_icount
    assert result_fast.stdout == result_slow.stdout
    assert result_fast.validations == result_slow.validations
    assert tol_fast.host.host_insns_total == tol_slow.host.host_insns_total
    assert tol_fast.host.host_insns_wasted == tol_slow.host.host_insns_wasted
    assert tol_fast.mode_distribution() == tol_slow.mode_distribution()
    assert tol_fast.interp.ir_ops_evaluated == \
        tol_slow.interp.ir_ops_evaluated
    assert tol_fast.overhead.counters == tol_slow.overhead.counters
    # The fast run must actually have exercised translated units.
    assert tol_fast.mode_distribution()["BBM"] > 0


# -- direct (IR-less) tier: full-system identity --------------------------------

#: Counters that legitimately differ with the direct tier on: they
#: describe *how* the simulator executed (wall-clock bookkeeping), not
#: any simulated quantity.
DIRECT_WALLCLOCK_COUNTERS = (
    "host.direct.",
    # Fuzzer coverage edges for the direct tier count compiles and
    # strips — which-path instrumentation, not simulated quantities.
    # (cov.exit/cov.shape/cov.quarantine stay under the identity
    # contract: direct programs must mirror exit accounting exactly.)
    "cov.direct.",
)


def _simulated_counters(snapshot):
    return {name: value for name, value in snapshot.counters.items()
            if not name.startswith(DIRECT_WALLCLOCK_COUNTERS)}


def test_direct_tier_full_system_identity():
    """With the direct tier on vs off, every simulated quantity —
    retired-per-mode counts, overhead breakdown, host accounting,
    telemetry counters, guest-visible output — must be bit-identical;
    only the wall-clock path counters may differ."""
    from repro.workloads import get_workload
    base = dict(bbm_threshold=3, sbm_threshold=8, telemetry="counters")

    def run(direct):
        program = get_workload("429.mcf").program(scale=0.1)
        result, controller = run_codesigned(
            program, config=TolConfig(host_fastpath=direct, **base))
        return result, controller.codesigned.tol

    result_on, tol_on = run(True)
    result_off, tol_off = run(False)
    assert result_on.exit_code == result_off.exit_code == 0
    assert result_on.guest_icount == result_off.guest_icount
    assert result_on.stdout == result_off.stdout
    assert result_on.validations == result_off.validations
    assert tol_on.mode_distribution() == tol_off.mode_distribution()
    assert tol_on.overhead.counters == tol_off.overhead.counters
    host_on, host_off = tol_on.host, tol_off.host
    assert host_on.host_insns_total == host_off.host_insns_total
    assert host_on.host_insns_committed == host_off.host_insns_committed
    assert host_on.host_committed_by_mode == host_off.host_committed_by_mode
    assert host_on.host_insns_wasted == host_off.host_insns_wasted
    assert host_on.guest_retired_total == host_off.guest_retired_total
    assert host_on.ibtc.hits == host_off.ibtc.hits
    assert host_on.ibtc.misses == host_off.ibtc.misses
    assert _simulated_counters(result_on.telemetry) == \
        _simulated_counters(result_off.telemetry)
    # The comparison is only meaningful if the tier actually ran.
    assert tol_on.stats.direct_tier["compiled"] > 0
    assert host_on.direct_entries > 0
    assert host_on.direct_insns > 0
    assert host_off.direct_entries == 0


@pytest.mark.parametrize("name", ["462.libquantum", "429.mcf",
                                  "470.lbm"])
def test_programs_at_first_entry_keep_per_mode_accounting(name):
    """Programs from the first entry against the reference loop: Fig.
    5's numerator, the host instructions committed per mode, and the
    guest instructions retired per mode must match, and in both forms
    every committed host instruction is charged to a mode.  A call whose
    commits all retire zero guest instructions still commits host
    instructions."""
    from repro.workloads import get_workload

    def run(config):
        result, controller = run_codesigned(
            get_workload(name).program(scale=0.02),
            config=TolConfig(**config))
        return result, controller.codesigned.tol.host

    result_on, host_on = run({})
    result_off, host_off = run(dict(host_fastpath=False))
    assert result_on.guest_icount == result_off.guest_icount
    assert host_on.host_committed_by_mode == host_off.host_committed_by_mode
    assert host_on.guest_retired_by_mode == host_off.guest_retired_by_mode
    for host in (host_on, host_off):
        assert sum(host.host_committed_by_mode.values()) \
            == host.host_insns_committed
    assert host_on.direct_entries > 0


def test_direct_tier_traced_timing_identity():
    """Under a timing trace the direct tier compiles its traced variant
    (per-instruction records delivered segment-batched); the cycle-level
    report must be identical to the tier-off run."""
    from repro.timing.run import run_with_timing

    # A branchy multi-unit loop, so that programs chain into each other;
    # speculation stays off, so quarantine churn does not retranslate
    # units on this short run.
    spec = SyntheticSpec(seed=5, hot_loops=2, trip_count=400, bb_size=6,
                         branchy=True, mem_ops=1, fp_ops=1)
    base = dict(bbm_threshold=3, sbm_threshold=8, mem_speculation=False)

    def run(direct):
        result, controller, core = run_with_timing(
            generate(spec),
            tol_config=TolConfig(host_fastpath=direct, **base),
            include_tol_overhead=True, validate=False)
        assert result.exit_code == 0
        return result, controller.codesigned.tol, core

    result_on, tol_on, core_on = run(True)
    result_off, tol_off, core_off = run(False)
    assert result_on.guest_icount == result_off.guest_icount
    assert tol_on.host.host_insns_total == tol_off.host.host_insns_total
    assert core_on.report() == core_off.report()
    # The traced run really executed through traced direct programs.
    assert tol_on.host.direct_entries > 0
    assert any(getattr(u, "_directprog_traced", None) is not None
               for u in tol_on.cache.units())
    assert all(getattr(u, "_directprog_traced", None) is None
               for u in tol_off.cache.units())


# -- validation epoch ----------------------------------------------------------


def test_validate_min_icount_gap_amortizes_validation():
    def body(asm):
        msg = asm.data(0xB000, b"x")
        with asm.counted_loop(EDI, 8):
            asm.mov(EAX, SYS_WRITE)
            asm.mov(EBX, 1)
            asm.mov(ECX, msg)
            asm.mov(EDX, 1)
            asm.syscall()
        asm.exit(0)
    asm = Assembler()
    body(asm)
    program = asm.program()

    seed_cfg = TolConfig(bbm_threshold=3, sbm_threshold=8)
    result, _ = run_codesigned(program, config=seed_cfg)
    assert result.validations == result.syscalls + 1   # seed behaviour

    asm2 = Assembler()
    body(asm2)
    huge = TolConfig(bbm_threshold=3, sbm_threshold=8,
                     validate_min_icount_gap=10**9)
    result2, _ = run_codesigned(asm2.program(), config=huge)
    assert result2.syscalls == result.syscalls
    assert result2.validations == 1                    # final comparison only

    asm3 = Assembler()
    body(asm3)
    modest = TolConfig(bbm_threshold=3, sbm_threshold=8,
                       validate_min_icount_gap=20)
    result3, _ = run_codesigned(asm3.program(), config=modest)
    assert 1 <= result3.validations <= result.validations


# -- host fast path under a timing trace ---------------------------------------


def test_host_fastpath_traced_timing_identity():
    """Generated programs stay active while a trace sink is attached,
    delivering their buffered records at unit boundaries.  The timing
    simulation must be cycle-identical to the reference traced path,
    and the fast run must actually run traced programs."""
    from repro.timing.run import run_with_timing

    spec = SyntheticSpec(seed=5, hot_loops=2, trip_count=400, bb_size=6,
                        branchy=True, mem_ops=1, fp_ops=1)
    base = dict(bbm_threshold=3, sbm_threshold=8)

    def run(fast):
        result, controller, core = run_with_timing(
            generate(spec),
            tol_config=TolConfig(host_fastpath=fast, **base),
            include_tol_overhead=True, validate=False)
        assert result.exit_code == 0
        tol = controller.codesigned.tol
        return result, tol, core

    result_fast, tol_fast, core_fast = run(True)
    result_slow, tol_slow, core_slow = run(False)
    assert result_fast.guest_icount == result_slow.guest_icount
    assert tol_fast.host.host_insns_total == tol_slow.host.host_insns_total
    # Cycle-level identity: the record stream the core saw is the same.
    assert core_fast.report() == core_slow.report()
    # The traced fast run really ran generated programs.
    assert any(getattr(u, "_directprog_traced", None) is not None
               for u in tol_fast.cache.units())
    assert all(getattr(u, "_directprog_traced", None) is None
               for u in tol_slow.cache.units())
