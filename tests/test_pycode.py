"""The process-wide code table (:mod:`repro.pycode`): generated closures
that differ only in literals share one compiled shape, a shape's key
determines its source, a re-run compiles nothing new, and the table stays
within its bound without breaking the functions it already handed out."""

import random
import sys
import threading

import pytest

from repro import pycode
from repro.guest.assembler import EAX, EBX, M, Assembler
from repro.guest.memory import PagedMemory
from repro.guest.state import GuestState
from repro.host.emulator import EXIT_TOL, HostEmulator
from repro.host.isa import CodeUnit, HostInstr as H
from repro.system.controller import run_codesigned
from repro.tol import decoder, ir_eval
from repro.tol.config import TolConfig
from repro.tol.decoder import DecodedInstr, GisaFrontend
from repro.tol.direct import compile_direct
from repro.tol.interp import Interpreter
from repro.tol.ir import (
    Const, FTmp, Flag, GFReg, GReg, IRInstr, Tmp, VTmp,
)
from repro.tol.ir_eval import compile_ops, eval_ops
from repro.workloads import SyntheticSpec, generate, get_workload


def _clone_memory(memory):
    clone = PagedMemory()
    for page in memory.present_pages():
        clone.install_page(page, memory.export_page(page))
    return clone


def _outcome(run):
    """What ``run()`` returns, or the type and message of what it raises."""
    try:
        return run()
    except Exception as exc:  # compared with the other path's
        return type(exc), str(exc)


def _matches_eval_ops(ops, fn, state, memory):
    """``fn`` and ``eval_ops`` on copies of ``state`` and ``memory``
    return (or raise) the same and leave the same state and memory."""
    s_ref, s_fast = state.copy(), state.copy()
    m_ref, m_fast = _clone_memory(memory), _clone_memory(memory)
    ref = _outcome(lambda: eval_ops(ops, s_ref, m_ref))
    assert _outcome(lambda: fn(s_fast, m_fast)) == ref
    assert not s_fast.diff(s_ref)
    assert m_fast.first_difference(m_ref, list(m_ref.present_pages())) \
        is None
    return ref


def test_decode_addresses_differing_in_literals_share_one_shape():
    asm = Assembler()
    asm.data(0x7000, bytes(range(64)))
    asm.label("disp8")
    asm.add(EAX, M(EBX, disp=8))
    asm.label("disp24")
    asm.add(EAX, M(EBX, disp=24))
    asm.label("to_disp8")
    asm.jne("disp8")
    asm.label("to_disp24")
    asm.jne("disp24")
    asm.exit(0)
    program = asm.program()
    memory = PagedMemory()
    program.load_into(memory)
    state = GuestState()
    state.set("EAX", 5)
    state.set("EBX", 0x7000)
    state.flags[0] = 0                        # ZF clear: JNE taken
    frontend = GisaFrontend()
    outcomes = set()
    for pair in (("disp8", "disp24"), ("to_disp8", "to_disp24")):
        fns = []
        for label in pair:
            decoded, fn = frontend.decode_compiled(
                memory, program.label_addr(label))
            fns.append(fn)
            outcomes.add(_matches_eval_ops(decoded.ops, fn, state, memory))
        assert fns[0] is not fns[1]
        assert fns[0].__code__ is fns[1].__code__
    # The branches kept their own targets.
    assert {pc for _, pc in outcomes} >= {program.label_addr("disp8"),
                                          program.label_addr("disp24")}


def _seeded_state():
    """Random registers and flags; the integer registers point into two
    pages of random bytes, which hold no NaN or infinite double."""
    rng = random.Random(23)
    memory = PagedMemory()
    for page in (0x10, 0x11):
        memory.install_page(page, bytes(rng.getrandbits(7)
                                        for _ in range(4096)))
    state = GuestState()
    state.gpr[:] = [0x10000 + rng.randrange(0x1F00) for _ in state.gpr]
    state.fpr[:] = [rng.uniform(1.0, 1000.0) for _ in state.fpr]
    state.vr[:] = [[rng.getrandbits(32) for _ in range(4)]
                   for _ in state.vr]
    state.flags[:] = [rng.getrandbits(1) for _ in state.flags]
    return state, memory


def _hand_built():
    """Op lists for what the decoder may not emit.  Neighbours differ
    only where their keys must differ (a displacement, a temp's class)
    or must not (an int or a float constant)."""
    eax, ebx, zf, f1 = GReg(0), GReg(3), Flag(0), GFReg(1)
    t, ft, vt = Tmp(9), FTmp(9), VTmp(9)
    exits = [IRInstr("cmpeq", dst=zf, srcs=(eax, Const(5))),
             IRInstr("side_exit_true", srcs=(zf,),
                     attrs={"target_pc": 0x900}),
             IRInstr("side_exit_false", srcs=(ebx,),
                     attrs={"target_pc": 0x700}),
             IRInstr("guard_exit_false", srcs=(eax,),
                     attrs={"target_pc": 0x800})]
    return [
        [IRInstr("ld32", dst=t, srcs=(ebx,), imm=8),
         IRInstr("st32", srcs=(ebx, t), imm=12)],
        [IRInstr("ld32", dst=t, srcs=(ebx,)),
         IRInstr("st32", srcs=(ebx, t))],
        [IRInstr("ldf", dst=ft, srcs=(ebx,), imm=-8),
         IRInstr("stf", srcs=(eax, ft))],
        [IRInstr("ldf", dst=ft, srcs=(ebx,)),
         IRInstr("stf", srcs=(eax, ft), imm=16)],
        [IRInstr("ldv", dst=vt, srcs=(ebx,), imm=32),
         IRInstr("stv", srcs=(eax, vt))],
        [IRInstr("ldv", dst=vt, srcs=(ebx,)),
         IRInstr("stv", srcs=(eax, vt), imm=4)],
        [IRInstr("mov", dst=t, srcs=(eax,)), IRInstr("jmp_ind", srcs=(t,))],
        [IRInstr("mov", dst=ft, srcs=(eax,)),
         IRInstr("jmp_ind", srcs=(ft,))],
        [IRInstr("mov", dst=vt, srcs=(eax,)),
         IRInstr("exit_ind", srcs=(vt,))],
        [IRInstr("fadd", dst=ft, srcs=(f1, Const(1))),
         IRInstr("fmov", dst=f1, srcs=(ft,))],
        [IRInstr("fadd", dst=ft, srcs=(f1, Const(1.0))),
         IRInstr("fmov", dst=f1, srcs=(ft,))],
        [*exits, IRInstr("assert_true", srcs=(zf,)),
         IRInstr("exit", attrs={"next_pc": 0x1234})],
        [*exits, IRInstr("assert_false", srcs=(ebx,)),
         IRInstr("br_false", srcs=(zf,),
                 attrs={"taken_pc": 0x10, "fall_pc": 0x20})],
        [IRInstr("br_true", srcs=(Const(1),),
                 attrs={"taken_pc": 0x10, "fall_pc": 0x20})],
        [IRInstr("jmp", attrs={"target_pc": 0x44})],
    ]


def test_shape_key_determines_source(monkeypatch):
    """Every IM address of four kernels and the hand-built op lists:
    the op lists under one key write one source, and each closure, made
    from the factory its key found, matches eval_ops."""
    im_ops = []
    with monkeypatch.context() as patch:
        # The IM runs each address on eval_ops; its op list is kept.
        patch.setattr(decoder, "compile_ops", im_ops.append)
        for name in ("403.gcc", "433.milc", "ragdoll", "400.perlbench"):
            run_codesigned(get_workload(name).program(scale=0.05),
                           validate=False)
    written = []
    real_shape = ir_eval.shape

    def recording(key, write, namespace, filename):
        written.append((key, write()))
        return real_shape(key, write, namespace, filename)

    monkeypatch.setattr(ir_eval, "shape", recording)
    state, memory = _seeded_state()
    sources = {}
    for ops in im_ops + _hand_built():
        fn = compile_ops(ops)
        assert fn is not None
        key, source = written[-1]
        sources.setdefault(key, set()).add(source)
        _matches_eval_ops(ops, fn, state, memory)
    assert len(im_ops) > 1000
    assert len(sources) < len(written) / 5      # the keys recur
    assert not [key for key, group in sources.items() if len(group) > 1]


class _Planted(GisaFrontend):
    """Expands every instruction to ``ops``."""

    def __init__(self, ops):
        super().__init__()
        self.ops = ops

    def decode(self, memory, pc, alloc=None):
        return DecodedInstr(super().decode(memory, pc, alloc).guest,
                            self.ops)


@pytest.mark.parametrize("bad", [
    IRInstr("no_such_op", dst=GReg(1), srcs=(GReg(1),)),
    IRInstr("add", dst=GReg(1), srcs=(GReg(1),)),
], ids=["unknown-op", "wrong-arity"])
def test_uncompilable_op_list_is_rejected_before_writing(monkeypatch, bad):
    """compile_ops returns None without writing or compiling anything,
    and the interpreter runs the op list on eval_ops."""
    monkeypatch.setattr(pycode, "_CODES", {})
    monkeypatch.setattr(ir_eval, "_source",
                        lambda structure: pytest.fail("source written"))
    # eval_ops leaves at the jump, before the op it cannot run either.
    ops = [IRInstr("mov", dst=GReg(0), srcs=(Const(5),)),
           IRInstr("jmp", attrs={"target_pc": 0x2000}), bad]
    assert compile_ops([bad]) is None
    assert compile_ops(ops) is None
    assert pycode._CODES == {}
    asm = Assembler()
    asm.add(EAX, EBX)
    asm.exit(0)
    program = asm.program()
    memory = PagedMemory()
    program.load_into(memory)
    state = GuestState()
    state.eip = program.entry
    expected = state.copy()
    assert eval_ops(ops, expected, memory) == ("jump", 0x2000)
    expected.eip = 0x2000
    frontend = _Planted(ops)
    Interpreter(frontend, state, memory).step()
    assert not state.diff(expected)
    assert frontend.decode_compiled(memory, program.entry)[1] is None
    assert pycode._CODES == {}


def _unit(uid, body, pc=0x1000):
    instrs = [H("chkpt", meta={"guest_pc": pc}), *body,
              H("exit", meta={"next_pc": pc + 0x1000, "guest_insns": 1})]
    return CodeUnit(uid=uid, mode="BBM", entry_pc=pc, instrs=instrs)


def test_programs_differing_in_immediates_share_one_shape():
    def body(add, load):
        return [H("addi32", d=1, a=1, imm=add), H("li", d=2, imm=load),
                H("lif", d=1, imm=load)]

    cases = ((5, 0x1234, 0x1000), (-3, 77, 0x5000))
    units = [_unit(k, body(add, load), pc)
             for k, (add, load, pc) in enumerate(cases)]
    for unit, (add, load, pc) in zip(units, cases):
        emu, state = HostEmulator(PagedMemory()), GuestState()
        unit._directprog = compile_direct(unit, emu)
        state.set("EAX", 10)
        event = emu.execute(unit, state)
        assert (event.kind, event.next_pc) == (EXIT_TOL, pc + 0x1000)
        assert emu.direct_entries == 1
        assert state.get("EAX") == (10 + add) & 0xFFFFFFFF
        assert state.get("ECX") == load
        assert state.fpr[0] == float(load)
    progs = [unit._directprog for unit in units]
    assert progs[0] is not progs[1]
    assert progs[0].__code__ is progs[1].__code__


def test_rerunning_a_kernel_adds_no_code(monkeypatch):
    monkeypatch.setattr(pycode, "_CODES", {})
    program = generate(SyntheticSpec(seed=23, hot_loops=2, trip_count=80,
                                     bb_size=5, fp_ops=1, mem_ops=1,
                                     branchy=True))
    config = TolConfig(bbm_threshold=3, sbm_threshold=8)
    first, _ = run_codesigned(program, config=config)
    sources = set(pycode._CODES)
    # IM closures and programs (found by their structural keys) were
    # both made.
    assert any(key[0] == "ir" for key in sources
               if isinstance(key, tuple))
    assert any(key[0] == "direct" for key in sources
               if isinstance(key, tuple))
    second, _ = run_codesigned(program, config=config)
    assert set(pycode._CODES) == sources
    assert second.guest_icount == first.guest_icount


def test_overflow_keeps_the_bound_and_every_function_correct(monkeypatch):
    monkeypatch.setattr(pycode, "CAPACITY", 8)
    monkeypatch.setattr(pycode, "_CODES", {})
    made = []
    for k in range(40):
        # k + 1 ops long: every op list is a shape of its own.
        ops = [IRInstr("add", dst=GReg(k % 8), srcs=(GReg(k % 8), Const(j)))
               for j in range(1, k + 2)]
        made.append((ops, compile_ops(ops)))
        assert len(pycode._CODES) <= 8
    memory = PagedMemory()
    state = GuestState()
    for ops, fn in made:
        _matches_eval_ops(ops, fn, state, memory)


def test_concurrent_defines_keep_the_bound(monkeypatch):
    """Threads defining overlapping sources under a tiny bound: no
    error, every function right, and the table never over its bound."""
    monkeypatch.setattr(pycode, "CAPACITY", 16)
    monkeypatch.setattr(pycode, "_CODES", {})
    errors = []

    def work(seed):
        try:
            for k in range(300):
                n = (seed * 7 + k) % 40
                fn = pycode.define(f"def f():\n    return {n}\n", "f", {})
                assert fn() == n
                assert len(pycode._CODES) <= 16
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
