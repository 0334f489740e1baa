"""The process-wide code table (:mod:`repro.pycode`): generated closures
that differ only in literals share one compiled shape, a re-run compiles
nothing new, and the table stays within its bound without breaking the
functions it already handed out."""

import sys
import threading

from repro import pycode
from repro.guest.assembler import EAX, EBX, M, Assembler
from repro.guest.memory import PagedMemory
from repro.guest.state import GuestState
from repro.host.emulator import EXIT_TOL, HostEmulator
from repro.host.isa import CodeUnit, HostInstr as H
from repro.system.controller import run_codesigned
from repro.tol.config import TolConfig
from repro.tol.decoder import GisaFrontend
from repro.tol.direct import compile_direct
from repro.tol.ir import Const, GReg, IRInstr
from repro.tol.ir_eval import compile_ops, eval_ops
from repro.workloads import SyntheticSpec, generate


def _clone_memory(memory):
    clone = PagedMemory()
    for page in memory.present_pages():
        clone.install_page(page, memory.export_page(page))
    return clone


def _matches_eval_ops(ops, fn, state, memory):
    s_ref, s_fast = state.copy(), state.copy()
    m_ref, m_fast = _clone_memory(memory), _clone_memory(memory)
    ref = eval_ops(ops, s_ref, m_ref)
    assert fn(s_fast, m_fast) == ref
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
    assert any("def _ir_compiled(" in key for key in sources
               if isinstance(key, str))
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
