"""Decoder corner cases: instructions with tricky semantics, verified
against the reference emulator through the interpreter harness."""

import pytest

from repro.guest.assembler import (
    Assembler, EAX, EBX, ECX, EDX, EBP, ESI, EDI, ESP, M,
)
from repro.guest.emulator import GuestEmulator
from repro.guest.memory import PagedMemory
from repro.guest.program import pack_u32s
from repro.guest.state import GuestState
from repro.tol.decoder import GisaFrontend
from repro.tol.interp import Interpreter, OK, SYSCALL


def lockstep(build, max_steps=20_000):
    asm = Assembler()
    build(asm)
    program = asm.program()
    ref = GuestEmulator(program)
    memory = PagedMemory()
    program.load_into(memory)
    state = GuestState()
    state.eip = program.entry
    state.set("ESP", program.stack_top)
    interp = Interpreter(GisaFrontend(), state, memory)
    steps = 0
    while steps < max_steps:
        result = interp.step()
        if result.status != OK:
            break
        ref.step()
        diff = state.diff(ref.state)
        assert not diff, f"diverged at step {steps}: {diff}"
        steps += 1
    return ref.state


def test_pop_esp_loads_value():
    def build(asm):
        asm.mov(EAX, 0xCAFE)
        asm.push(EAX)
        asm.pop(ESP)          # ESP = loaded value, no +4 visible
        asm.mov(EDI, ESP)
        asm.mov(ESP, 0x7FFF0000)
        asm.exit(0)
    state = lockstep(build)
    assert state.get("EDI") == 0xCAFE


def test_push_esp_pushes_old_value():
    def build(asm):
        asm.mov(ESP, 0x7FFE0000)
        asm.push(ESP)
        asm.pop(EDI)          # original ESP value
        asm.exit(0)
    state = lockstep(build)
    assert state.get("EDI") == 0x7FFE0000


def test_shift_by_zero_keeps_flags():
    def build(asm):
        asm.mov(EAX, 0)
        asm.sub(EAX, 1)       # CF=1 SF=1
        asm.mov(EBX, 5)
        asm.shl(EBX, 0)       # count 0: flags and value unchanged
        asm.mov(EDI, 0)
        asm.jb("cf_alive")
        asm.mov(EDI, 1)
        asm.label("cf_alive")
        asm.mov(ESI, EBX)
        asm.exit(0)
    state = lockstep(build)
    assert state.get("EDI") == 0
    assert state.get("ESI") == 5


def test_shift_count_masks_to_31():
    def build(asm):
        asm.mov(EAX, 1)
        asm.shl(EAX, 33)      # masked to 1
        asm.mov(EDI, EAX)
        asm.exit(0)
    state = lockstep(build)
    assert state.get("EDI") == 2


def test_idiv_by_zero_defined_semantics():
    def build(asm):
        asm.mov(EAX, 1234)
        asm.mov(EBX, 0)
        asm.idiv(EBX)         # ISA-defined: q=0, r=dividend
        asm.mov(ESI, EAX)
        asm.mov(EDI, EDX)
        asm.exit(0)
    state = lockstep(build)
    assert state.get("ESI") == 0
    assert state.get("EDI") == 1234


def test_idiv_intmin_by_minus_one_wraps():
    def build(asm):
        asm.mov(EAX, 0x80000000)
        asm.mov(EBX, 0xFFFFFFFF)
        asm.idiv(EBX)
        asm.mov(ESI, EAX)
        asm.exit(0)
    state = lockstep(build)
    assert state.get("ESI") == 0x80000000  # wraps like the reference


def test_jmpi_through_memory_operand():
    def build(asm):
        asm.mov(EAX, "target")
        asm.mov(M(None, disp=0x9000), EAX)
        asm.jmpi(M(None, disp=0x9000))
        asm.mov(EDI, 1)
        asm.exit(1)
        asm.label("target")
        asm.mov(EDI, 2)
        asm.exit(0)
    state = lockstep(build)
    assert state.get("EDI") == 2


def test_calli_through_register():
    def build(asm):
        asm.mov(EAX, "fn")
        asm.calli(EAX)
        asm.mov(EDI, EBX)
        asm.exit(0)
        asm.label("fn")
        asm.mov(EBX, 77)
        asm.ret()
    state = lockstep(build)
    assert state.get("EDI") == 77


def test_lea_does_not_touch_memory_or_flags():
    def build(asm):
        asm.mov(EAX, 0)
        asm.sub(EAX, 1)                     # CF=1
        asm.mov(EBX, 0x100)
        asm.mov(ECX, 3)
        asm.lea(EDX, M(EBX, ECX, 8, disp=0x20))
        asm.mov(EDI, 0)
        asm.jb("kept")
        asm.mov(EDI, 9)
        asm.label("kept")
        asm.exit(0)
    state = lockstep(build)
    assert state.get("EDX") == 0x100 + 3 * 8 + 0x20
    assert state.get("EDI") == 0


def test_neg_zero_clears_cf():
    def build(asm):
        asm.mov(EAX, 0)
        asm.neg(EAX)          # CF = (src != 0) = 0
        asm.mov(EDI, 1)
        asm.jae("no_carry")
        asm.mov(EDI, 0)
        asm.label("no_carry")
        asm.exit(0)
    state = lockstep(build)
    assert state.get("EDI") == 1


def test_test_and_cmp_do_not_write_operands():
    def build(asm):
        asm.mov(EAX, 0xF0)
        asm.mov(EBX, 0x0F)
        asm.test(EAX, EBX)
        asm.cmp(EAX, EBX)
        asm.mov(ESI, EAX)
        asm.mov(EDI, EBX)
        asm.exit(0)
    state = lockstep(build)
    assert state.get("ESI") == 0xF0
    assert state.get("EDI") == 0x0F


def test_xchg_swaps():
    def build(asm):
        asm.mov(EAX, 1)
        asm.mov(EBX, 2)
        asm.xchg(EAX, EBX)
        asm.mov(ESI, EAX)
        asm.mov(EDI, EBX)
        asm.exit(0)
    state = lockstep(build)
    assert state.get("ESI") == 2 and state.get("EDI") == 1


def test_fcmp_nan_sets_unordered_flags():
    import struct
    from repro.guest.assembler import F0, F1

    def build(asm):
        asm.data(0x5000, struct.pack("<dd", float("nan"), 1.0))
        asm.mov(EBP, 0x5000)
        asm.fld(F0, M(EBP))
        asm.fld(F1, M(EBP, disp=8))
        asm.fcmp(F0, F1)
        asm.mov(EDI, 0)
        asm.je("unordered")      # ZF=1 on NaN
        asm.mov(EDI, 1)
        asm.label("unordered")
        asm.exit(0)
    state = lockstep(build)
    assert state.get("EDI") == 0


def test_interpreter_decode_cache_reused():
    frontend = GisaFrontend()
    asm = Assembler()
    asm.mov(EAX, 1)
    asm.exit(0)
    program = asm.program()
    memory = PagedMemory()
    program.load_into(memory)
    first = frontend.decode(memory, program.entry)
    second = frontend.decode(memory, program.entry)
    assert first is second


def test_tol_decodes_each_pc_once(monkeypatch):
    """The interpreter and every BB and superblock translation share one
    decoded guest instruction per PC."""
    import repro.tol.decoder as decoder
    from repro.system.controller import run_codesigned
    from repro.workloads import get_workload

    real, decoded = decoder.decode_instr, []

    def counting(memory, pc):
        instr = real(memory, pc)
        decoded.append(pc)
        return instr

    monkeypatch.setattr(decoder, "decode_instr", counting)
    _, controller = run_codesigned(
        get_workload("429.mcf").program(scale=0.05))
    modes = controller.codesigned.tol.mode_distribution()
    assert modes["IM"] and modes["BBM"] and modes["SBM"]
    assert decoded and len(decoded) == len(set(decoded))
