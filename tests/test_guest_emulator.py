"""Behavioural tests for the reference guest emulator."""

import math
import random
import struct

import pytest

from repro.guest.assembler import (
    EAX, EBX, ECX, EDX, EBP, ESI, EDI, ESP, F0, F1, F2, V0, V1, Assembler, M,
)
from repro.guest.emulator import GuestEmulator
from repro.guest.program import pack_f64s, pack_u32s, unpack_u32s
from repro.guest.semantics import (
    COS_RECIPE, SIN_RECIPE, eval_recipe, gisa_cos, gisa_sin,
)
from repro.guest.syscalls import SYS_RAND, SYS_WRITE


def run_asm(build, max_steps=200_000, stdin=b""):
    """Assemble via `build(asm)`, run to exit, return the emulator."""
    asm = Assembler()
    build(asm)
    program = asm.program()
    from repro.guest.syscalls import GuestOS
    emu = GuestEmulator(program, os=GuestOS(stdin=stdin))
    emu.run(max_steps=max_steps)
    assert emu.halted, "program did not exit"
    return emu


def test_mov_add_exit_code():
    def build(asm):
        asm.mov(EBX, 30)
        asm.add(EBX, 12)
        asm.mov(EAX, 1)  # SYS_EXIT
        asm.syscall()
    emu = run_asm(build)
    assert emu.os.exit_code == 42


def test_flags_zero_sign_carry():
    def build(asm):
        asm.mov(EAX, 1)
        asm.sub(EAX, 1)      # ZF=1
        asm.mov(EBX, 0)
        asm.je("was_zero")
        asm.mov(EBX, 99)
        asm.label("was_zero")
        asm.mov(ECX, 0)
        asm.sub(ECX, 1)      # borrow: CF=1, SF=1
        asm.mov(EDX, 0)
        asm.jb("carry_set")
        asm.mov(EDX, 99)
        asm.label("carry_set")
        asm.mov(EDI, EBX)
        asm.exit(0)
    emu = run_asm(build)
    assert emu.state.get("EDI") == 0
    assert emu.state.get("EDX") == 0
    assert emu.state.get("ECX") == 0xFFFFFFFF


def test_signed_vs_unsigned_conditions():
    def build(asm):
        asm.mov(EAX, 0xFFFFFFFF)  # -1 signed, huge unsigned
        asm.cmp(EAX, 1)
        asm.mov(EBX, 0)
        asm.jl("signed_less")     # -1 < 1 signed
        asm.mov(EBX, 1)
        asm.label("signed_less")
        asm.mov(ECX, 1)
        asm.cmp(EAX, 1)
        asm.ja("unsigned_above")  # 0xFFFFFFFF > 1 unsigned
        asm.mov(ECX, 0)
        asm.label("unsigned_above")
        asm.mov(EDI, EBX)
        asm.exit(0)
    emu = run_asm(build)
    assert emu.state.get("EDI") == 0
    assert emu.state.get("ECX") == 1


def test_counted_loop_sum():
    def build(asm):
        asm.mov(EAX, 0)
        asm.mov(EBX, 0)
        with asm.counted_loop(ECX, 10):
            asm.inc(EBX)
            asm.add(EAX, EBX)
        asm.mov(EDX, EAX)
        asm.exit(0)
    emu = run_asm(build)
    # loop counts ECX down; EBX goes 1..10 -> sum 55
    assert emu.state.get("EDX") == 55


def test_memory_load_store_addressing():
    def build(asm):
        base = asm.data(0x3000, pack_u32s([11, 22, 33, 44]))
        asm.mov(EBP, base)
        asm.mov(ESI, 2)
        asm.mov(EAX, M(EBP, ESI, 4))      # load element 2 -> 33
        asm.mov(M(EBP, disp=12), EAX)     # store over element 3
        asm.mov(EDI, EAX)
        asm.exit(0)
    emu = run_asm(build)
    assert emu.state.get("EDI") == 33
    assert unpack_u32s(emu.memory.read_bytes(0x3000, 16)) == (11, 22, 33, 33)


def test_push_pop_call_ret():
    def build(asm):
        asm.mov(EAX, 5)
        asm.call("double_it")
        asm.mov(EDI, EAX)
        asm.exit(0)
        asm.label("double_it")
        asm.push(EAX)
        asm.add(EAX, EAX)
        asm.pop(ECX)         # original value
        asm.add(EAX, ECX)    # EAX = 3 * original
        asm.ret()
    emu = run_asm(build)
    assert emu.state.get("EDI") == 15


def test_idiv_quotient_remainder():
    def build(asm):
        asm.mov(EAX, 17)
        asm.mov(ECX, 5)
        asm.idiv(ECX)
        asm.mov(EDI, EAX)   # quotient 3
        asm.mov(ESI, EDX)   # remainder 2
        asm.exit(0)
    emu = run_asm(build)
    assert emu.state.get("EDI") == 3
    assert emu.state.get("ESI") == 2


def test_idiv_negative_truncates_toward_zero():
    def build(asm):
        asm.mov(EAX, 0xFFFFFFEF)  # -17
        asm.mov(ECX, 5)
        asm.idiv(ECX)
        asm.mov(ESI, EAX)
        asm.mov(EDI, EDX)
        asm.exit(0)
    emu = run_asm(build)
    assert emu.state.get("ESI") == 0xFFFFFFFD  # -3
    assert emu.state.get("EDI") == 0xFFFFFFFE  # -2


def test_shifts_and_logic():
    def build(asm):
        asm.mov(EAX, 0b1011)
        asm.shl(EAX, 4)
        asm.mov(ESI, EAX)
        asm.shr(EAX, 2)
        asm.mov(EDI, EAX)
        asm.mov(ECX, 0x80000000)
        asm.sar(ECX, 31)
        asm.mov(EDX, 0xF0F0)
        asm.emit("AND", EDX, 0x0FF0)
        asm.exit(0)
    emu = run_asm(build)
    assert emu.state.get("ESI") == 0b10110000
    assert emu.state.get("EDI") == 0b101100
    assert emu.state.get("ECX") == 0xFFFFFFFF
    assert emu.state.get("EDX") == 0x00F0


def test_imul_wraps():
    def build(asm):
        asm.mov(EAX, 0x10000)
        asm.imul(EAX, 0x10000)   # 2^32 -> wraps to 0
        asm.mov(ESI, EAX)
        asm.exit(0)
    emu = run_asm(build)
    assert emu.state.get("ESI") == 0


def test_fp_arith_and_trig():
    def build(asm):
        src = asm.data(0x5000, pack_f64s([0.5, 2.0]))
        asm.mov(EBP, src)
        asm.fld(F0, M(EBP))
        asm.fld(F1, M(EBP, disp=8))
        asm.fadd(F0, F1)         # 2.5
        asm.fmov(F2, F0)
        asm.fsin(F2)
        asm.fst(M(EBP, disp=16), F0)
        asm.fst(M(EBP, disp=24), F2)
        asm.exit(0)
    emu = run_asm(build)
    assert emu.memory.read_f64(0x5010) == 2.5
    assert emu.memory.read_f64(0x5018) == gisa_sin(2.5)
    assert abs(gisa_sin(2.5) - math.sin(2.5)) < 1e-9


def test_trig_recipe_accuracy_across_range():
    for i in range(-20, 21):
        x = i * 0.7
        assert abs(gisa_sin(x) - math.sin(x)) < 1e-9
        assert abs(gisa_cos(x) - math.cos(x)) < 1e-9


def _trig_inputs():
    """Signed zeros, subnormals, huge values, multiples of pi and 10k
    seeded doubles over many magnitudes."""
    rng = random.Random(1801)
    out = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308,
           -1.5e-310, 1e300, -1e300, 1.7976931348623157e308]
    out += [k * math.pi for k in range(-64, 65)]
    out += [k * math.pi / 2 for k in (-(10 ** 9), -1001, 1001, 10 ** 9)]
    for _ in range(10_000):
        x = rng.uniform(-1, 1) * 10.0 ** rng.randint(-12, 20)
        if rng.random() < 0.2:  # any finite bit pattern
            x = struct.unpack("<d", rng.randbytes(8))[0]
            x = x if math.isfinite(x) else rng.uniform(-4, 4)
        out.append(x)
    return out


@pytest.mark.parametrize("fn,recipe", [(gisa_sin, SIN_RECIPE),
                                       (gisa_cos, COS_RECIPE)],
                         ids=["sin", "cos"])
def test_straight_line_trig_is_the_recipe_bit_for_bit(fn, recipe):
    """FSIN/FCOS run their recipe as generated straight-line code; the
    recipe's interpreter stays the reference."""
    for x in _trig_inputs():
        assert struct.pack("<d", fn(x)) == \
            struct.pack("<d", eval_recipe(recipe, x)), x
    for x, exc in ((math.inf, OverflowError), (-math.inf, OverflowError),
                   (math.nan, ValueError)):
        with pytest.raises(exc):
            eval_recipe(recipe, x)
        with pytest.raises(exc):
            fn(x)


def test_cvt_round_trip():
    def build(asm):
        asm.mov(EAX, 0xFFFFFFF8)     # -8
        asm.cvtif(F0, EAX)
        asm.fldi(F1, 3)
        asm.fdiv(F0, F1)             # -8/3 = -2.666..
        asm.cvtfi(EDI, F0)           # truncate -> -2
        asm.exit(0)
    emu = run_asm(build)
    assert emu.state.get("EDI") == 0xFFFFFFFE


def test_vector_ops():
    def build(asm):
        addr = asm.data(0x6000, pack_u32s([1, 2, 3, 4, 10, 20, 30, 40]))
        asm.mov(EBP, addr)
        asm.vld(V0, M(EBP))
        asm.vld(V1, M(EBP, disp=16))
        asm.vadd(V0, V1)
        asm.vst(M(EBP, disp=32), V0)
        asm.exit(0)
    emu = run_asm(build)
    assert unpack_u32s(emu.memory.read_bytes(0x6020, 16)) == (11, 22, 33, 44)


def test_rep_movsd_copies_block():
    def build(asm):
        src = asm.data(0x7000, pack_u32s(range(100, 110)))
        asm.mov(ESI, src)
        asm.mov(EDI, 0x7100)
        asm.mov(ECX, 10)
        asm.rep_movsd()
        asm.exit(0)
    emu = run_asm(build)
    assert unpack_u32s(emu.memory.read_bytes(0x7100, 40)) == tuple(
        range(100, 110))
    assert emu.state.get("ECX") == 0


def test_syscall_write_captures_stdout():
    def build(asm):
        msg = asm.data(0x8000, b"hello")
        asm.mov(EAX, SYS_WRITE)
        asm.mov(EBX, 1)
        asm.mov(ECX, msg)
        asm.mov(EDX, 5)
        asm.syscall()
        asm.exit(7)
    emu = run_asm(build)
    assert bytes(emu.os.stdout) == b"hello"
    assert emu.os.exit_code == 7


def test_syscall_rand_deterministic():
    def build(asm):
        asm.mov(EAX, SYS_RAND)
        asm.syscall()
        asm.mov(ESI, EAX)
        asm.mov(EAX, SYS_RAND)
        asm.syscall()
        asm.mov(EDI, EAX)
        asm.exit(0)
    emu1 = run_asm(build)
    emu2 = run_asm(build)
    assert emu1.state.get("ESI") == emu2.state.get("ESI")
    assert emu1.state.get("EDI") == emu2.state.get("EDI")
    assert emu1.state.get("ESI") != emu1.state.get("EDI")


def test_indirect_jump_and_call():
    def build(asm):
        asm.mov(EAX, "target")
        asm.jmpi(EAX)
        asm.mov(EDI, 111)   # skipped
        asm.exit(1)
        asm.label("target")
        asm.mov(EDI, 222)
        asm.exit(0)
    emu = run_asm(build)
    assert emu.state.get("EDI") == 222
    assert emu.os.exit_code == 0


def test_icount_and_branch_count():
    def build(asm):
        asm.mov(EAX, 0)
        with asm.counted_loop(ECX, 5):
            asm.inc(EAX)
        asm.exit(0)
    emu = run_asm(build)
    # mov + (mov) + 5*(inc+dec+jne) + exit(3: mov,mov,syscall)
    assert emu.icount == 2 + 15 + 3
    assert emu.branch_count == 5 + 1  # 5 JNE + final syscall


def test_run_to_icount_exact():
    def build(asm):
        asm.mov(EAX, 0)
        with asm.counted_loop(ECX, 50):
            asm.inc(EAX)
        asm.exit(0)
    asm = Assembler()
    build(asm)
    program = asm.program()
    emu = GuestEmulator(program)
    emu.run_to_icount(17)
    assert emu.icount == 17
    emu.run_to_icount(100)
    assert emu.icount == 100
    with pytest.raises(Exception):
        emu.run_to_icount(50)
