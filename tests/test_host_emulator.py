"""Unit tests for the host emulator: ALU semantics, checkpoints, asserts,
alias table, chaining and IBTC."""

import pytest

from repro.guest.memory import PagedMemory, PageFault
from repro.guest.state import GuestState
from repro.host.emulator import (
    EXIT_ASSERT, EXIT_PAGE_FAULT, EXIT_SPEC, EXIT_TOL, HostEmulator,
)
from repro.host.isa import CodeUnit, HostInstr as H, UNIT_MODE_BBM


def make_unit(instrs, uid=1, entry=0x1000, guest_insns=1, mode=UNIT_MODE_BBM):
    return CodeUnit(uid=uid, mode=mode, entry_pc=entry, instrs=instrs,
                    guest_insn_count=guest_insns)


def fresh(memory=None):
    memory = memory if memory is not None else PagedMemory()
    return HostEmulator(memory), GuestState()


def chk(pc=0x1000):
    return H("chkpt", meta={"guest_pc": pc})


def ext(next_pc, guest_insns=1):
    return H("exit", meta={"next_pc": next_pc, "guest_insns": guest_insns})


def test_simple_alu_and_exit():
    emu, state = fresh()
    state.set("EAX", 7)
    unit = make_unit([
        chk(),
        H("addi32", d=1, a=1, imm=5),       # EAX += 5
        ext(0x2000),
    ])
    event = emu.execute(unit, state)
    assert event.kind == EXIT_TOL
    assert event.next_pc == 0x2000
    assert state.get("EAX") == 12
    assert state.eip == 0x2000
    assert event.host_insns == 3


def test_wrapping_32bit_semantics():
    emu, state = fresh()
    unit = make_unit([
        chk(),
        H("li", d=16, imm=0xFFFFFFFF),
        H("addi32", d=16, a=16, imm=1),
        H("mov", d=1, a=16),
        ext(0),
    ])
    emu.execute(unit, state)
    assert state.get("EAX") == 0


def test_signed_unsigned_compares():
    emu, state = fresh()
    unit = make_unit([
        chk(),
        H("li", d=16, imm=0xFFFFFFFF),      # -1 signed
        H("li", d=17, imm=1),
        H("cmplt32s", d=1, a=16, b=17),     # -1 < 1 -> 1
        H("cmplt32u", d=2, a=16, b=17),     # huge < 1 -> 0
        ext(0),
    ])
    emu.execute(unit, state)
    assert state.get("EAX") == 1
    assert state.get("ECX") == 0


def test_flag_helper_ops():
    emu, state = fresh()
    unit = make_unit([
        chk(),
        H("li", d=16, imm=0x80000000),
        H("li", d=17, imm=0x80000000),
        H("addcf32", d=1, a=16, b=17),   # carry out -> 1
        H("addof32", d=2, a=16, b=17),   # signed overflow -> 1
        H("li", d=18, imm=3),
        H("li", d=19, imm=5),
        H("subcf32", d=4, a=18, b=19),   # borrow 3<5 -> 1
        H("subof32", d=6, a=18, b=19),   # no signed overflow -> 0
        ext(0),
    ])
    emu.execute(unit, state)
    assert state.get("EAX") == 1
    assert state.get("ECX") == 1
    assert state.get("EBX") == 1
    assert state.get("EBP") == 0


def test_memory_roundtrip_and_guest_state_sync():
    memory = PagedMemory()
    memory.write_u32(0x3000, 123)
    emu, state = fresh(memory)
    unit = make_unit([
        chk(),
        H("li", d=16, imm=0x3000),
        H("ld32", d=17, a=16, imm=0),
        H("addi32", d=17, a=17, imm=1),
        H("st32", a=16, b=17, imm=4),
        ext(0),
    ])
    emu.execute(unit, state)
    assert memory.read_u32(0x3004) == 124


def test_assert_failure_rolls_back_registers_and_memory():
    memory = PagedMemory()
    memory.write_u32(0x3000, 111)
    emu, state = fresh(memory)
    state.set("EAX", 10)
    unit = make_unit([
        chk(0x1000),
        H("addi32", d=1, a=1, imm=90),            # EAX = 100 (speculative)
        H("li", d=16, imm=0x3000),
        H("li", d=17, imm=222),
        H("st32", a=16, b=17, imm=0),             # speculative store
        H("li", d=18, imm=0),
        H("assert_nz", a=18),                     # fails
        ext(0x9999),
    ])
    event = emu.execute(unit, state)
    assert event.kind == EXIT_ASSERT
    assert event.next_pc == 0x1000                 # precise restart point
    assert state.get("EAX") == 10                  # register rolled back
    assert memory.read_u32(0x3000) == 111          # store undone
    assert unit.assert_failures == 1
    assert unit.host_insns_wasted == 7
    assert unit.guest_insns_retired == 0


def test_commit_then_fail_keeps_committed_region():
    memory = PagedMemory()
    emu, state = fresh(memory)
    unit = make_unit([
        chk(0x1000),
        H("li", d=16, imm=0x3000),
        H("li", d=17, imm=7),
        H("st32", a=16, b=17, imm=0),
        H("commit", meta={"guest_insns": 2}),
        chk(0x1020),
        H("li", d=18, imm=9),
        H("st32", a=16, b=18, imm=0),
        H("li", d=19, imm=0),
        H("assert_nz", a=19),
        ext(0x9999),
    ])
    event = emu.execute(unit, state)
    assert event.kind == EXIT_ASSERT
    assert event.next_pc == 0x1020                 # restart at second chkpt
    assert memory.read_u32(0x3000) == 7            # committed store kept
    assert unit.guest_insns_retired == 2


def test_spec_load_store_conflict_detected():
    memory = PagedMemory()
    memory.write_u32(0x4000, 5)
    emu, state = fresh(memory)
    # Translated order: load hoisted above a store to the same address.
    unit = make_unit([
        chk(0x1000),
        H("li", d=16, imm=0x4000),
        H("sld32", d=17, a=16, imm=0, meta={"seq": 5}),   # orig. after store
        H("li", d=18, imm=42),
        H("st32chk", a=16, b=18, imm=0, meta={"seq": 2}),  # conflict!
        ext(0x9999),
    ])
    event = emu.execute(unit, state)
    assert event.kind == EXIT_SPEC
    assert event.next_pc == 0x1000
    assert memory.read_u32(0x4000) == 5
    assert unit.spec_failures == 1


def test_spec_disjoint_addresses_no_conflict():
    memory = PagedMemory()
    memory.write_u32(0x4000, 5)
    emu, state = fresh(memory)
    unit = make_unit([
        chk(0x1000),
        H("li", d=16, imm=0x4000),
        H("sld32", d=17, a=16, imm=16, meta={"seq": 5}),
        H("li", d=18, imm=42),
        H("st32chk", a=16, b=18, imm=0, meta={"seq": 2}),
        H("mov", d=1, a=17),
        ext(0x9999),
    ])
    event = emu.execute(unit, state)
    assert event.kind == EXIT_TOL
    assert memory.read_u32(0x4000) == 42


def test_alias_table_overflow_fails_conservatively():
    memory = PagedMemory()
    emu, state = fresh(memory)
    emu.alias_table.capacity = 2
    instrs = [chk(0x1000), H("li", d=16, imm=0x4000)]
    for i in range(3):
        instrs.append(
            H("sld32", d=17 + i, a=16, imm=4 * i, meta={"seq": 10 + i}))
    instrs.append(ext(0x9999))
    unit = make_unit(instrs)
    event = emu.execute(unit, state)
    assert event.kind == EXIT_SPEC


def test_page_fault_rolls_back_and_reports_addr():
    memory = PagedMemory(demand_zero=False)
    emu, state = fresh(memory)
    state.set("EAX", 77)
    unit = make_unit([
        chk(0x1000),
        H("addi32", d=1, a=1, imm=1),
        H("li", d=16, imm=0x5008),
        H("ld32", d=17, a=16, imm=0),   # faults: page not present
        ext(0x9999),
    ])
    event = emu.execute(unit, state)
    assert event.kind == EXIT_PAGE_FAULT
    assert event.fault_addr == 0x5008
    assert event.next_pc == 0x1000
    assert state.get("EAX") == 77      # speculative add rolled back


def test_intra_unit_loop_with_branches():
    emu, state = fresh()
    # Sum 1..5 with a host-level loop: r16 counter, r17 acc.
    unit = make_unit([
        chk(0x1000),                              # 0
        H("li", d=16, imm=5),                     # 1
        H("li", d=17, imm=0),                     # 2
        H("add32", d=17, a=17, b=16),             # 3 loop body
        H("addi32", d=16, a=16, imm=-1),          # 4
        H("bnez", a=16, target=3),                # 5
        H("mov", d=1, a=17),                      # 6
        ext(0x2000, guest_insns=6),               # 7
    ])
    event = emu.execute(unit, state)
    assert event.kind == EXIT_TOL
    assert state.get("EAX") == 15


def test_chaining_executes_linked_unit_without_tol():
    emu, state = fresh()
    unit_b = make_unit([
        chk(0x2000),
        H("addi32", d=1, a=1, imm=100),
        ext(0x3000),
    ], uid=2, entry=0x2000)
    exit_a = ext(0x2000)
    exit_a.meta["link"] = unit_b
    unit_a = make_unit([
        chk(0x1000),
        H("addi32", d=1, a=1, imm=1),
        exit_a,
    ], uid=1, entry=0x1000)
    event = emu.execute(unit_a, state)
    assert event.kind == EXIT_TOL
    assert event.next_pc == 0x3000
    assert state.get("EAX") == 101
    assert unit_a.exec_count == 1 and unit_b.exec_count == 1


def test_ibtc_hit_jumps_directly_miss_exits():
    emu, state = fresh()
    unit_b = make_unit([
        chk(0x2000),
        H("addi32", d=1, a=1, imm=7),
        ext(0x3000),
    ], uid=2, entry=0x2000)
    unit_a = make_unit([
        chk(0x1000),
        H("li", d=16, imm=0x2000),
        H("ibtc", a=16, meta={"guest_insns": 1}),
    ], uid=1, entry=0x1000)
    # Miss first.
    event = emu.execute(unit_a, state)
    assert event.kind == EXIT_TOL
    assert event.ibtc_miss
    assert event.next_pc == 0x2000
    # Fill and retry: hit chains straight into unit_b.
    emu.ibtc.insert(0x2000, unit_b)
    state.set("EAX", 0)
    event = emu.execute(unit_a, state)
    assert event.kind == EXIT_TOL
    assert event.next_pc == 0x3000
    assert state.get("EAX") == 7
    assert emu.ibtc.hits == 1 and emu.ibtc.misses == 1


def test_fp_ops_match_guest_semantics():
    from repro.guest.semantics import fdiv64, gisa_sqrt
    memory = PagedMemory()
    memory.write_f64(0x6000, 9.0)
    emu, state = fresh(memory)
    unit = make_unit([
        chk(0x1000),
        H("li", d=16, imm=0x6000),
        H("ldf", d=17, a=16, imm=0),
        H("fsqrt", d=18, a=17),
        H("lif", d=19, imm=0.0),
        H("fdiv", d=20, a=17, b=19),
        H("stf", a=16, b=18, imm=8),
        H("stf", a=16, b=20, imm=16),
        ext(0),
    ])
    emu.execute(unit, state)
    assert memory.read_f64(0x6008) == gisa_sqrt(9.0) == 3.0
    assert memory.read_f64(0x6010) == fdiv64(9.0, 0.0)


def test_vector_ops():
    memory = PagedMemory()
    memory.write_vec(0x7000, [1, 2, 3, 4])
    emu, state = fresh(memory)
    unit = make_unit([
        chk(0x1000),
        H("li", d=16, imm=0x7000),
        H("vld", d=9, a=16, imm=0),
        H("li", d=17, imm=10),
        H("vsplat", d=10, a=17),
        H("vadd32", d=11, a=9, b=10),
        H("vst", a=16, b=11, imm=16),
        ext(0),
    ])
    emu.execute(unit, state)
    assert memory.read_vec(0x7010) == [11, 12, 13, 14]


@pytest.mark.parametrize("writer", ["step", "direct"])
def test_vector_write_rolls_back(writer):
    """A vector register written inside a region that then fails an
    assert gets its pre-region lanes back: written by the reference
    loop (``vld``) or inside a generated program (``vld``, ``vadd32``).
    A first region commits its write, so the rollback must restore the
    second checkpoint's lanes, not the entry state's."""
    from repro.tol.direct import compile_direct

    memory = PagedMemory()
    memory.write_vec(0x7000, [7, 8, 9, 10])
    emu, state = fresh(memory)
    state.vr[0] = [1, 2, 3, 4]
    state.vr[1] = [100, 200, 300, 400]
    write = {
        "step": [H("li", d=16, imm=0x7000), H("vld", d=1, a=16, imm=0)],
        "direct": [H("li", d=16, imm=0x7000), H("vld", d=1, a=16, imm=0),
                   H("vadd32", d=1, a=1, b=2)],
    }[writer]
    unit = make_unit([
        chk(0x1000),
        H("li", d=17, imm=5),
        H("vsplat", d=2, a=17),                   # VR1 = [5] * 4
        H("commit", meta={"guest_insns": 1}),
        chk(0x1010),
        *write,
        H("li", d=18, imm=0),
        H("assert_nz", a=18),                     # fails
        ext(0x9999),
    ])
    if writer == "direct":
        unit._directprog = compile_direct(unit, emu)
        assert unit._directprog is not None
    event = emu.execute(unit, state)
    assert event.kind == EXIT_ASSERT
    assert event.next_pc == 0x1010
    assert state.vr[0] == [1, 2, 3, 4]
    assert state.vr[1] == [5, 5, 5, 5]            # first region committed
    assert emu.vregs[1] == [1, 2, 3, 4]
    if writer == "direct":
        assert emu.direct_entries == 1


def test_mode_attribution_counters():
    emu, state = fresh()
    unit = make_unit([
        chk(0x1000),
        H("addi32", d=1, a=1, imm=1),
        ext(0x2000, guest_insns=3),
    ], mode="SBM")
    emu.execute(unit, state)
    assert emu.guest_retired_by_mode["SBM"] == 3
    assert emu.host_committed_by_mode["SBM"] == 3
    assert emu.host_insns_committed == 3
    assert emu.host_insns_total == 3


def test_fuel_guard_catches_runaway_units():
    emu, state = fresh()
    emu.fuel_per_dispatch = 100
    unit = make_unit([
        chk(0x1000),
        H("j", target=1),
        ext(0),
    ])
    with pytest.raises(Exception):
        emu.execute(unit, state)
