"""The host's f64 loads and stores (``ldf``, ``stf``, ``sldf``, ``stfchk``).

Inside a present guest page they go straight to the page's bytes
(``repro.pycode.in_page``); a straddling access, a missing page and the
TOL area take the memory's methods.  Every case runs as one unit through
the host's reference loop and as the unit's generated program, which are
rendered from the same template and must agree on registers, memory
bytes, the dirty set, the undo log, the alias table and the host
counters, and both are checked against ``PagedMemory.read_f64`` and
``write_f64`` on a copy of the memory.
"""

import struct

import pytest

from repro.guest.memory import PAGE_SIZE, PagedMemory, PageFault
from repro.guest.state import GuestState
from repro.host.emulator import HostEmulator
from repro.host.isa import CodeUnit, HostInstr, HostOp
from repro.tol.direct import compile_direct

#: Guest pages 0x10 and 0x11 are present, 0x12 is missing.
PRESENT = (0x10, 0x11)
TOL_ADDR = 0xF000_0100
VALUE = -1.2345678e-3
#: name -> address of the access
WHERE = {"in_page": 0x10100, "missing": 0x12010, "tol": TOL_ADDR}
WHERE.update((f"straddle_{o}", 0x10 * PAGE_SIZE + o)
             for o in range(4089, 4096))
WHERE.update((f"straddle_missing_{o}", 0x11 * PAGE_SIZE + o)
             for o in range(4089, 4096))
FP_OPS = ("ldf", "stf", "sldf", "stfchk")
#: alias-table sequence numbers of the speculative ops
SEQ = {"sldf": 5, "stfchk": 2}


def _memory():
    memory = PagedMemory(demand_zero=False)
    for page in PRESENT:
        memory.install_page(page, bytes((page * 3 + i) & 0xFF
                                        for i in range(PAGE_SIZE)))
    return memory


def _op(op, base_reg=21, imm=0):
    """``op`` at ``I[base_reg] + imm``: a load writes F20, a store
    stores F22."""
    meta = {"seq": SEQ[op]} if op in SEQ else {}
    if op in HostOp.STORE:
        return HostInstr(op, a=base_reg, b=22, imm=imm, meta=meta)
    return HostInstr(op, d=20, a=base_reg, imm=imm, meta=meta)


def _unit(body, chkpt):
    instrs = [HostInstr("chkpt", meta={"guest_pc": 0x1000})] if chkpt \
        else []
    instrs += [*body, HostInstr("exit", meta={"next_pc": 0x2000,
                                              "guest_insns": 1})]
    return CodeUnit(uid=1, mode="BBM", entry_pc=0x1000, instrs=instrs)


def _bits(value):
    return struct.pack("<d", value).hex() if isinstance(value, float) \
        else value


def _run(body, program, chkpt=True, regs=None):
    """Run ``body`` as a unit through the reference loop or, with
    ``program``, as its generated program; everything it can change."""
    emu = HostEmulator(_memory())
    if program:
        emu.direct_promote_hook = lambda unit: setattr(
            unit, "_directprog", compile_direct(unit, emu))
    emu.fregs[22] = VALUE
    for index, value in (regs or {}).items():
        emu.iregs[index] = value
    emu.memory.clear_dirty()
    replayed = []
    emu.undo_check = lambda unit: replayed.append(
        [[kind, addr, _bits(old)] for kind, addr, old in emu._undo])
    try:
        event = emu.execute(_unit(body, chkpt), GuestState())
        outcome = [event.kind, event.next_pc, event.fault_addr,
                   event.host_insns]
    except Exception as exc:  # noqa: BLE001 (the type is the result)
        outcome = ["raise", type(exc).__name__]
    return {
        "outcome": outcome,
        "f20": _bits(emu.fregs[20]),
        "pages": {p: emu.memory.export_page(p).hex()
                  for p in emu.memory.present_pages()},
        "dirty": sorted(emu.memory.dirty),
        "tol": emu.tol_memory.read_bytes(TOL_ADDR, 16).hex(),
        "undo": [[kind, addr, _bits(old)] for kind, addr, old in emu._undo],
        "replayed": replayed,
        "alias": [list(entry) for entry in emu.alias_table.entries],
        "counters": [emu.host_insns_total, emu.host_insns_committed,
                     emu.host_insns_wasted, emu.alias_search_insns,
                     emu.guest_retired_total],
    }


def _by_methods(op, addr):
    """The access through ``PagedMemory``'s methods on a copy: the value
    read or the page bytes written, or the fault address."""
    memory = _memory()
    try:
        if op in HostOp.STORE:
            memory.write_f64(addr, VALUE)
            return "ok", {p: memory.export_page(p).hex()
                          for p in memory.present_pages()}
        return "ok", _bits(memory.read_f64(addr))
    except PageFault as fault:
        return "fault", fault.addr


@pytest.mark.parametrize("chkpt", [True, False], ids=["chkpt", "no_chkpt"])
@pytest.mark.parametrize("where", WHERE)
@pytest.mark.parametrize("op", FP_OPS)
def test_fp_access_forms_agree_with_the_memory_methods(op, where, chkpt):
    addr = WHERE[where]
    reference = _run([_op(op)], False, chkpt, {21: addr})
    program = _run([_op(op)], True, chkpt, {21: addr})
    assert program == reference
    if where == "tol":
        return
    kind, want = _by_methods(op, addr)
    if kind == "fault":
        if chkpt:
            assert reference["outcome"][0] == "page_fault"
            assert reference["outcome"][2] == want
        else:
            assert reference["outcome"] == ["raise", "HostEmulationError"]
    elif op in HostOp.STORE:
        assert reference["pages"] == want
        assert reference["dirty"] == sorted({addr >> 12,
                                             (addr + 7) >> 12})
    else:
        assert reference["f20"] == want


@pytest.mark.parametrize("op", ("stf", "stfchk"))
def test_rollback_restores_f64_bytes_from_the_undo_entry(op):
    """An in-page store logs ``('f64', addr, old)`` with the old double
    read from the page; a later store that straddles into the missing
    page faults, and rollback writes the old doubles back."""
    before = {p: _memory().export_page(p).hex() for p in PRESENT}
    addr = WHERE["in_page"]
    body = [_op(op, 21, 0), _op(op, 21, 8), _op(op, 23, 0)]
    regs = {21: addr, 23: WHERE["straddle_missing_4093"]}
    reference = _run(body, False, True, regs)
    program = _run(body, True, True, regs)
    assert program == reference
    assert reference["outcome"][0] == "page_fault"
    assert reference["outcome"][2] == 0x12 * PAGE_SIZE
    assert reference["pages"] == before
    assert reference["dirty"] == [0x10]
    assert reference["undo"] == []
    assert reference["replayed"] == [[
        ["f64", addr, _bits(_memory().read_f64(addr))],
        ["f64", addr + 8, _bits(_memory().read_f64(addr + 8))]]]

