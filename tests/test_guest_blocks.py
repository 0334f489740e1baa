"""Block functions of the x86 component against single steps.

A block leader reached for the second time runs as one generated
function with the guest registers and flags in locals.  Whatever stops
it -- an instruction that raises, a ``run_to_icount`` target inside the
block, a checkpoint restore between two runs -- the emulator must be
left exactly as ``step()``, one instruction at a time, leaves it.  The
comparison is the golden file's fingerprint: counters, registers and
flags, EIP, stdout, the dirty set and the page image in first-touch
order, plus the exception's type and message.
"""

import ast
import pathlib
import struct

import repro.guest
from repro.guest.assembler import (
    EAX, EBX, ECX, ESI, F0, F1, F2, Assembler, M,
)
from repro.guest.emulator import GuestEmulator
from repro.guest.isa import INSN_SPECS
from repro.guest.memory import PAGE_SIZE, PagedMemory
from repro.guest.semantics import ROWS
from repro.workloads import get_workload
from test_guest_emulator_golden import fingerprint

DATA = 0x0030_0000


def _stepped(emu):
    while not emu.halted:
        emu.step()


def _outcome(emu, run):
    """(the exception ``run(emu)`` raised, or None; the fingerprint)."""
    try:
        run(emu)
        error = None
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    return error, fingerprint(emu, error)


def _fsin_loop():
    """F0 grows 1e100-fold per iteration; FSIN of its copy raises
    OverflowError once it is inf, in the fourth iteration, mid-block.
    The ADD's flags are overwritten by the DEC after the FSIN, so they
    are dead only if the FSIN cannot raise."""
    asm = Assembler()
    asm.data(DATA, struct.pack("<2d", 1.0, 1e100))
    asm.fld(F0, M(disp=DATA))
    asm.fld(F2, M(disp=DATA + 8))
    asm.mov(EAX, 0x7FFFFFFE)
    asm.mov(ECX, 10)
    asm.label("top")
    asm.fmul(F0, F2)
    asm.add(EAX, 1)
    asm.fmov(F1, F0)
    asm.fsin(F1)
    asm.dec(ECX)
    asm.jne("top")
    asm.exit()
    return asm.program()


def test_fsin_raising_in_a_later_iteration_stops_like_step():
    program = _fsin_loop()
    blocks = GuestEmulator(program)
    ran = _outcome(blocks, GuestEmulator.run)
    assert blocks._blocks, "the loop never ran as a block"
    assert ran[0].startswith("OverflowError")
    assert ran == _outcome(GuestEmulator(program), _stepped)
    assert blocks.icount == 4 + 6 * 3 + 3  # the fourth FSIN did not retire


def _lone_fsin_loop():
    """The loop head is an FSIN followed by a SYSCALL (EAX holds no
    syscall number, so it only sets EAX), so its block is the FSIN
    alone: the closure's function.  It raises in the fifth iteration."""
    asm = Assembler()
    asm.data(DATA, struct.pack("<2d", 1.0, 1e100))
    asm.fld(F0, M(disp=DATA))
    asm.fld(F2, M(disp=DATA + 8))
    asm.mov(ECX, 10)
    asm.label("top")
    asm.fsin(F1)
    asm.syscall()
    asm.fmul(F0, F2)
    asm.fmov(F1, F0)
    asm.dec(ECX)
    asm.jne("top")
    asm.exit()
    return asm.program()


def test_one_instruction_block_raising_stops_like_step():
    program = _lone_fsin_loop()
    blocks = GuestEmulator(program)
    ran = _outcome(blocks, GuestEmulator.run)
    top = program.labels["top"]
    assert blocks._blocks[top][2] == 1
    assert ran[0].startswith("OverflowError")
    assert ran == _outcome(GuestEmulator(program), _stepped)
    assert blocks.state.eip == top
    assert blocks.icount == 3 + 6 * 4


def _lazy_memory_loop():
    """ESI walks a present page 1 KiB at a time into a missing one: the
    load, second in the block, faults in the fifth iteration."""
    asm = Assembler()
    asm.mov(ESI, DATA)
    asm.mov(EAX, 0x7FFFFFFF)
    asm.mov(ECX, 10)
    asm.label("top")
    asm.add(EAX, 1)
    asm.mov(EBX, M(base=ESI))
    asm.add(ESI, 1024)
    asm.dec(ECX)
    asm.jne("top")
    asm.exit()
    return asm.program()


def _lazy(program):
    """An emulator whose memory holds the code page and the data page,
    and raises PageFault for any other."""
    memory = PagedMemory(demand_zero=False)
    memory.install_page(program.base >> 12, bytes(PAGE_SIZE))
    memory.install_page(DATA >> 12, bytes(range(256)) * 16)
    return GuestEmulator(program, memory=memory)


def test_page_fault_mid_block_stops_like_step():
    program = _lazy_memory_loop()
    blocks = _lazy(program)
    ran = _outcome(blocks, GuestEmulator.run)
    assert blocks._blocks, "the loop never ran as a block"
    assert ran[0] == f"PageFault: page fault at {DATA + PAGE_SIZE:#010x}"
    assert ran == _outcome(_lazy(program), _stepped)
    load = blocks.fetch(program.labels["top"]).next_addr
    assert blocks.state.eip == load
    assert blocks.state.gpr[0] == 0x80000004  # the ADD before it retired


def test_run_to_every_target_of_a_looped_kernel():
    program = get_workload("429.mcf").program(scale=0.02)
    stepped, chained = GuestEmulator(program), GuestEmulator(program)
    for target in range(1, 201):
        fresh = GuestEmulator(program)
        fresh.run_to_icount(target)
        chained.run_to_icount(target)
        stepped.step()
        assert fingerprint(fresh) == fingerprint(chained) == \
            fingerprint(stepped), target
    assert chained._blocks, "no block was made in 200 instructions"


def _counting_loop():
    """A loop over one data page: load, add, store, flags, branch."""
    asm = Assembler()
    asm.data(DATA, bytes(range(256)) * 16)
    asm.mov(ESI, DATA)
    asm.mov(ECX, 300)
    asm.label("top")
    asm.mov(EAX, M(base=ESI, index=ECX, scale=4, disp=-4))
    asm.add(EBX, EAX)
    asm.xor(EAX, EBX)
    asm.mov(M(base=ESI, index=ECX, scale=4, disp=0x40), EAX)
    asm.dec(ECX)
    asm.jne("top")
    asm.exit()
    return asm.program()


def test_restore_and_install_page_between_two_runs():
    """``GuestState.restore`` replaces the register lists and
    ``install_page`` the page objects: a block must read and write the
    ones that are current when it runs."""
    program = _counting_loop()
    emu = GuestEmulator(program)
    emu.run_to_icount(400)
    memory = emu.memory
    saved = (emu.state.snapshot(), emu.icount, emu.branch_count,
             emu.bb_count, dict(emu.class_counts), set(memory.dirty),
             {p: memory.export_page(p) for p in memory.present_pages()})
    emu.run_to_icount(900)
    first = fingerprint(emu)
    state, emu.icount, emu.branch_count, emu.bb_count, counts, dirty, \
        pages = saved
    emu.state.restore(state)
    emu.class_counts.clear()
    emu.class_counts.update(counts)
    memory.dirty.clear()
    memory.dirty.update(dirty)
    for page, image in pages.items():
        memory.install_page(page, image)
    emu.run_to_icount(900)
    stepped = GuestEmulator(program)
    while stepped.icount < 900:
        stepped.step()
    assert fingerprint(emu) == first == fingerprint(stepped)


def test_every_mnemonic_has_a_row_with_a_role_per_operand():
    assert sorted(ROWS) == sorted(INSN_SPECS)
    assert {m: len(ROWS[m][0]) for m in ROWS} == \
        {m: len(spec.operands) for m, spec in INSN_SPECS.items()}


def test_guest_modules_import_nothing_from_tol_or_host():
    """The x86 component states guest semantics on its own: validation
    compares it with the translator, so it must not share their code."""
    offenders = []
    for path in pathlib.Path(repro.guest.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            offenders += [(path.name, name) for name in names
                          if name.startswith(("repro.tol", "repro.host"))]
    assert offenders == []
