"""Tests for the §III design-choice mechanisms: dual decoder, serial
alias-table search, hardware-assisted profiling, background translation."""

import pytest

from repro.guest.assembler import Assembler, EAX, EBX, ECX, EDI, ESI, M
from repro.guest.program import pack_u32s
from repro.tol.config import TolConfig
from repro.system.controller import run_codesigned
from repro.workloads.generator import SyntheticSpec, generate


def startup_heavy_program():
    """Lots of once-executed code plus a moderate loop: startup-delay
    dominated, like an application launch."""
    spec = SyntheticSpec(seed=42, hot_loops=1, trip_count=150, bb_size=4,
                         branchy=True, mem_ops=1, cold_stanzas=40)
    return generate(spec)


def spec_heavy_program():
    """Load/store pairs through different registers: exercises the alias
    table intensely."""
    asm = Assembler()
    asm.data(0xA000, pack_u32s(range(32)))
    asm.mov(EBX, 0xA000)
    asm.mov(ESI, 0xA000)
    asm.mov(EAX, 0)
    with asm.counted_loop(ECX, 600):
        asm.mov(EDI, M(ESI, disp=4))
        asm.mov(M(EBX, disp=8), ECX)
        asm.mov(EDI, M(ESI, disp=12))
        asm.mov(M(EBX, disp=16), EDI)
        asm.add(EAX, EDI)
    asm.mov(EDI, EAX)
    asm.exit(0)
    return asm.program()


BASE = TolConfig(bbm_threshold=5, sbm_threshold=20)


def run(program, **overrides):
    from dataclasses import replace
    config = replace(BASE, **overrides)
    return run_codesigned(program, config=config)


# -- dual decoder (startup delay, Denver vs Crusoe) ---------------------------


def test_dual_decoder_correct_and_removes_interpretation_overhead():
    program = startup_heavy_program()
    soft_result, soft = run(program)
    hw_result, hw = run(startup_heavy_program(), dual_decoder=True)
    assert soft_result.exit_code == hw_result.exit_code == 0
    soft_tol = soft.codesigned.tol
    hw_tol = hw.codesigned.tol
    # Same dynamic guest stream either way.
    assert soft_result.guest_icount == hw_result.guest_icount
    # The hardware decoder eliminates software interpretation overhead...
    assert hw_tol.overhead.counters["interpreter"] < \
        soft_tol.overhead.counters["interpreter"] / 3
    # ... moving cold-code execution into the application stream.
    assert hw_tol.app_host_insns > hw_tol.host.host_insns_total
    assert hw_tol.overhead_fraction() < soft_tol.overhead_fraction()


def test_dual_decoder_still_promotes_hot_code():
    _, controller = run(startup_heavy_program(), dual_decoder=True)
    dist = controller.codesigned.tol.mode_distribution()
    assert dist["SBM"] > 0


# -- alias table search policy (speculation detection cost) --------------------


def test_serial_alias_search_charges_per_entry():
    program = spec_heavy_program()
    _, parallel = run(program)
    _, serial = run(spec_heavy_program(), alias_serial_search=True)
    assert parallel.codesigned.tol.host.alias_search_insns == 0
    host = serial.codesigned.tol.host
    if host.alias_search_insns == 0:
        pytest.skip("no speculative pairs were reordered in this build")
    assert serial.codesigned.tol.app_host_insns > \
        parallel.codesigned.tol.app_host_insns


def test_serial_alias_search_preserves_correctness():
    result, controller = run(spec_heavy_program(),
                             alias_serial_search=True)
    assert result.exit_code == 0  # validated against the reference


@pytest.mark.parametrize("tier", ["steps", "segments", "direct"])
def test_failed_checking_store_pays_its_search_in_its_own_region(tier):
    """A checking store that fails its alias check charges the serial
    search (one host instruction per occupied entry) to the region it
    rolls back, not to whatever region executes next."""
    from repro.guest.memory import PagedMemory
    from repro.guest.state import GuestState
    from repro.host.emulator import EXIT_SPEC, EXIT_TOL, HostEmulator
    from repro.host.isa import CodeUnit, HostInstr as H
    from repro.tol.direct import compile_direct

    memory = PagedMemory(demand_zero=False)
    memory.install_page(0x10, bytes(4096))
    emu = HostEmulator(memory, fastpath=tier != "steps")
    emu.alias_serial_search = True

    def unit(uid, body):
        instrs = [H("chkpt", meta={"guest_pc": 0x1000}), *body,
                  H("exit", meta={"next_pc": 0x2000, "guest_insns": 1})]
        made = CodeUnit(uid=uid, mode="SBM", entry_pc=0x1000, instrs=instrs)
        if tier == "direct":
            emu.direct_enable = True
            made._directprog = compile_direct(made, emu)
            assert made._directprog is not None
        return made

    failing = unit(1, [
        H("li", d=20, imm=0x10000),
        H("sld32", d=21, a=20, imm=0, meta={"seq": 5}),
        H("sld32", d=22, a=20, imm=4, meta={"seq": 6}),
        H("li", d=23, imm=7),
        H("st32chk", a=20, b=23, imm=0, meta={"seq": 2}),
    ])
    event = emu.execute(failing, GuestState())
    assert event.kind == EXIT_SPEC
    assert event.host_insns == 8  # 6 executed + 2 entries searched
    assert (emu.host_insns_committed, emu.host_insns_wasted) == (0, 8)
    assert emu.alias_search_insns == 2

    unrelated = unit(2, [
        H("li", d=20, imm=0x10000), H("li", d=21, imm=0),
        H("ldf", d=20, a=20, imm=8),
    ])
    event = emu.execute(unrelated, GuestState())
    assert event.kind == EXIT_TOL
    assert event.host_insns == 5
    assert (emu.host_insns_committed, emu.host_insns_wasted) == (5, 8)


def test_serial_search_cost_is_exactly_the_extra_host_instructions():
    from repro.harness.ablations import sweep_alias_table
    rows = {row.label: row.metrics
            for row in sweep_alias_table(scale=0.1, sizes=(1, 4, 32))}
    searched = 0
    for size in (1, 4, 32):
        serial, parallel = rows[f"{size} serial"], rows[f"{size} parallel"]
        assert serial["app_host_insns"] - parallel["app_host_insns"] \
            == serial["search_insns"]
        searched += serial["search_insns"]
    assert searched > 0


# -- hardware-assisted profiling -----------------------------------------------


def test_profiling_hw_assist_removes_inline_cost():
    program = startup_heavy_program()
    _, soft = run(program)
    _, hw = run(startup_heavy_program(), profiling_hw_assist=True)
    assert hw.codesigned.tol.host.profile_inline_cost == 0
    # Fewer application host instructions (counters were inline before);
    # edge profiling still works, so superblocks still form.
    assert hw.codesigned.tol.app_host_insns < \
        soft.codesigned.tol.app_host_insns
    assert hw.codesigned.tol.translator.sb_translations >= 1


# -- background translation (when/where to translate) ----------------------------


def test_background_translation_moves_cost_off_the_main_stream():
    program = startup_heavy_program()
    _, fg = run(program)
    _, bg = run(startup_heavy_program(), background_translation=True)
    fg_tol, bg_tol = fg.codesigned.tol, bg.codesigned.tol
    assert bg_tol.background_translation_insns > 0
    assert bg_tol.overhead.counters["bb_translator"] == 0
    assert bg_tol.overhead.counters["sb_translator"] == 0
    # Main-stream overhead shrinks by what moved to the translation core.
    assert bg_tol.tol_overhead_insns < fg_tol.tol_overhead_insns
    moved = bg_tol.background_translation_insns
    charged = (fg_tol.overhead.counters["bb_translator"]
               + fg_tol.overhead.counters["sb_translator"])
    assert abs(moved - charged) <= 0.1 * charged  # same work, new place


def test_combined_design_choices_validate():
    result, controller = run(
        startup_heavy_program(), dual_decoder=True,
        alias_serial_search=True, profiling_hw_assist=True,
        background_translation=True)
    assert result.exit_code == 0
