"""Tests for the resilience layer: seeded fault injection, divergence
recovery with translation quarantine, and the incident log.

The acceptance campaign (seed 7, 50 faults, five sites) is pinned here:
every triggered fault must be recovered or quarantined, every run's
final guest state must match the clean authoritative reference, and the
whole campaign must be replay-deterministic."""

import types

import pytest

from repro.guest.emulator import GuestEmulator
from repro.guest.syscalls import GuestOS
from repro.resilience.campaign import (
    DEFAULT_SITES, build_campaign_program, campaign_config,
    plan_campaign, run_campaign, run_fault_case,
)
from repro.resilience.faults import SITES, FaultInjector, FaultSpec
from repro.resilience.incidents import IncidentLog
from repro.resilience.quarantine import (
    LEVEL_BBM_ONLY, LEVEL_INTERPRET_ONLY, LEVEL_NO_ASSERTS,
    TranslationQuarantine,
)
from repro.system.controller import Controller, ValidationError


# -- quarantine ladder -----------------------------------------------------------


def test_quarantine_ladder_escalates_and_saturates():
    q = TranslationQuarantine()
    pc = 0x1000
    assert q.level(pc) == 0
    assert q.escalate(pc) == LEVEL_NO_ASSERTS
    assert q.escalate(pc) == LEVEL_BBM_ONLY
    assert q.escalate(pc) == LEVEL_INTERPRET_ONLY
    assert q.escalate(pc) == LEVEL_INTERPRET_ONLY   # saturates
    assert q.escalations == 4


def test_quarantine_floor_skips_rungs():
    q = TranslationQuarantine()
    assert q.escalate(0x2000, floor=LEVEL_NO_ASSERTS) == LEVEL_NO_ASSERTS
    # A clean PC escalated with a BBM-only floor jumps straight there.
    assert q.escalate(0x3000, floor=LEVEL_BBM_ONLY) == LEVEL_BBM_ONLY
    assert q.summary() == {"no_asserts": 1, "bbm_only": 1}
    assert q.entries() == [(0x2000, LEVEL_NO_ASSERTS),
                           (0x3000, LEVEL_BBM_ONLY)]


# -- incident log ----------------------------------------------------------------


def test_incident_log_signature_is_content_deterministic():
    def make():
        log = IncidentLog()
        log.record("state_divergence", 100, detail={"diff": {"EAX": [1, 2]}},
                   suspects=(0x1000,), actions=("pc=0x1000 level=no_asserts",))
        log.record("livelock", 250, detail={"pc": 0x2000})
        return log
    a, b = make(), make()
    assert a.signature() == b.signature()
    assert a.count("livelock") == 1
    assert a.kinds() == ["state_divergence", "livelock"]
    b.record("sync_lost", 300)
    assert a.signature() != b.signature()


# -- fault injector units --------------------------------------------------------


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(site="nonsense")
    with pytest.raises(ValueError):
        FaultSpec(site="ir_drop", ordinal=0)
    assert set(DEFAULT_SITES) <= set(SITES)


def test_alias_false_negative_suppresses_one_conflict():
    """The alias-table wrap reports 'no conflict' exactly once for a
    genuine conflict, then becomes a transparent pass-through."""
    calls = []

    def store_conflicts(addr, size, seq):
        calls.append(addr)
        return True                       # every query is a real conflict

    table = types.SimpleNamespace(store_conflicts=store_conflicts)
    tol = types.SimpleNamespace(
        host=types.SimpleNamespace(alias_table=table))
    injector = FaultInjector(FaultSpec(site="alias_false_negative",
                                       ordinal=2, salt=1))
    injector.attach(tol)
    assert tol.host.alias_table.store_conflicts(0x100, 4, 1) is True
    assert not injector.fired
    assert tol.host.alias_table.store_conflicts(0x104, 4, 2) is False
    assert injector.fired
    assert injector.fired_detail["addr"] == 0x104
    # After firing: pass-through again.
    assert tol.host.alias_table.store_conflicts(0x108, 4, 3) is True


# -- campaign planning -----------------------------------------------------------


def test_campaign_plan_is_seed_deterministic():
    a = plan_campaign(7, 20)
    b = plan_campaign(7, 20)
    assert a == b
    assert plan_campaign(8, 20) != a
    # Round-robin coverage of every default site.
    assert {s.site for s in a} == set(DEFAULT_SITES)


# -- single-fault behavior -------------------------------------------------------


def _first_spec():
    return plan_campaign(7, 1)[0]


def test_recovery_end_state_bit_identical_to_reference():
    """After a recovered fault, registers, memory, exit code and stdout
    all match a clean authoritative (GuestEmulator) run — checked here
    independently of the campaign's own classification."""
    program = build_campaign_program()
    ref = GuestEmulator(program, os=GuestOS())
    ref.run()
    spec = _first_spec()
    controller = Controller(program, config=campaign_config("recover"))
    injector = FaultInjector(spec)
    injector.attach(controller.codesigned.tol)
    result = controller.run()
    assert injector.fired
    assert controller.recoveries >= 1
    assert result.incidents >= 1
    assert not controller.codesigned.state.diff(ref.state)
    assert not controller.x86.state.diff(ref.state)
    pages = list(controller.codesigned.memory.present_pages())
    assert controller.codesigned.memory.first_difference(
        controller.x86.memory, pages) is None
    assert result.exit_code == ref.os.exit_code
    assert result.stdout == bytes(ref.os.stdout)


def test_strict_mode_raises_on_first_divergence():
    spec = _first_spec()
    program = build_campaign_program()
    controller = Controller(program, config=campaign_config("strict"))
    injector = FaultInjector(spec)
    injector.attach(controller.codesigned.tol)
    with pytest.raises(ValidationError):
        controller.run()
    # The campaign runner classifies the same spec as "failed" in strict.
    record = run_fault_case(spec.site, spec.ordinal, spec.salt,
                            mode="strict")
    assert record.status == "failed"
    assert "ValidationError" in record.error


def test_direct_tier_fault_recovers_and_demotes_below_tier():
    """A fault firing inside a generated program is caught like any
    translation fault: recover mode resyncs from the authoritative
    component, the quarantine ladder escalates the entry PC and drops
    its translations, so no unit there still carries the sabotaged
    program, and the final state stays bit-identical to a clean
    reference run."""
    program = build_campaign_program()
    ref = GuestEmulator(program, os=GuestOS())
    ref.run()

    controller = Controller(program, config=campaign_config("recover"))
    tol = controller.codesigned.tol
    fired = {}
    sabotaged = []
    hook = tol.host.direct_promote_hook

    def sabotaging_hook(unit):
        hook(unit)
        prog = unit.__dict__.get("_directprog")
        if prog is None or fired:
            return

        def faulty(emu, executed, fuel, _prog=prog, _unit=unit):
            result = _prog(emu, executed, fuel)
            if not fired:
                # One bad store "emitted by" the generated code: corrupt
                # the workload's source operand so the accumulator
                # diverges at the next validation epoch.
                fired["pc"] = _unit.entry_pc
                emu.memory.write_u32(0x9000, 0xDEAD)
            return result

        unit._directprog = faulty
        sabotaged.append(faulty)

    tol.host.direct_promote_hook = sabotaging_hook
    result = controller.run()

    assert fired, "direct tier never engaged"
    pc = fired["pc"]
    assert controller.recoveries >= 1
    assert result.incidents >= 1
    # The ladder escalated the faulting PC...
    assert tol.quarantine.level(pc) > 0
    # ...and no unit at it still carries the sabotaged program.
    for unit in tol.cache.units():
        if unit.entry_pc == pc:
            assert unit.__dict__.get("_directprog") not in sabotaged
    # The campaign's bit-identical final-state contract still holds.
    assert not controller.codesigned.state.diff(ref.state)
    assert not controller.x86.state.diff(ref.state)
    pages = list(controller.codesigned.memory.present_pages())
    assert controller.codesigned.memory.first_difference(
        controller.x86.memory, pages) is None
    assert result.exit_code == ref.os.exit_code
    assert result.stdout == bytes(ref.os.stdout)


# -- the acceptance campaign -----------------------------------------------------


def test_seed7_campaign_all_faults_caught():
    """The pinned acceptance campaign: 50 seeded faults across five
    sites, every one recovered or quarantined, final state matching the
    clean reference in every run."""
    report = run_campaign(7, n=50)
    assert len(report.records) == 50
    assert report.all_triggered_caught
    assert set(report.by_status) <= {"recovered", "quarantined"}
    assert report.by_status.get("recovered", 0) > 0
    assert report.by_status.get("quarantined", 0) > 0
    assert all(r.final_match for r in report.records)
    assert all(r.incidents >= 1 for r in report.triggered)
    # >= 3 distinct sites actually fired.
    assert len({r.site for r in report.triggered}) >= 3
    # The pinned outcome of every run, as `darco inject --seed 7
    # --faults 50 --json` prints it.
    assert report.by_status == {"recovered": 40, "quarantined": 10}
    assert report.signature() == (
        "3a53c8009d00d12d77ea87a0c03ffeda8c3eb03d6822d67608ae54eb964b9b7e")


def test_campaign_is_replay_deterministic():
    a = run_campaign(7, n=6)
    b = run_campaign(7, n=6)
    assert a.signature() == b.signature()
    for ra, rb in zip(a.records, b.records):
        assert (ra.status, ra.log_signature) == (rb.status, rb.log_signature)
    assert run_campaign(11, n=6).signature() != a.signature()
