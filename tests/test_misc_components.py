"""Coverage for the smaller components: overhead accounting, IBTC
capacity, timing trace adapter, config helpers."""

import pytest

from repro import costs
from repro.guest.memory import PagedMemory
from repro.guest.state import GuestState
from repro.host.emulator import HostEmulator, IBTC
from repro.host.isa import CodeUnit, HostInstr
from repro.timing.core import InOrderCore
from repro.timing.trace import TimingSession, host_pc
from repro.tol.config import TolConfig
from repro.tol.overhead import CATEGORIES, OverheadAccount


# -- overhead accounting ---------------------------------------------------------


def test_overhead_categories_and_breakdown():
    account = OverheadAccount()
    account.charge("interpreter", 100)
    account.charge("chaining", 50)
    account.charge("others", 50)
    assert account.total == 200
    breakdown = account.breakdown()
    assert breakdown["interpreter"] == 0.5
    assert abs(sum(breakdown.values()) - 1.0) < 1e-12
    assert set(breakdown) == set(CATEGORIES)


def test_overhead_empty_breakdown():
    assert all(v == 0.0 for v in OverheadAccount().breakdown().values())


def test_overhead_merged():
    a, b = OverheadAccount(), OverheadAccount()
    a.charge("prologue", 5)
    b.charge("prologue", 7)
    b.charge("cc_lookup", 1)
    merged = a.merged(b)
    assert merged.counters["prologue"] == 12
    assert merged.counters["cc_lookup"] == 1
    assert a.counters["prologue"] == 5  # inputs untouched


def test_overhead_on_charge_hook():
    calls = []
    account = OverheadAccount()
    account.on_charge = lambda cat, n: calls.append((cat, n))
    account.charge("others", 9)
    assert calls == [("others", 9)]


def test_unknown_category_raises():
    with pytest.raises(KeyError):
        OverheadAccount().charge("nonsense", 1)


# -- IBTC ------------------------------------------------------------------------


def test_ibtc_fifo_eviction():
    unit = CodeUnit(uid=1, mode="BBM", entry_pc=0, instrs=[])
    ibtc = IBTC(capacity=2)
    ibtc.insert(0x100, unit)
    ibtc.insert(0x200, unit)
    ibtc.insert(0x300, unit)   # evicts 0x100
    assert ibtc.lookup(0x100) is None
    assert ibtc.lookup(0x200) is unit
    assert ibtc.lookup(0x300) is unit


def test_ibtc_update_existing_does_not_evict():
    a = CodeUnit(uid=1, mode="BBM", entry_pc=0, instrs=[])
    b = CodeUnit(uid=2, mode="SBM", entry_pc=0, instrs=[])
    ibtc = IBTC(capacity=2)
    ibtc.insert(0x100, a)
    ibtc.insert(0x200, a)
    ibtc.insert(0x100, b)      # replacement, not insertion
    assert ibtc.lookup(0x200) is a
    assert ibtc.lookup(0x100) is b


def test_ibtc_invalidate_unit():
    a = CodeUnit(uid=1, mode="BBM", entry_pc=0, instrs=[])
    b = CodeUnit(uid=2, mode="BBM", entry_pc=4, instrs=[])
    ibtc = IBTC()
    ibtc.insert(0x100, a)
    ibtc.insert(0x200, b)
    ibtc.invalidate_unit(a)
    assert ibtc.lookup(0x100) is None
    assert ibtc.lookup(0x200) is b


# -- timing trace adapter ----------------------------------------------------------


def test_host_pc_is_unique_per_unit_and_index():
    seen = set()
    for uid in (1, 2, 3):
        for index in range(100):
            pc = host_pc(uid, index)
            assert pc not in seen
            seen.add(pc)


def _make_unit():
    return CodeUnit(uid=5, mode="SBM", entry_pc=0x1000, instrs=[
        HostInstr("chkpt", meta={"guest_pc": 0x1000}),
        HostInstr("addi32", d=1, a=1, imm=1),
        HostInstr("ld32", d=16, a=1, imm=0),
        HostInstr("exit", meta={"next_pc": 0, "guest_insns": 1}),
    ])


def test_timing_session_counts_all_instructions():
    memory = PagedMemory()
    emu = HostEmulator(memory)
    session = TimingSession(InOrderCore())
    emu.trace_sink = session.sink_batch
    emu.execute(_make_unit(), GuestState())
    assert session.fed == 4  # every executed instruction traced
    stats = session.core.finalize()
    assert stats.instructions == 4
    assert stats.loads == 1


def test_feed_tol_overhead_mix():
    session = TimingSession(InOrderCore())
    session.feed_tol_overhead(100)
    stats = session.core.finalize()
    assert stats.instructions == 100
    assert stats.loads > 0 and stats.stores > 0 and stats.branches > 0


# -- config helpers ------------------------------------------------------------------


def test_scaled_thresholds():
    config = TolConfig(bbm_threshold=10, sbm_threshold=60)
    scaled = config.scaled_thresholds(4.0)
    assert (scaled.bbm_threshold, scaled.sbm_threshold) == (2, 15)
    assert (config.bbm_threshold, config.sbm_threshold) == (10, 60)
    floor = config.scaled_thresholds(1e9)
    assert floor.bbm_threshold == 1 and floor.sbm_threshold == 1


def test_cost_constants_positive():
    for name in dir(costs):
        if name.isupper():
            assert getattr(costs, name) >= 0, name
