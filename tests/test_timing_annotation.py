"""Differential identity suite for the cycle-annotated timing path:
in the generated forms (hot units tiered up to generated per-unit
appliers, also from the first batch) and in the reference forms
(``host_fastpath=False``: every record on the generic loop),
``InOrderCore.report()`` must be cycle-for-cycle identical — the
annotation layer only changes simulator wall-clock, never results.
"""

import random

import pytest

import repro.timing.annotate as annotate
from repro.timing.annotate import (
    build_static_profile, compile_applier, resolve_annotation,
)
from repro.timing.config import TimingConfig
from repro.timing.core import InOrderCore
from repro.timing.run import run_with_timing
from repro.timing.trace import TimingSession
from repro.tol.config import TolConfig
from repro.workloads import SyntheticSpec, generate, get_workload

FAST = dict(bbm_threshold=3, sbm_threshold=8)
DIRECT = dict(bbm_threshold=3, sbm_threshold=8, mem_speculation=False)

#: the identity matrix: integer, FP, string/dispatch and syscall-heavy
#: behaviour (name -> (workload, program scale)).
WORKLOADS = {
    "int": ("401.bzip2", 0.1),
    "fp": ("450.soplex", 0.1),
    "string": ("400.perlbench", 0.05),
    "syscall": ("ticker", 0.5),
}


def _run(name, tol_kwargs, generated, recovery_mode="strict"):
    workload, scale = WORKLOADS[name]
    program = get_workload(workload).program(scale=scale)
    result, controller, core = run_with_timing(
        program,
        tol_config=TolConfig(recovery_mode=recovery_mode,
                             host_fastpath=generated, **tol_kwargs),
        validate=False)
    assert result.exit_code == 0
    host = controller.codesigned.tol.host
    session = host.trace_sink.__self__
    return core.report(), dict(core.stats.by_class), session, host


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("tier,tol_kwargs",
                         [("fastpath", FAST), ("direct", DIRECT)])
def test_annotation_identity(name, tier, tol_kwargs):
    on_report, on_classes, on_session, _ = _run(name, tol_kwargs, True)
    off_report, off_classes, off_session, off_host = _run(
        name, tol_kwargs, False)
    assert on_report == off_report
    assert on_classes == off_classes
    # The comparison is only meaningful if the fast path actually ran.
    assert on_session.fastpath_insns > 0
    assert on_session.fastpath_batches > 0
    # The reference leg compiled no applier and entered no program.
    assert (off_session.compiled_units, off_host.direct_entries) == (0, 0)


@pytest.mark.parametrize("tier,tol_kwargs",
                         [("fastpath", FAST), ("direct", DIRECT)])
def test_annotation_identity_recover_mode(tier, tol_kwargs):
    on_report, _, _, _ = _run("syscall", tol_kwargs, True,
                              recovery_mode="recover")
    off_report, _, _, _ = _run("syscall", tol_kwargs, False,
                               recovery_mode="recover")
    assert on_report == off_report


@pytest.mark.parametrize("tier,tol_kwargs",
                         [("fastpath", FAST), ("direct", DIRECT)])
def test_annotation_identity_with_compiled_appliers(
        tier, tol_kwargs, monkeypatch):
    """Force the generated-applier tier on from the first batch; the
    report must still match the per-instruction path exactly."""
    monkeypatch.setattr(annotate, "COMPILE_AT_PER_INSN", 0)
    monkeypatch.setattr(annotate, "COMPILE_AT_BASE", 0)
    on_report, on_classes, on_session, _ = _run("int", tol_kwargs, True)
    off_report, off_classes, _, _ = _run("int", tol_kwargs, False)
    assert on_report == off_report
    assert on_classes == off_classes
    assert on_session.compiled_units > 0


def test_annotated_run_is_deterministic():
    spec = SyntheticSpec(seed=9, hot_loops=2, trip_count=300, bb_size=6,
                         branchy=True, mem_ops=1, fp_ops=1)
    reports = []
    for _ in range(2):
        _, _, core = run_with_timing(
            generate(spec), tol_config=TolConfig(**FAST),
            validate=False)
        reports.append(core.report())
    assert reports[0] == reports[1]


# -- unit-level differential: one unit, three delivery paths ------------------


def _translate_units(spec):
    """Run once and harvest translated units with their record shape."""
    result, controller, _ = run_with_timing(
        generate(spec), tol_config=TolConfig(**FAST), validate=False)
    assert result.exit_code == 0
    return list(controller.codesigned.tol.cache.units())


def _synth_records(profile):
    """A plausible execution stream: straight-line, branches not taken,
    rolling load/store addresses."""
    records = []
    for k, (_pc, _line, kind, _klass, _dst, _srcs, _tpc) in \
            enumerate(profile):
        if kind == annotate.KIND_BRANCH:
            records.append((k, {"taken": False}))
        elif kind in (annotate.KIND_LOAD, annotate.KIND_STORE):
            records.append((k, {"mem_addr": 0xE000_0000 + (k * 8) % 4096}))
        else:
            records.append((k, None))
    return records


def test_compiled_applier_matches_generic_and_per_record():
    spec = SyntheticSpec(seed=5, hot_loops=2, trip_count=400, bb_size=8,
                         branchy=True, mem_ops=1, fp_ops=1)
    units = [u for u in _translate_units(spec) if len(u.instrs) >= 8]
    assert units
    unit = max(units, key=lambda u: len(u.instrs))
    profile = build_static_profile(unit)
    batch = _synth_records(profile) * 7

    core_per = InOrderCore()
    session = TimingSession(core_per)
    for index, info in batch:
        session.sink(unit, index, unit.instrs[index], info)

    core_gen = InOrderCore()
    ann_gen = resolve_annotation(unit, core_gen)
    core_gen.feed_unit(ann_gen, list(batch))

    core_cmp = InOrderCore()
    fn = compile_applier(unit, core_cmp)
    assert fn is not None
    assert fn(list(batch)) is None

    assert core_per.report() == core_gen.report() == core_cmp.report()
    assert dict(core_per.stats.by_class) == dict(core_gen.stats.by_class) \
        == dict(core_cmp.stats.by_class)


def test_compiled_applier_bails_on_non_leader_entry():
    """A batch entering mid-run (pause flush) makes the dispatcher
    return the unconsumed position instead of guessing."""
    spec = SyntheticSpec(seed=5, hot_loops=1, trip_count=200, bb_size=8,
                         branchy=False, mem_ops=1, fp_ops=0)
    units = [u for u in _translate_units(spec) if len(u.instrs) >= 6]
    unit = max(units, key=lambda u: len(u.instrs))
    profile = build_static_profile(unit)
    records = _synth_records(profile)
    # Find a non-leader index: an instruction whose predecessor is not
    # branch-class (and that is not a branch target).
    leaders = {0}
    for k, entry in enumerate(profile):
        if entry[2] == annotate.KIND_BRANCH:
            leaders.add(k + 1)
    for ins in unit.instrs:
        if ins.target is not None:
            leaders.add(ins.target)
    non_leader = next(k for k in range(1, len(profile))
                      if k not in leaders)

    core = InOrderCore()
    fn = compile_applier(unit, core)
    assert fn is not None
    assert fn(records[non_leader:]) == 0

    # The session-level wrapper finishes such a batch on the generic
    # loop; the result must match a pure generic-loop core.
    core_a = InOrderCore()
    session = TimingSession(core_a)
    ann = session._build_annotation(unit)
    ann.compiled = compile_applier(unit, core_a)
    session.sink_batch(unit, records[non_leader:])

    core_b = InOrderCore()
    ann_b = resolve_annotation(unit, core_b)
    core_b.feed_unit(ann_b, records[non_leader:])
    assert core_a.report() == core_b.report()


# -- TOL overhead batches (satellite 2) ---------------------------------------


def _feed_tol_per_instruction(session, host_insns):
    """The retired per-instruction TOL overhead loop, kept verbatim as
    the specification ``feed_tol_overhead`` must match."""
    mix = session.TOL_MIX
    n_mix = len(mix)
    for i in range(host_insns):
        klass, has_mem = mix[i % n_mix]
        pc = session._tol_pc + (i % 4096) * 4
        mem = None
        if has_mem:
            session._tol_addr = 0xE000_0000 + ((session._tol_addr + 64)
                                               & 0x1FFF)
            mem = session._tol_addr
        branch = (True, pc + 64) if klass == "branch" else None
        dst = 20 if i % 3 == 0 else 21
        srcs = (dst, 22, None)
        session.core.feed(pc, klass, dst, srcs, mem_addr=mem,
                          branch=branch)
    session.fed += host_insns


def _contend(session, k):
    """Application traffic before TOL charge ``k``, fed per instruction.
    Branches at the TOL's first three branch PCs leave wrong targets in
    the BTB.  Before an odd charge, 640 code lines evict the TOL's from
    the L1I; among them, branches of either direction move the gshare
    history and take the BTB entries of the TOL's first 50 branches;
    five lines in every L1D set evict the TOL's data lines, five pages
    in each of the TOL's DTLB sets evict its pages, and a strided stream
    up to the TOL's last address leaves the two lines its next accesses
    go to prefetched.  Before an even charge, the TOL's next twelve data
    lines are loaded, MRU in their L1D sets, and two pages then push the
    TOL's next page off MRU in its DTLB set."""
    rng = random.Random(k)
    feed = session.core.feed
    for t in range(3):
        pc = 0x7F00_0000 + 4 * (10 * t + 5)
        feed(pc, "branch", None, (3,), branch=(True, pc + 128))
    addr = session._tol_addr
    if k % 2 == 0:
        for i in range(1, 13):
            feed(0x1000_0100 + 4 * i, "load", 7, (6,),
                 mem_addr=0xE000_0000 + ((addr + 64 * i) & 0x1FFF))
        page = (0xE000_0000 + ((addr + 64) & 0x1FFF)) >> 12
        for t in range(2):
            feed(0x1000_0200, "load", 7, (6,),
                 mem_addr=((0x30000 + 16 * t + page % 16) << 12)
                 | (addr & 0xFFF))
        return
    for j in range(640):
        pc = 0x1000_0000 + 64 * j
        feed(pc, "simple", 3, (4,))
        if j < 50:
            feed(0x1000_0000 + 4 * (10 * j + 5), "branch", None, (3,),
                 branch=(rng.random() < 0.5, pc + 128))
        feed(pc + 4, "load", 4, (3,),
             mem_addr=0x1000_0000 + 64 * (j % 128) + 8192 * (j // 128))
    for t in range(5):
        for page in (0, 1):
            feed(0x1000_0010, "load", 5, (4,),
                 mem_addr=0x3000_0000 + 65536 * t + 4096 * page)
    for t in range(4):
        feed(0x1000_0020, "load", 6, (5,), mem_addr=addr - 64 * (3 - t))


def _tol_state(core):
    """The timing model's whole state a TOL charge can change."""
    mem, gshare, btb = core.mem, core.gshare, core.btb
    return (core.report(), dict(core.stats.by_class),
            [(cache.hits, cache.misses, cache.prefetch_hits, cache.sets)
             for cache in (mem.l1i, mem.l1d, mem.l2)],
            [(tlb.hits, tlb.misses, tlb.sets) for tlb in (mem.dtlb, mem.stlb)],
            (gshare.table, gshare.history, gshare.lookups,
             gshare.mispredicts),
            (btb.tags, btb.targets, btb.hits, btb.misses),
            mem.prefetcher.table)


def _wide_config():
    cfg = TimingConfig(issue_width=4, fetch_width=8)
    cfg.units = dict(cfg.units)
    cfg.units["simple"] = (4, 1, True)
    return cfg


#: timing configurations of the goldens that the default does not reach
TOL_CONFIGS = {
    "ports2": lambda: TimingConfig(mem_read_ports=2, mem_write_ports=2),
    "wide4": _wide_config,
}
#: charges around a period (30 records) and the PC wrap (4,096), the
#: last within the lines the contention before it loads
CONTENDED = [29, 4095, 30, 4096, 31]


@pytest.mark.parametrize("charges,config,contended", [
    pytest.param(charges, None, False, id=f"charges{k}")
    for k, charges in enumerate([[7], [1000], [64, 128, 5, 977], [4097],
                                 [6384, 9000]])
] + [
    pytest.param(CONTENDED, config, True, id=f"contended-{config}")
    for config in (None, "ports2", "wide4")
])
def test_tol_overhead_batch_matches_per_instruction(charges, config,
                                                    contended):
    """The generated TOL applier, the reference feed (tier-up off) and
    the per-instruction specification leave the same core."""
    def session():
        return TimingSession(InOrderCore(
            TOL_CONFIGS[config]() if config else None))
    batched, reference, naive = session(), session(), session()
    reference._tier_up = False
    for k, charge in enumerate(charges):
        if contended:
            for each in (batched, reference, naive):
                _contend(each, k)
        batched.feed_tol_overhead(charge)
        reference.feed_tol_overhead(charge)
        _feed_tol_per_instruction(naive, charge)
    assert _tol_state(batched.core) == _tol_state(naive.core)
    assert _tol_state(reference.core) == _tol_state(naive.core)
    assert batched._tol_addr == reference._tol_addr == naive._tol_addr
    assert batched.fed == reference.fed == naive.fed
    if contended:
        # the TOL met the lines the strided streams left prefetched
        assert batched.core.mem.l1d.prefetch_hits


# -- annotation cache ---------------------------------------------------------


def test_annotation_cache_dropped_on_unit_invalidation():
    spec = SyntheticSpec(seed=3, hot_loops=1, trip_count=200, bb_size=6,
                         branchy=True, mem_ops=1)
    result, controller, core = run_with_timing(
        generate(spec), tol_config=TolConfig(**FAST), validate=False)
    tol = controller.codesigned.tol
    session = tol.host.trace_sink.__self__
    assert session._annotations
    uid, ann = next((uid, a) for uid, a in session._annotations.items()
                    if a)
    unit = next(u for u in tol.cache.units() if u.uid == uid)
    tol.cache.invalidate(unit)
    assert uid not in session._annotations
