"""Tests for the warm-up sampling methodology (paper §VI-E)."""

import pytest

from repro.guest.assembler import Assembler, EAX, EBX, ECX, EDX, ESI, M
from repro.guest.program import pack_u32s
from repro.sampling.warmup import (
    SampleMeasurement, WarmupSimulator, collect_bb_frequencies,
    distribution_similarity,
)
from repro.tol.config import TolConfig
from repro.workloads import get_workload

FAST = TolConfig(bbm_threshold=6, sbm_threshold=30)


def phased_program():
    """Two phases with distinct hot loops, ~40k guest instructions."""
    asm = Assembler()
    asm.data(0x4000, pack_u32s(range(64)))
    asm.mov(EAX, 0)
    asm.mov(EBX, 0x4000)
    with asm.counted_loop(ECX, 3000):      # phase 1: ALU loop
        asm.add(EAX, ECX)
        asm.emit("AND", EAX, 0xFFFF)
    asm.mov(ESI, 0)
    with asm.counted_loop(ECX, 3000):      # phase 2: memory loop
        asm.mov(EDX, ESI)
        asm.emit("AND", EDX, 63)
        asm.add(EAX, M(EBX, EDX, 4))
        asm.inc(ESI)
    asm.exit(0)
    return asm.program()


def test_collect_bb_frequencies_window():
    program = phased_program()
    freqs = collect_bb_frequencies(program, 100, 2000)
    assert sum(freqs.values()) > 0
    # The phase-1 loop dominates this early window: one BB stands out.
    top = freqs.most_common(1)[0][1]
    assert top > sum(freqs.values()) * 0.8


def test_distribution_similarity_basics():
    from collections import Counter
    a = Counter({1: 100, 2: 10})
    assert distribution_similarity(a, a) == pytest.approx(1.0)
    disjoint = Counter({3: 50})
    assert distribution_similarity(a, disjoint) == 0.0
    assert distribution_similarity(a, Counter()) == 0.0


def test_simulate_sample_runs_and_measures():
    program = phased_program()
    sim = WarmupSimulator(program, tol_config=FAST)
    sample = sim.simulate_sample(start=6000, length=2000, warmup=2000,
                                 scale=4.0)
    assert sample.cpi > 0
    assert sample.detailed_instructions > 0
    assert sample.simulated_guest_insns <= 4200  # warmup + sample (+slack)


def test_simulate_sample_pinned_measurements():
    """Two 429.mcf samples pinned at values recorded when the sampler fed
    its timing session one record at a time: batched annotated delivery
    must not move a cycle of the measurement."""
    sim = WarmupSimulator(get_workload("429.mcf").program(scale=0.5))
    got = [sim.simulate_sample(start=start, length=20_000, warmup=20_000,
                               scale=4.0)
           for start in (40_000, 120_000)]
    assert got == [
        SampleMeasurement(start=40_000, length=20_000, warmup_length=20_000,
                          scale_factor=4.0, cpi=1.082719342513157,
                          detailed_instructions=69_355,
                          simulated_guest_insns=40_008),
        SampleMeasurement(start=120_000, length=20_000,
                          warmup_length=20_000, scale_factor=4.0,
                          cpi=1.081743594180329,
                          detailed_instructions=69_351,
                          simulated_guest_insns=40_001),
    ]


def test_downscaled_warmup_reaches_hotter_state():
    program = phased_program()
    sim = WarmupSimulator(program, tol_config=FAST)
    cold = sim.warmup_bb_distribution(start=4000, warmup=800, scale=1.0)
    hot = sim.warmup_bb_distribution(start=4000, warmup=800, scale=8.0)
    # With downscaled thresholds the loop must be translated (executions
    # counted on units), matching the authoritative distribution better.
    authoritative = collect_bb_frequencies(program, 0, 4000)
    assert distribution_similarity(hot, authoritative) >= \
        distribution_similarity(cold, authoritative) - 1e-9


def test_heuristic_prefers_cheapest_good_candidate():
    program = phased_program()
    sim = WarmupSimulator(program, tol_config=FAST)
    authoritative = collect_bb_frequencies(program, 0, 6000)
    candidates = [(1.0, 500), (8.0, 500), (8.0, 2000)]
    scale, warmup = sim.pick_configuration(
        6000, candidates, authoritative, similarity_floor=0.5)
    assert (scale, warmup) in candidates


def test_sampled_run_aggregates():
    program = phased_program()
    sim = WarmupSimulator(program, tol_config=FAST)
    result = sim.run_sampled(
        sample_starts=[5000, 25000], sample_length=1500,
        warmup=1500, scale=6.0)
    assert len(result.samples) == 2
    assert result.cpi > 0
    assert result.cost_guest_insns < 40000  # far below full detailed run


def test_sample_beyond_program_end_raises():
    program = phased_program()
    sim = WarmupSimulator(program, tol_config=FAST)
    with pytest.raises(ValueError):
        sim.simulate_sample(start=10_000_000, length=100, warmup=100,
                            scale=2.0)
