"""Warm-up simulation methodology (paper §VI-E case study).

Sampling-based simulation picks a few windows of the dynamic instruction
stream for detailed timing.  For HW/SW co-designed processors the *TOL
state* (profiler counters, code cache) must be warmed up in addition to the
microarchitectural state, and its warm-up penalty is orders of magnitude
larger: a missing translation costs thousands of cycles, a cold cache line
hundreds.

The methodology reproduced here:

- each sample is simulated independently: functional fast-forward to the
  warm-up start (reference emulator, cheap), then a co-designed system is
  spun up from that checkpoint;
- during the warm-up window the TOL's promotion thresholds are *downscaled*
  so hot code promotes to superblocks quickly; the original thresholds are
  restored for the measurement window;
- an offline heuristic picks the (scale factor, warm-up length) per sample
  by correlating the basic-block execution frequency distribution reached
  at the end of warm-up against the authoritative distribution of the full
  run, choosing the cheapest configuration that matches well.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.guest.emulator import GuestEmulator
from repro.guest.program import GuestProgram
from repro.guest.syscalls import GuestOS
from repro.timing.config import TimingConfig
from repro.timing.core import InOrderCore
from repro.timing.trace import TimingSession
from repro.tol.config import TolConfig
from repro.system.controller import Controller


def collect_bb_frequencies(program: GuestProgram, start: int,
                           length: int) -> Counter:
    """Authoritative basic-block execution frequencies over a window of
    the dynamic stream (reference emulator)."""
    emu = GuestEmulator(program, os=GuestOS())
    emu.run_to_icount(start)
    freqs: Counter = Counter()
    bb_head = emu.state.eip
    while emu.icount < start + length and not emu.halted:
        instr = emu.step()
        if instr.is_branch:
            freqs[bb_head] += 1
            bb_head = emu.state.eip
    return freqs


def distribution_similarity(a: Counter, b: Counter) -> float:
    """Cosine similarity between two BB frequency distributions."""
    if not a or not b:
        return 0.0
    keys = set(a) | set(b)
    dot = sum(a.get(k, 0) * b.get(k, 0) for k in keys)
    norm = math.sqrt(sum(v * v for v in a.values())) * \
        math.sqrt(sum(v * v for v in b.values()))
    return dot / norm if norm else 0.0


@dataclass
class SampleMeasurement:
    start: int
    length: int
    warmup_length: int
    scale_factor: float
    cpi: float
    detailed_instructions: int
    #: guest instructions executed under the full co-designed stack
    #: (warm-up + measurement): the expensive part of the simulation.
    simulated_guest_insns: int


@dataclass
class SampledResult:
    samples: List[SampleMeasurement]
    cpi: float
    #: detailed-simulation cost (guest insns under TOL+timing).
    cost_guest_insns: int


class WarmupSimulator:
    """Runs sampled simulations with threshold-downscaled TOL warm-up."""

    def __init__(self, program: GuestProgram,
                 tol_config: Optional[TolConfig] = None,
                 timing_config: Optional[TimingConfig] = None):
        self.program = program
        self.tol_config = tol_config if tol_config is not None \
            else TolConfig()
        self.timing_config = timing_config if timing_config is not None \
            else TimingConfig()

    # ------------------------------------------------------------------

    def _fresh_controller(self) -> Tuple[Controller, "Tol"]:
        from dataclasses import replace
        config = replace(self.tol_config)
        controller = Controller(self.program, config=config,
                                validate=False)
        return controller, controller.codesigned.tol

    def simulate_sample(self, start: int, length: int, warmup: int,
                        scale: float) -> SampleMeasurement:
        """Simulate one sample: fast-forward, warm up with downscaled
        thresholds, measure with original thresholds."""
        controller, tol = self._fresh_controller()
        warm_start = max(0, start - warmup)
        # Functional fast-forward: the x86 component skips ahead; the
        # co-designed component starts from its checkpoint.
        controller.x86.run_to_icount(warm_start)
        if controller.x86.os.exited:
            raise ValueError("sample window beyond end of program")
        controller.initialize()
        tol.guest_icount = warm_start

        core = InOrderCore(self.timing_config)
        TimingSession(core).install(tol)

        # Warm-up phase: downscaled promotion thresholds.
        original = (self.tol_config.bbm_threshold,
                    self.tol_config.sbm_threshold)
        tol.set_thresholds(max(1, int(original[0] / scale)),
                           max(1, int(original[1] / scale)))
        result = controller.run(until_icount=start)
        if result.exit_code is not None:
            raise ValueError("sample window beyond end of program")

        # Measurement phase: original thresholds, stats delta.
        tol.set_thresholds(*original)
        stats_before = core.finalize()
        insns_before = stats_before.instructions
        cycles_before = stats_before.cycles
        result = controller.run(until_icount=start + length)
        stats_after = core.finalize()
        insns = stats_after.instructions - insns_before
        cycles = stats_after.cycles - cycles_before
        measured_guest = tol.guest_icount - warm_start
        return SampleMeasurement(
            start=start, length=length, warmup_length=warmup,
            scale_factor=scale,
            cpi=cycles / insns if insns else 0.0,
            detailed_instructions=insns,
            simulated_guest_insns=measured_guest,
        )

    # ------------------------------------------------------------------

    def warmup_bb_distribution(self, start: int, warmup: int,
                               scale: float) -> Counter:
        """Translated-code execution distribution after a warm-up run.

        Only *translated* units count: what decides measurement accuracy
        is whether the hot code has already reached its steady-state mode
        in the code cache.  A cold TOL (nothing translated yet) therefore
        scores zero similarity, even though its raw interpreter counters
        would mimic the hot distribution's shape."""
        controller, tol = self._fresh_controller()
        warm_start = max(0, start - warmup)
        controller.x86.run_to_icount(warm_start)
        controller.initialize()
        tol.guest_icount = warm_start
        tol.set_thresholds(
            max(1, int(self.tol_config.bbm_threshold / scale)),
            max(1, int(self.tol_config.sbm_threshold / scale)))
        controller.run(until_icount=start)
        freqs: Counter = Counter()
        for unit in tol.cache.units():
            if unit.mode == "BBM":
                # Not steady state: hot code must reach its final
                # optimization level before measurement is representative
                # (a pending promotion costs tens of thousands of cycles).
                continue
            # Approximate basic-block executions from retired guest
            # instructions (loop units iterate many times per dispatch).
            avg_bb_len = max(1, unit.guest_insn_count
                             // max(1, unit.guest_bb_count))
            freqs[unit.entry_pc] += \
                unit.guest_insns_retired // avg_bb_len
        return freqs

    def pick_configuration(self, start: int, candidates,
                           authoritative: Counter,
                           similarity_floor: float = 0.9):
        """The paper's offline heuristic: among (scale, warmup) candidates
        pick the cheapest whose warm-up BB distribution correlates well
        with the authoritative one; fall back to the best match."""
        scored = []
        for (scale, warmup) in candidates:
            achieved = self.warmup_bb_distribution(start, warmup, scale)
            score = distribution_similarity(achieved, authoritative)
            scored.append((score, warmup, scale))
        good = [s for s in scored if s[0] >= similarity_floor]
        if good:
            _score, warmup, scale = min(good, key=lambda s: s[1])
        else:
            _score, warmup, scale = max(scored, key=lambda s: s[0])
        return scale, warmup

    # ------------------------------------------------------------------

    def run_sampled_auto(self, sample_starts: List[int],
                         sample_length: int, candidates,
                         authoritative_window: int = 0,
                         similarity_floor: float = 0.85) -> SampledResult:
        """Per-sample heuristic configuration (the paper predicts "the
        scaling factor and warm-up length for each sample")."""
        samples = []
        for start in sample_starts:
            window = authoritative_window or start
            authoritative = collect_bb_frequencies(
                self.program, max(0, start - window), window)
            scale, warmup = self.pick_configuration(
                start, candidates, authoritative,
                similarity_floor=similarity_floor)
            samples.append(self.simulate_sample(
                start, sample_length, warmup, scale))
        total_cycles = sum(s.cpi * s.detailed_instructions for s in samples)
        total_insns = sum(s.detailed_instructions for s in samples)
        return SampledResult(
            samples=samples,
            cpi=total_cycles / total_insns if total_insns else 0.0,
            cost_guest_insns=sum(s.simulated_guest_insns for s in samples),
        )

    def run_sampled(self, sample_starts: List[int], sample_length: int,
                    warmup: int, scale: float) -> SampledResult:
        samples = [
            self.simulate_sample(start, sample_length, warmup, scale)
            for start in sample_starts
        ]
        total_cycles = sum(s.cpi * s.detailed_instructions for s in samples)
        total_insns = sum(s.detailed_instructions for s in samples)
        return SampledResult(
            samples=samples,
            cpi=total_cycles / total_insns if total_insns else 0.0,
            cost_guest_insns=sum(s.simulated_guest_insns for s in samples),
        )
