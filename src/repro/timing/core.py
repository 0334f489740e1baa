"""Parameterized in-order superscalar timing model (paper §V-C).

Models DARCO's host core: decoupled front-end (gshare + BTB, instruction
queue) and back-end (in-order issue with scoreboarding, simple/complex/FP/
vector units, limited memory ports), two-level caches and TLBs with a
stride data prefetcher.

The model is dependence-driven: each retired host instruction is fed in
program order and its fetch/issue/complete cycles are computed from the
scoreboard, structural resources and memory hierarchy — the standard
trace-driven formulation for in-order pipelines (no per-cycle loop, exact
for in-order issue).  The per-instruction update is stated once, in
:mod:`repro.timing.annotate`, which generates the loop this core runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.timing.annotate import (
    NUM_SCOREBOARD_REGS, UnitAnnotation, generic_loop, profile_entry,
)
from repro.timing.branch import BTB, Gshare
from repro.timing.cache import MemoryHierarchy
from repro.timing.config import TimingConfig


#: One-record annotations :meth:`InOrderCore.feed` keeps before it
#: starts again.  The reference feed of a TOL charge uses one per
#: record, and charges stay well below this (at most 2,458 records in
#: the timed 429.mcf and ragdoll at scale 0.1).
ONE_RECORD_ANNOTATIONS = 4096


@dataclass
class TimingStats:
    cycles: int = 0
    mispredicts: int = 0
    stall_cycles: Dict[str, int] = field(default_factory=dict)
    #: Instructions issued per execution-unit class (telemetry's
    #: per-unit occupancy view); the instruction, branch, load and store
    #: counts derive from it.
    by_class: Dict[str, int] = field(default_factory=dict)

    @property
    def instructions(self) -> int:
        return sum(self.by_class.values())

    @property
    def branches(self) -> int:
        return self.by_class.get("branch", 0)

    @property
    def loads(self) -> int:
        return self.by_class.get("load", 0)

    @property
    def stores(self) -> int:
        return self.by_class.get("store", 0)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


class InOrderCore:
    """Feed instructions in program order via :meth:`feed` (one at a
    time) or :meth:`feed_unit` (a unit's record batch)."""

    def __init__(self, config: Optional[TimingConfig] = None):
        self.config = config if config is not None else TimingConfig()
        cfg = self.config
        self.mem = MemoryHierarchy(cfg)
        self.gshare = Gshare(cfg.gshare_entries, cfg.gshare_history_bits)
        self.btb = BTB(cfg.btb_entries)
        self.reg_ready = [0] * NUM_SCOREBOARD_REGS
        # Front-end state.
        self._fetch_cycle = 0
        self._fetched_in_cycle = 0
        self._last_fetch_line = -1
        # Back-end state.
        self._last_issue = 0
        self._issued_in_cycle = 0
        self._units = {
            klass: [0] * count
            for klass, (count, _lat, _pipe) in cfg.units.items()}
        self._read_ports = [0] * cfg.mem_read_ports
        self._write_ports = [0] * cfg.mem_write_ports
        #: issue cycles of the last ``iq_size`` ops, a ring from
        #: ``_iq_pos`` (zeros before it fills, which never bind)
        self._iq = [0] * cfg.iq_size
        self._iq_pos = 0
        self.stats = TimingStats()
        self._stall = {"raw": 0, "unit": 0, "memport": 0, "iq": 0,
                       "frontend": 0}
        self._last_done = 0
        self._loop = generic_loop(cfg)
        #: :meth:`feed`'s one-record annotations, by their static facts
        self._one: Dict[tuple, UnitAnnotation] = {}

    # ------------------------------------------------------------------

    def feed(self, pc: int, klass: str, dst: Optional[int], srcs,
             mem_addr: Optional[int] = None, branch=None) -> None:
        """Process one instruction, as a one-record annotation.

        ``klass`` is an execution-unit class ('simple', 'complex', 'fp',
        'fp_div', 'vector', 'load', 'store', 'branch'); ``branch`` is the
        ``(taken, target_pc)`` pair of a branch-class instruction
        (``None`` counts as not taken).
        """
        taken, target = branch if branch is not None else (False, 0)
        srcs = tuple(srcs)
        facts = (pc, klass, dst, srcs, target)
        ann = self._one.get(facts)
        if ann is None:
            if len(self._one) >= ONE_RECORD_ANNOTATIONS:
                self._one.clear()
            ann = self._one[facts] = UnitAnnotation(0, (profile_entry(
                pc, klass, dst, tuple(src for src in srcs if src is not None),
                target),), self)
        info = None
        if klass == "branch":
            info = {"taken": taken}
        elif klass in ("load", "store"):
            info = {"mem_addr": mem_addr}
        self._loop(self, ann, ((0, info),))

    def feed_unit(self, ann, records) -> None:
        """Feed one unit execution's trace records through the unit's
        annotation (:class:`~repro.timing.annotate.UnitAnnotation`).

        ``records`` is the executed ``(index, info)`` stream in program
        order; ``ann.recs[index]`` carries everything static about the
        instruction, ``info`` only the per-execution dynamics (memory
        address, branch direction).
        """
        self._loop(self, ann, records)

    # ------------------------------------------------------------------

    def finalize(self) -> TimingStats:
        self.stats.cycles = self._last_done
        self.stats.stall_cycles = dict(self._stall)
        return self.stats

    def report(self) -> Dict[str, object]:
        stats = self.finalize()
        return {
            "instructions": stats.instructions,
            "cycles": stats.cycles,
            "ipc": round(stats.ipc, 4),
            "branches": stats.branches,
            "mispredict_rate": round(
                stats.mispredicts / stats.branches, 4)
            if stats.branches else 0.0,
            "l1d_miss_rate": round(self.mem.l1d.miss_rate(), 4),
            "l2_miss_rate": round(self.mem.l2.miss_rate(), 4),
            "l1i_miss_rate": round(self.mem.l1i.miss_rate(), 4),
            "dtlb_misses": self.mem.dtlb.misses,
            "prefetches_issued": (
                self.mem.prefetcher.issued if self.mem.prefetcher else 0),
            "prefetch_hits": self.mem.l1d.prefetch_hits,
            "stalls": dict(self._stall),
        }
