"""Monitoring tools: mode-transition logs, dispatch traces, stats dumps.

Tracers attach through the TOL's probe registry
(:meth:`repro.tol.tol.Tol.add_probe`), so any number can observe the
same run and each can :meth:`detach` independently.  The old idiom —
each tracer capturing ``tol.probe`` and installing a wrapper that
forwarded to its predecessor — made detaching impossible: the wrapper
held its predecessor alive forever and there was no way to unlink one
tracer from the middle of the chain.

The stats dump is a projection of the telemetry snapshot
(:meth:`repro.telemetry.Telemetry.snapshot`): the registry's collectors
are the single source of instrument values, and the dump keeps its
legacy key names on top of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.telemetry import overhead_breakdown_from_snapshot
from repro.tol.tol import Tol


@dataclass
class ModeTransition:
    guest_icount: int
    entry_pc: Optional[int]
    mode: str


class ModeTracer:
    """Records the sequence of execution-mode transitions (IM/BBM/SBM/SBX)
    a run goes through — the raw data behind paper Fig. 3/4 discussions."""

    def __init__(self, tol: Tol):
        self.transitions: List[ModeTransition] = []
        self._last_mode: Optional[str] = None
        self._tol = tol
        tol.add_probe(self._probe)

    def _probe(self, tol: Tol, unit) -> None:
        mode = unit.mode if unit is not None else "IM"
        if mode != self._last_mode:
            self.transitions.append(ModeTransition(
                guest_icount=tol.guest_icount,
                entry_pc=unit.entry_pc if unit is not None else None,
                mode=mode))
            self._last_mode = mode

    def detach(self) -> None:
        """Stop observing; other probes on the same TOL are unaffected."""
        self._tol.remove_probe(self._probe)

    def mode_sequence(self) -> List[str]:
        return [t.mode for t in self.transitions]


class DispatchTracer:
    """Collects one line per dispatch: (icount, mode, entry_pc, execs)."""

    def __init__(self, tol: Tol, limit: int = 100_000):
        self.records: List[tuple] = []
        self.limit = limit
        self._tol = tol
        tol.add_probe(self._probe)

    def _probe(self, tol: Tol, unit) -> None:
        if len(self.records) >= self.limit:
            return
        if unit is None:
            self.records.append((tol.guest_icount, "IM", None, 1))
        else:
            self.records.append((
                tol.guest_icount, unit.mode, unit.entry_pc,
                unit.exec_count))

    def detach(self) -> None:
        """Stop observing; other probes on the same TOL are unaffected."""
        self._tol.remove_probe(self._probe)

    def format(self, n: int = 50) -> str:
        lines = []
        for (icount, mode, pc, execs) in self.records[:n]:
            where = f"{pc:#x}" if pc is not None else "-"
            lines.append(f"{icount:>10} {mode:<4} {where:<10} x{execs}")
        return "\n".join(lines)


def tol_stats_dump(tol: Tol) -> Dict[str, object]:
    """A monitoring snapshot of every interesting TOL statistic.

    Values come from the telemetry registry (scraped via
    ``snapshot(force=True)``, so the dump works even with the
    ``telemetry`` config mode ``off``); the key names are the legacy
    ones this dump has always used.
    """
    snap = tol.telemetry.snapshot(force=True)
    c = snap.counters
    dist = tol.mode_distribution()
    total = sum(dist.values()) or 1
    return {
        "guest_icount": c["tol.guest_icount"],
        "mode_distribution": {k: v / total for k, v in dist.items()},
        "emulation_cost_sbm": round(tol.emulation_cost_sbm(), 3),
        "tol_overhead_fraction": round(tol.overhead_fraction(), 4),
        "overhead_breakdown": overhead_breakdown_from_snapshot(snap),
        "code_cache_units": int(snap.gauges["cache.units"]),
        "code_cache_insns": int(snap.gauges["cache.size_insns"]),
        "code_cache_hits": c["cache.hits"],
        "code_cache_misses": c["cache.misses"],
        "bb_translations": c["tol.translations.bb"],
        "sb_translations": c["tol.translations.sb"],
        "loops_unrolled": c["tol.loops_unrolled"],
        "assert_failures": c["tol.rollbacks.assert"],
        "spec_failures": c["tol.rollbacks.spec"],
        "demotions": c["tol.demotions"],
        "chains_made": c["tol.chains_made"],
        "ibtc_hits": c["host.ibtc.hits"],
        "ibtc_misses": c["host.ibtc.misses"],
        "host_insns_committed": c["host.insns.committed"],
        "host_insns_wasted": c["host.insns.wasted"],
        "incidents": c["resilience.incidents"],
        "incident_kinds": sorted(set(tol.incidents.kinds())),
        "watchdog_fires": c["tol.watchdog_fires"],
        "quarantined_pcs": c["resilience.quarantined_pcs"],
        "quarantine_levels": tol.quarantine.summary(),
    }
