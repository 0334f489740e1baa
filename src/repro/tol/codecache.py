"""Code cache.

Stores translated units keyed by guest entry PC (with an ``unrolled``
variant dimension for loop superblocks).  Handles:

- promotion invalidation — creating a superblock frees the BBM translation
  of its first basic block (paper §V-B3);
- chain bookkeeping — incoming links are tracked so invalidation can unlink
  units that jump directly to the victim;
- a flush-on-full capacity policy (capacity measured in host instructions).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.host.isa import CodeUnit

PLAIN = "plain"
UNROLLED = "unrolled"


class CodeCache:
    def __init__(self, capacity_insns: int = 4_000_000):
        self.capacity_insns = capacity_insns
        self._units: Dict[Tuple[int, str], CodeUnit] = {}
        self._incoming: Dict[int, List[Tuple[CodeUnit, int]]] = {}
        self.size_insns = 0
        self.flushes = 0
        self.insertions = 0
        self.invalidations = 0
        self.hits = 0
        self.misses = 0
        #: Units dropped by capacity flushes (the cache's only eviction
        #: mechanism), as opposed to targeted invalidations.
        self.evictions = 0
        #: Units larger than the whole cache, refused outright (the TOL
        #: still executes them from the translator's hand-back; they are
        #: simply never cached).
        self.oversize_rejections = 0
        #: Generated programs dropped from removed units (coverage-map
        #: signal).
        self.direct_strips = 0
        #: Called with each unit removed from the cache (invalidate,
        #: invalidate_pc and flush), so dependent dispatch structures —
        #: the IBTC above all — can drop their references instead of
        #: dangling into freed code.
        self.on_remove: Optional[Callable[[CodeUnit], None]] = None

    def __len__(self) -> int:
        return len(self._units)

    def units(self):
        return self._units.values()

    # -- lookup ----------------------------------------------------------------

    def lookup(self, pc: int, variant: Optional[str] = None
               ) -> Optional[CodeUnit]:
        """Find a translation for ``pc``; unrolled variants win by default."""
        if variant is not None:
            unit = self._units.get((pc, variant))
        else:
            unit = self._units.get((pc, UNROLLED))
            if unit is None:
                unit = self._units.get((pc, PLAIN))
        if unit is None:
            self.misses += 1
        else:
            self.hits += 1
        return unit

    # -- insertion / invalidation ------------------------------------------------

    def insert(self, unit: CodeUnit, variant: str = PLAIN) -> bool:
        """Insert a unit; returns True if the cache flushed to make room.

        The unit it replaces (same PC and variant) is invalidated *before*
        the capacity check, so retranslating a large unit in place never
        triggers a spurious full-cache flush.  A unit that could never fit
        (larger than the whole cache) is rejected instead of being inserted
        with ``size_insns > capacity_insns``.
        """
        key = (unit.entry_pc, variant)
        old = self._units.get(key)
        if old is not None:
            self.invalidate(old)
        if unit.size() > self.capacity_insns:
            self.oversize_rejections += 1
            return False
        flushed = False
        if self.size_insns + unit.size() > self.capacity_insns:
            self.flush()
            flushed = True
        self._units[key] = unit
        self.size_insns += unit.size()
        self.insertions += 1
        return flushed

    def _strip_direct(self, unit: CodeUnit) -> None:
        """Drop a removed unit's generated programs.  A removed unit can
        still be referenced (it may be mid-execution), but its entry PC
        may have been quarantined: if it is ever entered again, it must
        recompile against its own instructions."""
        if unit.__dict__.pop("_directprog", None) is not None:
            self.direct_strips += 1
        unit.__dict__.pop("_directprog_traced", None)

    def invalidate(self, unit: CodeUnit) -> None:
        """Remove a unit, unlinking chains in both directions."""
        keys = [k for k, u in self._units.items() if u is unit]
        for key in keys:
            del self._units[key]
            self.size_insns -= unit.size()
        self._unlink(unit)
        self._strip_direct(unit)
        self.invalidations += 1
        if self.on_remove is not None:
            self.on_remove(unit)

    def invalidate_pc(self, pc: int) -> List[CodeUnit]:
        """Remove every variant cached for ``pc`` (quarantine path)."""
        victims = []
        for (upc, variant), unit in list(self._units.items()):
            if upc == pc and unit not in victims:
                victims.append(unit)
        for unit in victims:
            self.invalidate(unit)
        return victims

    def _unlink(self, unit: CodeUnit) -> None:
        """Sever every chain touching ``unit``: incoming links from other
        units, and the unit's own outgoing links (deregistered from their
        targets so a removed unit leaves no bookkeeping behind)."""
        for (linker, exit_idx) in self._incoming.pop(unit.uid, []):
            exit_instr = linker.instrs[exit_idx]
            if exit_instr.meta.get("link") is unit:
                exit_instr.meta["link"] = None
        for instr in unit.instrs:
            if instr.op != "exit":
                continue
            target = instr.meta.get("link")
            if target is None:
                continue
            instr.meta["link"] = None
            back = self._incoming.get(target.uid)
            if back:
                self._incoming[target.uid] = [
                    (u, i) for (u, i) in back if u is not unit]

    def flush(self) -> None:
        removed = []
        seen = set()
        for unit in self._units.values():
            if id(unit) not in seen:
                seen.add(id(unit))
                removed.append(unit)
        self._units.clear()
        self._incoming.clear()
        self.size_insns = 0
        self.flushes += 1
        self.evictions += len(removed)
        # Clear outgoing links on everything removed — a flushed unit may
        # still be mid-execution in the host emulator, and a stale link
        # must not re-enter freed code — and let dependents (IBTC) drop
        # their references.
        for unit in removed:
            for instr in unit.instrs:
                if instr.op == "exit" and instr.meta.get("link") is not None:
                    instr.meta["link"] = None
            self._strip_direct(unit)
            if self.on_remove is not None:
                self.on_remove(unit)

    # -- chaining -----------------------------------------------------------------

    def chain(self, from_unit: CodeUnit, exit_index: int,
              to_unit: CodeUnit) -> None:
        """Patch an exit instruction to jump directly to ``to_unit``."""
        exit_instr = from_unit.instrs[exit_index]
        if exit_instr.op != "exit":
            raise ValueError(f"not a chainable exit: {exit_instr!r}")
        exit_instr.meta["link"] = to_unit
        self._incoming.setdefault(to_unit.uid, []).append(
            (from_unit, exit_index))
