"""TOL invariant sanitizer (``TolConfig.sanitize``).

A divergence caught at a validation boundary tells you *that* the
co-designed state went wrong, hundreds of thousands of instructions
after the dispatch structure that corrupted it.  The sanitizer moves the
detection to the corrupting step: it wraps the mutation points of the
structures the TOL trusts blindly — the code cache, the chain links, the
IBTC, the quarantine ladder, the host's checkpoint/undo machinery — and
re-verifies their invariants after every mutation.

Invariant families
------------------
``cache_links``      every chained ``exit`` points at a unit currently
                     in the cache, the target's entry PC equals the
                     exit's static continuation (``meta["next_pc"]``),
                     and the reverse ``_incoming`` index matches the
                     forward links exactly (no dangling, no stale).
``cache_accounting`` ``size_insns`` equals the summed size of the
                     distinct cached units.
``ibtc_targets``     every IBTC mapping ``pc -> unit`` has ``unit``
                     still in the cache and ``unit.entry_pc == pc``.
``quarantine``       the per-PC ladder is monotone: an entry's level
                     never decreases and never exceeds
                     ``interpret_only``.
``undo_log``         the host's undo log and alias table are drained
                     whenever a dispatch returns (a checkpoint is a
                     local of the code that took it, so none outlives
                     a return), and the undo log never covers the
                     TOL-private memory area when a rollback replays
                     it.

A violation records a ``sanitizer_violation`` incident (so recover-mode
runs degrade gracefully and the fuzzer's triage sees a signature) and,
in strict mode, raises :class:`SanitizerError` at the mutation site —
the stack trace names the corrupting call, not the eventual symptom.

The pass costs nothing when off: :class:`~repro.tol.tol.Tol` only
constructs a sanitizer when ``config.sanitize`` is true, and every hook
is an instance-level wrapper on that one TOL's collaborators.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

KIND_SANITIZER = "sanitizer_violation"


class SanitizerError(Exception):
    """An invariant of the TOL's dispatch structures does not hold."""


class TolSanitizer:
    """Wraps one TOL's mutation points with invariant re-verification."""

    def __init__(self, tol):
        self.tol = tol
        self.checks_run = 0
        self.violations = 0
        #: shadow of the quarantine ladder for the monotonicity check.
        self._shadow_levels: Dict[int, int] = {}
        self._attach()

    # ------------------------------------------------------------------
    # Wiring.
    # ------------------------------------------------------------------

    def _attach(self) -> None:
        cache = self.tol.cache
        for name in ("insert", "invalidate", "invalidate_pc", "flush",
                     "chain"):
            self._wrap_cache_op(cache, name)
        self._wrap_escalate(self.tol.quarantine)
        self._wrap_host(self.tol.host)

    def _wrap_cache_op(self, cache, name: str) -> None:
        orig = getattr(cache, name)

        def checked(*args, **kwargs):
            result = orig(*args, **kwargs)
            self.check_cache(site=name)
            return result

        setattr(cache, name, checked)

    def _wrap_escalate(self, quarantine) -> None:
        orig = quarantine.escalate

        def checked(pc, floor=0):
            before = self._shadow_levels.get(pc, quarantine.level(pc))
            new = orig(pc, floor)
            if new < before or new < floor or not (0 <= new <= 3):
                self._fail("quarantine", {
                    "pc": pc, "before": before, "floor": floor,
                    "after": new,
                }, site="escalate")
            self._shadow_levels[pc] = max(before, new)
            self.checks_run += 1
            return new

        quarantine.escalate = checked

    def _wrap_host(self, host) -> None:
        """Check the host's region state where both execution forms pass
        -- every return from ``_run`` -- and, through the host's
        ``undo_check`` hook, before every rollback replays the undo
        log."""
        run = host._run

        def checked_run(unit):
            event = run(unit)
            if host._undo or host.alias_table.entries:
                self._fail("undo_log", {
                    "undo_entries": len(host._undo),
                    "alias_entries": len(host.alias_table.entries),
                    "unit_pc": event.unit.entry_pc,
                }, site="run")
            self.checks_run += 1
            return event

        host._run = checked_run
        host.undo_check = lambda unit: self._check_undo_entries(host, unit)

    def _check_undo_entries(self, host, unit) -> None:
        from repro.tol.regalloc import TOL_AREA_BASE
        for kind, addr, _old in host._undo:
            if addr >= TOL_AREA_BASE:
                self._fail("undo_log", {
                    "entry_kind": kind, "addr": addr,
                    "unit_pc": getattr(unit, "entry_pc", None),
                }, site="rollback")

    # ------------------------------------------------------------------
    # The cache / chain / IBTC invariant walk.
    # ------------------------------------------------------------------

    def check_cache(self, site: str = "explicit") -> None:
        """Re-verify cache link integrity, accounting and IBTC targets.

        O(units x instructions): the fuzzer's candidates cache a handful
        of units, so running this after every mutation is cheap."""
        self.checks_run += 1
        cache = self.tol.cache
        units = {}
        for unit in cache._units.values():
            units[unit.uid] = unit
        size = sum(u.size() for u in units.values())
        if size != cache.size_insns:
            self._fail("cache_accounting", {
                "size_insns": cache.size_insns, "actual": size,
                "units": len(units),
            }, site=site)

        forward = set()
        for unit in units.values():
            for idx, instr in enumerate(unit.instrs):
                if instr.op != "exit":
                    continue
                link = instr.meta.get("link")
                if link is None:
                    continue
                if link.uid not in units:
                    self._fail("cache_links", {
                        "from_pc": unit.entry_pc, "exit_index": idx,
                        "target_uid": link.uid,
                        "target_pc": link.entry_pc,
                        "problem": "link target not in cache",
                    }, site=site)
                next_pc = instr.meta.get("next_pc")
                if next_pc is not None and link.entry_pc != next_pc:
                    self._fail("cache_links", {
                        "from_pc": unit.entry_pc, "exit_index": idx,
                        "expected_pc": next_pc,
                        "target_pc": link.entry_pc,
                        "problem": "chain target mismatch",
                    }, site=site)
                back = cache._incoming.get(link.uid, [])
                if not any(u is unit and i == idx for (u, i) in back):
                    self._fail("cache_links", {
                        "from_pc": unit.entry_pc, "exit_index": idx,
                        "target_pc": link.entry_pc,
                        "problem": "forward link missing from "
                                   "incoming index",
                    }, site=site)
                forward.add((unit.uid, idx))

        for uid, entries in cache._incoming.items():
            for (linker, idx) in entries:
                if (linker.uid, idx) in forward:
                    continue
                # A registered incoming edge must still be backed by the
                # linker's forward pointer.  The linker itself may have
                # left the cache (the TOL chains ``event.unit`` even
                # when promotion just replaced it — a zombie linker with
                # a consistent link is legal and harmless); only a
                # *mismatched* forward pointer is corruption.
                link = linker.instrs[idx].meta.get("link")
                if link is not None and link.uid == uid:
                    continue
                self._fail("cache_links", {
                    "target_uid": uid,
                    "linker_pc": linker.entry_pc, "exit_index": idx,
                    "problem": "stale incoming edge",
                }, site=site)

        ibtc = self.tol.host.ibtc
        for pc, unit in ibtc._map.items():
            if unit.uid not in units:
                self._fail("ibtc_targets", {
                    "pc": pc, "target_uid": unit.uid,
                    "problem": "IBTC entry references removed unit",
                }, site=site)
            elif unit.entry_pc != pc:
                self._fail("ibtc_targets", {
                    "pc": pc, "target_pc": unit.entry_pc,
                    "problem": "IBTC target entry PC mismatch",
                }, site=site)

    # ------------------------------------------------------------------
    # Violation reporting.
    # ------------------------------------------------------------------

    def _fail(self, check: str, detail: Dict[str, Any],
              site: str) -> None:
        self.violations += 1
        tol = self.tol
        suspects = tuple(
            pc for pc in (detail.get("from_pc"), detail.get("pc"),
                          detail.get("linker_pc"))
            if isinstance(pc, int))
        tol.incidents.record(
            KIND_SANITIZER, tol.guest_icount,
            detail={"check": check, "site": site, **detail},
            suspects=suspects,
            actions=(f"check={check} site={site}",))
        tol.telemetry.instant("sanitizer_violation", "resilience",
                              icount=tol.guest_icount, check=check)
        if tol.config.recovery_mode == "strict":
            raise SanitizerError(
                f"{check} invariant violated at {site}: {detail}")


def attach_sanitizer(tol) -> Optional[TolSanitizer]:
    """Construct and attach a sanitizer when the config asks for one."""
    if not tol.config.sanitize:
        return None
    return TolSanitizer(tol)
