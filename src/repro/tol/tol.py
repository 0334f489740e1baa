"""The Translation Optimization Layer main loop (paper §V-B, Fig. 3).

Dispatch: look up the code cache; execute translated code when present;
otherwise interpret, profile, and promote hot code IM -> BBM -> SBM.
Handles chaining, IBTC fills, speculation failures (rollback + one
interpreted basic block for forward progress, demotion to multi-exit
superblocks past the failure limit) and surfaces synchronization events
(data requests, system calls, end of application) to the controller.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import costs
from repro.guest.memory import PagedMemory, PageFault
from repro.guest.state import GuestState
from repro.host.emulator import (
    EXIT_ASSERT, EXIT_PAGE_FAULT, EXIT_SPEC, EXIT_TOL, HostEmulator,
)
from repro.host.isa import CodeUnit, UNIT_MODE_BBM
from repro.tol.codecache import CodeCache
from repro.tol.config import TolConfig
from repro.tol.direct import compile_direct
from repro.tol.decoder import Frontend, GisaFrontend
from repro.tol.interp import END, Interpreter, OK, SYSCALL
from repro.tol.overhead import OverheadAccount
from repro.tol.profile import Profiler
from repro.tol.translate import Translator
from repro.telemetry import Telemetry
from repro.telemetry.collectors import register_tol_collectors
from repro.resilience.incidents import IncidentLog
from repro.resilience.quarantine import (
    LEVEL_BBM_ONLY, LEVEL_INTERPRET_ONLY, LEVEL_NAMES, LEVEL_NO_ASSERTS,
    TranslationQuarantine,
)

EVENT_SYSCALL = "syscall"
EVENT_END = "end"
EVENT_DATA_REQUEST = "data_request"
EVENT_PAUSE = "pause"


@dataclass
class TolEvent:
    """A synchronization event surfaced to the controller (paper §V-A)."""

    kind: str
    fault_addr: Optional[int] = None


@dataclass
class TolStats:
    assert_failures: int = 0
    spec_failures: int = 0
    demotions: int = 0
    chains_made: int = 0
    ibtc_fills: int = 0
    im_guest_insns: int = 0
    sb_blacklisted: int = 0
    watchdog_fires: int = 0
    # -- TOL-path coverage counters (fuzzer coverage map; cheap dict
    # increments, deterministic across runs) ---------------------------
    #: Unit-exit arm taken, keyed ``<mode>:<arm>`` (arm one of
    #: page_fault / assert / spec / ibtc_miss / ibtc_fill / chain /
    #: chained_exit / exit / promote_req).
    exit_arms: Dict[str, int] = field(default_factory=dict)
    #: Translation shapes, keyed ``bb`` or ``sb:<units>u:<insn bucket>``.
    sb_shapes: Dict[str, int] = field(default_factory=dict)
    #: Program outcomes at a unit's first entry, keyed compiled /
    #: rejected_uncompilable.
    direct_tier: Dict[str, int] = field(default_factory=dict)

    def bump(self, table: str, key: str) -> None:
        d = getattr(self, table)
        d[key] = d.get(key, 0) + 1


class Tol:
    """One co-designed component's software layer."""

    def __init__(self, state: GuestState, memory: PagedMemory,
                 config: Optional[TolConfig] = None,
                 frontend: Optional[Frontend] = None):
        self.state = state
        self.memory = memory
        self.config = config if config is not None else TolConfig()
        self.frontend = frontend if frontend is not None else GisaFrontend()
        self.host = HostEmulator(
            memory,
            alias_table_size=self.config.alias_table_size,
            ibtc_size=self.config.ibtc_size)
        self.host.profile_hook = self._profile_hook
        self.host.alias_serial_search = self.config.alias_serial_search
        # Generated programs: the host consults the hook at every unit's
        # first entry -- including units only ever entered through
        # chains/IBTC hops, which TOL dispatch never sees.  Without it
        # every unit runs on the reference loop.
        if self.config.host_fastpath:
            self.host.direct_promote_hook = self._direct_promote_unit
        if self.config.profiling_hw_assist:
            self.host.profile_inline_cost = 0
        self.interp = Interpreter(self.frontend, state, memory,
                                  fastpath=self.config.host_fastpath)
        self.profiler = Profiler()
        self.cache = CodeCache(capacity_insns=self.config.code_cache_capacity)
        self.translator = Translator(self.frontend, self.config)
        self.overhead = OverheadAccount()
        self.stats = TolStats()
        #: Observability hub: metrics registry (scraped by pull-style
        #: collectors at snapshot boundaries) plus, in ``full`` mode, the
        #: span tracer.  Shared with the controller, the timing session
        #: and the sweep harness.
        self.telemetry = Telemetry(self.config.telemetry,
                                   self.config.telemetry_max_trace_events)
        register_tol_collectors(self.telemetry, self)
        self.translator.telemetry = self.telemetry
        #: Total guest instructions retired by the co-designed component.
        self.guest_icount = 0
        #: Host instructions spent executing cold code through the
        #: hardware guest decoder (dual-decoder mode; application stream).
        self._hw_decode_insns = 0.0
        #: Translation work deferred to a dedicated core (background
        #: translation mode; not part of the main core's stream).
        self.background_translation_insns = 0
        self._promote_request: Optional[int] = None
        self._sb_blacklist = set()
        #: ``(pc, variant)`` hint from the last unit exit: an unrolled
        #: loop's trip-count guard exits to its own entry pc requesting
        #: the plain body, and dispatch must honor that or it would hand
        #: back the unrolled unit forever (no chaining to shortcut it).
        self._exit_variant_hint: Optional[tuple] = None
        # -- resilience machinery ---------------------------------------
        #: Per-entry-PC escalation ladder for implicated translations.
        self.quarantine = TranslationQuarantine()
        #: Structured log of recovery events (shared with the controller).
        self.incidents = IncidentLog()
        # Keep the IBTC consistent with every cache removal (eviction,
        # flush, quarantine) instead of relying on call-site discipline.
        self.cache.on_remove = self.host.ibtc.invalidate_unit
        #: Recent units *entered* by the host (chained/IBTC hops included)
        #: — divergence implication and runaway diagnostics read this.
        self._dispatch_window = deque(
            maxlen=max(1, self.config.dispatch_window_size))
        self.host.unit_log = self._dispatch_window
        #: Consecutive event-free dispatches with zero guest retirement.
        self._stall_dispatches = 0
        #: fault-injection hook: called as ``install_hook(unit, variant)``
        #: after every code-cache installation.
        self.install_hook = None
        #: debug hook: called as ``probe(tol, unit_or_None)`` after every
        #: dispatch step (unit execution or interpreted basic block).
        #: Prefer :meth:`add_probe`/:meth:`remove_probe`, which fan out to
        #: any number of observers and detach cleanly; direct assignment
        #: still works for single exclusive owners (divergence repro).
        self.probe = None
        self._probes: List = []
        #: when set, dispatch pauses once guest_icount reaches this value
        #: (sampling methodology support).
        self.pause_at_icount: Optional[int] = None
        #: Invariant-checker pass (``tol/sanitize.py``): wraps the code
        #: cache, quarantine ladder and host checkpoint machinery so a
        #: corrupted dispatch structure fires at the corrupting step.
        #: None unless ``config.sanitize`` — zero cost when off.
        self.sanitizer = None
        if self.config.sanitize:
            from repro.tol.sanitize import TolSanitizer
            self.sanitizer = TolSanitizer(self)
        self.overhead.charge("others", costs.TOL_INIT)

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------

    def run(self) -> TolEvent:
        """Execute until a synchronization event occurs."""
        with self.telemetry.span("dispatch", "tol",
                                 icount=self.guest_icount):
            return self._run_dispatch_loop()

    def _run_dispatch_loop(self) -> TolEvent:
        watchdog = self.config.watchdog_enable
        limit = self.config.watchdog_stall_limit
        while True:
            before = self.guest_icount
            try:
                event = self._dispatch_once()
            except PageFault as fault:
                self.overhead.charge("others", costs.TOL_STATS_EVENT)
                self._stall_dispatches = 0
                return TolEvent(EVENT_DATA_REQUEST, fault_addr=fault.addr)
            if event is not None:
                self._stall_dispatches = 0
                return event
            # Forward-progress watchdog: a dispatch that produced neither
            # an event nor guest retirement is a stall; enough of them in
            # a row is a livelock (the PR-2 bug class), and the spinning
            # translation gets quarantined.
            if self.guest_icount != before:
                self._stall_dispatches = 0
            elif watchdog:
                self._stall_dispatches += 1
                if self._stall_dispatches >= limit:
                    self._watchdog_fire()

    def _dispatch_once(self) -> Optional[TolEvent]:
        if (self.pause_at_icount is not None
                and self.guest_icount >= self.pause_at_icount):
            return TolEvent(EVENT_PAUSE)
        pc = self.state.eip
        self.overhead.charge("others", costs.TOL_MAINLOOP)
        if (len(self.quarantine)
                and self.quarantine.level(pc) >= LEVEL_INTERPRET_ONLY):
            # Fully quarantined entry: the interpreter is the trusted
            # executor of last resort.
            event = self._interpret_bb()
            if self.probe is not None:
                self.probe(self, None)
            return event
        self.overhead.charge("cc_lookup", costs.CC_LOOKUP)
        hint, self._exit_variant_hint = self._exit_variant_hint, None
        if hint is not None and hint[0] == pc:
            unit = self.cache.lookup(pc, hint[1]) or self.cache.lookup(pc)
        else:
            unit = self.cache.lookup(pc)
        if unit is None:
            if (self.profiler.interpreted_count(pc)
                    >= self.config.bbm_threshold):
                unit = self._translate_bb(pc)
            if unit is None:
                event = self._interpret_bb()
                if self.probe is not None:
                    self.probe(self, None)
                return event
        if (unit.mode == UNIT_MODE_BBM
                and unit.exec_count >= self.config.sbm_threshold
                and self._may_promote(pc)):
            promoted = self._promote(pc)
            if promoted is not None:
                unit = promoted
        event = self._execute_unit(unit)
        if self.probe is not None:
            self.probe(self, unit)
        return event

    # ------------------------------------------------------------------
    # Interpretation (IM).
    # ------------------------------------------------------------------

    def _interpret_bb(self) -> Optional[TolEvent]:
        """Interpret one basic block (or up to a synchronization point)."""
        entry_pc = self.state.eip
        self.profiler.record_interpretation(entry_pc)
        dual = self.config.dual_decoder
        if not dual:
            self.overhead.charge("interpreter", costs.INTERP_PROFILE_BB)
        while True:
            result = self.interp.step()
            if result.status == SYSCALL:
                return TolEvent(EVENT_SYSCALL)
            if result.status == END:
                return TolEvent(EVENT_END)
            if result.completed:
                # Chunked string ops yield mid-instruction (completed is
                # False); the instruction retires only once.
                self.guest_icount += 1
                self.stats.im_guest_insns += 1
            if dual:
                # Denver-style: the hardware guest decoder executes cold
                # code at near-native cost in the application stream.
                if result.completed:
                    self._hw_decode_insns += self.config.dual_decode_cost
            else:
                self.overhead.charge(
                    "interpreter",
                    costs.INTERP_DISPATCH
                    + costs.INTERP_PER_IR_OP * result.ir_ops)
            if result.ended_bb:
                return None

    # ------------------------------------------------------------------
    # Translation and promotion.
    # ------------------------------------------------------------------

    def _translate_bb(self, pc: int) -> Optional[CodeUnit]:
        with self.telemetry.span("translate_bb", "translate",
                                 icount=self.guest_icount, pc=pc):
            translation = self.translator.translate_bb(self.memory, pc)
        if translation is None:
            return None
        self._charge_translation("bb_translator", translation.cost)
        self._observe_translation(translation)
        unit, variant = translation.units[0]
        self._install(unit, variant)
        return unit

    def _may_promote(self, pc: int) -> bool:
        """Superblock formation allowed for this entry PC?"""
        return (pc not in self._sb_blacklist
                and self.quarantine.level(pc) < LEVEL_BBM_ONLY)

    def _promote(self, pc: int) -> Optional[CodeUnit]:
        """Promote a hot BBM block to a superblock (SBM)."""
        with self.telemetry.span("translate_sb", "translate",
                                 icount=self.guest_icount, pc=pc):
            translation = self.translator.translate_superblock(
                self.memory, pc, self.profiler,
                demote=self.quarantine.level(pc) >= LEVEL_NO_ASSERTS)
        if translation is None:
            self._sb_blacklist.add(pc)
            self.stats.sb_blacklisted += 1
            return None
        self._charge_translation("sb_translator", translation.cost)
        self._observe_translation(translation, superblock=True)
        first_unit = None
        for unit, variant in translation.units:
            self._install(unit, variant)
            if first_unit is None:
                first_unit = unit
        return self.cache.lookup(pc)

    def _direct_promote_unit(self, unit: CodeUnit) -> None:
        """Program policy (host callback), at a unit's first entry
        (first traced entry for the traced variant): compile the unit's
        program, whatever its mode or quarantine rung -- the ladder acts
        through translation, never through the execution form."""
        host = self.host
        if host.trace_sink is not None:
            unit._directprog_traced = compile_direct(unit, host,
                                                     traced=True)
            return
        prog = compile_direct(unit, host)
        self.stats.bump("direct_tier", "compiled" if prog is not None
                        else "rejected_uncompilable")
        unit._directprog = prog

    def _demote(self, pc: int) -> None:
        """Recreate a failing superblock without asserts/speculation."""
        with self.telemetry.span("translate_sb", "translate",
                                 icount=self.guest_icount, pc=pc,
                                 demote=True):
            translation = self.translator.translate_superblock(
                self.memory, pc, self.profiler, demote=True)
        if translation is None:
            # Could not rebuild (e.g. stale profile): drop the failing unit
            # so execution falls back to BBM/IM.
            unit = self.cache.lookup(pc)
            if unit is not None:
                self.cache.invalidate(unit)
            self._sb_blacklist.add(pc)
            return
        self._charge_translation("sb_translator", translation.cost)
        self._observe_translation(translation, superblock=True)
        # Remove a stale unrolled variant: the demoted translation replaces
        # only the keys it provides.
        old_unrolled = self.cache.lookup(pc, "unrolled")
        if old_unrolled is not None and all(
                v != "unrolled" for _, v in translation.units):
            self.cache.invalidate(old_unrolled)
        for unit, variant in translation.units:
            self._install(unit, variant)
        self.stats.demotions += 1
        self._sb_blacklist.add(pc)  # do not re-promote to assert mode

    def _observe_translation(self, translation, superblock: bool = False
                             ) -> None:
        """Cold-path histogram observations: translation work cost, and
        superblock sizes.  Per-translation, so deterministic across runs
        and safely outside the dispatch hot loop."""
        if superblock:
            insns = max(u.guest_insn_count for u, _ in translation.units)
            # Bucket by powers of two so the coverage key space stays
            # small and a *new shape class* (not a new exact size) is
            # what counts as fresh coverage.
            self.stats.bump("sb_shapes",
                            f"sb:{len(translation.units)}u:"
                            f"{1 << (insns - 1).bit_length()}")
        else:
            self.stats.bump("sb_shapes", "bb")
        if not self.telemetry.counters_on:
            return
        reg = self.telemetry.registry
        reg.histogram("tol.translation.cost").observe(translation.cost)
        if superblock:
            reg.histogram("tol.superblock.insns").observe(
                max(u.guest_insn_count for u, _ in translation.units))

    def _charge_translation(self, category: str, cost: int) -> None:
        """Charge translation work to the main stream, or to the
        dedicated translation core in background mode (paper SIII, "when
        and where to translate")."""
        if self.config.background_translation:
            self.background_translation_insns += cost
        else:
            self.overhead.charge(category, cost)

    def _install(self, unit: CodeUnit, variant: str) -> None:
        # The cache's on_remove hook keeps the IBTC consistent across the
        # replace-same-key and flush-on-full paths.
        self.cache.insert(unit, variant)
        if self.install_hook is not None:
            self.install_hook(unit, variant)

    # ------------------------------------------------------------------
    # Execution of translated code.
    # ------------------------------------------------------------------

    def _execute_unit(self, unit: CodeUnit) -> Optional[TolEvent]:
        self.overhead.charge("prologue", costs.PROLOGUE)
        self._promote_request = None
        before = self.host.guest_retired_total
        if self.pause_at_icount is not None:
            remaining = self.pause_at_icount - self.guest_icount
            self.host.pause_retired_at = before + max(0, remaining)
        else:
            self.host.pause_retired_at = None
        event = self.host.execute(unit, self.state)
        self.guest_icount += self.host.guest_retired_total - before
        self.overhead.charge("prologue", costs.EPILOGUE)

        if event.kind == EXIT_PAGE_FAULT:
            self.stats.bump("exit_arms", f"{unit.mode}:page_fault")
            self.overhead.charge("others", costs.TOL_STATS_EVENT)
            return TolEvent(EVENT_DATA_REQUEST, fault_addr=event.fault_addr)

        if event.kind in (EXIT_ASSERT, EXIT_SPEC):
            if event.kind == EXIT_ASSERT:
                self.stats.assert_failures += 1
                self.stats.bump("exit_arms", f"{unit.mode}:assert")
            else:
                self.stats.spec_failures += 1
                self.stats.bump("exit_arms", f"{unit.mode}:spec")
            failing = event.unit
            if (failing.assert_failures + failing.spec_failures
                    > self.config.assert_fail_limit):
                # A rollback storm is a resilience event: the unit's
                # speculation is not holding.  Record it and pin the entry
                # at the no-asserts rung so the ladder has a floor even if
                # the demoted unit is later evicted.
                self.incidents.record(
                    "rollback_storm", self.guest_icount,
                    detail={"pc": failing.entry_pc, "mode": failing.mode,
                            "assert_failures": failing.assert_failures,
                            "spec_failures": failing.spec_failures},
                    suspects=(failing.entry_pc,),
                    actions=(f"pc={failing.entry_pc:#x} demote",))
                self.telemetry.instant(
                    "rollback_storm", "resilience",
                    icount=self.guest_icount, pc=failing.entry_pc)
                self.quarantine.escalate(failing.entry_pc,
                                         floor=LEVEL_NO_ASSERTS)
                self._demote(failing.entry_pc)
            # Forward progress through the interpreter (paper §V-B1).
            return self._interpret_bb()

        # EXIT_TOL: handle promotion requests and linking.
        if self._promote_request is not None:
            pc = self._promote_request
            self._promote_request = None
            self.stats.bump("exit_arms", f"{unit.mode}:promote_req")
            if self._may_promote(pc):
                promoted_unit = self.cache.lookup(pc)
                if (promoted_unit is not None
                        and promoted_unit.mode == UNIT_MODE_BBM):
                    self._promote(pc)
        if event.exit_index is not None:
            variant = (event.unit.instrs[event.exit_index]
                       .meta.get("prefer_variant"))
            if variant is not None:
                self._exit_variant_hint = (event.next_pc, variant)
        if event.ibtc_miss:
            self.stats.bump("exit_arms", f"{unit.mode}:ibtc_miss")
            if self.config.ibtc_enable:
                target = self.cache.lookup(event.next_pc)
                if target is not None:
                    self.host.ibtc.insert(event.next_pc, target)
                    self.overhead.charge("chaining", costs.IBTC_FILL)
                    self.stats.ibtc_fills += 1
                    self.stats.bump("exit_arms", f"{unit.mode}:ibtc_fill")
        elif self.config.chaining_enable and event.exit_index is not None:
            self.stats.bump("exit_arms", f"{unit.mode}:exit")
            self._try_chain(event)
        else:
            self.stats.bump("exit_arms", f"{unit.mode}:exit")
        return None

    def _try_chain(self, event) -> None:
        exit_instr = event.unit.instrs[event.exit_index]
        if exit_instr.op != "exit" or exit_instr.meta.get("link") is not None:
            return
        self.overhead.charge("chaining", costs.CHAIN_ATTEMPT)
        variant = exit_instr.meta.get("prefer_variant")
        # A variant-preferring exit (an unrolled loop's trip-count guard)
        # must stay unchained until its preferred variant is cached:
        # falling back to the default lookup hands back the *unrolled*
        # unit — possibly this very unit — and the host follows chain
        # links inside one dispatch, so a self-linked zero-retirement
        # guard exit spins until fuel exhaustion (the dispatch-level
        # stall watchdog never runs mid-execute).  Happens whenever a
        # capacity flush evicts the plain variant (DESIGN.md §12).
        target = self.cache.lookup(event.next_pc, variant)
        if target is None:
            return
        if (target is event.unit
                and exit_instr.meta.get("guest_insns", 0) == 0):
            return  # a zero-progress self-link is a livelock by definition
        self.cache.chain(event.unit, event.exit_index, target)
        self.stats.chains_made += 1
        self.stats.bump("exit_arms",
                        f"{event.unit.mode}:chain_made")

    # ------------------------------------------------------------------
    # Resilience: quarantine, implication, watchdog.
    # ------------------------------------------------------------------

    def quarantine_pc(self, pc: int, floor: int = 0) -> List[str]:
        """Escalate ``pc`` one rung on the quarantine ladder, drop its
        cached translations (chains and IBTC references are unlinked by
        the cache) and return human-readable action strings."""
        level = self.quarantine.escalate(pc, floor)
        removed = self.cache.invalidate_pc(pc)
        if (self._exit_variant_hint is not None
                and self._exit_variant_hint[0] == pc):
            self._exit_variant_hint = None
        if level >= LEVEL_BBM_ONLY:
            self._sb_blacklist.add(pc)
        actions = [f"pc={pc:#x} level={LEVEL_NAMES[level]}"]
        if removed:
            actions.append(
                f"pc={pc:#x} invalidated={len(removed)} unit(s)")
        return actions

    def implicated_pcs(self) -> List[int]:
        """Unique entry PCs of recently entered units, oldest first.

        The host appends every unit *entered* — including chain-follow
        and IBTC hops that TOL dispatch never sees — so a divergence can
        implicate translations that only ran as chain targets."""
        seen: List[int] = []
        for unit in self._dispatch_window:
            if unit.entry_pc not in seen:
                seen.append(unit.entry_pc)
        return seen

    def recent_dispatches(self, n: int = 8) -> List[str]:
        """Last ``n`` units entered, as ``MODE@pc`` strings (diagnostics)."""
        return [f"{u.mode}@{u.entry_pc:#x}"
                for u in list(self._dispatch_window)[-n:]]

    def clear_dispatch_window(self) -> None:
        """Forget the implication window (called after a validation pass:
        units entered before a clean checkpoint are exonerated)."""
        self._dispatch_window.clear()

    def _watchdog_fire(self) -> None:
        pc = self.state.eip
        actions = self.quarantine_pc(pc)
        self.stats.watchdog_fires += 1
        self.telemetry.instant("watchdog_fire", "resilience",
                               icount=self.guest_icount, pc=pc)
        self.incidents.record(
            "livelock", self.guest_icount,
            detail={"pc": pc,
                    "stalled_dispatches": self._stall_dispatches,
                    "recent": self.recent_dispatches()},
            suspects=(pc,), actions=tuple(actions))
        self._stall_dispatches = 0

    # ------------------------------------------------------------------
    # Hooks and controller interface.
    # ------------------------------------------------------------------

    def add_probe(self, fn) -> None:
        """Register a dispatch probe.  Any number of probes can coexist;
        they fan out in registration order.  (The old idiom of each
        tracer wrapping ``tol.probe`` leaked its predecessor forever —
        probes registered here detach cleanly via :meth:`remove_probe`.)
        """
        self._probes.append(fn)
        self._rebuild_probe()

    def remove_probe(self, fn) -> None:
        """Detach a probe registered with :meth:`add_probe` (no-op when
        absent, so double-detach is safe)."""
        if fn in self._probes:
            self._probes.remove(fn)
        self._rebuild_probe()

    def _rebuild_probe(self) -> None:
        if not self._probes:
            self.probe = None
        elif len(self._probes) == 1:
            self.probe = self._probes[0]
        else:
            probes = tuple(self._probes)

            def fanout(tol, unit):
                for probe in probes:
                    probe(tol, unit)

            self.probe = fanout

    def _profile_hook(self, unit: CodeUnit, next_pc: int) -> bool:
        """BBM inline instrumentation: record the edge; request promotion
        when the execution counter crosses the SBM threshold."""
        self.profiler.record_edge(unit.entry_pc, next_pc)
        if (unit.exec_count >= self.config.sbm_threshold
                and self._may_promote(unit.entry_pc)):
            self._promote_request = unit.entry_pc
            return True
        return False

    def set_thresholds(self, bbm: int, sbm: int) -> None:
        """Adjust promotion thresholds at run time (threshold-downscaled
        warm-up, paper §VI-E)."""
        self.config.bbm_threshold = bbm
        self.config.sbm_threshold = sbm

    def complete_syscall(self) -> None:
        """Account for a syscall the x86 component executed on our behalf
        (the controller has already copied the resulting state)."""
        self.guest_icount += 1
        self.interp.icount += 1

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------

    def mode_distribution(self) -> Dict[str, int]:
        """Dynamic guest instructions retired per execution mode
        (paper Fig. 4)."""
        retired = dict(self.host.guest_retired_by_mode)
        out = {
            "IM": self.stats.im_guest_insns,
            "BBM": retired.get("BBM", 0),
            # Demoted superblocks are still superblock-mode execution.
            "SBM": retired.get("SBM", 0) + retired.get("SBX", 0),
        }
        return out

    def emulation_cost_sbm(self) -> float:
        """Host instructions per guest instruction in SBM (paper Fig. 5)."""
        guest = (self.host.guest_retired_by_mode.get("SBM", 0)
                 + self.host.guest_retired_by_mode.get("SBX", 0))
        host = (self.host.host_committed_by_mode.get("SBM", 0)
                + self.host.host_committed_by_mode.get("SBX", 0))
        return host / guest if guest else 0.0

    @property
    def app_host_insns(self) -> int:
        """Host instructions executed as application code (code cache,
        plus the hardware guest decoder stream in dual-decoder mode)."""
        return self.host.host_insns_total + int(self._hw_decode_insns)

    @property
    def tol_overhead_insns(self) -> int:
        return self.overhead.total

    def overhead_fraction(self) -> float:
        """TOL overhead share of the dynamic host stream (paper Fig. 6)."""
        total = self.app_host_insns + self.tol_overhead_insns
        return self.tol_overhead_insns / total if total else 0.0
