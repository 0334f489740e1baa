"""Host functional emulator.

Executes translated code units on the host register files, against the
co-designed component's emulated guest memory.  Implements the co-designed
hardware features the TOL depends on:

- checkpoint/rollback (``chkpt``/``commit``, store undo log);
- speculation asserts (``assert_z``/``assert_nz``);
- a finite hardware alias table detecting speculative memory-reordering
  failures (``sld32``/``sldf`` vs ``st32chk``/``stfchk``);
- an indirect-branch translation cache (``ibtc``);
- direct unit-to-unit chaining (patched ``exit`` links).

Control returns to the TOL through :class:`ExitEvent` objects.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import costs
from repro.guest.memory import PagedMemory, PageFault
from repro.guest.state import GuestState
from repro.host.isa import (
    BINDINGS, FELL_OFF_ERROR, FUEL_ERROR, TRACE_BATCH_CAP, CodeUnit,
    ControlHooks, GUEST_FLAG_HOME, GUEST_FPR_HOME, GUEST_GPR_HOME,
    GUEST_VR_HOME, HOST_VALUE_OPS, MEMORY_OPS, NUM_FREGS, NUM_IREGS,
    NUM_VREGS, OP_NS, control_lines, host_factory, indent, memory_lines,
    names_in, value_stmt,
)
from repro.host.isa import TOL_AREA_BASE  # noqa: F401 (re-export)
from repro.pycode import define

EXIT_TOL = "tol_exit"
EXIT_ASSERT = "assert_fail"
EXIT_SPEC = "spec_fail"
EXIT_PAGE_FAULT = "page_fault"


class HostEmulationError(Exception):
    """Internal inconsistency in translated code (a TOL bug, by definition)."""


@dataclass
class ExitEvent:
    """Why control returned from the code cache to the TOL."""

    kind: str
    #: Guest PC where execution continues (next pc, or precise restart point
    #: for failures).
    next_pc: int = 0
    #: Faulting guest address for page faults.
    fault_addr: Optional[int] = None
    #: The unit and exit-instruction index that produced a TOL exit
    #: (used by the TOL to patch chain links).
    unit: Optional[CodeUnit] = None
    exit_index: Optional[int] = None
    #: True when the exit came from an IBTC miss.
    ibtc_miss: bool = False
    #: Host instructions executed during this dispatch.
    host_insns: int = 0


@dataclass
class AliasTable:
    """Finite hardware table tracking speculatively-executed loads."""

    capacity: int = 32
    entries: List[tuple] = field(default_factory=list)  # (addr, size, seq)

    def record_load(self, addr: int, size: int, seq: int) -> bool:
        """Record a speculative load; False means overflow (must fail)."""
        if len(self.entries) >= self.capacity:
            return False
        self.entries.append((addr, size, seq))
        return True

    def store_conflicts(self, addr: int, size: int, seq: int) -> bool:
        """True if a younger speculative load overlaps this store."""
        lo, hi = addr, addr + size
        for (laddr, lsize, lseq) in self.entries:
            if lseq > seq and laddr < hi and lo < laddr + lsize:
                return True
        return False

    def clear(self) -> None:
        self.entries.clear()


class IBTC:
    """Indirect Branch Translation Cache: guest PC -> code unit."""

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._map: Dict[int, CodeUnit] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, pc: int) -> Optional[CodeUnit]:
        unit = self._map.get(pc)
        if unit is None:
            self.misses += 1
        else:
            self.hits += 1
        return unit

    def insert(self, pc: int, unit: CodeUnit) -> None:
        if pc not in self._map and len(self._map) >= self.capacity:
            # FIFO eviction: drop the oldest mapping.
            oldest = next(iter(self._map))
            del self._map[oldest]
        self._map[pc] = unit

    def invalidate_unit(self, unit: CodeUnit) -> None:
        stale = [pc for pc, u in self._map.items() if u is unit]
        for pc in stale:
            del self._map[pc]

    def flush(self) -> None:
        self._map.clear()


class AssertFail(Exception):
    """A speculation assert failed (the region rolls back)."""


class SpecFail(Exception):
    """Alias-table conflict or overflow (the region rolls back)."""


class HostEmulator:
    """Executes code units; owns the host register files and the
    co-designed hardware structures.

    A unit runs either as its generated program (``repro.tol.direct``),
    which ``direct_promote_hook`` attaches, or on the reference loop,
    one step per host instruction.  Both are rendered from the op table
    and the control templates of :mod:`repro.host.isa`."""

    def __init__(self, memory: PagedMemory,
                 alias_table_size: int = 32,
                 ibtc_size: int = 256,
                 fuel_per_dispatch: int = 50_000_000):
        self.memory = memory
        self.iregs: List[int] = [0] * NUM_IREGS
        self.fregs: List[float] = [0.0] * NUM_FREGS
        self.vregs: List[List[int]] = [[0, 0, 0, 0] for _ in range(NUM_VREGS)]
        self.alias_table = AliasTable(capacity=alias_table_size)
        #: serial alias-table search: checking stores pay one host
        #: instruction per occupied entry (vs a parallel CAM lookup).
        self.alias_serial_search = False
        self.alias_search_insns = 0
        #: host cost of the BBM inline profiling sequence (0 with
        #: hardware-assisted profiling).
        self.profile_inline_cost = costs.BBM_PROFILE_INLINE
        self.ibtc = IBTC(capacity=ibtc_size)
        self.fuel_per_dispatch = fuel_per_dispatch
        # Global counters.
        self.host_insns_total = 0
        self.host_insns_committed = 0
        self.host_insns_wasted = 0
        self.guest_retired_total = 0
        #: when set, execution returns to the TOL at the next checkpoint
        #: boundary once this many guest instructions have retired
        #: (sampling support; bounds pause overshoot to one region).
        self.pause_retired_at: Optional[int] = None
        self.guest_retired_by_mode: Dict[str, int] = {}
        self.host_committed_by_mode: Dict[str, int] = {}
        #: Optional trace callback for the timing simulator:
        #: ``trace_sink(unit, records)`` with ``records`` the ``(index,
        #: info)`` pairs of one unit execution, in execution order.
        self.trace_sink: Optional[Callable] = None
        # -- generated programs ---------------------------------------
        #: Policy callback ``hook(unit)``, called at a unit's first entry
        #: (traced or not).  It sets the unit's ``_directprog``
        #: (``_directprog_traced`` while a trace sink is attached), None
        #: keeping the unit on the reference loop.
        self.direct_promote_hook: Optional[Callable] = None
        #: Unit entries executed by generated programs, and the host
        #: instructions they covered (simulator-strategy counters: never
        #: part of the simulated quantities).
        self.direct_entries = 0
        self.direct_insns = 0
        #: BBM inline profiling: called as ``profile_hook(unit, next_pc)``
        #: at instrumented dispatch points; returning True interrupts
        #: chaining and returns control to the TOL (promotion request).
        self.profile_hook: Optional[Callable] = None
        #: Called as ``undo_check(unit)`` before each rollback replays the
        #: undo log (the sanitizer's check; None when off).
        self.undo_check: Optional[Callable] = None
        #: Optional bounded deque of every unit *entered* (including
        #: chain-follow and IBTC hops invisible to TOL dispatch); the
        #: resilience layer uses it to implicate translations after a
        #: divergence.
        self.unit_log: Optional[deque] = None
        #: Undo log: ``(kind, addr, old value)`` per guest store under a
        #: live checkpoint; empty between dispatches.
        self._undo: List[tuple] = []
        #: Host instructions of the open region between dispatches (a
        #: pause leaves the next region's checkpoint op counted here).
        self._region_insns = 0
        #: TOL-private data area (spill slots); not part of guest memory.
        self.tol_memory = PagedMemory(demand_zero=True)
        #: op -> this emulator's step for every value op.
        self._steps = {op: make(self) for op, make in _STEP_MAKERS.items()}
        self._reference, self._reference_traced = (
            make(self) for make in _REFERENCE)

    # ------------------------------------------------------------------
    # Guest state <-> host register transfer (prologue / epilogue).
    # ------------------------------------------------------------------

    def load_guest_state(self, state: GuestState) -> None:
        for i, home in enumerate(GUEST_GPR_HOME):
            self.iregs[home] = state.gpr[i]
        for i, home in enumerate(GUEST_FLAG_HOME):
            self.iregs[home] = state.flags[i]
        for i, home in enumerate(GUEST_FPR_HOME):
            self.fregs[home] = state.fpr[i]
        for i, home in enumerate(GUEST_VR_HOME):
            self.vregs[home] = list(state.vr[i])

    def store_guest_state(self, state: GuestState, eip: int) -> None:
        for i, home in enumerate(GUEST_GPR_HOME):
            state.gpr[i] = self.iregs[home] & 0xFFFFFFFF
        for i, home in enumerate(GUEST_FLAG_HOME):
            state.flags[i] = 1 if self.iregs[home] else 0
        for i, home in enumerate(GUEST_FPR_HOME):
            state.fpr[i] = self.fregs[home]
        for i, home in enumerate(GUEST_VR_HOME):
            state.vr[i] = list(self.vregs[home])
        state.eip = eip

    # ------------------------------------------------------------------
    # Main dispatch loop.
    # ------------------------------------------------------------------

    def execute(self, unit: CodeUnit, state: GuestState) -> ExitEvent:
        """Run translated code starting at ``unit`` until control must
        return to the TOL.  Follows chain links and IBTC hits internally."""
        self.load_guest_state(state)
        event = self._run(unit)
        self.store_guest_state(state, event.next_pc)
        return event

    def _run(self, unit: CodeUnit) -> ExitEvent:
        fuel = self.fuel_per_dispatch
        traced = self.trace_sink is not None
        key = "_directprog_traced" if traced else "_directprog"
        hook = self.direct_promote_hook
        reference = self._reference_traced if traced else self._reference
        unit_log = self.unit_log
        executed = 0
        while True:
            unit.exec_count += 1
            if unit_log is not None:
                unit_log.append(unit)
            udict = unit.__dict__
            prog = udict.get(key)
            if prog is None and hook is not None and key not in udict:
                hook(unit)
                prog = udict.get(key)
            if prog is None:
                kind, a, b, executed = reference(self, executed, fuel, unit)
            else:
                self.direct_entries += 1
                entered = executed
                kind, a, b, executed = prog(self, executed, fuel)
                self.direct_insns += executed - entered
            if kind == 0:
                unit = a  # chain / IBTC hit: continue in unit a
                continue
            self.host_insns_total += executed
            if kind <= 2:
                return ExitEvent(EXIT_TOL, a, unit=unit, exit_index=b,
                                 ibtc_miss=kind == 2, host_insns=executed)
            if kind == 3:
                return ExitEvent(EXIT_PAGE_FAULT, a, fault_addr=b,
                                 unit=unit, host_insns=executed)
            return ExitEvent(EXIT_ASSERT if kind == 4 else EXIT_SPEC, a,
                             unit=unit, host_insns=executed)

    def _flush_trace(self, unit, records):
        """Deliver buffered ``(index, info)`` records to the trace sink,
        in stream order, then clear the buffer."""
        if records:
            self.trace_sink(unit, records)
            del records[:]


# ---------------------------------------------------------------------------
# The reference loop, rendered from the op table and the control
# templates of ``repro.host.isa``.  It reads each instruction's fields at
# run time: value ops run through per-op steps (``step(ins)``, built
# once per emulator from makers compiled once at import), memory and
# control ops inline.  One instruction per iteration, so fuel is checked
# before each one.
# ---------------------------------------------------------------------------


def _build_step_makers():
    src = []
    for op in sorted(HOST_VALUE_OPS):
        line = value_stmt(op, "ins.d", "ins.a", "ins.b", "ins.imm") or "pass"
        src.append(f"def _make_{op}(EMU):")
        src += [f"    {name} = {BINDINGS[name]}" for name in names_in([line])]
        src += ["    def step(ins):", f"        {line}", "    return step"]
    src.append("_MAKERS = {" + ", ".join(
        f"{op!r}: _make_{op}" for op in sorted(HOST_VALUE_OPS)) + "}")
    return define("\n".join(src), "_MAKERS", dict(OP_NS), "<host_steps>")


_STEP_MAKERS = _build_step_makers()


class _Reference(ControlHooks):
    def __init__(self, traced):
        self.traced = traced

    def record(self, info):
        return [f"TRB.append((_ip, {info}))"] if self.traced else []

    def goto(self, target):
        return [f"if len(TRB) > {TRACE_BATCH_CAP}:",
                "    FLUSH(U, TRB)"] * self.traced + [
            f"_ip = {target}", "continue"]


#: Memory and control ops, most frequent first (the loop tests in order).
_REFERENCE_OPS = (
    "ld32", "st32", "exit", "chkpt", "beqz", "bnez", "commit", "j", "ldf",
    "stf", "assert_z", "assert_nz", "ibtc", "exit_ind", "sld32",
    "st32chk", "sldf", "stfchk", "vld", "vst")

_OPERANDS = {
    "a": "ins.a", "target": "ins.target", "index": "_ip",
    "guest_pc": "ins.meta['guest_pc']", "next_pc": "ins.meta['next_pc']",
    "guest_insns": "ins.meta['guest_insns']", "meta": "ins.meta",
    "profile": "ins.meta.get('profile')"}


def _reference_source(traced):
    h = _Reference(traced)
    body = ["if _ip >= size:", f"    raise _HEE({FELL_OFF_ERROR})",
            "if executed >= fuel:", f"    raise _HEE({FUEL_ERROR})",
            "ins = instrs[_ip]", "executed += 1", "op = ins.op",
            "step = STEPS.get(op)", "if step is not None:", "    step(ins)",
            *indent(h.record("None")), "    _ip += 1", "    continue"]
    for n, op in enumerate(_REFERENCE_OPS):
        if op in MEMORY_OPS:
            arm = memory_lines(op, "ins.d", "ins.a", "ins.b", "ins.imm",
                               "ins.meta['seq']")
            arm += h.record("{'mem_addr': _a}")
        else:
            arm = control_lines(op, _OPERANDS, h)
        body += [f"{'elif' if n else 'if'} op == {op!r}:", *indent(arm)]
    body += ["else:", "    raise _HEE(f'unhandled op {op!r}')", "_ip += 1"]
    return host_factory("_reference", ", U", [],
                        ["instrs = U.instrs", "size = len(instrs)"], body, h)


#: ``(untraced, traced)`` reference-loop makers, each ``make(emulator)``.
_REFERENCE = tuple(
    define(_reference_source(traced), "_mk",
           dict(OP_NS, _FA=AssertFail, _FS=SpecFail, _PF=PageFault,
                _HEE=HostEmulationError),
           "<host_reference>")
    for traced in (False, True))
