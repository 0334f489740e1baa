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

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import costs
from repro.guest.memory import PagedMemory, PageFault
from repro.guest.state import GuestState
from repro.host.isa import (
    BINDINGS, CodeUnit, GUEST_FLAG_HOME, GUEST_FPR_HOME, GUEST_GPR_HOME,
    GUEST_VR_HOME, HOST_VALUE_OPS, MEMORY_OPS, NUM_FREGS, NUM_IREGS,
    NUM_VREGS, OP_NS, evaluator, memory_lines, names_in, value_stmt,
)
from repro.host.isa import TOL_AREA_BASE  # noqa: F401 (re-export)

#: Max buffered trace records before a mid-unit flush (bounds memory on
#: long-running loops; batch boundaries never change timing results).
_TRACE_BATCH_CAP = 8192

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


@dataclass
class _Checkpoint:
    iregs: list
    fregs: list
    vregs: list
    guest_pc: int


class AssertFail(Exception):
    """A speculation assert failed (the region rolls back)."""


class SpecFail(Exception):
    """Alias-table conflict or overflow (the region rolls back)."""


class HostEmulator:
    """Executes code units; owns the host register files and the
    co-designed hardware structures."""

    def __init__(self, memory: PagedMemory,
                 alias_table_size: int = 32,
                 ibtc_size: int = 256,
                 fuel_per_dispatch: int = 50_000_000,
                 fastpath: bool = True):
        self.memory = memory
        #: Closure-compile straight-line register-op runs per code unit.
        #: Stays active under a trace_sink: segment records are delivered
        #: to the sink after each segment executes (identical stream).
        self.fastpath = fastpath
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
        #: Closure-compiled straight-line segments executed, and the
        #: host instructions they covered (the remainder of
        #: ``host_insns_total`` went through the per-instruction steps).
        self.fast_segments = 0
        self.fast_segment_insns = 0
        #: when set, execution returns to the TOL at the next checkpoint
        #: boundary once this many guest instructions have retired
        #: (sampling support; bounds pause overshoot to one region).
        self.pause_retired_at: Optional[int] = None
        self.guest_retired_by_mode: Dict[str, int] = {}
        self.host_committed_by_mode: Dict[str, int] = {}
        #: Optional per-instruction trace callback for the timing simulator:
        #: ``trace_sink(unit, index, instr, info_dict)``.
        self.trace_sink: Optional[Callable] = None
        #: Optional bulk variant: ``trace_sink_batch(unit, records)`` with
        #: ``records`` a list of ``(index, info)`` pairs — the direct tier
        #: delivers its buffered records through this when set (must be
        #: record-for-record equivalent to looping ``trace_sink``).
        self.trace_sink_batch: Optional[Callable] = None
        #: When True (and a batch sink is attached), the per-instruction
        #: and segment paths buffer ``(index, info)`` records and deliver
        #: them through ``trace_sink_batch`` at unit boundaries instead of
        #: one ``trace_sink`` call per instruction.  Record order is
        #: exactly the per-instruction stream; only the call granularity
        #: changes.
        self.trace_batching = False
        # -- direct (IR-less) tier ------------------------------------
        #: Execute units through generated direct-tier programs when
        #: attached (``unit._directprog``/``_directprog_traced``).
        self.direct_enable = False
        #: Entries needed before ``direct_promote_hook`` is consulted.
        self.direct_promote_threshold = 0
        #: Policy callback ``hook(unit)``; must set ``unit._directprog``
        #: (possibly to None) so it is consulted at most once per unit.
        self.direct_promote_hook: Optional[Callable] = None
        #: Unit entries executed via direct programs, and the host
        #: instructions they covered (simulator-strategy counters, like
        #: ``fast_segments``: never part of the simulated quantities).
        self.direct_entries = 0
        self.direct_insns = 0
        #: BBM inline profiling: called as ``profile_hook(unit, next_pc)``
        #: at instrumented dispatch points; returning True interrupts
        #: chaining and returns control to the TOL (promotion request).
        self.profile_hook: Optional[Callable] = None
        #: Optional bounded deque of every unit *entered* (including
        #: chain-follow and IBTC hops invisible to TOL dispatch); the
        #: resilience layer uses it to implicate translations after a
        #: divergence.
        self.unit_log: Optional[deque] = None
        # Checkpoint / undo state.
        self._checkpoint: Optional[_Checkpoint] = None
        self._undo: List[tuple] = []  # ("u32"/"f64"/"vec", addr, old value)
        self._region_insns = 0
        #: TOL-private data area (spill slots); not part of guest memory.
        self.tol_memory = PagedMemory(demand_zero=True)
        #: op -> this emulator's step for every value and memory op.
        self._steps = {op: make(self) for op, make in _STEP_MAKERS.items()}

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
    # Checkpointing.
    # ------------------------------------------------------------------

    def _take_checkpoint(self, guest_pc: int) -> None:
        self._checkpoint = _Checkpoint(
            iregs=list(self.iregs),
            fregs=list(self.fregs),
            vregs=[list(v) for v in self.vregs],
            guest_pc=guest_pc,
        )
        self._undo.clear()

    def _commit_region(self, unit: CodeUnit, guest_insns: int) -> None:
        self._undo.clear()
        self.alias_table.clear()
        self._checkpoint = None
        unit.guest_insns_retired += guest_insns
        self.guest_retired_total += guest_insns
        unit.host_insns_committed += self._region_insns
        mode = unit.mode
        self.guest_retired_by_mode[mode] = (
            self.guest_retired_by_mode.get(mode, 0) + guest_insns)
        self.host_committed_by_mode[mode] = (
            self.host_committed_by_mode.get(mode, 0) + self._region_insns)
        self.host_insns_committed += self._region_insns
        self._region_insns = 0

    def _rollback(self, unit: CodeUnit) -> int:
        """Restore the last checkpoint; returns the precise guest restart PC."""
        cp = self._checkpoint
        if cp is None:
            raise HostEmulationError("rollback without active checkpoint")
        for kind, addr, old in reversed(self._undo):
            if kind == "u32":
                self.memory.write_u32(addr, old)
            elif kind == "f64":
                self.memory.write_f64(addr, old)
            else:
                self.memory.write_vec(addr, old)
        self._undo.clear()
        self.alias_table.clear()
        # In-place restore: the register-file *lists* are identity-stable
        # for the emulator's lifetime (steps and direct-tier programs
        # bind them once).
        self.iregs[:] = cp.iregs
        self.fregs[:] = cp.fregs
        self.vregs[:] = [list(v) for v in cp.vregs]
        unit.host_insns_wasted += self._region_insns
        self.host_insns_wasted += self._region_insns
        self._region_insns = 0
        restart = cp.guest_pc
        self._checkpoint = None
        return restart

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
        event = self._run_inner(unit)
        self.host_insns_total += event.host_insns
        return event

    def _run_inner(self, unit: CodeUnit) -> ExitEvent:
        fuel = self.fuel_per_dispatch
        # Host instructions executed in this dispatch: ``rb +
        # self._region_insns``.  The open region's counter is the only
        # per-instruction count (steps add serial-search charges to it
        # too); ``rb`` absorbs each region as it commits or rolls back.
        rb = -self._region_insns
        iregs, fregs, vregs = self.iregs, self.fregs, self.vregs
        steps = self._steps
        use_fast = self.fastpath
        sink = self.trace_sink
        sink_batch = self.trace_sink_batch
        # Batched trace delivery: buffer ``(index, info)`` records and
        # hand whole runs to the batch sink at unit boundaries (and at a
        # cap, checked at branch sites, so loop-heavy units stay bounded).
        # ``tbuf`` is always empty at the top of the dispatch loop.
        tbuf = None
        if sink is not None and self.trace_batching and sink_batch is not None:
            tbuf = []
        unit_log = self.unit_log
        use_direct = self.direct_enable
        if use_direct:
            dkey = "_directprog" if sink is None else "_directprog_traced"
            dhook = self.direct_promote_hook
            dthresh = self.direct_promote_threshold
        while True:
            unit.exec_count += 1
            if unit_log is not None:
                unit_log.append(unit)
            if use_direct:
                udict = unit.__dict__
                dprog = udict.get(dkey)
                if (dprog is None and dhook is not None
                        and "_directprog" not in udict
                        and unit.exec_count >= dthresh):
                    dhook(unit)
                    dprog = udict.get(dkey)
                if dprog is not None:
                    self.direct_entries += 1
                    entered = rb + self._region_insns
                    # ``unit`` rebinds to wherever the program ended up
                    # (cluster programs follow chains between members
                    # internally, so exits can come from any member).
                    kind, a, b, executed, unit = dprog(self, entered, fuel)
                    self.direct_insns += executed - entered
                    rb = executed - self._region_insns
                    if kind == 0:
                        unit = a  # chain / IBTC hit: continue in unit a
                        continue
                    if kind <= 2:
                        return ExitEvent(
                            kind=EXIT_TOL, next_pc=a, unit=unit,
                            exit_index=b, ibtc_miss=(kind == 2),
                            host_insns=executed)
                    if kind == 3:
                        return ExitEvent(
                            kind=EXIT_PAGE_FAULT, next_pc=a,
                            fault_addr=b, unit=unit, host_insns=executed)
                    return ExitEvent(
                        kind=EXIT_ASSERT if kind == 4 else EXIT_SPEC,
                        next_pc=a, unit=unit, host_insns=executed)
            instrs = unit.instrs
            prog = None
            if use_fast:
                prog = unit.__dict__.get("_fastprog")
                if prog is None:
                    prog = _compile_unit(unit)
                    unit._fastprog = prog
            index = 0
            size = len(instrs)
            try:
                while index < size:
                    if rb + self._region_insns >= fuel:
                        raise HostEmulationError(
                            f"fuel exhausted in unit {unit.uid} "
                            f"(entry {unit.entry_pc:#x}): likely a "
                            f"translation bug (infinite loop)")
                    if prog is not None:
                        seg = prog[index]
                        if seg is not None:
                            length, fn, records, brecords = seg
                            self._region_insns += length
                            self.fast_segments += 1
                            self.fast_segment_insns += length
                            fn(iregs, fregs, vregs)
                            if tbuf is not None:
                                tbuf.extend(brecords)
                            elif sink is not None:
                                for rec_index, rec_ins in records:
                                    sink(unit, rec_index, rec_ins, None)
                            index += length
                            continue
                    ins = instrs[index]
                    self._region_insns += 1
                    op = ins.op
                    step = steps.get(op)
                    nxt = index + 1
                    # The trace record is ``{key: val}`` (None without a
                    # key); ``flush`` ends the batch (unit boundary),
                    # ``cap`` bounds it; ``leave`` is where control goes
                    # after the record: an ExitEvent or a unit to enter.
                    key = leave = None
                    cap = flush = False
                    if step is not None:
                        val = step(ins)  # memory ops return the address
                        if val is not None:
                            key = "mem_addr"
                    elif op == "beqz" or op == "bnez" or op == "j":
                        val = op == "j" or (iregs[ins.a] == 0) == (
                            op == "beqz")
                        key, cap = "taken", True
                        if val:
                            nxt = ins.target
                    elif op == "chkpt":
                        if (self.pause_retired_at is not None
                                and self.guest_retired_total
                                >= self.pause_retired_at):
                            # The previous region committed: returning at a
                            # checkpoint boundary is architecturally clean.
                            # (Never true at dispatch entry: the TOL pauses
                            # before dispatching in that case.)
                            if tbuf:
                                sink_batch(unit, tbuf)
                                del tbuf[:]
                            return ExitEvent(
                                kind=EXIT_TOL, next_pc=ins.meta["guest_pc"],
                                unit=unit, exit_index=None,
                                host_insns=rb + self._region_insns)
                        self._take_checkpoint(ins.meta["guest_pc"])
                    elif op == "commit":
                        rb += self._region_insns
                        self._commit_region(unit, ins.meta["guest_insns"])
                    elif op == "assert_nz" or op == "assert_z":
                        if (iregs[ins.a] == 0) == (op == "assert_nz"):
                            raise AssertFail
                    elif op == "exit" or op == "exit_ind" or op == "ibtc":
                        leave = self._leave(unit, index, ins)
                        rb += self._region_insns
                        self._commit_region(unit, ins.meta["guest_insns"])
                        if leave.__class__ is ExitEvent:
                            leave.host_insns = rb
                        key, val, flush = "taken", True, True
                    else:
                        raise HostEmulationError(f"unhandled op {op!r}")
                    if sink is not None:
                        info = None if key is None else {key: val}
                        if tbuf is None:
                            sink(unit, index, ins, info)
                        else:
                            tbuf.append((index, info))
                            if flush or (
                                    cap and len(tbuf) > _TRACE_BATCH_CAP):
                                sink_batch(unit, tbuf)
                                del tbuf[:]
                    if leave is not None:
                        if leave.__class__ is ExitEvent:
                            return leave
                        unit = leave
                        break  # chained / IBTC hit: continue in that unit
                    index = nxt
                else:
                    raise HostEmulationError(
                        f"fell off the end of unit {unit.uid} "
                        f"(entry {unit.entry_pc:#x})")
            except (PageFault, AssertFail, SpecFail) as exc:
                executed = rb + self._region_insns
                restart = self._rollback(unit)
                if tbuf:
                    sink_batch(unit, tbuf)
                    del tbuf[:]
                if isinstance(exc, PageFault):
                    return ExitEvent(
                        kind=EXIT_PAGE_FAULT, next_pc=restart,
                        fault_addr=exc.addr, unit=unit, host_insns=executed)
                if isinstance(exc, AssertFail):
                    kind = EXIT_ASSERT
                    unit.assert_failures += 1
                else:
                    kind = EXIT_SPEC
                    unit.spec_failures += 1
                return ExitEvent(kind=kind, next_pc=restart, unit=unit,
                                 host_insns=executed)

    def _leave(self, unit, index, ins):
        """Where an ``exit``/``exit_ind``/``ibtc`` goes once its region
        commits: the chained unit, the IBTC hit, or a TOL exit event
        (its ``host_insns`` is filled in by the caller).  Charges the
        inline profiling and IBTC lookup sequences to the region."""
        op, meta = ins.op, ins.meta
        if op == "exit":
            target = meta["next_pc"]
        else:
            target = self.iregs[ins.a] & 0xFFFFFFFF
        interrupt = False
        if meta.get("profile"):
            self._region_insns += self.profile_inline_cost
            if self.profile_hook is not None:
                interrupt = self.profile_hook(unit, target)
        link = None
        if op == "exit":
            link = meta.get("link")
        elif op == "ibtc":
            # The inline lookup sequence costs extra host insns.
            self._region_insns += costs.IBTC_HIT_INLINE
            if not interrupt:
                link = self.ibtc.lookup(target)
        if link is not None and not interrupt:
            return link
        return ExitEvent(kind=EXIT_TOL, next_pc=target, unit=unit,
                         exit_index=index,
                         ibtc_miss=op == "ibtc" and not interrupt)

    def _flush_direct_trace(self, unit, records):
        """Deliver a direct-tier program's buffered ``(index, info)``
        records to the trace sink, in stream order, then clear the
        buffer.  Uses the batch sink when one is attached."""
        if not records:
            return
        batch = self.trace_sink_batch
        if batch is not None:
            batch(unit, records)
        else:
            sink = self.trace_sink
            instrs = unit.instrs
            for index, info in records:
                sink(unit, index, instrs[index], info)
        del records[:]


# ---------------------------------------------------------------------------
# Execution forms generated from the op table (``repro.host.isa``).
#
# Every value and memory op gets a step, built once per emulator from a
# maker compiled once at import: ``step(ins)`` reads its operands from
# ``ins`` and returns the effective address for memory ops (the trace
# record's ``mem_addr``).  With ``host_fastpath`` on, straight-line runs
# of value ops are also compiled once per unit into a single closure over
# (iregs, fregs, vregs), so steady-state replay of hot BBM/superblock
# code stops dispatching per host instruction.  Memory ops stay steps
# there: they interact with undo logging and page faults, and counting
# them one by one keeps the failure paths' statistics exact.
# ---------------------------------------------------------------------------


def _undo_if_checkpointed(entry):
    return ["if EMU._checkpoint is not None:", f"    UNDO.append({entry})"]


def _step_lines(op):
    if op in MEMORY_OPS:
        return memory_lines(op, "ins.d", "ins.a", "ins.b", "ins.imm",
                            "ins.meta['seq']", _undo_if_checkpointed,
                            charge="EMU._region_insns") + ["return _a"]
    return [value_stmt(op, "ins.d", "ins.a", "ins.b", "ins.imm") or "pass"]


def _build_step_makers():
    src = []
    for op in sorted(HOST_VALUE_OPS.keys() | MEMORY_OPS.keys()):
        lines = _step_lines(op)
        src.append(f"def _make_{op}(EMU):")
        src += [f"    {name} = {BINDINGS[name]}" for name in names_in(lines)]
        src.append("    def step(ins):")
        src += [f"        {line}" for line in lines]
        src.append("    return step")
    namespace = dict(OP_NS, _FS=SpecFail)
    exec(compile("\n".join(src), "<host_steps>", "exec"), namespace)
    return {op[6:]: fn for op, fn in namespace.items()
            if op.startswith("_make_")}


_STEP_MAKERS = _build_step_makers()


#: li/lif: the statement writes the folded value as a literal.
_FOLD = {"li": evaluator("li"), "lif": evaluator("lif")}


def literal_stmt(ins):
    """``ins`` as one statement over I/F/V with its operands inlined, None
    for ``nop``, or False when it is not a value op or an operand has no
    literal (a non-finite float): such instructions stay steps."""
    row = HOST_VALUE_OPS.get(ins.op)
    if row is None:
        return False
    imm = ins.imm
    fold = _FOLD.get(ins.op)
    if fold is not None:
        try:
            imm = fold(imm)
        except TypeError:
            return False
    if isinstance(imm, float) and not math.isfinite(imm):
        return False
    if fold is not None:
        return f"{row[0][0].upper()}[{ins.d}] = {imm!r}"
    return value_stmt(ins.op, ins.d, ins.a, ins.b, repr(imm))


def _compile_segment(stmts):
    body = "\n".join(f"    {s}" for s in stmts if s is not None)
    if not body:
        body = "    pass"
    src = f"def _seg(I, F, V):\n{body}"
    namespace = dict(OP_NS)
    exec(compile(src, "<host_fastpath>", "exec"), namespace)
    return namespace["_seg"]


def _compile_unit(unit):
    """Build the unit's fast program: a list aligned to instruction
    indices where entry i is ``(length, closure, records, brecords)``
    for a compiled straight-line segment starting at i, or None (the
    instruction's step).  ``records`` holds the segment's ``(index,
    instr)`` pairs so a traced run can deliver the per-instruction
    records after the closure executes; ``brecords`` is their batched
    form (segment ops never touch memory or branch, so every info slot
    is statically None).  Segments break at branch targets so control
    can always enter them."""
    instrs = unit.instrs
    size = len(instrs)
    targets = {ins.target for ins in instrs if ins.target is not None}
    prog = [None] * size
    i = 0
    while i < size:
        stmt = literal_stmt(instrs[i])
        if stmt is False:
            i += 1
            continue
        stmts = [stmt]
        j = i + 1
        while j < size and j not in targets:
            stmt = literal_stmt(instrs[j])
            if stmt is False:
                break
            stmts.append(stmt)
            j += 1
        records = tuple((k, instrs[k]) for k in range(i, j))
        brecords = tuple((k, None) for k in range(i, j))
        prog[i] = (j - i, _compile_segment(stmts), records, brecords)
        i = j
    return prog
