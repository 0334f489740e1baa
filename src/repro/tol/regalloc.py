"""Linear Scan register allocation (paper §V-B3).

Maps IR temps onto the host scratch register files.  Guest architectural
operands are pre-colored to their home registers (direct register mapping).

Two refinements beyond the textbook algorithm:

- **Home coalescing**: a temp whose value is written back to an
  architectural location H at region end is allocated directly to H's home
  register when provably safe (no entry-read of H after the temp's
  definition), turning the writeback into a removable self-move.  This is
  what keeps DARCO's emulation cost low.
- **Spilling** to the TOL-private data area (host addresses above
  ``TOL_AREA_BASE``), using reserved scratch registers for reload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.host.isa import (
    FIRST_SCRATCH_FREG, FIRST_SCRATCH_IREG, FIRST_SCRATCH_VREG,
    GUEST_FLAG_HOME, GUEST_FPR_HOME, GUEST_GPR_HOME, GUEST_VR_HOME,
    NUM_FREGS, NUM_IREGS, TOL_AREA_BASE,
)
from repro.tol.ir import (
    Const, FTmp, Flag, GFReg, GReg, GVReg, IRInstr, Tmp, VTmp, is_arch,
)

# Reserved scratch registers (never given to the allocator).
INT_SPILL_SCRATCH = (13, 14)
INT_CONST_SCRATCH = 15
FP_SPILL_SCRATCH = (9, 10)
FP_CONST_SCRATCH = 11
#: f12..f15 plus f11 are reused by the trig-recipe expansion in codegen.
FP_RECIPE_POOL = (11, 12, 13, 14, 15)
VEC_SPILL_SCRATCH = (14, 15)

_INT_POOL = tuple(range(FIRST_SCRATCH_IREG, NUM_IREGS))
_FP_POOL = tuple(range(FIRST_SCRATCH_FREG, NUM_FREGS))
_VEC_POOL = tuple(range(FIRST_SCRATCH_VREG, 14))


def home_of(arch) -> int:
    """Host home register index of an architectural operand."""
    if isinstance(arch, GReg):
        return GUEST_GPR_HOME[arch.index]
    if isinstance(arch, Flag):
        return GUEST_FLAG_HOME[arch.index]
    if isinstance(arch, GFReg):
        return GUEST_FPR_HOME[arch.index]
    if isinstance(arch, GVReg):
        return GUEST_VR_HOME[arch.index]
    raise TypeError(f"not architectural: {arch!r}")


def _class_of(tmp) -> str:
    if isinstance(tmp, Tmp):
        return "int"
    if isinstance(tmp, FTmp):
        return "fp"
    if isinstance(tmp, VTmp):
        return "vec"
    raise TypeError(f"not a temp: {tmp!r}")


_ARCH_CLASS = {GReg: "int", Flag: "int", GFReg: "fp", GVReg: "vec"}


@dataclass
class AllocationResult:
    ops: List[IRInstr]
    #: temp -> host register index (same-class file implied).
    assignment: Dict[object, int]
    spilled: int = 0
    spill_slots_used: int = 0


@dataclass
class _Interval:
    tmp: object
    start: int
    end: int
    klass: str
    hint: Optional[int] = None


def allocate(ops: List[IRInstr]) -> AllocationResult:
    """Allocate temps in ``ops`` (a full region: body + writebacks +
    terminator); returns rewritten ops plus the assignment map."""
    intervals = _build_intervals(ops)
    hints = _home_hints(ops, intervals)
    assignment, spilled = _linear_scan(intervals, hints)
    if spilled:
        ops = _rewrite_spills(ops, assignment, spilled)
    return AllocationResult(
        ops=ops,
        assignment=assignment,
        spilled=len(spilled),
        spill_slots_used=len(spilled),
    )


def _build_intervals(ops) -> List[_Interval]:
    start: Dict[object, int] = {}
    end: Dict[object, int] = {}
    for i, instr in enumerate(ops):
        for src in instr.srcs:
            if isinstance(src, (Tmp, FTmp, VTmp)):
                end[src] = i
                start.setdefault(src, i)  # live-in temps (defensive)
        dst = instr.dst
        if isinstance(dst, (Tmp, FTmp, VTmp)):
            start.setdefault(dst, i)
            end.setdefault(dst, i)
    intervals = [
        _Interval(tmp=t, start=s, end=end[t], klass=_class_of(t))
        for t, s in start.items()
    ]
    intervals.sort(key=lambda iv: (iv.start, iv.end))
    return intervals


#: Mid-region committing exits: guest state must be architecturally exact
#: when they trigger, so no home register may be written before them.
_MID_REGION_EXITS = frozenset(
    {"guard_exit_false", "side_exit_true", "side_exit_false"})


def _home_hints(ops, intervals) -> Dict[object, int]:
    """Temp -> home register hints from writeback moves, when safe."""
    last_entry_read: Dict[int, int] = {}  # (class, home) -> last read idx
    last_mid_exit = -1
    for i, instr in enumerate(ops):
        if instr.op in _MID_REGION_EXITS:
            last_mid_exit = i
        for src in instr.srcs:
            if is_arch(src):
                key = (_ARCH_CLASS[type(src)], home_of(src))
                last_entry_read[key] = i

    by_tmp = {iv.tmp: iv for iv in intervals}
    hints: Dict[object, int] = {}
    hinted_homes = set()
    for instr in ops:
        if (instr.op in ("mov", "fmov", "vmov") and instr.dst is not None
                and is_arch(instr.dst) and len(instr.srcs) == 1
                and isinstance(instr.srcs[0], (Tmp, FTmp, VTmp))):
            tmp = instr.srcs[0]
            interval = by_tmp.get(tmp)
            if interval is None or tmp in hints:
                continue
            klass = _ARCH_CLASS[type(instr.dst)]
            if klass != interval.klass:
                continue
            home = home_of(instr.dst)
            key = (klass, home)
            if (klass, home) in hinted_homes:
                continue
            # Entry reads of H strictly after the temp's definition would
            # observe the temp's value; a read in the defining instruction
            # itself is safe (host handlers read sources before writing).
            if last_entry_read.get(key, -1) > interval.start:
                continue
            if interval.start <= last_mid_exit:
                continue  # home write could precede a committing exit
            hints[tmp] = home
            hinted_homes.add((klass, home))
    return hints


def _linear_scan(intervals, hints) -> Tuple[Dict[object, int], List]:
    pools = {"int": list(_INT_POOL), "fp": list(_FP_POOL),
             "vec": list(_VEC_POOL)}
    # Home registers claimed by hints are tracked separately: a hinted home
    # is busy for its temp's entire interval.
    active: List[_Interval] = []
    assignment: Dict[object, int] = {}
    spilled: List[object] = []
    home_busy: Dict[Tuple[str, int], int] = {}  # (class, home) -> busy until

    for interval in intervals:
        # Expire finished intervals.
        still = []
        for act in active:
            if act.end < interval.start:
                reg = assignment.get(act.tmp)
                if reg is not None and act.tmp not in hints:
                    pools[act.klass].append(reg)
            else:
                still.append(act)
        active = still

        hint = hints.get(interval.tmp)
        if hint is not None:
            busy_until = home_busy.get((interval.klass, hint), -1)
            if busy_until < interval.start:
                assignment[interval.tmp] = hint
                home_busy[(interval.klass, hint)] = interval.end
                active.append(interval)
                continue
        pool = pools[interval.klass]
        if pool:
            assignment[interval.tmp] = pool.pop()
            active.append(interval)
        else:
            # Spill the active interval of this class ending last.
            candidates = [a for a in active
                          if a.klass == interval.klass
                          and a.tmp not in hints]
            victim = max(candidates, key=lambda a: a.end, default=None)
            if victim is not None and victim.end > interval.end:
                assignment[interval.tmp] = assignment.pop(victim.tmp)
                spilled.append(victim.tmp)
                active.remove(victim)
                active.append(interval)
            else:
                spilled.append(interval.tmp)
    return assignment, spilled


_SPILL_STORE = {"int": "st32", "fp": "stf", "vec": "stv"}
_SPILL_LOAD = {"int": "ld32", "fp": "ldf", "vec": "ldv"}


def _rewrite_spills(ops, assignment, spilled) -> List[IRInstr]:
    """Insert reload/store code for spilled temps.

    Each spilled temp gets a 16-byte slot in the TOL data area; uses reload
    through reserved scratch registers (pre-assigned fresh temps).
    """
    slots = {t: TOL_AREA_BASE + 16 * i for i, t in enumerate(spilled)}
    spill_set = set(spilled)
    scratch_seq = [0]

    def fresh_scratch(klass, position):
        # Alternate between the two reserved scratch regs per class.
        scratch_seq[0] += 1
        idx = position % 2
        if klass == "int":
            tmp = Tmp(-scratch_seq[0])
            assignment[tmp] = INT_SPILL_SCRATCH[idx]
        elif klass == "fp":
            tmp = FTmp(-scratch_seq[0])
            assignment[tmp] = FP_SPILL_SCRATCH[idx]
        else:
            tmp = VTmp(-scratch_seq[0])
            assignment[tmp] = VEC_SPILL_SCRATCH[idx]
        return tmp

    out: List[IRInstr] = []
    for instr in ops:
        new_srcs = list(instr.srcs)
        for pos, src in enumerate(instr.srcs):
            if src in spill_set:
                klass = _class_of(src)
                scratch = fresh_scratch(klass, pos)
                out.append(IRInstr(
                    op=_SPILL_LOAD[klass], dst=scratch,
                    srcs=(Const(slots[src]),)))
                new_srcs[pos] = scratch
        dst = instr.dst
        store_after = None
        if dst in spill_set:
            klass = _class_of(dst)
            scratch = fresh_scratch(klass, 0)
            store_after = IRInstr(
                op=_SPILL_STORE[klass], dst=None,
                srcs=(Const(slots[dst]), scratch))
            dst = scratch
        out.append(instr.with_changes(dst=dst, srcs=tuple(new_srcs)))
        if store_after is not None:
            out.append(store_after)
    return out
