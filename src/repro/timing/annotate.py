"""Static cycle annotation of translated units (Schnerr-style
back-annotation, PAPERS.md "Cycle Accurate Binary Translation").

A timing run used to pay a per-executed-instruction Python round trip:
the host emulator delivered every record into ``TimingSession.sink``,
which re-classified the op, re-mapped its registers into the scoreboard
namespace and re-synthesized its host PC before calling
``InOrderCore.feed`` — all of it recomputed on *every execution* of the
same translated instruction.

This module computes that work **once per unit**:

- :func:`build_static_profile` runs at translate time (hooked into
  ``CodeGenerator.generate``) and captures everything about an
  instruction that does not depend on the timing configuration: its
  synthetic host PC and I-line, execution-unit class, scoreboard-mapped
  destination/sources, and (for control transfers) the precomputed
  taken-target PC.

- :func:`resolve_annotation` binds a static profile to one
  ``InOrderCore``: class latencies/occupancies from the core's
  ``TimingConfig`` and direct references to the core's per-class unit
  scoreboards, producing the flat record tuples
  ``InOrderCore.feed_unit`` consumes in its hoisted-locals loop.  It
  also derives the unit's *steady-state schedule* — the cycles the body
  would take under the all-L1-hit / correctly-predicted assumption —
  kept on the annotation for diagnostics (`steady_cycles`); the live
  model still executes every stateful update, which is what keeps the
  fast path bit-identical to the per-instruction path (DESIGN.md §10).

Annotations are cached per session keyed by unit uid and dropped via the
``CodeCache.on_remove`` hook when a unit is invalidated or evicted.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.host.isa import REGFILES, HostOp, op_unit_class

# Scoreboard register-id namespaces (mirrors timing.core; duplicated here
# so translate-time profiling never imports the timing core).
FP_BASE = 64
VEC_BASE = 96

#: record kind codes used by ``InOrderCore.feed_unit``
KIND_EXEC = 0     # simple/complex/fp/fp_div/vector (a cfg.units class)
KIND_LOAD = 1
KIND_STORE = 2
KIND_BRANCH = 3   # branch-class ops (incl. exits/asserts/ibtc)


#: op -> (d, a, b, c) register file letters ('i' int, 'f' fp, 'v' vec),
#: from the op table.
_REGFILES = {op: tuple(files) for op, files in REGFILES.items()}

#: op -> execution-unit class, likewise precomputed at import time.
_UNIT_CLASS = {op: op_unit_class(op) for op in sorted(HostOp.ALL)}

_BASE = {"i": 0, "f": FP_BASE, "v": VEC_BASE}

_KIND = {"load": KIND_LOAD, "store": KIND_STORE, "branch": KIND_BRANCH}

#: a unit's applier is compiled after the generic loop has fed
#: ``PER_INSN * unit_size + BASE`` of its records (hot units only —
#: compiling costs real time; see the tiering note below).
COMPILE_AT_PER_INSN = 8
COMPILE_AT_BASE = 256


def host_pc(unit_uid: int, index: int) -> int:
    """Synthetic host code address of instruction ``index`` in a unit."""
    return (unit_uid << 14) | (index << 2)


def build_static_profile(unit) -> list:
    """Timing-config-independent per-instruction profile of ``unit``.

    Entry ``i`` is ``(pc, line, kind, klass, dst, srcs, taken_pc)``:

    - ``pc``/``line``: synthetic host PC and its I-cache line;
    - ``kind``: one of the ``KIND_*`` codes;
    - ``klass``: the execution-unit class string (telemetry bucketing);
    - ``dst``: scoreboard-mapped destination (``None`` for stores, which
      retire through the store buffer);
    - ``srcs``: scoreboard-mapped source registers with the ``None``
      operand slots already filtered out;
    - ``taken_pc``: for branch-class ops, the synthetic target of a
      taken transfer (``host_pc(uid, target or 0)`` — exactly what the
      per-instruction adapter computes); ``0`` otherwise.

    Computed once at translate time and attached to the unit as
    ``_timing_profile``; a few dict lookups per instruction, dwarfed by
    the SSA/scheduling passes that precede code generation.
    """
    uid = unit.uid
    base = uid << 14
    profile = []
    append = profile.append
    regfiles = _REGFILES
    unit_class = _UNIT_CLASS
    reg_base = _BASE
    kinds = _KIND
    for index, ins in enumerate(unit.instrs):
        op = ins.op
        klass = unit_class[op]
        d_class, a_class, b_class, c_class = regfiles[op]
        kind = kinds.get(klass, KIND_EXEC)
        dst = None
        if ins.d is not None and kind != KIND_STORE:
            dst = reg_base[d_class] + ins.d
        srcs = []
        if ins.a is not None:
            srcs.append(reg_base[a_class] + ins.a)
        if ins.b is not None:
            srcs.append(reg_base[b_class] + ins.b)
        if ins.c is not None:
            srcs.append(reg_base[c_class] + ins.c)
        pc = base | (index << 2)
        taken_pc = 0
        if kind == KIND_BRANCH:
            taken_pc = base | ((ins.target or 0) << 2)
        append((pc, pc >> 6, kind, klass, dst, tuple(srcs), taken_pc))
    return profile


class UnitAnnotation:
    """A static profile bound to one core's configuration and resources.

    ``recs[i]`` is the flat tuple ``feed_unit`` unpacks per executed
    record: ``(pc, line, kind, ki, dst, srcs, ulist, ext)`` where ``ki``
    indexes ``class_names`` (telemetry bucketing without per-record dict
    hashing), ``ulist`` is the core's scoreboard list for the
    instruction's unit class (``None`` for loads/stores, which bind to
    the shared memory ports) and ``ext`` is ``(latency, occupancy,
    n_units)`` for exec ops or the precomputed taken-target PC for
    branch-class ops.  ``srcs`` is ``None`` when the instruction reads
    no registers.
    """

    __slots__ = ("uid", "recs", "size", "steady_cycles", "class_counts",
                 "class_names", "compiled", "fed_records", "compile_at")

    def __init__(self, uid: int, recs: list, steady_cycles: int,
                 class_counts: dict, class_names: list):
        self.uid = uid
        self.recs = recs
        self.size = len(recs)
        #: cycles for one straight-line pass over the unit body under
        #: the all-hit / correctly-predicted / no-external-dependence
        #: assumption (diagnostics; the live model recomputes exactly).
        self.steady_cycles = steady_cycles
        self.class_counts = class_counts
        #: ki -> execution-class string, for merging batch class counts
        #: back into ``stats.by_class``.
        self.class_names = class_names
        #: generated per-unit batch applier (``fn(records) -> None |
        #: resume position``), or None while the unit stays on the
        #: generic ``InOrderCore.feed_unit`` loop.
        self.compiled = None
        #: records fed so far through the generic loop; once this
        #: crosses ``compile_at`` the session compiles the specialized
        #: applier — annotation is tiered exactly like translation.
        self.fed_records = 0
        self.compile_at = (COMPILE_AT_PER_INSN * self.size
                           + COMPILE_AT_BASE)


def resolve_annotation(unit, core, profile: Optional[list] = None
                       ) -> UnitAnnotation:
    """Bind ``unit``'s static profile to ``core``'s configuration.

    Raises ``KeyError``/``AttributeError`` for units the profile cannot
    describe (unknown op classes); callers treat that as "unannotatable"
    and fall back to the per-instruction path.
    """
    if profile is None:
        profile = unit.__dict__.get("_timing_profile")
        if profile is None:
            profile = build_static_profile(unit)
            unit._timing_profile = profile
    cfg = core.config
    units = core._units
    recs: List[Tuple] = []
    append = recs.append
    class_counts: dict = {}
    class_index: dict = {}
    class_names: list = []
    # Steady-state schedule: issue-width-limited, dependence-free,
    # all-hit latencies (documentation of the unit's best case).
    issue_width = cfg.issue_width or 1
    l1d_hit = cfg.l1d.hit_latency
    steady_done = 0
    for pc, line, kind, klass, dst, srcs, taken_pc in profile:
        class_counts[klass] = class_counts.get(klass, 0) + 1
        ki = class_index.get(klass)
        if ki is None:
            ki = class_index[klass] = len(class_names)
            class_names.append(klass)
        srcs = srcs or None
        if kind == KIND_EXEC:
            count, latency, pipelined = cfg.units[klass]
            occupancy = 1 if pipelined else latency
            ulist = units[klass]
            append((pc, line, kind, ki, dst, srcs, ulist,
                    (latency, occupancy, len(ulist))))
            steady_done = max(steady_done, latency)
        elif kind == KIND_BRANCH:
            ulist = units["simple"]
            append((pc, line, kind, ki, dst, srcs, ulist, taken_pc))
            steady_done = max(steady_done, 1)
        else:
            append((pc, line, kind, ki, dst, srcs, None, None))
            steady_done = max(steady_done,
                              l1d_hit if kind == KIND_LOAD else 1)
    n = len(profile)
    issue_cycles = (n + issue_width - 1) // issue_width if n else 0
    steady_cycles = issue_cycles + steady_done
    return UnitAnnotation(unit.uid, recs, steady_cycles, class_counts,
                          class_names)


# ----------------------------------------------------------------------
# Generated per-unit batch appliers.
#
# ``feed_unit`` already amortizes the per-record Python call, but it
# still re-reads every static fact (PC, line, kind, operands, unit
# class) from the annotation table on every execution and re-dispatches
# on the record kind.  For compiled units all of that is known at
# annotation time, so — exactly like the host emulator's fast segments
# and the direct tier — we generate a specialized Python function per
# unit with the constants folded into the bytecode:
#
# - one straight-line block per instruction, with literal PCs, I-lines,
#   latencies and scoreboard indices;
# - the I-line change check elided whenever the previous instruction in
#   the same straight-line run shares the line (statically known);
# - RAW lookups unrolled per operand, unit/port selection unrolled for
#   the 1- and 2-wide cases;
# - control flow mirroring the unit CFG: arms per *leader* (entry 0,
#   branch targets, fall-throughs past a branch), so a record batch is
#   consumed by running down the arm and re-dispatching only at
#   branch-class records.
#
# The arithmetic is ``InOrderCore.feed``'s line for line (see the
# mirror note in timing/core.py); only its operands are pre-resolved.
# A batch that enters at a non-leader index (rare: a pause flush inside
# a run) makes the dispatcher bail by returning the unconsumed
# position, and the caller finishes the batch on the generic
# ``feed_unit`` loop — bailing is always exact.
#
# Compiling is not free (tens of ms for a big unit), so it is *tiered*
# like translation itself: the session compiles a unit's applier only
# after the generic loop has fed ``compile_at`` records for it, and the
# resulting code objects are memoized by source text — a unit translated
# identically in a later session (same uid sequence, same timing
# configuration) rebinds the cached bytecode with a cheap ``exec``
# instead of recompiling.
# ----------------------------------------------------------------------

#: units larger than this keep the generic ``feed_unit`` loop (bounds
#: generated-source size; covers every BBM/SBM unit in practice).
_MAX_COMPILED_SIZE = 512

#: source text -> code object (cross-session; cleared when full)
_CODE_CACHE: dict = {}
_CODE_CACHE_MAX = 1024


def _emit_issue_block(emit, ind, n_srcs, bound: str, bucket: str,
                      issue_width: int) -> None:
    """The shared issue/stall-attribution sequence of ``feed``, with the
    RAW comparisons dropped for 0-source instructions (a zero bound can
    never exceed ``ready`` >= 0)."""
    emit(ind, "issue = ready")
    if n_srcs:
        emit(ind, "if raw_bound > issue:")
        emit(ind + 1, "issue = raw_bound")
    emit(ind, f"if {bound} > issue:")
    emit(ind + 1, f"issue = {bound}")
    emit(ind, "if last_issue > issue:")
    emit(ind + 1, "issue = last_issue")
    emit(ind, f"if issue == last_issue and issued_in_cycle >= {issue_width}:")
    emit(ind + 1, "issue += 1")
    if n_srcs:
        emit(ind, "if raw_bound >= issue and raw_bound > ready:")
        emit(ind + 1, "st_raw += raw_bound - ready")
        emit(ind, f"elif {bound} >= issue and {bound} > ready:")
    else:
        emit(ind, f"if {bound} >= issue and {bound} > ready:")
    emit(ind + 1, f"st_{bucket} += {bound} - ready")
    emit(ind, "if issue > last_issue:")
    emit(ind + 1, "issued_in_cycle = 1")
    emit(ind + 1, "last_issue = issue")
    emit(ind, "else:")
    emit(ind + 1, "issued_in_cycle += 1")
    emit(ind, "IQA(issue)")


def _emit_select(emit, ind, ulist: str, n: int, ranges: set) -> str:
    """Emit lowest-ready selection over ``ulist`` (ties to the lowest
    index, as ``min`` resolves them); returns the index expression to
    write back through."""
    if n == 1:
        emit(ind, f"unit_bound = {ulist}[0]")
        return "0"
    if n == 2:
        emit(ind, "_ui = 0")
        emit(ind, f"unit_bound = {ulist}[0]")
        emit(ind, f"_u1 = {ulist}[1]")
        emit(ind, "if _u1 < unit_bound:")
        emit(ind + 1, "unit_bound = _u1")
        emit(ind + 1, "_ui = 1")
        return "_ui"
    ranges.add(n)
    emit(ind, f"_ui = _min(_R{n}, key={ulist}.__getitem__)")
    emit(ind, f"unit_bound = {ulist}[_ui]")
    return "_ui"


def compile_applier(unit, core, profile=None):
    """Generate the unit's specialized batch applier, or ``None`` when
    the unit is too large to compile.  The returned function has the
    signature ``fn(records) -> None | int``: ``None`` when the whole
    batch was consumed, else the position of the first unconsumed
    record (non-leader entry; the caller falls back to ``feed_unit``
    for the remainder)."""
    if profile is None:
        profile = unit.__dict__.get("_timing_profile")
        if profile is None:
            profile = build_static_profile(unit)
            unit._timing_profile = profile
    size = len(profile)
    if size == 0 or size > _MAX_COMPILED_SIZE:
        return None
    cfg = core.config

    # -- leaders: entry, branch targets, fall-throughs past branches --
    leaders = {0}
    for k, ins in enumerate(unit.instrs):
        if profile[k][2] == KIND_BRANCH:
            if k + 1 < size:
                leaders.add(k + 1)
            if ins.target is not None and 0 <= ins.target < size:
                leaders.add(ins.target)
    order = sorted(leaders)
    next_leader = {}
    for i, lead in enumerate(order):
        next_leader[lead] = order[i + 1] if i + 1 < len(order) else size

    classes = []
    for entry in profile:
        if entry[3] not in classes:
            classes.append(entry[3])

    params = {
        "C": core, "RR": core.reg_ready, "IQ": core._iq,
        "IQA": core._iq.append, "IQP": core._iq.popleft,
        "ST": core._stall, "SS": core.stats,
        "FL": core.mem.fetch_latency, "DL": core.mem.data_latency,
        "GU": core.gshare.update, "BL": core.btb.lookup,
        "BU": core.btb.update, "_len": len,
    }
    uses_min = False
    needed_ranges: set = set()
    for klass in classes:
        if klass in ("load", "store"):
            continue
        unit_klass = "simple" if klass == "branch" else klass
        params[f"UL_{unit_klass}"] = core._units[unit_klass]
    if "load" in classes:
        params["RP"] = core._read_ports
    if "store" in classes:
        params["WP"] = core._write_ports

    fetch_width = cfg.fetch_width
    decode_depth = cfg.decode_depth
    iq_size = cfg.iq_size
    issue_width = cfg.issue_width
    mispredict_penalty = cfg.mispredict_penalty
    l1i_hit = cfg.l1i.hit_latency

    lines: list = []

    def emit(ind: int, text: str) -> None:
        lines.append("    " * ind + text)

    def emit_instr(k: int, first: bool) -> None:
        pc, line, kind, klass, dst, srcs, taken_pc = profile[k]
        if not first:
            emit(3, "if pos == n:")
            emit(4, "break")
        emit(3, f"# [{k}] {unit.instrs[k].op}")
        # fetch
        emit(3, f"if fetched >= {fetch_width}:")
        emit(4, "fetch_cycle += 1")
        emit(4, "fetched = 0")
        if first or profile[k - 1][1] != line:
            emit(3, f"if {line} != last_line:")
            emit(4, f"last_line = {line}")
            emit(4, f"_fl = FL({pc})")
            emit(4, f"if _fl > {l1i_hit}:")
            emit(5, f"fetch_cycle += _fl - {l1i_hit}")
            emit(5, "fetched = 0")
            emit(5, f"st_front += _fl - {l1i_hit}")
        emit(3, f"if _len(IQ) >= {iq_size}:")
        emit(4, "_b = IQP()")
        emit(4, "if _b > fetch_cycle:")
        emit(5, "st_iq += _b - fetch_cycle")
        emit(5, "fetch_cycle = _b")
        emit(5, "fetched = 0")
        emit(3, "fetched += 1")
        emit(3, f"ready = fetch_cycle + {decode_depth}")
        # RAW, unrolled per operand
        n_srcs = len(srcs)
        if n_srcs == 1:
            emit(3, f"raw_bound = RR[{srcs[0]}]")
        elif n_srcs >= 2:
            emit(3, f"raw_bound = RR[{srcs[0]}]")
            for s in srcs[1:]:
                emit(3, f"_r = RR[{s}]")
                emit(3, "if _r > raw_bound:")
                emit(4, "raw_bound = _r")
        # kind-specific issue / latency
        nonlocal_ranges = needed_ranges
        if kind == KIND_EXEC:
            _count, latency, pipelined = cfg.units[klass]
            occupancy = 1 if pipelined else latency
            ulist = f"UL_{klass}"
            n_units = len(core._units[klass])
            uexpr = _emit_select(emit, 3, ulist, n_units, nonlocal_ranges)
            _emit_issue_block(emit, 3, n_srcs, "unit_bound", "unit",
                              issue_width)
            emit(3, f"{ulist}[{uexpr}] = issue + {occupancy}")
            emit(3, f"done = issue + {latency}")
        elif kind == KIND_BRANCH:
            ulist = "UL_simple"
            n_units = len(core._units["simple"])
            uexpr = _emit_select(emit, 3, ulist, n_units, nonlocal_ranges)
            _emit_issue_block(emit, 3, n_srcs, "unit_bound", "unit",
                              issue_width)
            emit(3, f"{ulist}[{uexpr}] = issue + 1")
            emit(3, "done = issue + 1")
            emit(3, "n_branches += 1")
            emit(3, "_inf = records[pos][1]")
            emit(3, '_tk = _inf["taken"] if _inf is not None else False')
            emit(3, f"_dok = GU({pc}, _tk)")
            emit(3, "if _tk:")
            emit(4, f"_tok = BL({pc}) == {taken_pc}")
            emit(4, f"BU({pc}, {taken_pc})")
            emit(4, "if not _dok or not _tok:")
            emit(5, "n_mispredicts += 1")
            emit(5, f"_rd = done + {mispredict_penalty}")
            emit(5, "if _rd > fetch_cycle:")
            emit(6, "fetch_cycle = _rd")
            emit(6, "fetched = 0")
            emit(3, "elif not _dok:")
            emit(4, "n_mispredicts += 1")
            emit(4, f"_rd = done + {mispredict_penalty}")
            emit(4, "if _rd > fetch_cycle:")
            emit(5, "fetch_cycle = _rd")
            emit(5, "fetched = 0")
        else:
            if kind == KIND_LOAD:
                plist, n_ports = "RP", len(core._read_ports)
            else:
                plist, n_ports = "WP", len(core._write_ports)
            if n_ports == 1:
                pexpr = "0"
                emit(3, f"port_bound = {plist}[0]")
            else:
                nonlocal_ranges.add(n_ports)
                emit(3, f"_pi = _min(_R{n_ports}, key={plist}.__getitem__)")
                emit(3, f"port_bound = {plist}[_pi]")
                pexpr = "_pi"
            _emit_issue_block(emit, 3, n_srcs, "port_bound", "mem",
                              issue_width)
            emit(3, "_inf = records[pos][1]")
            emit(3, '_a = _inf["mem_addr"] if _inf is not None else None')
            if kind == KIND_LOAD:
                emit(3, "n_loads += 1")
                emit(3, f"done = issue + DL({pc}, _a or 0)")
            else:
                emit(3, "n_stores += 1")
                emit(3, f"DL({pc}, _a or 0)")
                emit(3, "done = issue + 1")
            emit(3, f"{plist}[{pexpr}] = issue + 1")
        # shared tail
        if dst is not None:
            emit(3, f"RR[{dst}] = done")
        emit(3, "if done > last_done:")
        emit(4, "last_done = done")
        emit(3, f"kc_{klass} += 1")
        emit(3, "pos += 1")

    # ------------------------------------------------------------------
    emit(0, f"def _annfeed(records, {', '.join(f'{p}={p}' for p in params)}):")
    for scalar, attr in (("fetch_cycle", "_fetch_cycle"),
                        ("fetched", "_fetched_in_cycle"),
                        ("last_line", "_last_fetch_line"),
                        ("last_issue", "_last_issue"),
                        ("issued_in_cycle", "_issued_in_cycle"),
                        ("last_done", "_last_done")):
        emit(1, f"{scalar} = C.{attr}")
    for bucket in ("raw", "unit", "mem", "iq", "front"):
        key = {"mem": "memport", "front": "frontend"}.get(bucket, bucket)
        emit(1, f'st_{bucket} = ST["{key}"]')
    for klass in classes:
        emit(1, f"kc_{klass} = 0")
    emit(1, "n_branches = 0")
    emit(1, "n_mispredicts = 0")
    emit(1, "n_loads = 0")
    emit(1, "n_stores = 0")
    emit(1, "pos = 0")
    emit(1, "n = _len(records)")
    emit(1, "try:")
    emit(2, "while pos < n:")
    emit(3, "index = records[pos][0]")
    first_arm = True
    for lead in order:
        cond = "if" if first_arm else "elif"
        first_arm = False
        emit(3, f"{cond} index == {lead}:")
        # re-indent arm bodies one level deeper than the emit_instr base
        mark = len(lines)
        for k in range(lead, next_leader[lead]):
            emit_instr(k, first=(k == lead))
        emit(3, "continue")
        for i in range(mark, len(lines)):
            lines[i] = "    " + lines[i]
    emit(3, "else:")
    emit(4, "return pos")
    emit(1, "finally:")
    for scalar, attr in (("fetch_cycle", "_fetch_cycle"),
                        ("fetched", "_fetched_in_cycle"),
                        ("last_line", "_last_fetch_line"),
                        ("last_issue", "_last_issue"),
                        ("issued_in_cycle", "_issued_in_cycle"),
                        ("last_done", "_last_done")):
        emit(2, f"C.{attr} = {scalar}")
    for bucket in ("raw", "unit", "mem", "iq", "front"):
        key = {"mem": "memport", "front": "frontend"}.get(bucket, bucket)
        emit(2, f'ST["{key}"] = st_{bucket}')
    emit(2, "_bc = SS.by_class")
    for klass in classes:
        emit(2, f"if kc_{klass}:")
        emit(3, f'_bc["{klass}"] = _bc.get("{klass}", 0) + kc_{klass}')
    emit(2, "SS.instructions += pos")
    emit(2, "SS.branches += n_branches")
    emit(2, "SS.mispredicts += n_mispredicts")
    emit(2, "SS.loads += n_loads")
    emit(2, "SS.stores += n_stores")
    emit(2, "SS.cycles = last_done")

    if needed_ranges:
        params["_min"] = min
        for n_range in needed_ranges:
            params[f"_R{n_range}"] = range(n_range)
        # ranges/min are referenced by the body; re-emit the signature
        # line with the complete parameter list.
        lines[0] = (f"def _annfeed(records, "
                    f"{', '.join(f'{p}={p}' for p in params)}):")

    source = "\n".join(lines) + "\n"
    code = _CODE_CACHE.get(source)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
            _CODE_CACHE.clear()
        code = compile(source, f"<timing-annotation:{unit.uid}>", "exec")
        _CODE_CACHE[source] = code
    namespace = dict(params)
    exec(code, namespace)
    fn = namespace["_annfeed"]
    fn._source = source  # debugging / tests
    return fn
