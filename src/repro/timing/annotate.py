"""Static cycle annotation of translated units, and the in-order step
stated once (Schnerr-style back-annotation, PAPERS.md "Cycle Accurate
Binary Translation": the translate-time annotation is the primary model).

Everything about a host instruction that does not depend on its
execution is computed once per unit:

- :func:`build_static_profile` captures what does not depend on the
  timing configuration either: synthetic host PC and I-line, record
  kind and execution-unit class, scoreboard-mapped destination and
  sources, and the taken-target PC of control transfers.  It runs
  lazily, on a unit's first timed execution, and is cached on the unit.
- :class:`UnitAnnotation` binds a profile to one ``InOrderCore``: class
  latencies and occupancies from its ``TimingConfig`` and references to
  its per-class unit scoreboards, as the flat records the step reads.

The in-order step itself -- fetch with I-line and IQ backpressure, the
RAW bound, unit or port selection, issue with stall attribution,
latency, the gshare/BTB update and the scoreboard write -- is written
once, as the source emitter :func:`_emit_step`, over an instruction's
facts.  Each fact is either a literal folded into the source or the
expression that reads it at run time, and three forms are generated
from it:

- the generic loop (:func:`generic_loop`, run by
  ``InOrderCore.feed_unit``) reads the facts from the annotation records;
- a hot unit's applier (:func:`compile_applier`) folds them in as
  literals, one straight-line block per instruction;
- the TOL applier (:func:`compile_tol`) feeds a TOL overhead charge from
  its record count alone: one period of the synthetic mix is unrolled
  with its facts as literals, PC and I-line are arithmetic on the
  record number and the data address steps inline.  Only this form
  holds core state in locals for the call and takes the cache, TLB and
  predictor probes' common case inline (:class:`_Held`): the TOL's
  lines and pages are MRU nearly always, the application's far less.

Per-instruction ``InOrderCore.feed``, ``TimingSession.sink`` and the
reference forms (``host_fastpath=False`` never tiers a unit up and
feeds TOL charges one ``feed`` call per instruction) run the generic
loop, so every path computes the same arithmetic by construction.
Configuration values are literals in every form, and each generated
source is compiled once per process (:mod:`repro.pycode` memoizes code
by source text).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from repro.host.isa import REGFILES, HostOp, op_unit_class
from repro.pycode import define

#: Scoreboard register-id namespaces: integer, FP and vector files.
FP_BASE = 64
VEC_BASE = 96
NUM_SCOREBOARD_REGS = 112

#: record kind codes
KIND_EXEC = 0     # simple/complex/fp/fp_div/vector (a cfg.units class)
KIND_LOAD = 1
KIND_STORE = 2
KIND_BRANCH = 3   # branch-class ops (incl. exits/asserts/ibtc)

#: execution-unit class -> record kind (anything else is KIND_EXEC)
_CLASS_KIND = {"load": KIND_LOAD, "store": KIND_STORE,
               "branch": KIND_BRANCH}

#: op -> (d, a, b, c) register file letters ('i' int, 'f' fp, 'v' vec)
_REGFILES = {op: tuple(files) for op, files in REGFILES.items()}

#: op -> execution-unit class
_UNIT_CLASS = {op: op_unit_class(op) for op in sorted(HostOp.ALL)}

_BASE = {"i": 0, "f": FP_BASE, "v": VEC_BASE}

#: a unit's applier is compiled after the generic loop has fed
#: ``PER_INSN * unit_size + BASE`` of its records, i.e. once the loop has
#: spent on the unit about what compiling it costs: ~300 us per
#: instruction against ~0.8 us per record (the hottest units of
#: bench_timing's workload, 2-vCPU Xeon VM).  On the recorded per-unit
#: traffic of 429.mcf, 433.milc, ragdoll and bench_timing's workload,
#: priced with those costs and ~0.5 us per applier record, this factor
#: gives the least total of any from 100 to 1,200.
COMPILE_AT_PER_INSN = 400
COMPILE_AT_BASE = 256

#: units larger than this keep the generic loop (bounds generated-source
#: size; covers every BBM/SBM unit in practice).
_MAX_COMPILED_SIZE = 512


def host_pc(unit_uid: int, index: int) -> int:
    """Synthetic host code address of instruction ``index`` in a unit."""
    return (unit_uid << 14) | (index << 2)


def build_static_profile(unit) -> list:
    """Timing-config-independent per-instruction profile of ``unit``.

    Entry ``i`` is ``(pc, line, kind, klass, dst, srcs, taken_pc)``:
    synthetic host PC and its I-cache line; a ``KIND_*`` code; the
    execution-unit class string; the scoreboard-mapped destination
    (``None`` for stores, which retire through the store buffer); the
    scoreboard-mapped sources, ``None`` operand slots dropped; and, for
    branch-class ops, the synthetic PC of a taken transfer (``0``
    otherwise).
    """
    base = unit.uid << 14
    profile = []
    for index, ins in enumerate(unit.instrs):
        klass = _UNIT_CLASS[ins.op]
        files = _REGFILES[ins.op]
        dst = None
        if ins.d is not None and klass != "store":
            dst = _BASE[files[0]] + ins.d
        srcs = tuple(_BASE[file] + reg for file, reg
                     in zip(files[1:], (ins.a, ins.b, ins.c))
                     if reg is not None)
        taken_pc = 0
        if klass == "branch":
            taken_pc = base | ((ins.target or 0) << 2)
        profile.append(profile_entry(base | (index << 2), klass, dst, srcs,
                                     taken_pc))
    return profile


def profile_entry(pc: int, klass: str, dst: Optional[int], srcs: tuple,
                  taken_pc: int = 0) -> tuple:
    """One entry of a static profile (see :func:`build_static_profile`)."""
    return (pc, pc >> 6, _CLASS_KIND.get(klass, KIND_EXEC), klass, dst,
            srcs, taken_pc)


def _unit_profile(unit, profile: Optional[list]) -> list:
    if profile is None:
        profile = unit.__dict__.get("_timing_profile")
        if profile is None:
            profile = unit._timing_profile = build_static_profile(unit)
    return profile


class UnitAnnotation:
    """A static profile bound to one core's configuration and resources.

    ``recs[i]`` is the flat tuple the generic loop unpacks per executed
    record: ``(pc, line, kind, ki, dst, srcs, ulist, ext)`` where ``ki``
    indexes ``class_names``, ``ulist`` is the core's scoreboard list for
    an exec instruction's unit class (``None`` otherwise) and ``ext`` is
    ``(latency, occupancy, n_units)`` for exec instructions and the
    taken-target PC otherwise.
    """

    __slots__ = ("uid", "recs", "size", "class_names", "compiled",
                 "fed_records", "compile_at")

    def __init__(self, uid: int, profile, core):
        self.uid = uid
        self.recs = []
        self.class_names = names = []
        units = core._units
        classes = core.config.units
        for pc, line, kind, klass, dst, srcs, taken_pc in profile:
            if klass not in names:
                names.append(klass)
            ulist = None
            ext = taken_pc
            if kind == KIND_EXEC:
                _count, latency, pipelined = classes[klass]
                ulist = units[klass]
                ext = (latency, 1 if pipelined else latency, len(ulist))
            self.recs.append((pc, line, kind, names.index(klass), dst, srcs,
                              ulist, ext))
        self.size = len(self.recs)
        #: generated applier (``fn(records) -> None | resume position``),
        #: or None while the unit stays on the generic loop.
        self.compiled = None
        #: records fed through the generic loop so far; crossing
        #: ``compile_at`` tiers the unit up to its applier.
        self.fed_records = 0
        self.compile_at = COMPILE_AT_PER_INSN * self.size + COMPILE_AT_BASE


def resolve_annotation(unit, core, profile: Optional[list] = None
                       ) -> UnitAnnotation:
    """Bind ``unit``'s static profile to ``core``'s configuration."""
    return UnitAnnotation(unit.uid, _unit_profile(unit, profile), core)


# ----------------------------------------------------------------------
# The step, stated once.
# ----------------------------------------------------------------------


class _Facts(NamedTuple):
    """One instruction as :func:`_emit_step` sees it.  Each field is a
    literal to fold into the source or the expression that reads it at
    run time: a local of the generic loop, a record field of a unit's
    applier, arithmetic on the record number in the TOL applier."""
    pc: object
    line: object
    new_line: object   # emit the I-line change check: always (True),
                       # never (False) or under this guard expression,
                       # which binds ``_pc`` to ``pc`` (``line`` reads it)
    kind: Optional[int]  # None: dispatch on the record's kind
    srcs: Optional[tuple]  # None: loop over the record's sources
    dst: object        # register, None (no write) or the local's name
    unit: Optional[tuple]  # exec: (list, count, latency, occupancy)
    taken: object      # taken-target PC of a branch
    info: object       # the record's per-execution dynamics: its info
                       # dict's expression, or a dict of static ones
    last: bool         # emit the ``last_done`` update (False: a later
                       # instruction of the same arm completes no earlier)


class _Held(NamedTuple):
    """Core state a form holds in locals for a whole call: scoreboard
    register -> local, and state list (``UL_<class>``, ``RP``, ``WP``)
    -> its entries' locals.  With ``probes`` (the core), an I-cache,
    DTLB+L1D or gshare/BTB probe whose line, page or entry is already MRU
    (a saturated taken counter, a hit on the right target) counts in a
    local instead of calling its method."""
    regs: dict
    lists: dict
    probes: object


#: every form but the TOL applier: core state stays in the core's lists
_IN_LISTS = _Held({}, {}, None)


#: the generic loop's facts: every one read from the record
_RECORD = _Facts("pc", "line", True, None, None, "dst",
                 ("ulist", "n_units", "latency", "occupancy"), "ext", "info",
                 True)

#: core state the step uses, bound once per call (generic loop) or per
#: applier (as default arguments)
_RESOURCES = (
    ("RR", "C.reg_ready"), ("IQ", "C._iq"), ("ST", "C._stall"),
    ("SS", "C.stats"), ("FL", "C.mem.fetch_latency"),
    ("DL", "C.mem.data_latency"), ("GU", "C.gshare.update"),
    ("BL", "C.btb.lookup"), ("BU", "C.btb.update"),
    ("RP", "C._read_ports"), ("WP", "C._write_ports"),
    ("UL_simple", 'C._units["simple"]'),
)

#: the state the inline probes (:class:`_Held`) read, bound once per
#: applier: the L1I (``MI``), the L1D (``MD``), the DTLB (``MT``), the
#: gshare (``GS``) and the BTB (``BT``)
_PROBE_STATE = (
    ("MI", "C.mem.l1i"), ("MI_sets", "C.mem.l1i.sets"),
    ("MI_pf", "C.mem.l1i._prefetched"), ("MD", "C.mem.l1d"),
    ("MD_sets", "C.mem.l1d.sets"), ("MD_pf", "C.mem.l1d._prefetched"),
    ("MT", "C.mem.dtlb"), ("MT_sets", "C.mem.dtlb.sets"),
    ("GS", "C.gshare"), ("GS_table", "C.gshare.table"),
    ("BT", "C.btb"), ("BT_tags", "C.btb.tags"),
    ("BT_targets", "C.btb.targets"),
)
#: (local, counters) of the hits the inline probes count (``n_MD``: a
#: DTLB and an L1D hit)
_PROBE_HITS = (("n_MI", ("MI.hits",)), ("n_MD", ("MT.hits", "MD.hits")),
               ("n_GS", ("GS.lookups",)), ("n_BT", ("BT.hits",)))

#: (local, core attribute) of the scalar state carried across calls
_SCALARS = (("fetch_cycle", "_fetch_cycle"), ("fetched", "_fetched_in_cycle"),
            ("last_line", "_last_fetch_line"), ("last_issue", "_last_issue"),
            ("issued_in_cycle", "_issued_in_cycle"),
            ("last_done", "_last_done"), ("iq_pos", "_iq_pos"))
_STALLS = (("st_raw", "raw"), ("st_unit", "unit"), ("st_mem", "memport"),
           ("st_iq", "iq"), ("st_front", "frontend"))


class _Source:
    """Generated source text: ``emit(indent, line)``."""

    def __init__(self):
        self.lines = []

    def __call__(self, ind: int, text: str) -> None:
        self.lines.append("    " * ind + text)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _emit_step(emit, ind: int, f: _Facts, cfg, held=_IN_LISTS) -> None:
    """One instruction's update of the in-order core: fetch, RAW bound,
    unit/port selection, issue with stall attribution, latency, branch
    prediction and scoreboard write, in that order."""
    emit(ind, f"if fetched >= {cfg.fetch_width}:")
    emit(ind + 1, "fetch_cycle += 1")
    emit(ind + 1, "fetched = 0")
    if f.new_line:
        at, pc = ind, f.pc
        if f.new_line is not True:
            emit(ind, f"if {f.new_line}:")
            at += 1
            if pc != "_pc":
                emit(at, f"_pc = {pc}")
                pc = "_pc"
        emit(at, f"if {f.line} != last_line:")
        emit(at + 1, f"last_line = {f.line}")
        if held.probes:
            emit(at + 1, f"if {_mru(emit, at + 1, held, 'MI', pc)}:")
            emit(at + 2, "n_MI += 1")
            emit(at + 1, "else:")
            at += 1
        emit(at + 1, f"_fl = FL({pc}) - {cfg.l1i.hit_latency}")
        emit(at + 1, "if _fl > 0:")
        emit(at + 2, "fetch_cycle += _fl")
        emit(at + 2, "fetched = 0")
        emit(at + 2, "st_front += _fl")
    # IQ backpressure: fetch waits for the op iq_size ahead to issue.
    emit(ind, "_b = IQ[iq_pos]")
    emit(ind, "if _b > fetch_cycle:")
    emit(ind + 1, "st_iq += _b - fetch_cycle")
    emit(ind + 1, "fetch_cycle = _b")
    emit(ind + 1, "fetched = 0")
    emit(ind, "fetched += 1")
    emit(ind, f"ready = fetch_cycle + {cfg.decode_depth}")
    raw = _emit_raw(emit, ind, f.srcs, held)
    if f.kind is None:
        for i, kind in enumerate((KIND_EXEC, KIND_LOAD, KIND_BRANCH,
                                  KIND_STORE)):
            emit(ind, f"{'elif' if i else 'if'} kind == {kind}:" if i < 3
                 else "else:")
            if kind == KIND_EXEC:
                emit(ind + 1, "latency, occupancy, n_units = ext")
            _emit_kind(emit, ind + 1, kind, f, raw, cfg, held)
    else:
        _emit_kind(emit, ind, f.kind, f, raw, cfg, held)
    if isinstance(f.dst, str):
        emit(ind, f"if {f.dst} is not None:")
        emit(ind + 1, f"RR[{f.dst}] = done")
    elif f.dst is not None:
        emit(ind, f"{held.regs.get(f.dst, f'RR[{f.dst}]')} = done")
    if f.last:
        emit(ind, "if done > last_done:")
        emit(ind + 1, "last_done = done")


def _emit_raw(emit, ind: int, srcs, held) -> bool:
    """Bind ``raw_bound``; False when the instruction reads no register
    (a zero bound can never bind)."""
    if srcs is None:
        emit(ind, "raw_bound = 0")
        emit(ind, "for _s in srcs:")
        emit(ind + 1, "_r = RR[_s]")
        emit(ind + 1, "if _r > raw_bound:")
        emit(ind + 2, "raw_bound = _r")
        return True
    for i, src in enumerate(srcs):
        reg = held.regs.get(src)
        if i == 0:
            emit(ind, f"raw_bound = {reg or f'RR[{src}]'}")
            continue
        if reg is None:
            emit(ind, f"_r = RR[{src}]")
            reg = "_r"
        emit(ind, f"if {reg} > raw_bound:")
        emit(ind + 1, f"raw_bound = {reg}")
    return bool(srcs)


def _dynamic(emit, ind: int, info, key: str) -> str:
    """The expression of the record's ``key`` dynamic: a static one as
    it is, a run-time one bound to ``_<key>`` from its info dict
    (``None`` when the record has none)."""
    if isinstance(info, dict):
        return info[key]
    emit(ind, f"_inf = {info}")
    default = "False" if key == "taken" else "None"
    emit(ind, f'_{key} = _inf["{key}"] if _inf is not None else {default}')
    return f"_{key}"


def _mru(emit, ind: int, held, cache: str, addr) -> str:
    """Bind the set of ``addr``'s line in the L1I (``cache`` ``MI``) or
    L1D (``MD``), or of its page in the DTLB (``MT``), and return the
    condition that it is MRU there: the case its ``access`` only counts
    a hit in."""
    mem = held.probes.mem
    if cache == "MT":
        emit(ind, f"_p = {addr} >> {mem.dtlb.PAGE_BITS}")
        emit(ind, f"_w = MT_sets[_p % {mem.dtlb.n_sets}]")
        return "_w and _w[0] == _p"
    obj = mem.l1i if cache == "MI" else mem.l1d
    emit(ind, f"_t = {addr} >> {obj.line_bits}")
    emit(ind, f"_v = {cache}_sets[_t % {obj.n_sets}]")
    return f"_v and _v[0] == _t and _t not in {cache}_pf"


def _emit_kind(emit, ind: int, kind: int, f: _Facts, raw: bool,
               cfg, held) -> None:
    """Selection, issue and latency of one record kind; binds ``done``."""
    if kind == KIND_EXEC:
        ulist, count, latency, occupancy = f.unit
        at = _emit_select(emit, ind, ulist, count, held)
        _emit_issue(emit, ind, raw, "st_unit", cfg)
        if occupancy == latency:
            _emit_put(emit, ind, held, ulist, at, f"issue + {latency}",
                      done=True)
        else:
            _emit_put(emit, ind, held, ulist, at, f"issue + {occupancy}")
            emit(ind, f"done = issue + {latency}")
    elif kind == KIND_BRANCH:
        at = _emit_select(emit, ind, "UL_simple", cfg.units["simple"][0],
                          held)
        _emit_issue(emit, ind, raw, "st_unit", cfg)
        _emit_put(emit, ind, held, "UL_simple", at, "issue + 1", done=True)
        taken = _dynamic(emit, ind, f.info, "taken")
        if held.probes:
            _emit_branch_probe(emit, ind, f, taken, held.probes)
        else:
            emit(ind, f"_ok = GU({f.pc}, {taken})")
            emit(ind, f"if {taken}:")
            emit(ind + 1, f"if BL({f.pc}) != {f.taken}:")
            emit(ind + 2, "_ok = False")
            emit(ind + 1, f"BU({f.pc}, {f.taken})")
        emit(ind, "if not _ok:")
        emit(ind + 1, "n_mispredicts += 1")
        emit(ind + 1, f"_rd = done + {cfg.mispredict_penalty}")
        emit(ind + 1, "if _rd > fetch_cycle:")
        emit(ind + 2, "fetch_cycle = _rd")
        emit(ind + 2, "fetched = 0")
    else:
        load = kind == KIND_LOAD
        ports, count = (("RP", cfg.mem_read_ports) if load
                        else ("WP", cfg.mem_write_ports))
        at = _emit_select(emit, ind, ports, count, held)
        _emit_issue(emit, ind, raw, "st_mem", cfg)
        addr = _dynamic(emit, ind, f.info, "mem_addr")
        if addr == "_mem_addr":
            addr = "_mem_addr or 0"
        access = f"DL({f.pc}, {addr})"
        at_miss = ind
        if held.probes:
            # both MRU: the DTLB hit adds nothing to the L1D hit latency
            hit = _mru(emit, ind, held, "MT", addr)
            emit(ind, f"if {hit} and {_mru(emit, ind, held, 'MD', addr)}:")
            emit(ind + 1, "n_MD += 1")
            if load:
                emit(ind + 1, f"done = issue + {cfg.l1d.hit_latency}")
            emit(ind, "else:")
            at_miss += 1
        emit(at_miss, f"done = issue + {access}" if load else access)
        # the store buffer hides the rest of a store
        _emit_put(emit, ind, held, ports, at, "issue + 1", done=not load)


def _emit_branch_probe(emit, ind: int, f: _Facts, taken: str,
                       core) -> None:
    """Bind ``_ok``: the gshare/BTB probe of an always-taken branch,
    inline when its counter is saturated and the BTB holds its target."""
    assert taken == "True", "the probes take a static taken branch only"
    emit(ind, "_h = GS.history")
    emit(ind, f"_gi = (({f.pc} >> 2) ^ _h) & {core.gshare.mask}")
    emit(ind, "if GS_table[_gi] == 3:")
    emit(ind + 1, f"GS.history = ((_h << 1) | 1) & "
                  f"{core.gshare.history_mask}")
    emit(ind + 1, "n_GS += 1")
    emit(ind + 1, "_ok = True")
    emit(ind, "else:")
    emit(ind + 1, f"_ok = GU({f.pc}, True)")
    emit(ind, f"_bi = ({f.pc} >> 2) & {core.btb.mask}")
    emit(ind, f"if BT_tags[_bi] == {f.pc} and BT_targets[_bi] == {f.taken}:")
    emit(ind + 1, "n_BT += 1")
    emit(ind, "else:")
    emit(ind + 1, f"if BL({f.pc}) != {f.taken}:")
    emit(ind + 2, "_ok = False")
    emit(ind + 1, f"BU({f.pc}, {f.taken})")


def _emit_select(emit, ind: int, lst: str, count, held=_IN_LISTS) -> str:
    """Bind ``bound`` to the lowest-ready entry of ``lst`` (ties to the
    lowest index, as ``min`` resolves them) and return its index
    expression.  ``count`` is ``len(lst)``, or the local holding it."""
    names = held.lists.get(lst)
    if names is not None:
        emit(ind, f"bound = {names[0]}")
        if len(names) == 1:
            return "0"
        emit(ind, "at = 0")
        for k, name in enumerate(names[1:], 1):
            emit(ind, f"if {name} < bound:")
            emit(ind + 1, f"bound = {name}")
            emit(ind + 1, f"at = {k}")
        return "at"
    if count == 1:
        emit(ind, f"bound = {lst}[0]")
        return "0"
    if count == 2:
        emit(ind, "at = 0")
        emit(ind, f"bound = {lst}[0]")
        emit(ind, f"_u = {lst}[1]")
        emit(ind, "if _u < bound:")
        emit(ind + 1, "bound = _u")
        emit(ind + 1, "at = 1")
        return "at"
    if isinstance(count, str):
        emit(ind, f"if {count} == 1:")
        emit(ind + 1, "at = 0")
        _emit_select(emit, ind + 1, lst, 1)
        emit(ind, f"elif {count} == 2:")
        _emit_select(emit, ind + 1, lst, 2)
        emit(ind, "else:")
        ind += 1
    emit(ind, f"at = min(range({count}), key={lst}.__getitem__)")
    emit(ind, f"bound = {lst}[at]")
    return "at"


def _emit_put(emit, ind: int, held, lst: str, at: str, value: str,
              done: bool = False) -> None:
    """Store ``value`` in entry ``at`` of ``lst`` (and, with ``done``, in
    ``done``)."""
    names = held.lists.get(lst)
    if names is None:
        emit(ind, f"{'done = ' if done else ''}{lst}[{at}] = {value}")
        return
    if done:
        emit(ind, f"done = {value}")
        value = "done"
    for k, name in enumerate(names[:-1]):
        emit(ind, f"{'elif' if k else 'if'} at == {k}:")
        emit(ind + 1, f"{name} = {value}")
    if len(names) > 1:
        emit(ind, "else:")
    emit(ind + (len(names) > 1), f"{names[-1]} = {value}")


def _emit_issue(emit, ind: int, raw: bool, stall: str, cfg) -> None:
    """In-order issue at the binding constraint, ``issue_width`` per
    cycle; the stall is charged to the constraint that bound it."""
    emit(ind, "issue = ready")
    if raw:
        emit(ind, "if raw_bound > issue:")
        emit(ind + 1, "issue = raw_bound")
    emit(ind, "if bound > issue:")
    emit(ind + 1, "issue = bound")
    emit(ind, "if issue > last_issue:")
    emit(ind + 1, "last_issue = issue")
    emit(ind + 1, "issued_in_cycle = 1")
    emit(ind, f"elif issued_in_cycle >= {cfg.issue_width}:")
    emit(ind + 1, "issue = last_issue = last_issue + 1")
    emit(ind + 1, "issued_in_cycle = 1")
    emit(ind, "else:")
    emit(ind + 1, "issue = last_issue")
    emit(ind + 1, "issued_in_cycle += 1")
    if raw:
        emit(ind, "if raw_bound >= issue and raw_bound > ready:")
        emit(ind + 1, "st_raw += raw_bound - ready")
    emit(ind, f"{'elif' if raw else 'if'} bound >= issue and bound > ready:")
    emit(ind + 1, f"{stall} += bound - ready")
    emit(ind, "IQ[iq_pos] = issue")
    emit(ind, f"iq_pos = iq_pos + 1 if iq_pos < {cfg.iq_size - 1} else 0")


def _emit_enter(emit, ind: int, held=_IN_LISTS) -> None:
    for local, attr in _SCALARS:
        emit(ind, f"{local} = C.{attr}")
    for local, key in _STALLS:
        emit(ind, f'{local} = ST["{key}"]')
    emit(ind, "n_mispredicts = 0")
    for reg, local in held.regs.items():
        emit(ind, f"{local} = RR[{reg}]")
    for lst, names in held.lists.items():
        emit(ind, f"{', '.join(names)}, = {lst}")
    if held.probes:
        emit(ind, f"{' = '.join(local for local, _ in _PROBE_HITS)} = 0")


def _emit_leave(emit, ind: int, held=_IN_LISTS) -> None:
    for local, attr in _SCALARS:
        emit(ind, f"C.{attr} = {local}")
    for local, key in _STALLS:
        emit(ind, f'ST["{key}"] = {local}')
    emit(ind, "SS.mispredicts += n_mispredicts")
    emit(ind, "SS.cycles = last_done")
    for reg, local in held.regs.items():
        emit(ind, f"RR[{reg}] = {local}")
    for lst, names in held.lists.items():
        emit(ind, f"{lst}[:] = {', '.join(names)},")
    if held.probes:
        for local, counters in _PROBE_HITS:
            for counter in counters:
                emit(ind, f"{counter} += {local}")


def generic_loop(cfg):
    """The generic loop for timing configuration ``cfg``:
    ``fn(core, ann, records)`` feeds the executed ``(index, info)``
    records of annotation ``ann`` in program order."""
    emit = _Source()
    emit(0, "def feed_unit(C, ann, records):")
    for name, expr in _RESOURCES:
        emit(1, f"{name} = {expr}")
    emit(1, "recs = ann.recs")
    emit(1, "counts = [0] * len(ann.class_names)")
    _emit_enter(emit, 1)
    emit(1, "try:")
    emit(2, "for index, info in records:")
    emit(3, "pc, line, kind, ki, dst, srcs, ulist, ext = recs[index]")
    emit(3, "counts[ki] += 1")
    _emit_step(emit, 3, _RECORD, cfg)
    emit(1, "finally:")
    _emit_leave(emit, 2)
    emit(2, "for ki, count in enumerate(counts):")
    emit(3, "if count:")
    emit(4, "name = ann.class_names[ki]")
    emit(4, "SS.by_class[name] = SS.by_class.get(name, 0) + count")
    return define(emit.text(), "feed_unit", {}, "<timing-step>")


def _exec_facts(kind, klass, cfg):
    """The unit facts of an exec-class instruction (None otherwise)."""
    if kind != KIND_EXEC:
        return None
    count, latency, pipelined = cfg.units[klass]
    return f"UL_{klass}", count, latency, 1 if pipelined else latency


def _applier(core, classes, label, body, args="records", held=_IN_LISTS,
             counts=None):
    """Compile an applier ``fn(<args>)``: ``body(emit)`` writes the
    ``try`` block, which counts ``kc_<class>`` from ``0`` (or from the
    expression ``counts`` gives the class) and returns.  ``held`` keeps
    core state in locals for the call."""
    params = [f"{name}={expr}" for name, expr in _RESOURCES]
    params += [f'UL_{klass}=C._units["{klass}"]' for klass in classes
               if klass not in _CLASS_KIND and klass != "simple"]
    if held.probes:
        params += [f"{name}={expr}" for name, expr in _PROBE_STATE]
    emit = _Source()
    emit(0, f"def _applier({args}, C=C, {', '.join(params)}):")
    _emit_enter(emit, 1, held)
    for klass in classes:
        emit(1, f"kc_{klass} = {(counts or {}).get(klass, 0)}")
    emit(1, "try:")
    body(emit)
    emit(1, "finally:")
    _emit_leave(emit, 2, held)
    for klass in classes:
        emit(2, f"if kc_{klass}:")
        emit(3, f'SS.by_class["{klass}"] = '
                f'SS.by_class.get("{klass}", 0) + kc_{klass}')
    return define(emit.text(), "_applier", {"C": core}, label)


def _emit_counts(emit, ind: int, klasses) -> None:
    for klass in dict.fromkeys(klasses):
        emit(ind, f"kc_{klass} += {klasses.count(klass)}")


def _done_bounds(kind: int, klass: str, cfg) -> tuple:
    """Bounds of an instruction's ``done - issue`` (a load's upper bound
    is open).  Issue is in order, so an instruction need not update
    ``last_done`` when a later one's lower bound reaches its upper
    bound."""
    if kind == KIND_EXEC:
        return (cfg.units[klass][1],) * 2
    if kind == KIND_LOAD:
        return min(cfg.l1d.hit_latency, cfg.l2.hit_latency,
                   cfg.memory_latency), None
    return 1, 1


def compile_applier(unit, core, profile=None):
    """Generate ``unit``'s applier, or ``None`` when the unit is too
    large to compile.  ``fn(records)`` returns ``None`` when the whole
    batch was consumed, else the position of the first unconsumed
    record: a batch is dispatched on its *leaders* (entry, branch
    targets, fall-throughs past a branch) and runs down whole arms, so
    a batch entering mid-arm (a pause flush) or ending inside one (a
    flush or a rollback) bails there and the caller finishes it on the
    generic loop."""
    profile = _unit_profile(unit, profile)
    size = len(profile)
    if size == 0 or size > _MAX_COMPILED_SIZE:
        return None
    cfg = core.config
    bounds = [_done_bounds(kind, klass, cfg)
              for _pc, _line, kind, klass, *_rest in profile]
    leaders = {0}
    for k, ins in enumerate(unit.instrs):
        if profile[k][2] == KIND_BRANCH:
            if k + 1 < size:
                leaders.add(k + 1)
            if ins.target is not None and 0 <= ins.target < size:
                leaders.add(ins.target)
    order = sorted(leaders) + [size]

    def body(emit):
        emit(2, "pos = 0")
        emit(2, "n = len(records)")
        emit(2, "while pos < n:")
        emit(3, "index = records[pos][0]")
        for i, lead in enumerate(order[:-1]):
            end = order[i + 1]
            emit(3, f"{'elif' if i else 'if'} index == {lead}:")
            emit(4, f"if n - pos < {end - lead}:")
            emit(5, "return pos")
            later = [-1] * (end - lead)  # max lower bound after k
            for k in range(end - 1, lead, -1):
                later[k - 1 - lead] = max(later[k - lead], bounds[k][0])
            for k in range(lead, end):
                pc, line, kind, klass, dst, srcs, taken = profile[k]
                emit(4, f"# [{k}] {unit.instrs[k].op}")
                new_line = k == lead or profile[k - 1][1] != line
                info = f"records[pos + {k - lead}][1]" if k > lead \
                    else "records[pos][1]"
                upper = bounds[k][1]
                last = upper is None or later[k - lead] < upper
                _emit_step(emit, 4, _Facts(
                    pc, line, new_line, kind, srcs, dst,
                    _exec_facts(kind, klass, cfg), taken, info, last), cfg)
            _emit_counts(emit, 4, [entry[3] for entry in profile[lead:end]])
            emit(4, f"pos += {end - lead}")
            emit(4, "continue")
        emit(3, "else:")
        emit(4, "return pos")

    classes = list(dict.fromkeys(entry[3] for entry in profile))
    return _applier(core, classes, f"<timing-annotation:{unit.uid}>", body)


def compile_tol(core, period, pc_base: int, slots: int, data: tuple):
    """Generate the applier of the synthetic TOL overhead stream:
    ``fn(n, addr)`` feeds records ``0..n-1`` of one charge and returns
    the last data address.  Record ``i`` is ``period[i % len(period)]``,
    a ``(klass, has_mem, dst, srcs)`` tuple, at PC ``pc_base + (i %
    slots) * 4``; a branch is taken 64 bytes ahead, and a memory access
    first steps ``addr`` to ``base + ((addr + stride) & mask)`` (``data``
    is ``(base, stride, mask)``).

    The record number is the only run-time input: the period is
    unrolled, PC and I-line are arithmetic on the record number, and the
    I-line check runs only at a line's first record.  The registers, the
    simple units and the memory ports stay in locals for the call, the
    probes take their common case inline (:class:`_Held`) and the class
    counts are closed forms of ``n``."""
    cfg = core.config
    size = len(period)
    per_line = 64 // 4
    assert pc_base % 64 == 0 and slots & (slots - 1) == 0 \
        and slots % per_line == 0
    base, stride, mask = data
    regs = sorted({reg for *_rest, dst, srcs in period
                   for reg in (dst, *srcs)})
    classes = list(dict.fromkeys(klass for klass, *_rest in period))
    units = ["simple"] + [klass for klass in classes
                          if klass not in _CLASS_KIND and klass != "simple"]
    lists = {f"UL_{klass}": [f"U_{klass}{k}"
                             for k in range(cfg.units[klass][0])]
             for klass in units}
    lists["RP"] = [f"RP{k}" for k in range(cfg.mem_read_ports)]
    lists["WP"] = [f"WP{k}" for k in range(cfg.mem_write_ports)]
    held = _Held({reg: f"R{reg}" for reg in regs}, lists, core)
    # a line starts at record j of a period when (pos + j) % per_line == 0
    phase = math.gcd(size, per_line)
    counts = {}
    for klass in classes:
        prefix = [0]
        for entry in period:
            prefix.append(prefix[-1] + (entry[0] == klass))
        counts[klass] = (f"{prefix[-1]} * (n // {size}) + "
                         f"{tuple(prefix[:-1])}[n % {size}]")
    kinds = [_CLASS_KIND.get(klass, KIND_EXEC) for klass, *_rest in period]
    bounds = [_done_bounds(kind, klass, cfg)
              for kind, (klass, *_rest) in zip(kinds, period)]

    def body(emit):
        emit(2, "pos = 0")
        emit(2, "m = n")
        emit(2, "done = 0")
        emit(2, "while True:")
        emit(3, f"ck = -pos % {per_line}")
        for j, (klass, has_mem, dst, srcs) in enumerate(period):
            kind = kinds[j]
            emit(3, f"# [{j}] {klass}")
            emit(3, f"if m == {j}:")
            emit(4, "break")
            pc = f"{pc_base} + ({f'pos + {j}' if j else 'pos'} & " \
                 f"{slots - 1}) * 4"
            if kind == KIND_BRANCH:
                emit(3, f"_pc = {pc}")
                pc = "_pc"
            if has_mem:
                emit(3, f"addr = {base} + ((addr + {stride}) & {mask})")
            # the next record completes no earlier: the loop's exit
            # updates ``last_done`` from the last record's ``done``
            upper = bounds[j][1]
            last = upper is None or bounds[(j + 1) % size][0] < upper
            _emit_step(emit, 3, _Facts(
                pc, "_pc >> 6",
                j % phase == 0 and f"ck == {j % per_line}", kind,
                tuple(srcs), dst, _exec_facts(kind, klass, cfg),
                f"{pc} + 64",
                {"taken": "True", "mem_addr": "addr"}, last), cfg, held)
        emit(3, f"pos += {size}")
        emit(3, f"m -= {size}")
        emit(2, "if done > last_done:")
        emit(3, "last_done = done")
        emit(2, "return addr")

    return _applier(core, classes, "<timing-tol>", body, "n, addr", held,
                    counts)
