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
name of the local that holds it at run time, and three forms are
generated from it:

- the generic loop (:func:`generic_loop`, run by
  ``InOrderCore.feed_unit``) reads the facts from the annotation records;
- a hot unit's applier (:func:`compile_applier`) folds them in as
  literals, one straight-line block per instruction;
- the periodic applier (:func:`compile_periodic`) of the synthetic TOL
  overhead annotation folds in the facts that repeat with the mix and
  reads each record's PC and I-line from the annotation.

Per-instruction ``InOrderCore.feed``, ``TimingSession.sink`` and the
reference forms' batches (``host_fastpath=False`` never tiers a unit
up) are fed through the generic loop, so every path computes the same
arithmetic by construction.  Configuration values are literals in every
form, and each generated source is compiled once per process
(:mod:`repro.pycode` memoizes code by source text).
"""

from __future__ import annotations

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
        self.class_names = []
        self.extend(profile, core)
        #: generated applier (``fn(records) -> None | resume position``),
        #: or None while the unit stays on the generic loop.
        self.compiled = None
        #: records fed through the generic loop so far; crossing
        #: ``compile_at`` tiers the unit up to its applier.
        self.fed_records = 0
        self.compile_at = COMPILE_AT_PER_INSN * self.size + COMPILE_AT_BASE

    def extend(self, profile, core) -> None:
        """Append the records of further profile entries."""
        units = core._units
        classes = core.config.units
        names = self.class_names
        append = self.recs.append
        for pc, line, kind, klass, dst, srcs, taken_pc in profile:
            if klass not in names:
                names.append(klass)
            ulist = None
            ext = taken_pc
            if kind == KIND_EXEC:
                _count, latency, pipelined = classes[klass]
                ulist = units[klass]
                ext = (latency, 1 if pipelined else latency, len(ulist))
            append((pc, line, kind, names.index(klass), dst, srcs, ulist,
                    ext))
        self.size = len(self.recs)


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
    run time: a local of the generic loop, a record field in the
    periodic applier."""
    pc: object
    line: object
    new_line: bool     # emit the I-line change check
    kind: Optional[int]  # None: dispatch on the record's kind
    srcs: Optional[tuple]  # None: loop over the record's sources
    dst: object        # register, None (no write) or the local's name
    unit: Optional[tuple]  # exec: (list, count, latency, occupancy)
    taken: object      # taken-target PC of a branch
    info: str          # the record's per-execution dynamics
    last: bool         # emit the ``last_done`` update (False: a later
                       # instruction of the same arm completes no earlier)


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


def _emit_step(emit, ind: int, f: _Facts, cfg) -> None:
    """One instruction's update of the in-order core: fetch, RAW bound,
    unit/port selection, issue with stall attribution, latency, branch
    prediction and scoreboard write, in that order."""
    emit(ind, f"if fetched >= {cfg.fetch_width}:")
    emit(ind + 1, "fetch_cycle += 1")
    emit(ind + 1, "fetched = 0")
    if f.new_line:
        emit(ind, f"if {f.line} != last_line:")
        emit(ind + 1, f"last_line = {f.line}")
        emit(ind + 1, f"_fl = FL({f.pc}) - {cfg.l1i.hit_latency}")
        emit(ind + 1, "if _fl > 0:")
        emit(ind + 2, "fetch_cycle += _fl")
        emit(ind + 2, "fetched = 0")
        emit(ind + 2, "st_front += _fl")
    # IQ backpressure: fetch waits for the op iq_size ahead to issue.
    emit(ind, "_b = IQ[iq_pos]")
    emit(ind, "if _b > fetch_cycle:")
    emit(ind + 1, "st_iq += _b - fetch_cycle")
    emit(ind + 1, "fetch_cycle = _b")
    emit(ind + 1, "fetched = 0")
    emit(ind, "fetched += 1")
    emit(ind, f"ready = fetch_cycle + {cfg.decode_depth}")
    raw = _emit_raw(emit, ind, f.srcs)
    if f.kind is None:
        for i, kind in enumerate((KIND_EXEC, KIND_LOAD, KIND_BRANCH,
                                  KIND_STORE)):
            emit(ind, f"{'elif' if i else 'if'} kind == {kind}:" if i < 3
                 else "else:")
            if kind == KIND_EXEC:
                emit(ind + 1, "latency, occupancy, n_units = ext")
            _emit_kind(emit, ind + 1, kind, f, raw, cfg)
    else:
        _emit_kind(emit, ind, f.kind, f, raw, cfg)
    if isinstance(f.dst, str):
        emit(ind, f"if {f.dst} is not None:")
        emit(ind + 1, f"RR[{f.dst}] = done")
    elif f.dst is not None:
        emit(ind, f"RR[{f.dst}] = done")
    if f.last:
        emit(ind, "if done > last_done:")
        emit(ind + 1, "last_done = done")


def _emit_raw(emit, ind: int, srcs) -> bool:
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
        if i == 0:
            emit(ind, f"raw_bound = RR[{src}]")
        else:
            emit(ind, f"_r = RR[{src}]")
            emit(ind, "if _r > raw_bound:")
            emit(ind + 1, "raw_bound = _r")
    return bool(srcs)


def _emit_kind(emit, ind: int, kind: int, f: _Facts, raw: bool,
               cfg) -> None:
    """Selection, issue and latency of one record kind; binds ``done``."""
    if kind == KIND_EXEC:
        ulist, count, latency, occupancy = f.unit
        at = _emit_select(emit, ind, ulist, count)
        _emit_issue(emit, ind, raw, "st_unit", cfg)
        if occupancy == latency:
            emit(ind, f"done = {ulist}[{at}] = issue + {latency}")
        else:
            emit(ind, f"{ulist}[{at}] = issue + {occupancy}")
            emit(ind, f"done = issue + {latency}")
    elif kind == KIND_BRANCH:
        at = _emit_select(emit, ind, "UL_simple", cfg.units["simple"][0])
        _emit_issue(emit, ind, raw, "st_unit", cfg)
        emit(ind, f"done = UL_simple[{at}] = issue + 1")
        emit(ind, f"_inf = {f.info}")
        emit(ind, '_tk = _inf["taken"] if _inf is not None else False')
        emit(ind, f"_ok = GU({f.pc}, _tk)")
        emit(ind, "if _tk:")
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
        at = _emit_select(emit, ind, ports, count)
        _emit_issue(emit, ind, raw, "st_mem", cfg)
        emit(ind, f"_inf = {f.info}")
        emit(ind, '_a = _inf["mem_addr"] if _inf is not None else None')
        if load:
            emit(ind, f"done = issue + DL({f.pc}, _a or 0)")
            emit(ind, f"{ports}[{at}] = issue + 1")
        else:
            emit(ind, f"DL({f.pc}, _a or 0)")
            # the store buffer hides the rest
            emit(ind, f"done = {ports}[{at}] = issue + 1")


def _emit_select(emit, ind: int, lst: str, count) -> str:
    """Bind ``bound`` to the lowest-ready entry of ``lst`` (ties to the
    lowest index, as ``min`` resolves them) and return its index
    expression.  ``count`` is ``len(lst)``, or the local holding it."""
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


def _emit_enter(emit, ind: int) -> None:
    for local, attr in _SCALARS:
        emit(ind, f"{local} = C.{attr}")
    for local, key in _STALLS:
        emit(ind, f'{local} = ST["{key}"]')
    emit(ind, "n_mispredicts = 0")


def _emit_leave(emit, ind: int) -> None:
    for local, attr in _SCALARS:
        emit(ind, f"C.{attr} = {local}")
    for local, key in _STALLS:
        emit(ind, f'ST["{key}"] = {local}')
    emit(ind, "SS.mispredicts += n_mispredicts")
    emit(ind, "SS.cycles = last_done")


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


def _applier(core, classes, label, body, **extra):
    """Compile an applier ``fn(records)``: ``body(emit)`` writes the
    ``try`` block, which consumes ``records`` from ``pos``, counts
    ``kc_<class>`` and returns the position of the first unconsumed
    record (``None``: all consumed).  ``extra`` binds further names."""
    params = [f"{name}={expr}" for name, expr in _RESOURCES]
    params += [f'UL_{klass}=C._units["{klass}"]' for klass in classes
               if klass not in _CLASS_KIND and klass != "simple"]
    params += [f"{key}={key}" for key in extra]
    emit = _Source()
    emit(0, f"def _applier(records, C=C, {', '.join(params)}):")
    _emit_enter(emit, 1)
    for klass in classes:
        emit(1, f"kc_{klass} = 0")
    emit(1, "pos = 0")
    emit(1, "n = len(records)")
    emit(1, "try:")
    body(emit)
    emit(1, "finally:")
    _emit_leave(emit, 2)
    for klass in classes:
        emit(2, f"if kc_{klass}:")
        emit(3, f'SS.by_class["{klass}"] = '
                f'SS.by_class.get("{klass}", 0) + kc_{klass}')
    return define(emit.text(), "_applier", {"C": core, **extra}, label)


def _emit_counts(emit, ind: int, klasses) -> None:
    for klass in dict.fromkeys(klasses):
        emit(ind, f"kc_{klass} += {klasses.count(klass)}")


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
    # Bounds of ``done - issue`` per instruction (a load's upper bound
    # is open).  Issue is in order, so within a whole arm an instruction
    # need not update ``last_done`` when a later one's lower bound
    # reaches its upper bound.
    load_lb = min(cfg.l1d.hit_latency, cfg.l2.hit_latency,
                  cfg.memory_latency)
    bounds = []
    for _pc, _line, kind, klass, *_rest in profile:
        if kind == KIND_EXEC:
            bounds.append((cfg.units[klass][1],) * 2)
        else:
            bounds.append((load_lb, None) if kind == KIND_LOAD else (1, 1))
    leaders = {0}
    for k, ins in enumerate(unit.instrs):
        if profile[k][2] == KIND_BRANCH:
            if k + 1 < size:
                leaders.add(k + 1)
            if ins.target is not None and 0 <= ins.target < size:
                leaders.add(ins.target)
    order = sorted(leaders) + [size]

    def body(emit):
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


def compile_periodic(ann, period: int, core):
    """Generate the applier of a synthetic annotation whose records
    repeat every ``period`` records in all but their PC, I-line and
    taken target (the TOL overhead mix): the repeating facts are
    literals, those three are read from ``ann.recs``.  ``fn(records)``
    applies a batch whose record ``i`` has index ``i``, whole."""
    cfg = core.config
    slots = ann.recs[:period]
    klasses = [ann.class_names[ki] for _pc, _line, _kind, ki, *_rest
               in slots]

    def body(emit):
        emit(2, "while True:")
        for j, (_pc, _line, kind, _ki, dst, srcs, _ulist, _ext) in \
                enumerate(slots):
            emit(3, "if pos == n:")
            emit(4, "break")
            emit(3, "rec = R[pos]")
            _emit_step(emit, 3, _Facts(
                "rec[0]", "rec[1]", True, kind, srcs, dst,
                _exec_facts(kind, klasses[j], cfg), "rec[7]",
                "records[pos][1]", True), cfg)
            emit(3, f"kc_{klasses[j]} += 1")
            emit(3, "pos += 1")

    return _applier(core, list(dict.fromkeys(klasses)),
                    "<timing-periodic>", body, R=ann.recs)
