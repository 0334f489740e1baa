"""Whole-unit programs: every translated unit runs as one generated function.

A unit compiles to its program at its first entry: value and memory ops
become the statements the op table in :mod:`repro.host.isa` gives them,
control ops the same templates the host emulator's reference loop is
rendered from, and the per-instruction dispatch disappears.  Control
flow becomes a flat ``while``-dispatcher over branch-leader arms; a unit
whose exit chains back to itself loops inside its program, and every
other chain returns to the driver, which enters the linked unit's own
program.

A program is an instance of a *shape* (:mod:`repro.pycode`): the ops,
their registers and branch targets are the structure, and everything
else -- immediates, alias-table sequence numbers, guest PCs, guest
instruction counts, the exits' meta dicts (whose links the TOL patches
at run time) and the unit itself -- are parameters of the shape's
factory.  The shape is found by its structural key before any source is
written, so the units that share one compile and write it once.

The contract is the one the reference loop (``host_fastpath=False``)
defines: **only simulator wall-clock changes**.  Committed and wasted
host instructions, per-mode retirement, alias-table contents and serial
search charges, IBTC hits and misses, undo-log rollback effects, trace
records and pause boundaries are produced exactly as it produces them;
``tests/test_control_ops_golden.py`` and ``tests/test_fastpath.py`` hold
the two forms to bit-identity.

A unit the generator cannot replicate (unknown op, a branch target on a
non-branch op or out of range, missing metadata, an immediate its op
cannot take) makes ``compile_direct`` return ``None``, and the unit runs
on the reference loop.
"""

from __future__ import annotations

from repro.guest.memory import PageFault
from repro.host.emulator import AssertFail, HostEmulationError, SpecFail
from repro.host.isa import (
    FELL_OFF_ERROR, FUEL_ERROR, HOST_VALUE_OPS, MEMORY_OPS, OP_NS,
    REGFILES, TRACE_BATCH_CAP, ControlHooks, HostOp, control_lines,
    enter_lines, evaluator, host_factory, indent, memory_lines,
    value_stmt,
)
from repro.pycode import shape


#: Hard cap on unit size (generated source grows linearly with it).
_MAX_INSTRS = 10_000

_BRANCH_OPS = ("beqz", "bnez", "j")
#: Ops that end an arm (control never falls through them).
_TERMINATORS = frozenset({"j", "exit", "exit_ind", "ibtc"})
_SPEC_OPS = frozenset(op for op, (_, size) in MEMORY_OPS.items() if size)
#: li/lif: the parameter is the folded value.
_FOLD = {"li": evaluator("li"), "lif": evaluator("lif")}
#: op -> where its parameters come from: 0 none, 1 the immediate, 2 the
#: folded immediate, 3 a memory op's (nonzero) immediate and sequence
#: number, or the meta keys of a control op.
_PARAMS = {op: ("n" in files) + (op in _FOLD)
           for op, (files, _) in HOST_VALUE_OPS.items()}
_PARAMS.update(dict.fromkeys(MEMORY_OPS, 3))
_PARAMS.update(dict.fromkeys(("beqz", "bnez", "j", "assert_z",
                              "assert_nz"), ()))
_PARAMS.update(chkpt=("guest_pc",), commit=("guest_insns",),
               exit=("next_pc", "guest_insns"), exit_ind=("guest_insns",),
               ibtc=("guest_insns",))

_NAMESPACE = dict(OP_NS, _FA=AssertFail, _FS=SpecFail, _PF=PageFault,
                  _HEE=HostEmulationError)


def _describe(ins):
    """``(structure, values)``: what of ``ins`` the program's source
    depends on, and the parameters it contributes, in a fixed order.
    Raises KeyError or TypeError for an op or operand the generator
    cannot take."""
    op = ins.op
    how = _PARAMS[op]
    if how == 0:
        return (op, ins.d, ins.a, ins.b), ()
    if how == 1:
        return (op, ins.d, ins.a), (ins.imm,)
    if how == 2:
        return (op, ins.d), (_FOLD[op](ins.imm),)
    meta = ins.meta
    if how == 3:
        imm = ins.imm
        return ((op, ins.d, ins.a, ins.b, bool(imm)),
                (imm,) * bool(imm)
                + ((meta["seq"],) if op in _SPEC_OPS else ()))
    values = tuple(meta[key] for key in how)
    return ((op, ins.a, ins.target, bool(meta.get("profile"))),
            values + (meta,) if op == "exit" else values)


class _Program(ControlHooks):
    """Writes the source of ``unit``'s program.  Instruction ``j`` has
    parameters ``names[j]``; its arm, if it leads one, is labelled
    ``j``."""

    def __init__(self, unit, traced):
        self.unit = unit
        self.traced = traced
        self.names, count = [], 0
        for ins in unit.instrs:
            n = len(_describe(ins)[1])
            self.names.append([f"K{count + k}" for k in range(n)])
            count += n
        self.params = [*(f"K{k}" for k in range(count)), "_CU"]
        ops = {ins.op for ins in unit.instrs}
        self.has_store = bool(ops & HostOp.STORE)
        self.has_spec = bool(ops & _SPEC_OPS)
        # Clobbers are unioned over the whole unit: one save/restore
        # shape whichever of its checkpoints is active.  Restoring a
        # register not written since the checkpoint rewrites its
        # checkpointed (= current) value.
        saves = sorted({(REGFILES[ins.op][0], ins.d) for ins in unit.instrs
                        if ins.d is not None and (
                            ins.op in HOST_VALUE_OPS
                            or ins.op in HostOp.LOAD)})
        refs = [f"{file.upper()}[{reg}]" for file, reg in saves]
        self.save = f"({', '.join(refs)},)" if refs else "()"
        self.restore = [f"{', '.join(refs)}, = _ck"] * bool(refs)
        self.charges = 0     # value ops not yet added to ``executed``
        self.pending = []    # their trace entries, none yet appended

    # -- hooks ---------------------------------------------------------------

    def record(self, info):
        if not self.traced:
            return []
        if info == "None":
            self.pending.append(self.index)
            return []
        return [f"TRB.append(({self.index}, {info}))"]

    def goto(self, target):
        back = self.traced and target <= self.index
        return [f"if len(TRB) > {TRACE_BATCH_CAP}:",
                "    FLUSH(U, TRB)"] * back + [f"_ip = {target}", "continue"]

    def reenter(self):
        """A chain back to this unit re-enters it in place (a traced
        program first hands over the records of the execution that
        ended, as a return to the driver would); any other leaves."""
        return ["if _x is not U:", "    break",
                *["FLUSH(U, TRB)"] * self.traced, *enter_lines(), "_ip = 0"]

    # -- emission ------------------------------------------------------------

    def _flush(self, extra=0):
        """Charge the pending value ops (+``extra``) and append their
        trace entries: one ``extend`` of a constant tuple."""
        n, self.charges = self.charges + extra, 0
        out = [f"executed += {n}"] if n else []
        if self.pending:
            run = ", ".join(f"({k}, None)" for k in self.pending)
            out.append(f"TRB.extend(({run},))")
            self.pending = []
        return out

    def source(self):
        body = ["if executed >= fuel:", f"    raise _HEE({FUEL_ERROR})"]
        instrs = self.unit.instrs
        leaders = sorted({0} | {ins.target for ins in instrs
                                if ins.target is not None})
        arms = [(start, self._arm(start, end)) for start, end
                in zip(leaders, [*leaders[1:], len(instrs)])]
        if len(arms) == 1:
            body += arms[0][1]
        for n, (label, arm) in enumerate(arms if len(arms) > 1 else ()):
            body += [f"{'elif' if n else 'if'} _ip == {label}:", *indent(arm)]
        return host_factory("_direct", "", self.params, ["U = _CU"], body,
                            self)

    def _arm(self, start, end):
        out = []
        instrs = self.unit.instrs
        for j in range(start, end):
            self.index, self.ins = j, instrs[j]
            out += self._op(self.ins, self.names[j])
            if self.ins.op in _TERMINATORS:
                return out  # anything up to the next leader is unreachable
        out += self._flush()
        if end < len(instrs):
            return out + [f"_ip = {end}", "continue"]
        return out + [f"raise _HEE({FELL_OFF_ERROR})"]

    def _op(self, ins, names):
        op = ins.op
        how = _PARAMS[op]
        if how == 3:
            imm = names[0] if ins.imm else None
            seq = names[-1] if op in _SPEC_OPS else None
            return self._flush(1) + memory_lines(
                op, ins.d, ins.a, ins.b, imm, seq) + self.record(
                    "{'mem_addr': _a}")
        if isinstance(how, tuple):
            return self._flush(1) + control_lines(op, dict(
                zip(how, names), a=ins.a, target=ins.target,
                index=self.index, meta=names[-1] if op == "exit" else None,
                profile=bool(ins.meta.get("profile"))), self)
        self.charges += 1
        self.record("None")
        if op in ("mov", "fmov") and ins.d == ins.a:
            return []  # identity move (register-allocation epilogue)
        if op in _FOLD:
            return [f"{HOST_VALUE_OPS[op][0][0].upper()}[{ins.d}] = {names[0]}"]
        stmt = value_stmt(op, ins.d, ins.a, ins.b, names[0] if names else None)
        return [stmt] if stmt else []


def compile_direct(unit, emu, traced=False, cluster=None):
    """``unit``'s program on emulator ``emu``, or ``None`` when the unit
    is not compilable (it then runs on the reference loop).

    ``traced`` programs buffer the trace records the reference loop
    would deliver and hand them to the sink at unit boundaries.
    ``cluster`` is accepted for callers written against cluster
    programs and ignored: a program runs one unit."""
    size = len(unit.instrs)
    if not 0 < size <= _MAX_INSTRS:
        return None
    structure, values = [], []
    try:
        for ins in unit.instrs:
            target = ins.target
            if target is not None and (ins.op not in _BRANCH_OPS
                                       or not 0 <= target < size):
                return None
            shape_of, given = _describe(ins)
            structure.append(shape_of)
            values += given
    except (KeyError, TypeError):
        return None
    make = shape(("direct", traced, *structure),
                 lambda: _Program(unit, traced).source(), _NAMESPACE,
                 f"<direct:{unit.mode}@{unit.entry_pc:#x}>")
    return make(emu, *values, unit)
