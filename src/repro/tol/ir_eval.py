"""IR evaluator.

Three users:

1. The TOL interpreter (IM) executes guest instructions by evaluating their
   IR expansion directly against the emulated guest state — so the decoder
   frontend is exercised (and validated against the authoritative emulator)
   from the very first interpreted instruction.
2. Differential tests evaluate a region's IR before and after an
   optimization pass to prove the pass semantics-preserving.
3. The debug toolchain replays a region at the IR level to pinpoint the
   stage at which a translation bug appeared (paper §V-D, debug toolchain).

Two execution strategies share one contract:

- :func:`eval_ops` walks the op list interpretively (reference semantics);
- :func:`compile_ops` translates an op list once into a single Python
  closure (specialized on opcodes and register operands, temps resolved
  to locals) that the interpreter caches per decode address; the closure
  is an instance of a shape that holds the literals as parameters, found
  by the op list's structural key before any source is written, so each
  shape is written and compiled once per process.  The closure returns the
  same ``(outcome, pc)`` pairs as :func:`eval_ops` and preserves the
  memory-before-architectural-write ordering, so page faults mid-closure
  leave architectural state untouched exactly like the interpretive path.
  Ops the compiler does not know are reported by returning ``None`` and the
  caller falls back to :func:`eval_ops`.

Both take each value op's semantics from the op table in
:mod:`repro.host.isa`: an IR op shares the row of the host op it lowers
to, so the IR and the host code it becomes cannot drift apart.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.guest.isa import u32
from repro.guest.memory import PagedMemory
from repro.guest.state import GuestState
from repro.host.isa import (
    IN_PAGE_WIDTHS, IR_HOST_OPS, OP_NS, VALUE_OPS, evaluator,
)
from repro.pycode import in_page, shape
from repro.tol.ir import (
    Const, FTmp, Flag, GFReg, GReg, GVReg, IRInstr, IROp, Tmp, VTmp,
)


class IRAssertFailure(Exception):
    """An assert_true/assert_false condition failed during IR evaluation."""

    def __init__(self, instr: IRInstr):
        super().__init__(f"assert failed: {instr!r}")
        self.instr = instr


class IREvalError(Exception):
    """Malformed IR reached the evaluator."""


#: Control outcomes returned by :func:`eval_ops`.
FALLTHROUGH = "fallthrough"
JUMP = "jump"          # (JUMP, target_pc)
EXIT = "exit"          # (EXIT, next_pc)


def eval_ops(ops: List[IRInstr], state: GuestState, memory: PagedMemory,
             env: Optional[Dict] = None) -> Tuple[str, Optional[int]]:
    """Evaluate a straight-line IR sequence against guest state.

    Returns a (outcome, pc) pair; ``pc`` is None for FALLTHROUGH.  ``env``
    holds temp values (a fresh one is created if not given).  Page faults
    propagate to the caller.
    """
    if env is None:
        env = {}

    def read(operand):
        if isinstance(operand, Tmp):
            return env[operand]
        if isinstance(operand, GReg):
            return state.gpr[operand.index]
        if isinstance(operand, Flag):
            return state.flags[operand.index]
        if isinstance(operand, Const):
            return operand.value
        if isinstance(operand, FTmp):
            return env[operand]
        if isinstance(operand, GFReg):
            return state.fpr[operand.index]
        if isinstance(operand, VTmp):
            return env[operand]
        if isinstance(operand, GVReg):
            return state.vr[operand.index]
        raise IREvalError(f"unreadable operand {operand!r}")

    def write(operand, value):
        if isinstance(operand, (Tmp, FTmp, VTmp)):
            env[operand] = value
        elif isinstance(operand, GReg):
            state.gpr[operand.index] = u32(value)
        elif isinstance(operand, Flag):
            state.flags[operand.index] = 1 if value else 0
        elif isinstance(operand, GFReg):
            state.fpr[operand.index] = float(value)
        elif isinstance(operand, GVReg):
            state.vr[operand.index] = [u32(v) for v in value]
        else:
            raise IREvalError(f"unwritable operand {operand!r}")

    for instr in ops:
        op = instr.op
        fn = _EVAL.get(op)
        if fn is not None:
            srcs = [read(s) for s in instr.srcs]
            write(instr.dst, fn(*srcs))
            continue
        if op == "ld32":
            write(instr.dst,
                  memory.read_u32(u32(read(instr.srcs[0]) + instr.imm)))
        elif op == "st32":
            memory.write_u32(u32(read(instr.srcs[0]) + instr.imm),
                             u32(read(instr.srcs[1])))
        elif op == "ldf":
            write(instr.dst,
                  memory.read_f64(u32(read(instr.srcs[0]) + instr.imm)))
        elif op == "stf":
            memory.write_f64(u32(read(instr.srcs[0]) + instr.imm),
                             float(read(instr.srcs[1])))
        elif op == "ldv":
            write(instr.dst,
                  memory.read_vec(u32(read(instr.srcs[0]) + instr.imm)))
        elif op == "stv":
            memory.write_vec(u32(read(instr.srcs[0]) + instr.imm),
                             read(instr.srcs[1]))
        elif op in ("br_true", "br_false"):
            cond = read(instr.srcs[0])
            taken = bool(cond) if op == "br_true" else not cond
            return (JUMP, instr.attrs["taken_pc"] if taken
                    else instr.attrs["fall_pc"])
        elif op == "jmp":
            return (JUMP, instr.attrs["target_pc"])
        elif op == "jmp_ind":
            return (JUMP, u32(read(instr.srcs[0])))
        elif op == "assert_true":
            if not read(instr.srcs[0]):
                raise IRAssertFailure(instr)
        elif op == "assert_false":
            if read(instr.srcs[0]):
                raise IRAssertFailure(instr)
        elif op in ("side_exit_true", "side_exit_false", "guard_exit_false"):
            cond = read(instr.srcs[0])
            trigger = bool(cond) if op == "side_exit_true" else not cond
            if trigger:
                return (EXIT, instr.attrs["target_pc"])
        elif op == "exit":
            return (EXIT, instr.attrs["next_pc"])
        elif op == "exit_ind":
            return (EXIT, u32(read(instr.srcs[0])))
        else:
            raise IREvalError(f"unhandled IR op {op!r}")
    return (FALLTHROUGH, None)


#: IR value op -> the op-table row it shares with its host op (fsin and
#: fcos, which codegen expands in software, have rows of their own).
_ROWS = {op: IR_HOST_OPS.get(op, op) for op in (*IR_HOST_OPS, "fsin", "fcos")}

#: IR value op -> its semantics as a function (also drives constfold).
_EVAL = {op: evaluator(row) for op, row in _ROWS.items()}


# ---------------------------------------------------------------------------
# Closure compilation (the hot-loop fast path).  The closure is an instance
# of a shape (:mod:`repro.pycode`): :func:`_describe` splits an op list into
# the shape's key and the factory's arguments, and :func:`_source` writes
# the factory from the key alone, only when no factory is memoized under
# it.  Value ops format their row's expression over the operand
# expressions, which are atoms (a local, a parameter or a list index).
# ---------------------------------------------------------------------------


class _Unsupported(Exception):
    """Op list contains something compile_ops does not handle."""


#: Globals of the compiled closures.
_COMPILE_NS = dict(
    OP_NS, IRAssertFailure=IRAssertFailure, FALLTHROUGH=FALLTHROUGH,
    JUMP=JUMP, EXIT=EXIT)

#: IR value op -> its number of sources.
_ARITY = {op: len(VALUE_OPS[row][0]) - 1 for op, row in _ROWS.items()}

#: Register operand class -> the expression reading it (mirrors
#: eval_ops.read) and the statement writing it (mirrors eval_ops.write),
#: over its index (a temp's slot: temps are locals).
_READ = {Tmp: "t{}", FTmp: "ft{}", VTmp: "vt{}", GReg: "gpr[{}]",
         Flag: "flags[{}]", GFReg: "fpr[{}]", GVReg: "vr[{}]"}
_WRITE = {Tmp: "t{} = {}", FTmp: "ft{} = {}", VTmp: "vt{} = {}",
          GReg: "gpr[{}] = ({}) & 0xFFFFFFFF",
          Flag: "flags[{}] = 1 if ({}) else 0",
          GFReg: "fpr[{}] = float({})",
          GVReg: "vr[{}] = [_v & 0xFFFFFFFF for _v in ({})]"}
_TEMPS = frozenset({Tmp, FTmp, VTmp})

#: IR load/store -> (its access's width in ``MEMORY_OPS``, the suffix
#: of the memory's methods).
_IR_MEMORY = {"ld32": ("", "u32"), "st32": ("", "u32"),
              "ldf": ("F", "f64"), "stf": ("F", "f64"),
              "ldv": ("V", "vec"), "stv": ("V", "vec")}

_SIDE_EXITS = ("side_exit_true", "side_exit_false", "guard_exit_false")


def _describe(ops):
    """``(structure, values)`` of an op list: what its closure's source
    depends on, and the factory's arguments.

    Each op becomes a tuple of its name and its fields in the order the
    closure reads them, a destination last.  A register field is the
    operand itself; a temp's is ``(class, slot)``, slots numbered in
    first-use order; a literal field is the index of its parameter in
    ``values``; a load's or store's displacement field is ``None`` when
    it is 0.  This walk alone orders the parameters.  Raises
    _Unsupported for an op or operand the closure compiler cannot
    take."""
    structure, values, temps = [], [], {}

    def param(value):
        values.append(value)
        return len(values) - 1

    def field(operand):
        kind = type(operand)
        if kind is Const:
            values.append(operand.value)
            return len(values) - 1
        if kind in _TEMPS:
            slot = temps.get(operand)
            if slot is None:
                slot = temps[operand] = (kind, len(temps))
            return slot
        if kind in _READ:
            return operand
        raise _Unsupported(f"unreadable operand {operand!r}")

    for instr in ops:
        op = instr.op
        if type(instr.dst) is Const:
            raise _Unsupported(f"unwritable operand {instr.dst!r}")
        if op in _ARITY:
            if len(instr.srcs) != _ARITY[op]:
                raise _Unsupported(f"bad arity for {op!r}")
            structure.append((op, *map(field, instr.srcs), field(instr.dst)))
        elif op in _IR_MEMORY:
            structure.append((
                op, field(instr.srcs[0]),
                param(instr.imm) if instr.imm else None,
                field(instr.srcs[1] if op in IROp.STORE else instr.dst)))
        elif op in ("br_true", "br_false"):
            structure.append((op, field(instr.srcs[0]),
                              param(instr.attrs["taken_pc"]),
                              param(instr.attrs["fall_pc"])))
        elif op in ("assert_true", "assert_false"):
            structure.append((op, field(instr.srcs[0]), param(instr)))
        elif op in _SIDE_EXITS:
            structure.append((op, field(instr.srcs[0]),
                              param(instr.attrs["target_pc"])))
        elif op == "jmp":
            structure.append((op, param(instr.attrs["target_pc"])))
        elif op == "exit":
            structure.append((op, param(instr.attrs["next_pc"])))
        elif op in ("jmp_ind", "exit_ind"):
            structure.append((op, field(instr.srcs[0])))
        else:
            raise _Unsupported(f"unhandled IR op {op!r}")
    return structure, values


def _register(field):
    """``(class, index)`` of a register field; a temp's index is its
    slot."""
    return field if type(field) is tuple else (type(field), field.index)


def _text(field):
    """Python expression of a register or literal field."""
    if type(field) is int:
        return f"K{field}"
    kind, index = _register(field)
    return _READ[kind].format(index)


def _write_stmt(field, expr):
    """Assignment statement writing ``expr`` to register ``field``."""
    kind, index = _register(field)
    return _WRITE[kind].format(index, expr)


def _memory_stmts(op, base, disp, last):
    """A load into ``last`` or a store of ``last`` as :func:`eval_ops`
    makes it through the memory's methods; inside a present page, for
    the widths of ``IN_PAGE_WIDTHS``, straight on the page's bytes
    (:func:`repro.pycode.in_page`)."""
    width, method = _IR_MEMORY[op]
    in_page_width = IN_PAGE_WIDTHS.get(width)
    address = (f"(({_text(base)}) + K{disp}) & 0xFFFFFFFF"
               if disp is not None else f"({_text(base)}) & 0xFFFFFFFF")
    stmts = [f"_a = {address}"]
    if op in IROp.LOAD:
        slow = [_write_stmt(last, f"memory.read_{method}(_a)")]
        if in_page_width is None:
            return stmts + slow
        size, unpack, _, _ = in_page_width
        fast = [_write_stmt(last, f"{unpack}(_pg, _po)[0]")]
        return stmts + in_page("_a", size, fast, slow)
    value = _text(last)
    if in_page_width is None:
        return stmts + [f"memory.write_{method}(_a, {value})"]
    size, _, pack, packed = in_page_width
    stored = packed.format(value)
    return stmts + in_page(
        "_a", size, [f"{pack}(_pg, _po, {stored})", "DIRTYA(_a >> 12)"],
        [f"memory.write_{method}(_a, {stored})"])


def _source(structure):
    """The source of the factory ``_mk(K0, K1, ...)`` of the closure of
    the op lists whose structure (:func:`_describe`) is ``structure``."""
    stmts = []
    for op, *fields in structure:
        if op in _ARITY:
            *srcs, dst = fields
            exprs = [_text(src) for src in srcs]
            template = VALUE_OPS[_ROWS[op]][1]
            stmts.append(_write_stmt(
                dst, template.format(a=exprs[0], b=exprs[-1])))
        elif op in _IR_MEMORY:
            stmts += _memory_stmts(op, *fields)
        elif op in ("br_true", "br_false"):
            cond, taken, fall = map(_text, fields)
            if op == "br_false":
                taken, fall = fall, taken
            stmts.append(f"return (JUMP, {taken} if ({cond}) else {fall})")
        elif op in ("assert_true", "assert_false"):
            cond, instr = map(_text, fields)
            test = f"not ({cond})" if op == "assert_true" else f"({cond})"
            stmts.append(f"if {test}: raise IRAssertFailure({instr})")
        elif op in _SIDE_EXITS:
            cond, target = map(_text, fields)
            test = f"({cond})" if op == "side_exit_true" else f"not ({cond})"
            stmts.append(f"if {test}: return (EXIT, {target})")
        else:  # jmp, exit and their indirect forms
            target = _text(fields[0])
            if op.endswith("_ind"):
                target = f"({target}) & 0xFFFFFFFF"
            outcome = "JUMP" if op.startswith("jmp") else "EXIT"
            stmts.append(f"return ({outcome}, {target})")
    stmts.append("return (FALLTHROUGH, None)")
    body = "\n".join(stmts)
    prologue = [f"{name} = state.{name}"
                for name in ("gpr", "flags", "fpr", "vr")
                if f"{name}[" in body]
    if "GP.get(" in body:
        prologue.append("GP = memory._pages")
    if "DIRTYA(" in body:
        prologue.append("DIRTYA = memory.dirty.add")
    count = sum(type(field) is int for entry in structure for field in entry)
    params = ", ".join(f"K{k}" for k in range(count))
    return (f"def _mk({params}):\n"
            "    def _ir_compiled(state, memory):\n"
            + "".join(f"        {line}\n" for line in prologue + stmts)
            + "    return _ir_compiled\n")


def compile_ops(ops: List[IRInstr]):
    """Compile a straight-line IR sequence into one Python closure.

    Returns ``fn(state, memory) -> (outcome, pc)`` with semantics identical
    to :func:`eval_ops` called without an ``env``, or ``None`` when the
    sequence contains an op the compiler does not support (the caller falls
    back to :func:`eval_ops`).  Temps become function locals; guest state
    accesses become direct list indexing.  The closure is an instance of
    its shape, found by the op list's structure before any source is
    written, and compiled once per process.
    """
    try:
        structure, values = _describe(ops)
    except _Unsupported:
        return None
    return shape(("ir", *structure), lambda: _source(structure),
                 _COMPILE_NS, "<ir_fastpath>")(*values)
