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
  is an instance of a shape that holds the literals as parameters, and
  each shape compiles once per process.  The closure returns the
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
from repro.pycode import Shape, in_page
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
# Closure compilation (the hot-loop fast path).  The closure is written as
# a shape (:mod:`repro.pycode`): temps are locals numbered in first-use
# order, and every literal (a constant, a displacement, a branch or exit
# PC, and the IR instruction an assert reports) is a parameter of the
# factory that makes it.  Value ops format their row's expression over
# the operand expressions, which are atoms (a local, a parameter or a
# list index).
# ---------------------------------------------------------------------------


class _Unsupported(Exception):
    """Op list contains something compile_ops does not handle."""


#: Globals of the compiled closures.
_COMPILE_NS = dict(
    OP_NS, IRAssertFailure=IRAssertFailure, FALLTHROUGH=FALLTHROUGH,
    JUMP=JUMP, EXIT=EXIT)


def _operand_expr(operand, shape):
    """Python expression reading ``operand`` (mirrors eval_ops.read)."""
    if isinstance(operand, Tmp):
        return shape.temp("t", operand)
    if isinstance(operand, GReg):
        return f"gpr[{operand.index}]"
    if isinstance(operand, Flag):
        return f"flags[{operand.index}]"
    if isinstance(operand, Const):
        return shape.param(operand.value)
    if isinstance(operand, FTmp):
        return shape.temp("ft", operand)
    if isinstance(operand, GFReg):
        return f"fpr[{operand.index}]"
    if isinstance(operand, VTmp):
        return shape.temp("vt", operand)
    if isinstance(operand, GVReg):
        return f"vr[{operand.index}]"
    raise _Unsupported(f"unreadable operand {operand!r}")


def _write_stmt(operand, expr, shape):
    """Assignment statement writing ``expr`` (mirrors eval_ops.write)."""
    if isinstance(operand, (Tmp, FTmp, VTmp)):
        return f"{_operand_expr(operand, shape)} = {expr}"
    if isinstance(operand, GReg):
        return f"gpr[{operand.index}] = ({expr}) & 0xFFFFFFFF"
    if isinstance(operand, Flag):
        return f"flags[{operand.index}] = 1 if ({expr}) else 0"
    if isinstance(operand, GFReg):
        return f"fpr[{operand.index}] = float({expr})"
    if isinstance(operand, GVReg):
        return (f"vr[{operand.index}] ="
                f" [_v & 0xFFFFFFFF for _v in ({expr})]")
    raise _Unsupported(f"unwritable operand {operand!r}")


def _addr_expr(instr, shape):
    base = _operand_expr(instr.srcs[0], shape)
    if instr.imm:
        return f"(({base}) + {shape.param(instr.imm)}) & 0xFFFFFFFF"
    return f"({base}) & 0xFFFFFFFF"


#: IR load/store -> (its access's width in ``MEMORY_OPS``, the suffix
#: of the memory's methods).
_IR_MEMORY = {"ld32": ("", "u32"), "st32": ("", "u32"),
              "ldf": ("F", "f64"), "stf": ("F", "f64"),
              "ldv": ("V", "vec"), "stv": ("V", "vec")}


def _memory_stmts(instr, shape):
    """A load or store as :func:`eval_ops` makes it through the memory's
    methods; inside a present page, for the widths of ``IN_PAGE_WIDTHS``,
    straight on the page's bytes (:func:`repro.pycode.in_page`)."""
    width, method = _IR_MEMORY[instr.op]
    in_page_width = IN_PAGE_WIDTHS.get(width)
    stmts = [f"_a = {_addr_expr(instr, shape)}"]
    if instr.op in IROp.LOAD:
        slow = [_write_stmt(instr.dst, f"memory.read_{method}(_a)", shape)]
        if in_page_width is None:
            return stmts + slow
        size, unpack, _, _ = in_page_width
        fast = [_write_stmt(instr.dst, f"{unpack}(_pg, _po)[0]", shape)]
        return stmts + in_page("_a", size, fast, slow)
    value = _operand_expr(instr.srcs[1], shape)
    if in_page_width is None:
        return stmts + [f"memory.write_{method}(_a, {value})"]
    size, _, pack, packed = in_page_width
    stored = packed.format(value)
    return stmts + in_page(
        "_a", size, [f"{pack}(_pg, _po, {stored})", "DIRTYA(_a >> 12)"],
        [f"memory.write_{method}(_a, {stored})"])


def _compile_stmts(ops, shape):
    """Translate an IR op list into a list of Python statements."""
    stmts = []
    for instr in ops:
        op = instr.op
        row = _ROWS.get(op)
        if row is not None:
            files, template = VALUE_OPS[row]
            exprs = [_operand_expr(s, shape) for s in instr.srcs]
            if len(exprs) != len(files) - 1:
                raise _Unsupported(f"bad arity for {op!r}")
            expr = template.format(a=exprs[0], b=exprs[-1])
            stmts.append(_write_stmt(instr.dst, expr, shape))
        elif op in _IR_MEMORY:
            stmts.extend(_memory_stmts(instr, shape))
        elif op in ("br_true", "br_false"):
            cond = _operand_expr(instr.srcs[0], shape)
            taken = shape.param(instr.attrs["taken_pc"])
            fall = shape.param(instr.attrs["fall_pc"])
            if op == "br_true":
                stmts.append(f"return (JUMP, {taken} if ({cond})"
                             f" else {fall})")
            else:
                stmts.append(f"return (JUMP, {fall} if ({cond})"
                             f" else {taken})")
        elif op == "jmp":
            stmts.append(
                f"return (JUMP, {shape.param(instr.attrs['target_pc'])})")
        elif op == "jmp_ind":
            target = _operand_expr(instr.srcs[0], shape)
            stmts.append(f"return (JUMP, ({target}) & 0xFFFFFFFF)")
        elif op == "assert_true":
            cond = _operand_expr(instr.srcs[0], shape)
            stmts.append(f"if not ({cond}):"
                         f" raise IRAssertFailure({shape.param(instr)})")
        elif op == "assert_false":
            cond = _operand_expr(instr.srcs[0], shape)
            stmts.append(f"if ({cond}):"
                         f" raise IRAssertFailure({shape.param(instr)})")
        elif op in ("side_exit_true", "side_exit_false", "guard_exit_false"):
            cond = _operand_expr(instr.srcs[0], shape)
            target = shape.param(instr.attrs["target_pc"])
            if op == "side_exit_true":
                stmts.append(f"if ({cond}): return (EXIT, {target})")
            else:
                stmts.append(f"if not ({cond}): return (EXIT, {target})")
        elif op == "exit":
            stmts.append(
                f"return (EXIT, {shape.param(instr.attrs['next_pc'])})")
        elif op == "exit_ind":
            target = _operand_expr(instr.srcs[0], shape)
            stmts.append(f"return (EXIT, ({target}) & 0xFFFFFFFF)")
        else:
            raise _Unsupported(f"unhandled IR op {op!r}")
    stmts.append("return (FALLTHROUGH, None)")
    return stmts


def compile_ops(ops: List[IRInstr]):
    """Compile a straight-line IR sequence into one Python closure.

    Returns ``fn(state, memory) -> (outcome, pc)`` with semantics identical
    to :func:`eval_ops` called without an ``env``, or ``None`` when the
    sequence contains an op the compiler does not support (the caller falls
    back to :func:`eval_ops`).  Temps become function locals; guest state
    accesses become direct list indexing.  The closure is an instance of
    its shape, which is compiled once per process.
    """
    shape = Shape()
    try:
        stmts = _compile_stmts(ops, shape)
    except _Unsupported:
        return None
    body = "\n".join(stmts)
    prologue = [f"{name} = state.{name}"
                for name in ("gpr", "flags", "fpr", "vr")
                if f"{name}[" in body]
    if "GP.get(" in body:
        prologue.append("GP = memory._pages")
    if "DIRTYA(" in body:
        prologue.append("DIRTYA = memory.dirty.add")
    return shape.instance("_ir_compiled(state, memory)", prologue + stmts,
                          _COMPILE_NS, "<ir_fastpath>")
