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
  closure (specialized on opcodes and operands, temps resolved to locals)
  that the interpreter caches per decode address.  The closure returns the
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

import math
from typing import Dict, List, Optional, Tuple

from repro.guest.isa import u32
from repro.guest.memory import PagedMemory
from repro.guest.state import GuestState
from repro.host.isa import IR_HOST_OPS, OP_NS, VALUE_OPS, evaluator
from repro.tol.ir import (
    Const, FTmp, Flag, GFReg, GReg, GVReg, IRInstr, Tmp, VTmp,
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
# Closure compilation (the hot-loop fast path).  Value ops format their
# row's expression over the operand expressions, which are pure (a local,
# a list index or a literal).
# ---------------------------------------------------------------------------


class _Unsupported(Exception):
    """Op list contains something compile_ops does not handle."""


#: Shared exec namespace for compiled closures (copied per compilation).
_COMPILE_NS = dict(
    OP_NS, IRAssertFailure=IRAssertFailure, FALLTHROUGH=FALLTHROUGH,
    JUMP=JUMP, EXIT=EXIT)


def _operand_expr(operand):
    """Python expression reading ``operand`` (mirrors eval_ops.read)."""
    if isinstance(operand, Tmp):
        return f"t{operand.index}"
    if isinstance(operand, GReg):
        return f"gpr[{operand.index}]"
    if isinstance(operand, Flag):
        return f"flags[{operand.index}]"
    if isinstance(operand, Const):
        value = operand.value
        if isinstance(value, float) and not math.isfinite(value):
            raise _Unsupported("non-finite float constant")
        return repr(value)
    if isinstance(operand, FTmp):
        return f"ft{operand.index}"
    if isinstance(operand, GFReg):
        return f"fpr[{operand.index}]"
    if isinstance(operand, VTmp):
        return f"vt{operand.index}"
    if isinstance(operand, GVReg):
        return f"vr[{operand.index}]"
    raise _Unsupported(f"unreadable operand {operand!r}")


def _write_stmt(operand, expr):
    """Assignment statement writing ``expr`` (mirrors eval_ops.write)."""
    if isinstance(operand, (Tmp, FTmp, VTmp)):
        return f"{_operand_expr(operand)} = {expr}"
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


def _addr_expr(instr):
    base = _operand_expr(instr.srcs[0])
    if instr.imm:
        return f"(({base}) + {instr.imm}) & 0xFFFFFFFF"
    return f"({base}) & 0xFFFFFFFF"


def _compile_stmts(ops):
    """Translate an IR op list into a list of Python statements."""
    stmts = []
    for k, instr in enumerate(ops):
        op = instr.op
        row = _ROWS.get(op)
        if row is not None:
            files, template = VALUE_OPS[row]
            exprs = [_operand_expr(s) for s in instr.srcs]
            if len(exprs) != len(files) - 1:
                raise _Unsupported(f"bad arity for {op!r}")
            expr = template.format(a=exprs[0], b=exprs[-1])
            stmts.append(_write_stmt(instr.dst, expr))
        elif op == "ld32":
            stmts.append(_write_stmt(
                instr.dst, f"memory.read_u32({_addr_expr(instr)})"))
        elif op == "st32":
            value = _operand_expr(instr.srcs[1])
            stmts.append(f"memory.write_u32({_addr_expr(instr)},"
                         f" ({value}) & 0xFFFFFFFF)")
        elif op == "ldf":
            stmts.append(_write_stmt(
                instr.dst, f"memory.read_f64({_addr_expr(instr)})"))
        elif op == "stf":
            value = _operand_expr(instr.srcs[1])
            stmts.append(f"memory.write_f64({_addr_expr(instr)},"
                         f" float({value}))")
        elif op == "ldv":
            stmts.append(_write_stmt(
                instr.dst, f"memory.read_vec({_addr_expr(instr)})"))
        elif op == "stv":
            value = _operand_expr(instr.srcs[1])
            stmts.append(f"memory.write_vec({_addr_expr(instr)}, {value})")
        elif op in ("br_true", "br_false"):
            cond = _operand_expr(instr.srcs[0])
            taken = instr.attrs["taken_pc"]
            fall = instr.attrs["fall_pc"]
            if op == "br_true":
                stmts.append(f"return (JUMP, {taken} if ({cond})"
                             f" else {fall})")
            else:
                stmts.append(f"return (JUMP, {fall} if ({cond})"
                             f" else {taken})")
        elif op == "jmp":
            stmts.append(f"return (JUMP, {instr.attrs['target_pc']})")
        elif op == "jmp_ind":
            target = _operand_expr(instr.srcs[0])
            stmts.append(f"return (JUMP, ({target}) & 0xFFFFFFFF)")
        elif op == "assert_true":
            cond = _operand_expr(instr.srcs[0])
            stmts.append(f"if not ({cond}):"
                         f" raise IRAssertFailure(_OPS[{k}])")
        elif op == "assert_false":
            cond = _operand_expr(instr.srcs[0])
            stmts.append(f"if ({cond}): raise IRAssertFailure(_OPS[{k}])")
        elif op in ("side_exit_true", "side_exit_false", "guard_exit_false"):
            cond = _operand_expr(instr.srcs[0])
            target = instr.attrs["target_pc"]
            if op == "side_exit_true":
                stmts.append(f"if ({cond}): return (EXIT, {target})")
            else:
                stmts.append(f"if not ({cond}): return (EXIT, {target})")
        elif op == "exit":
            stmts.append(f"return (EXIT, {instr.attrs['next_pc']})")
        elif op == "exit_ind":
            target = _operand_expr(instr.srcs[0])
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
    accesses become direct list indexing.
    """
    try:
        stmts = _compile_stmts(ops)
    except _Unsupported:
        return None
    body = "\n".join(f"    {s}" for s in stmts)
    prologue = []
    if "gpr[" in body:
        prologue.append("    gpr = state.gpr")
    if "flags[" in body:
        prologue.append("    flags = state.flags")
    if "fpr[" in body:
        prologue.append("    fpr = state.fpr")
    if "vr[" in body:
        prologue.append("    vr = state.vr")
    src = ("def _ir_compiled(state, memory):\n"
           + "\n".join(prologue + [body]))
    namespace = dict(_COMPILE_NS)
    namespace["_OPS"] = ops
    exec(compile(src, "<ir_fastpath>", "exec"), namespace)
    return namespace["_ir_compiled"]
