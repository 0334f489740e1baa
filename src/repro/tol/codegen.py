"""Code generator: allocated IR -> host code units.

Lowers the optimized, scheduled and register-allocated IR of a translation
region into host instructions, inserting the co-designed scaffolding:

- a ``chkpt`` at the unit entry (and implicit re-checkpoint at loop heads);
- ``commit``/``exit`` instructions carrying retired-guest-instruction counts;
- exit stubs for conditional exits (chain-patchable by the TOL);
- IBTC dispatch for indirect exits;
- software expansion of ``fsin``/``fcos`` from the architectural recipes —
  the same straight-line IEEE operations the reference emulator evaluates,
  so results are bit-identical (and Physicsbench-style code pays the
  emulation cost the paper reports).
"""

from __future__ import annotations

from typing import Dict, List

from repro.guest.semantics import TRIG_RECIPES
from repro.host.isa import (
    VALUE_OPS, CodeUnit, HostInstr, IR_HOST_OPS as _DIRECT,
    IR_IMM_FORMS as _IMM_FORM,
)
from repro.tol.ir import Const, FTmp, IRInstr, Tmp, VTmp, is_arch
from repro.tol.regalloc import (
    AllocationResult, FP_CONST_SCRATCH, FP_RECIPE_POOL, INT_CONST_SCRATCH,
    home_of,
)

_FP_CONST_SCRATCH2 = 12

_COMMUTATIVE = {"add", "and", "or", "xor", "cmpeq", "cmpne", "mul"}


def _fp_src_positions(op: str) -> frozenset:
    """Which source positions of an IR value op are FP registers."""
    files = VALUE_OPS[_DIRECT[op]][0]
    return frozenset(i for i, file in enumerate(files[1:]) if file == "f")


_LOADS = {"ld32": "ld32", "ldf": "ldf", "ldv": "vld",
          "sld32": "sld32", "sldf": "sldf"}
_STORES = {"st32": "st32", "stf": "stf", "stv": "vst",
           "st32chk": "st32chk", "stfchk": "stfchk"}


class CodegenError(Exception):
    """The IR reaching codegen violated an invariant (a TOL bug)."""


class _Builder:
    def __init__(self):
        self.instrs: List[HostInstr] = []
        self._stubs: List[tuple] = []   # (branch index, stub payload)

    def emit(self, op, **kw) -> int:
        self.instrs.append(HostInstr(op=op, **kw))
        return len(self.instrs) - 1

    def emit_branch_to_stub(self, op, a, stub_exit: HostInstr) -> None:
        idx = self.emit(op, a=a, target=None)
        self._stubs.append((idx, stub_exit))

    def finalize(self) -> List[HostInstr]:
        for branch_idx, stub in self._stubs:
            self.instrs[branch_idx].target = len(self.instrs)
            self.instrs.append(stub)
        self._stubs.clear()
        return self.instrs


class CodeGenerator:
    """Lowers one region's IR into a :class:`CodeUnit`."""

    def __init__(self, ibtc_enabled: bool = True):
        self.ibtc_enabled = ibtc_enabled

    def generate(self, uid: int, mode: str, entry_pc: int,
                 ops: List[IRInstr], allocation: AllocationResult,
                 guest_insn_count: int, guest_bb_count: int = 1,
                 unrolled: bool = False) -> CodeUnit:
        builder = _Builder()
        assignment = allocation.assignment
        builder.emit("chkpt", meta={"guest_pc": entry_pc})
        committed = [0]  # guest insns already committed in this region

        for instr in ops:
            self._lower(builder, instr, assignment, entry_pc, committed)

        instrs = builder.finalize()
        exit_indices = tuple(
            i for i, h in enumerate(instrs) if h.op == "exit")
        unit = CodeUnit(
            uid=uid, mode=mode, entry_pc=entry_pc, instrs=instrs,
            guest_insn_count=guest_insn_count,
            guest_bb_count=guest_bb_count,
            exit_indices=exit_indices, unrolled=unrolled,
        )
        # Static cycle annotation: computed once per unit at translate
        # time, consumed by the timing layer's batched fast path.
        # (Function-level import: repro.timing pulls in the run helpers,
        # which import the system controller and hence this package.)
        from repro.timing.annotate import build_static_profile
        unit._timing_profile = build_static_profile(unit)
        return unit

    # ------------------------------------------------------------------

    def _reg(self, operand, assignment) -> int:
        if is_arch(operand):
            return home_of(operand)
        if isinstance(operand, (Tmp, FTmp, VTmp)):
            try:
                return assignment[operand]
            except KeyError:
                raise CodegenError(f"unallocated temp {operand!r}") from None
        raise CodegenError(f"not a register operand: {operand!r}")

    def _int_src(self, builder, operand, assignment,
                 scratch=INT_CONST_SCRATCH) -> int:
        if isinstance(operand, Const):
            builder.emit("li", d=scratch, imm=operand.value & 0xFFFFFFFF)
            return scratch
        return self._reg(operand, assignment)

    def _fp_src(self, builder, operand, assignment,
                scratch=FP_CONST_SCRATCH) -> int:
        if isinstance(operand, Const):
            builder.emit("lif", d=scratch, imm=float(operand.value))
            return scratch
        return self._reg(operand, assignment)

    # ------------------------------------------------------------------

    def _lower(self, builder, instr, assignment, entry_pc, committed):
        op = instr.op
        if op in ("fsin", "fcos"):
            self._lower_trig(builder, instr, assignment)
            return
        if op in _LOADS:
            self._lower_load(builder, instr, assignment)
            return
        if op in _STORES:
            self._lower_store(builder, instr, assignment)
            return
        if instr.is_control:
            self._lower_control(builder, instr, assignment, entry_pc,
                                committed)
            return
        if op in ("mov", "fmov", "vmov") and isinstance(
                instr.srcs[0], Const):
            dst = self._reg(instr.dst, assignment)
            if op == "fmov":
                builder.emit("lif", d=dst, imm=float(instr.srcs[0].value))
            elif op == "mov":
                builder.emit(
                    "li", d=dst, imm=instr.srcs[0].value & 0xFFFFFFFF)
            else:
                raise CodegenError("vector constants are not encodable")
            return
        host_op = _DIRECT.get(op)
        if host_op is None:
            raise CodegenError(f"no lowering for IR op {op!r}")
        self._lower_direct(builder, instr, assignment, host_op)

    def _lower_direct(self, builder, instr, assignment, host_op):
        op = instr.op
        srcs = list(instr.srcs)
        dst = self._reg(instr.dst, assignment)
        # Immediate forms / commutativity for integer ops.
        if op in _IMM_FORM or op in _COMMUTATIVE or op == "sub":
            if (op in _COMMUTATIVE and len(srcs) == 2
                    and isinstance(srcs[0], Const)
                    and not isinstance(srcs[1], Const)):
                srcs = [srcs[1], srcs[0]]
            if (len(srcs) == 2 and isinstance(srcs[1], Const)
                    and not isinstance(srcs[0], Const)):
                imm = srcs[1].value & 0xFFFFFFFF
                if op == "sub":
                    builder.emit(
                        "addi32", d=dst,
                        a=self._reg(srcs[0], assignment), imm=-imm,
                        guest_pc=instr.guest_pc)
                    return
                if op in _IMM_FORM:
                    builder.emit(
                        _IMM_FORM[op], d=dst,
                        a=self._reg(srcs[0], assignment), imm=imm,
                        guest_pc=instr.guest_pc)
                    return
        # General form: materialize remaining constants in scratch regs.
        fp_src_positions = _fp_src_positions(op)
        regs = []
        int_scratches = (INT_CONST_SCRATCH, 14)
        fp_scratches = (FP_CONST_SCRATCH, _FP_CONST_SCRATCH2)
        for i, src in enumerate(srcs):
            if isinstance(src, Const):
                if i in fp_src_positions:
                    regs.append(self._fp_src(
                        builder, src, assignment, fp_scratches[i % 2]))
                else:
                    regs.append(self._int_src(
                        builder, src, assignment, int_scratches[i % 2]))
            else:
                regs.append(self._reg(src, assignment))
        kwargs = {"d": dst}
        if regs:
            kwargs["a"] = regs[0]
        if len(regs) > 1:
            kwargs["b"] = regs[1]
        builder.emit(host_op, guest_pc=instr.guest_pc, **kwargs)

    def _lower_load(self, builder, instr, assignment):
        host_op = _LOADS[instr.op]
        addr = self._int_src(builder, instr.srcs[0], assignment)
        meta = {}
        if instr.op in ("sld32", "sldf"):
            meta["seq"] = instr.attrs["seq"]
        builder.emit(host_op, d=self._reg(instr.dst, assignment),
                     a=addr, imm=instr.imm, guest_pc=instr.guest_pc,
                     meta=meta)

    def _lower_store(self, builder, instr, assignment):
        host_op = _STORES[instr.op]
        addr_op, value_op = instr.srcs
        addr = self._int_src(builder, addr_op, assignment)
        if isinstance(value_op, Const):
            if instr.op in ("stf", "stfchk"):
                value = self._fp_src(builder, value_op, assignment)
            else:
                value = self._int_src(builder, value_op, assignment,
                                      scratch=14)
        else:
            value = self._reg(value_op, assignment)
        meta = {}
        if instr.op in ("st32chk", "stfchk"):
            meta["seq"] = instr.attrs["seq"]
        builder.emit(host_op, a=addr, b=value, imm=instr.imm,
                     guest_pc=instr.guest_pc, meta=meta)

    def _lower_trig(self, builder, instr, assignment):
        recipe = TRIG_RECIPES["sin" if instr.op == "fsin" else "cos"]
        dst = self._reg(instr.dst, assignment)
        src_op = instr.srcs[0]
        if isinstance(src_op, Const):
            builder.emit("lif", d=dst, imm=float(src_op.value))
            src = dst
        else:
            src = self._reg(src_op, assignment)
        # Linear-scan the recipe slots over the reserved FP recipe pool.
        last_use: Dict[str, int] = {}
        for i, step in enumerate(recipe):
            for name in step[2:] if step[0] != "const" else ():
                if isinstance(name, str):
                    last_use[name] = i
        pool = list(FP_RECIPE_POOL)
        slot_reg: Dict[str, int] = {"x": src}
        recipe_host = {"mul": "fmul", "add": "fadd", "sub": "fsub"}

        def read_slots(names, step_idx):
            regs = []
            for name in names:
                if name not in slot_reg:
                    raise CodegenError(
                        f"recipe slot {name!r} read before definition")
                regs.append(slot_reg[name])
            # Free slots whose last use is this step (after reading all).
            for name in set(names):
                if (last_use.get(name, -1) <= step_idx and name != "x"
                        and slot_reg[name] in FP_RECIPE_POOL):
                    pool.append(slot_reg[name])
                    del slot_reg[name]
            return regs

        for i, step in enumerate(recipe):
            kind, out = step[0], step[1]
            if kind == "const":
                reg = self._recipe_alloc(pool, out, slot_reg)
                builder.emit("lif", d=reg, imm=step[2],
                             guest_pc=instr.guest_pc)
            elif kind == "floor":
                (a,) = read_slots(step[2:], i)
                reg = self._recipe_alloc(pool, out, slot_reg)
                builder.emit("ffloor", d=reg, a=a, guest_pc=instr.guest_pc)
            else:
                a, b = read_slots(step[2:], i)
                reg = self._recipe_alloc(pool, out, slot_reg)
                builder.emit(recipe_host[kind], d=reg, a=a, b=b,
                             guest_pc=instr.guest_pc)
        builder.emit("fmov", d=dst, a=slot_reg["res"],
                     guest_pc=instr.guest_pc)

    @staticmethod
    def _recipe_alloc(pool, name, slot_reg):
        if not pool:
            raise CodegenError(
                "trig recipe exceeded the reserved FP register pool")
        reg = pool.pop()
        slot_reg[name] = reg
        return reg

    # ------------------------------------------------------------------

    def _lower_control(self, builder, instr, assignment, entry_pc,
                       committed):
        op = instr.op
        attrs = instr.attrs

        def cond_reg():
            return self._int_src(builder, instr.srcs[0], assignment)

        def exit_stub(next_pc, extra=None):
            meta = {"next_pc": next_pc,
                    "guest_insns": attrs.get("guest_insns", 0)}
            if extra:
                meta.update(extra)
            return HostInstr("exit", guest_pc=instr.guest_pc, meta=meta)

        if op == "assert_true":
            builder.emit("assert_nz", a=cond_reg(), guest_pc=instr.guest_pc)
        elif op == "assert_false":
            builder.emit("assert_z", a=cond_reg(), guest_pc=instr.guest_pc)
        elif op == "side_exit_true":
            builder.emit_branch_to_stub(
                "bnez", cond_reg(), exit_stub(attrs["target_pc"]))
        elif op == "side_exit_false":
            builder.emit_branch_to_stub(
                "beqz", cond_reg(), exit_stub(attrs["target_pc"]))
        elif op == "guard_exit_false":
            builder.emit_branch_to_stub(
                "beqz", cond_reg(),
                exit_stub(attrs["target_pc"],
                          extra={"prefer_variant": "plain",
                                 "guest_insns": 0}))
        elif op in ("br_true", "br_false"):
            if attrs.get("loop_back"):
                builder.emit(
                    "commit", meta={"guest_insns": attrs["guest_insns"]},
                    guest_pc=instr.guest_pc)
                branch = "bnez" if op == "br_true" else "beqz"
                builder.emit(branch, a=cond_reg(), target=0,
                             guest_pc=instr.guest_pc)
                builder.emit("exit", guest_pc=instr.guest_pc,
                             meta={"next_pc": attrs["fall_pc"],
                                   "guest_insns": 0})
            else:
                branch = "bnez" if op == "br_true" else "beqz"
                builder.emit_branch_to_stub(
                    branch, cond_reg(), exit_stub(attrs["taken_pc"]))
                builder.emit("exit", guest_pc=instr.guest_pc,
                             meta={"next_pc": attrs["fall_pc"],
                                   "guest_insns": attrs.get(
                                       "guest_insns", 0)})
        elif op == "jmp":
            if attrs.get("loop_back"):
                builder.emit(
                    "commit", meta={"guest_insns": attrs["guest_insns"]},
                    guest_pc=instr.guest_pc)
                builder.emit("j", target=0, guest_pc=instr.guest_pc)
            else:
                builder.emit("exit", guest_pc=instr.guest_pc,
                             meta={"next_pc": attrs["target_pc"],
                                   "guest_insns": attrs.get(
                                       "guest_insns", 0)})
        elif op in ("jmp_ind", "exit_ind"):
            target = self._reg(instr.srcs[0], assignment)
            meta = {"guest_insns": attrs.get("guest_insns", 0)}
            if self.ibtc_enabled:
                builder.emit("ibtc", a=target, meta=meta,
                             guest_pc=instr.guest_pc)
            else:
                builder.emit("exit_ind", a=target, meta=meta,
                             guest_pc=instr.guest_pc)
        elif op == "exit":
            builder.emit("exit", guest_pc=instr.guest_pc,
                         meta={"next_pc": attrs["next_pc"],
                               "guest_insns": attrs.get("guest_insns", 0)})
        else:
            raise CodegenError(f"unhandled control op {op!r}")
