"""Guest-ISA frontend: decodes guest instructions into IR.

Per the paper (§V-D), the frontend is the only guest-specific piece of the
TOL: everything from SSA to code generation is ISA independent.  The frontend
protocol is :class:`Frontend`; :class:`GisaFrontend` is the x86-like guest's
implementation.  Flag side effects become explicit IR defs so the optimizer
can eliminate dead flag computations ("DARCO writes to the flag registers
only if the written value is really going to be consumed").

Memory-effect ordering invariant: within one guest instruction's IR, all
memory accesses precede all architectural (register/flag) writes, so that a
page fault mid-instruction leaves architectural state untouched and the
instruction can simply be re-executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.guest.encoding import decode_instr
from repro.guest.isa import (
    FReg, GuestInstr, Imm, Mem, Reg, VReg, s32,
)
from repro.guest.memory import PagedMemory
from repro.tol.ir import (
    CF, Const, Flag, GFReg, GReg, GVReg, IRInstr, OF, SF, TmpAllocator, ZF,
)
from repro.tol.ir_eval import compile_ops

_SCALE_LOG = {1: 0, 2: 1, 4: 2, 8: 3}


@dataclass
class DecodedInstr:
    """One guest instruction plus its IR expansion."""

    guest: GuestInstr
    ops: List[IRInstr] = field(default_factory=list)

    @property
    def interpreter_only(self) -> bool:
        return self.guest.spec.interpreter_only

    @property
    def is_branch(self) -> bool:
        return self.guest.is_branch


class Frontend:
    """Protocol for guest-ISA frontends (duck-typed)."""

    name = "abstract"

    def decode(self, memory: PagedMemory, pc: int,
               alloc: TmpAllocator) -> DecodedInstr:
        raise NotImplementedError

    def decode_compiled(self, memory: PagedMemory, pc: int):
        """Decode at ``pc`` and make the IR expansion's closure (cached).

        Returns ``(decoded, fn)`` where ``fn`` is the compiled closure from
        :func:`repro.tol.ir_eval.compile_ops`, or ``None`` when the op list
        is empty or uncompilable (callers fall back to ``eval_ops``).  The
        cache is keyed by decode address, mirroring the decode cache: guest
        code is immutable for the simulated programs, so entries never need
        invalidation.  Works for any subclass that implements ``decode``.
        """
        cache = self.__dict__.setdefault("_compiled_cache", {})
        entry = cache.get(pc)
        if entry is None:
            decoded = self.decode(memory, pc)
            fn = compile_ops(decoded.ops) if decoded.ops else None
            entry = (decoded, fn)
            cache[pc] = entry
        return entry


class _Emitter:
    """Helper accumulating IR for one guest instruction."""

    def __init__(self, instr: GuestInstr, alloc: TmpAllocator):
        self.instr = instr
        self.alloc = alloc
        self.ops: List[IRInstr] = []
        self._deferred: List[IRInstr] = []  # arch writes, emitted last

    def emit(self, op, dst=None, srcs=(), imm=0, **attrs):
        instr = IRInstr(op=op, dst=dst, srcs=tuple(srcs), imm=imm,
                        attrs=dict(attrs), guest_pc=self.instr.addr)
        self.ops.append(instr)
        return dst

    def defer_arch_write(self, op, dst, srcs=(), imm=0):
        """Queue an architectural write to be emitted after memory effects."""
        self._deferred.append(IRInstr(
            op=op, dst=dst, srcs=tuple(srcs), imm=imm,
            guest_pc=self.instr.addr))

    def flush_deferred(self):
        self.ops.extend(self._deferred)
        self._deferred.clear()

    # -- operand helpers ----------------------------------------------------

    def addr_parts(self, mem: Mem):
        """Return (addr_operand, disp) computing base+index*scale."""
        base = GReg(Reg(mem.base).index) if mem.base is not None else None
        index = GReg(Reg(mem.index).index) if mem.index is not None else None
        disp = mem.disp
        if index is not None:
            scaled = index
            if mem.scale != 1:
                scaled = self.alloc.tmp()
                self.emit("shl", scaled, (index, Const(_SCALE_LOG[mem.scale])))
            if base is not None:
                addr = self.alloc.tmp()
                self.emit("add", addr, (base, scaled))
            else:
                addr = scaled
            return addr, disp
        if base is not None:
            return base, disp
        return Const(0), disp

    def read_int(self, operand):
        """Read an integer operand; memory operands emit a load."""
        if isinstance(operand, Reg):
            return GReg(operand.index)
        if isinstance(operand, Imm):
            return Const(operand.u32)
        if isinstance(operand, Mem):
            addr, disp = self.addr_parts(operand)
            dst = self.alloc.tmp()
            self.emit("ld32", dst, (addr,), imm=disp)
            return dst
        raise ValueError(f"bad integer operand {operand!r}")

    def write_int(self, operand, value):
        """Write an integer result; register writes are deferred."""
        if isinstance(operand, Reg):
            self.defer_arch_write("mov", GReg(operand.index), (value,))
        elif isinstance(operand, Mem):
            addr, disp = self.addr_parts(operand)
            self.emit("st32", None, (addr, value), imm=disp)
        else:
            raise ValueError(f"bad destination operand {operand!r}")

    # -- flag emission --------------------------------------------------------

    def flags_zs(self, result):
        zf = self.alloc.tmp()
        self.emit("cmpeq", zf, (result, Const(0)))
        self.defer_arch_write("mov", ZF, (zf,))
        sf = self.alloc.tmp()
        self.emit("shr", sf, (result, Const(31)))
        self.defer_arch_write("mov", SF, (sf,))

    def flags_add(self, a, b):
        cf = self.alloc.tmp()
        self.emit("addcf", cf, (a, b))
        self.defer_arch_write("mov", CF, (cf,))
        of = self.alloc.tmp()
        self.emit("addof", of, (a, b))
        self.defer_arch_write("mov", OF, (of,))

    def flags_sub(self, a, b):
        cf = self.alloc.tmp()
        self.emit("subcf", cf, (a, b))
        self.defer_arch_write("mov", CF, (cf,))
        of = self.alloc.tmp()
        self.emit("subof", of, (a, b))
        self.defer_arch_write("mov", OF, (of,))

    def flags_clear_cf_of(self):
        self.defer_arch_write("mov", CF, (Const(0),))
        self.defer_arch_write("mov", OF, (Const(0),))


class GisaFrontend(Frontend):
    """Decoder frontend for the x86-like guest ISA."""

    name = "gisa"

    def __init__(self):
        self._alloc_for_cache = TmpAllocator()
        self._cache: Dict[int, DecodedInstr] = {}
        #: pc -> its guest instruction, decoded once and shared by the
        #: interpreter's decode and every translation's (DESIGN.md §5)
        self._guest: Dict[int, GuestInstr] = {}

    def decode(self, memory: PagedMemory, pc: int,
               alloc: Optional[TmpAllocator] = None) -> DecodedInstr:
        """Decode the guest instruction at ``pc`` into IR.

        With ``alloc=None`` results are cached (interpreter use); with an
        explicit allocator, the IR is emitted afresh with region-unique
        temps (translation use).  Either way the guest instruction is
        decoded once per ``pc``; a decode that raises caches nothing.
        """
        if alloc is None:
            cached = self._cache.get(pc)
            if cached is None:
                cached = self._decode(memory, pc, self._alloc_for_cache)
                self._cache[pc] = cached
            return cached
        return self._decode(memory, pc, alloc)

    def _decode(self, memory, pc, alloc) -> DecodedInstr:
        guest = self._guest.get(pc)
        if guest is None:
            guest = self._guest[pc] = decode_instr(memory, pc)
        emitter = _Emitter(guest, alloc)
        handler = _IR_HANDLERS.get(guest.mnemonic)
        if handler is None:
            if not guest.spec.interpreter_only:
                raise ValueError(f"no IR handler for {guest.mnemonic}")
            return DecodedInstr(guest, [])
        handler(emitter, guest)
        emitter.flush_deferred()
        return DecodedInstr(guest, emitter.ops)


# ---------------------------------------------------------------------------
# Per-mnemonic IR emission.
# ---------------------------------------------------------------------------

_IR_HANDLERS = {}


def _ir(*mnemonics):
    def wrap(fn):
        for m in mnemonics:
            _IR_HANDLERS[m] = fn
        return fn
    return wrap


@_ir("NOP")
def _d_nop(e, g):
    pass


@_ir("MOV")
def _d_mov(e, g):
    dst, src = g.operands
    e.write_int(dst, e.read_int(src))


@_ir("LEA")
def _d_lea(e, g):
    dst, mem = g.operands
    addr, disp = e.addr_parts(mem)
    if disp:
        t = e.alloc.tmp()
        e.emit("add", t, (addr, Const(disp & 0xFFFFFFFF)))
        addr = t
    e.defer_arch_write("mov", GReg(dst.index), (addr,))


@_ir("XCHG")
def _d_xchg(e, g):
    a, b = g.operands
    t = e.alloc.tmp()
    e.emit("mov", t, (GReg(a.index),))
    e.defer_arch_write("mov", GReg(a.index), (GReg(b.index),))
    e.defer_arch_write("mov", GReg(b.index), (t,))


@_ir("PUSH")
def _d_push(e, g):
    value = e.read_int(g.operands[0])
    esp = GReg(4)
    new_sp = e.alloc.tmp()
    e.emit("sub", new_sp, (esp, Const(4)))
    e.emit("st32", None, (new_sp, value))
    e.defer_arch_write("mov", esp, (new_sp,))


@_ir("POP")
def _d_pop(e, g):
    reg = g.operands[0]
    esp = GReg(4)
    value = e.alloc.tmp()
    e.emit("ld32", value, (esp,))
    if reg.index == 4:  # POP ESP loads the value, no increment visible
        e.defer_arch_write("mov", esp, (value,))
        return
    new_sp = e.alloc.tmp()
    e.emit("add", new_sp, (esp, Const(4)))
    e.defer_arch_write("mov", GReg(reg.index), (value,))
    e.defer_arch_write("mov", esp, (new_sp,))


def _alu_binary(e, g, ir_op, flags):
    dst, src = g.operands
    a = e.read_int(dst)
    b = e.read_int(src)
    res = e.alloc.tmp()
    e.emit(ir_op, res, (a, b))
    e.flags_zs(res)
    if flags == "add":
        e.flags_add(a, b)
    elif flags == "sub":
        e.flags_sub(a, b)
    else:
        e.flags_clear_cf_of()
    e.write_int(dst, res)


@_ir("ADD")
def _d_add(e, g):
    _alu_binary(e, g, "add", "add")


@_ir("SUB")
def _d_sub(e, g):
    _alu_binary(e, g, "sub", "sub")


@_ir("AND")
def _d_and(e, g):
    _alu_binary(e, g, "and", "logic")


@_ir("OR")
def _d_or(e, g):
    _alu_binary(e, g, "or", "logic")


@_ir("XOR")
def _d_xor(e, g):
    _alu_binary(e, g, "xor", "logic")


@_ir("CMP")
def _d_cmp(e, g):
    dst, src = g.operands
    a = e.read_int(dst)
    b = e.read_int(src)
    res = e.alloc.tmp()
    e.emit("sub", res, (a, b))
    e.flags_zs(res)
    e.flags_sub(a, b)


@_ir("TEST")
def _d_test(e, g):
    a = e.read_int(g.operands[0])
    b = e.read_int(g.operands[1])
    res = e.alloc.tmp()
    e.emit("and", res, (a, b))
    e.flags_zs(res)
    e.flags_clear_cf_of()


@_ir("INC")
def _d_inc(e, g):
    dst = g.operands[0]
    a = e.read_int(dst)
    res = e.alloc.tmp()
    e.emit("add", res, (a, Const(1)))
    e.flags_zs(res)
    of = e.alloc.tmp()
    e.emit("cmpeq", of, (res, Const(0x80000000)))
    e.defer_arch_write("mov", OF, (of,))
    e.write_int(dst, res)


@_ir("DEC")
def _d_dec(e, g):
    dst = g.operands[0]
    a = e.read_int(dst)
    res = e.alloc.tmp()
    e.emit("sub", res, (a, Const(1)))
    e.flags_zs(res)
    of = e.alloc.tmp()
    e.emit("cmpeq", of, (a, Const(0x80000000)))
    e.defer_arch_write("mov", OF, (of,))
    e.write_int(dst, res)


@_ir("NEG")
def _d_neg(e, g):
    reg = g.operands[0]
    a = GReg(reg.index)
    res = e.alloc.tmp()
    e.emit("neg", res, (a,))
    e.flags_zs(res)
    cf = e.alloc.tmp()
    e.emit("cmpne", cf, (a, Const(0)))
    e.defer_arch_write("mov", CF, (cf,))
    of = e.alloc.tmp()
    e.emit("cmpeq", of, (a, Const(0x80000000)))
    e.defer_arch_write("mov", OF, (of,))
    e.defer_arch_write("mov", a, (res,))


@_ir("NOT")
def _d_not(e, g):
    reg = g.operands[0]
    a = GReg(reg.index)
    res = e.alloc.tmp()
    e.emit("not", res, (a,))
    e.defer_arch_write("mov", a, (res,))


@_ir("SHL", "SHR", "SAR")
def _d_shift(e, g):
    reg, imm = g.operands
    count = imm.u32 & 31
    if count == 0:
        return  # result and flags architecturally unchanged
    a = GReg(reg.index)
    ir_op = {"SHL": "shl", "SHR": "shr", "SAR": "sar"}[g.mnemonic]
    res = e.alloc.tmp()
    e.emit(ir_op, res, (a, Const(count)))
    e.flags_zs(res)
    # CF = last bit shifted out; OF defined 0 by the ISA.
    cf = e.alloc.tmp()
    if g.mnemonic == "SHL":
        t = e.alloc.tmp()
        e.emit("shr", t, (a, Const(32 - count)))
        e.emit("and", cf, (t, Const(1)))
    else:
        shifted = e.alloc.tmp()
        shift_op = "shr" if g.mnemonic == "SHR" else "sar"
        e.emit(shift_op, shifted, (a, Const(count - 1)))
        e.emit("and", cf, (shifted, Const(1)))
    e.defer_arch_write("mov", CF, (cf,))
    e.defer_arch_write("mov", OF, (Const(0),))
    e.defer_arch_write("mov", a, (res,))


@_ir("IMUL")
def _d_imul(e, g):
    dst, src = g.operands
    a = GReg(dst.index)
    b = e.read_int(src)
    res = e.alloc.tmp()
    e.emit("mul", res, (a, b))
    e.flags_zs(res)
    ovf = e.alloc.tmp()
    e.emit("mulof", ovf, (a, b))
    e.defer_arch_write("mov", CF, (ovf,))
    e.defer_arch_write("mov", OF, (ovf,))
    e.defer_arch_write("mov", a, (res,))


@_ir("IDIV")
def _d_idiv(e, g):
    divisor = e.read_int(g.operands[0])
    eax, edx = GReg(0), GReg(2)
    quotient = e.alloc.tmp()
    e.emit("div", quotient, (eax, divisor))
    remainder = e.alloc.tmp()
    e.emit("rem", remainder, (eax, divisor))
    e.flags_zs(quotient)
    e.flags_clear_cf_of()
    e.defer_arch_write("mov", eax, (quotient,))
    e.defer_arch_write("mov", edx, (remainder,))


# -- control flow -------------------------------------------------------------


@_ir("JMP")
def _d_jmp(e, g):
    e.emit("jmp", target_pc=g.operands[0].u32)


@_ir("JMPI")
def _d_jmpi(e, g):
    target = e.read_int(g.operands[0])
    e.emit("jmp_ind", srcs=(target,))


@_ir("CALL", "CALLI")
def _d_call(e, g):
    target = e.read_int(g.operands[0])
    esp = GReg(4)
    new_sp = e.alloc.tmp()
    e.emit("sub", new_sp, (esp, Const(4)))
    e.emit("st32", None, (new_sp, Const(g.next_addr)))
    e.defer_arch_write("mov", esp, (new_sp,))
    e.flush_deferred()
    if g.mnemonic == "CALL":
        e.emit("jmp", target_pc=g.operands[0].u32)
    else:
        e.emit("jmp_ind", srcs=(target,))


@_ir("RET")
def _d_ret(e, g):
    esp = GReg(4)
    target = e.alloc.tmp()
    e.emit("ld32", target, (esp,))
    new_sp = e.alloc.tmp()
    e.emit("add", new_sp, (esp, Const(4)))
    e.defer_arch_write("mov", esp, (new_sp,))
    e.flush_deferred()
    e.emit("jmp_ind", srcs=(target,))


#: Condition-code lowering: (flag expression builder).  Returns (cond
#: operand, branch op) where branch op is "br_true" or "br_false".
def _cond_operand(e, cc):
    if cc == "E":
        return ZF, "br_true"
    if cc == "NE":
        return ZF, "br_false"
    if cc in ("L", "GE"):
        t = e.alloc.tmp()
        e.emit("xor", t, (SF, OF))
        return t, "br_true" if cc == "L" else "br_false"
    if cc in ("LE", "G"):
        t = e.alloc.tmp()
        e.emit("xor", t, (SF, OF))
        t2 = e.alloc.tmp()
        e.emit("or", t2, (t, ZF))
        return t2, "br_true" if cc == "LE" else "br_false"
    if cc == "B":
        return CF, "br_true"
    if cc == "AE":
        return CF, "br_false"
    if cc in ("BE", "A"):
        t = e.alloc.tmp()
        e.emit("or", t, (CF, ZF))
        return t, "br_true" if cc == "BE" else "br_false"
    if cc == "S":
        return SF, "br_true"
    if cc == "NS":
        return SF, "br_false"
    raise ValueError(f"unknown condition code {cc}")


def _d_jcc(e, g):
    cc = g.mnemonic[1:]
    cond, br_op = _cond_operand(e, cc)
    e.emit(br_op, srcs=(cond,),
           taken_pc=g.operands[0].u32, fall_pc=g.next_addr)


for _cc in ("E", "NE", "L", "LE", "G", "GE", "B", "BE", "A", "AE", "S", "NS"):
    _IR_HANDLERS[f"J{_cc}"] = _d_jcc


# -- floating point -----------------------------------------------------------


@_ir("FLD")
def _d_fld(e, g):
    freg, mem = g.operands
    addr, disp = e.addr_parts(mem)
    t = e.alloc.ftmp()
    e.emit("ldf", t, (addr,), imm=disp)
    e.defer_arch_write("fmov", GFReg(freg.index), (t,))


@_ir("FST")
def _d_fst(e, g):
    mem, freg = g.operands
    addr, disp = e.addr_parts(mem)
    e.emit("stf", None, (addr, GFReg(freg.index)), imm=disp)


@_ir("FMOV")
def _d_fmov(e, g):
    dst, src = g.operands
    e.defer_arch_write("fmov", GFReg(dst.index), (GFReg(src.index),))


@_ir("FADD", "FSUB", "FMUL", "FDIV")
def _d_fbin(e, g):
    dst, src = g.operands
    ir_op = {"FADD": "fadd", "FSUB": "fsub",
             "FMUL": "fmul", "FDIV": "fdiv"}[g.mnemonic]
    res = e.alloc.ftmp()
    e.emit(ir_op, res, (GFReg(dst.index), GFReg(src.index)))
    e.defer_arch_write("fmov", GFReg(dst.index), (res,))


@_ir("FCMP")
def _d_fcmp(e, g):
    a, b = (GFReg(op.index) for op in g.operands)
    eq = e.alloc.tmp()
    e.emit("fcmpeq", eq, (a, b))
    lt = e.alloc.tmp()
    e.emit("fcmplt", lt, (a, b))
    un = e.alloc.tmp()
    e.emit("fcmpun", un, (a, b))
    zf = e.alloc.tmp()
    e.emit("or", zf, (eq, un))
    cf = e.alloc.tmp()
    e.emit("or", cf, (lt, un))
    e.defer_arch_write("mov", ZF, (zf,))
    e.defer_arch_write("mov", CF, (cf,))
    e.defer_arch_write("mov", SF, (Const(0),))
    e.defer_arch_write("mov", OF, (Const(0),))


@_ir("FSIN", "FCOS", "FSQRT", "FABS", "FNEG")
def _d_funary(e, g):
    freg = GFReg(g.operands[0].index)
    ir_op = {"FSIN": "fsin", "FCOS": "fcos", "FSQRT": "fsqrt",
             "FABS": "fabs", "FNEG": "fneg"}[g.mnemonic]
    res = e.alloc.ftmp()
    e.emit(ir_op, res, (freg,))
    e.defer_arch_write("fmov", freg, (res,))


@_ir("FLDI")
def _d_fldi(e, g):
    freg, imm = g.operands
    e.defer_arch_write(
        "fmov", GFReg(freg.index), (Const(float(s32(imm.u32))),))


@_ir("CVTIF")
def _d_cvtif(e, g):
    freg, reg = g.operands
    res = e.alloc.ftmp()
    e.emit("i2f", res, (GReg(reg.index),))
    e.defer_arch_write("fmov", GFReg(freg.index), (res,))


@_ir("CVTFI")
def _d_cvtfi(e, g):
    reg, freg = g.operands
    res = e.alloc.tmp()
    e.emit("f2i", res, (GFReg(freg.index),))
    e.defer_arch_write("mov", GReg(reg.index), (res,))


# -- vector --------------------------------------------------------------------


@_ir("VLD")
def _d_vld(e, g):
    vreg, mem = g.operands
    addr, disp = e.addr_parts(mem)
    t = e.alloc.vtmp()
    e.emit("ldv", t, (addr,), imm=disp)
    e.defer_arch_write("vmov", GVReg(vreg.index), (t,))


@_ir("VST")
def _d_vst(e, g):
    mem, vreg = g.operands
    addr, disp = e.addr_parts(mem)
    e.emit("stv", None, (addr, GVReg(vreg.index)), imm=disp)


@_ir("VADD", "VSUB", "VMUL")
def _d_vbin(e, g):
    dst, src = g.operands
    ir_op = {"VADD": "vadd", "VSUB": "vsub", "VMUL": "vmul"}[g.mnemonic]
    res = e.alloc.vtmp()
    e.emit(ir_op, res, (GVReg(dst.index), GVReg(src.index)))
    e.defer_arch_write("vmov", GVReg(dst.index), (res,))


@_ir("VSPLAT")
def _d_vsplat(e, g):
    vreg, reg = g.operands
    res = e.alloc.vtmp()
    e.emit("vsplat", res, (GReg(reg.index),))
    e.defer_arch_write("vmov", GVReg(vreg.index), (res,))


@_ir("VMOV")
def _d_vmov(e, g):
    dst, src = g.operands
    e.defer_arch_write("vmov", GVReg(dst.index), (GVReg(src.index),))
