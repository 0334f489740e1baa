"""Authoritative guest functional emulator.

This is the execution core of DARCO's *x86 component*: it executes the
unmodified guest binary directly (decode-and-execute, no translation) and
therefore holds the authoritative architectural and memory state the
co-designed component is validated against (paper §V).

It is implemented independently from the TOL's decode-to-IR path on purpose:
a translation bug cannot hide by being mirrored here.

Each instruction is decoded and *bound* the first time it executes: its
mnemonic's builder resolves operand kinds, register indices, immediates
and flag writes once, and returns a closure cached per address beside the
decoded instruction.  The run loop then only calls closures.  Nothing is
bound ahead of execution (no basic-block pre-decode), so self-modifying
code and the order in which demand-zero pages appear are those of decoding
one instruction at a time.
"""

from __future__ import annotations

import operator
import sys
from collections import Counter
from typing import Dict, Optional

from repro.guest import semantics as sem
from repro.guest.encoding import decode_instr
from repro.guest.isa import (
    GPR_INDEX, INSN_SPECS, MASK32, GuestInstr, Imm, Mem, Reg, s32,
)
from repro.guest.memory import PagedMemory
from repro.guest.program import GuestProgram
from repro.guest.state import GuestState
from repro.guest.syscalls import GuestOS


class EmulationError(Exception):
    """Raised on conditions the guest ISA leaves undefined (bad opcode...)."""


#: Retirement count slots, one per (class, is_branch) pair of the ISA.
_SLOTS = sorted({(s.klass, s.is_branch) for s in INSN_SPECS.values()},
                key=lambda slot: (slot[0].value, slot[1]))
_SLOT_OF = {m: _SLOTS.index((s.klass, s.is_branch))
            for m, s in INSN_SPECS.items()}


class GuestEmulator:
    """Decode-and-execute guest emulator with authoritative state."""

    def __init__(self, program: GuestProgram,
                 os: Optional[GuestOS] = None,
                 memory: Optional[PagedMemory] = None):
        self.program = program
        self.os = os if os is not None else GuestOS()
        self.memory = memory if memory is not None else PagedMemory()
        program.load_into(self.memory)
        self.state = GuestState()
        self.state.eip = program.entry
        self.state.set("ESP", program.stack_top)
        self.icount = 0
        self.branch_count = 0
        self.bb_count = 0
        self.class_counts: Counter = Counter()
        self._decode_cache: Dict[int, GuestInstr] = {}
        #: addr -> (closure, fall-through EIP, count slot), bound with the
        #: decode.  The closure returns the next EIP, or None to fall through.
        self._bound: Dict[int, tuple] = {}

    # -- fetch ---------------------------------------------------------------

    def fetch(self, addr: int) -> GuestInstr:
        instr = self._decode_cache.get(addr)
        if instr is None:
            instr = decode_instr(self.memory.read_u8, addr)
            self._decode_cache[addr] = instr
            self._bound[addr] = (_BUILDERS[instr.mnemonic](self, instr),
                                 instr.next_addr, _SLOT_OF[instr.mnemonic])
        return instr

    @property
    def halted(self) -> bool:
        return self.os.exited

    def current_instr(self) -> GuestInstr:
        return self.fetch(self.state.eip)

    # -- run loops -----------------------------------------------------------

    def step(self) -> GuestInstr:
        """Execute exactly one guest instruction (including syscalls)."""
        instr = self.fetch(self.state.eip)
        run, fall, slot = self._bound[instr.addr]
        target = run()
        self.state.eip = fall if target is None else target
        self._retire(slot, 1)
        return instr

    def run(self, max_steps: Optional[int] = None) -> int:
        """Run until the program exits (or ``max_steps``); returns icount."""
        self._run(sys.maxsize if max_steps is None else max_steps)
        return self.icount

    def run_to_icount(self, target: int) -> None:
        """Advance until exactly ``target`` instructions have retired.

        This is how the x86 component catches up to the co-designed
        component's execution point during synchronization.
        """
        if target < self.icount:
            raise EmulationError(
                f"cannot run backwards: at {self.icount}, asked {target}")
        self._run(target - self.icount)
        if self.icount != target and not self.halted:
            raise EmulationError("failed to reach synchronization point")

    def _run(self, steps: int) -> None:
        """Execute up to ``steps`` instructions, stopping at program exit.

        EIP and the counters are written back in ``finally``: when an
        instruction raises they stop at the last retired one.
        """
        state, os, bound = self.state, self.os, self._bound
        counts = [0] * len(_SLOTS)
        eip = state.eip
        try:
            for _ in range(steps):
                if os.exit_code is not None:
                    break
                try:
                    run, fall, slot = bound[eip]
                except KeyError:
                    self.fetch(eip)
                    run, fall, slot = bound[eip]
                target = run()
                eip = fall if target is None else target
                counts[slot] += 1
        finally:
            state.eip = eip
            for slot, n in enumerate(counts):
                if n:
                    self._retire(slot, n)

    def _retire(self, slot: int, n: int) -> None:
        klass, is_branch = _SLOTS[slot]
        self.icount += n
        self.class_counts[klass] += n
        if is_branch:
            self.branch_count += n
            self.bb_count += n


# ---------------------------------------------------------------------------
# Builders.  ``build(emu, instr)`` returns the closure executing ``instr``.
# Operand kinds are resolved here, once.  When control lands mid-instruction
# the decoder can produce kinds outside the mnemonic's InsnSpec; those bind
# through the accessors below to a defined outcome -- the same effects, or
# the same exception when executed.  A builder never raises.
# Memory effects are ordered before register/flag effects so that a page
# fault leaves the architectural state untouched (restartable instructions).
# ---------------------------------------------------------------------------

_BUILDERS = {}


def _builder(*mnemonics):
    def wrap(fn):
        for m in mnemonics:
            _BUILDERS[m] = fn
        return fn
    return wrap


def _fail(exc_type, message):
    def fail(*_):
        raise exc_type(message)
    return fail


class _NoIndex:
    """Index of an operand that has none (an immediate): using it as a list
    index raises the AttributeError that reading ``op.index`` raises."""

    __slots__ = ("op",)

    def __init__(self, op):
        self.op = op

    def __index__(self):
        return self.op.index


def _reg(op):
    """Register-file index of ``op``.  A register of any file indexes its
    own number; a memory operand's ``index`` (a name or None) fails as a
    list index with TypeError, an immediate with AttributeError."""
    try:
        return op.index
    except AttributeError:
        return _NoIndex(op)


def _addr(st, op):
    """Effective address of memory operand ``op`` (base + index*scale +
    disp); any other kind has no ``disp`` and raises AttributeError."""
    if not isinstance(op, Mem):
        return lambda: op.disp
    disp, scale = op.disp, op.scale
    base = None if op.base is None else GPR_INDEX[op.base]
    index = None if op.index is None else GPR_INDEX[op.index]
    if index is None:
        if base is None:
            addr = disp & MASK32
            return lambda: addr
        return lambda: (st.gpr[base] + disp) & MASK32
    if base is None:
        return lambda: (st.gpr[index] * scale + disp) & MASK32
    return lambda: (st.gpr[base] + st.gpr[index] * scale + disp) & MASK32


def _reader(emu, op):
    """Value of integer operand ``op``: a register, an immediate or the word
    at a memory operand; any other kind raises EmulationError."""
    st = emu.state
    if isinstance(op, Reg):
        i = op.index
        return lambda: st.gpr[i]
    if isinstance(op, Imm):
        value = op.u32
        return lambda: value
    if isinstance(op, Mem):
        addr, load = _addr(st, op), emu.memory.read_u32
        return lambda: load(addr())
    return _fail(EmulationError, f"not an integer operand: {op!r}")


def _writer(emu, op):
    """Store to integer operand ``op``: a register or the word at a memory
    operand; any other kind raises EmulationError."""
    st = emu.state
    if isinstance(op, Reg):
        i = op.index

        def write(value):
            st.gpr[i] = value & MASK32
        return write
    if isinstance(op, Mem):
        addr, store = _addr(st, op), emu.memory.write_u32
        return lambda value: store(addr(), value & MASK32)
    return _fail(EmulationError, f"not a writable operand: {op!r}")


@_builder("NOP")
def _b_nop(emu, instr):
    return lambda: None


@_builder("MOV")
def _b_mov(emu, instr):
    st, (dst, src) = emu.state, instr.operands
    if not isinstance(dst, Reg):
        load, store = _reader(emu, src), _writer(emu, dst)
        return lambda: store(load())
    d = dst.index
    if isinstance(src, Reg):
        s = src.index

        def run():
            g = st.gpr
            g[d] = g[s]
    else:
        load = _reader(emu, src)

        def run():
            st.gpr[d] = load()
    return run


@_builder("LEA")
def _b_lea(emu, instr):
    st, (dst, mem) = emu.state, instr.operands
    d, addr = _reg(dst), _addr(st, mem)

    def run():
        st.gpr[d] = addr()
    return run


@_builder("XCHG")
def _b_xchg(emu, instr):
    st = emu.state
    a, b = (_reg(op) for op in instr.operands)

    def run():
        g = st.gpr
        g[a], g[b] = g[b], g[a]
    return run


@_builder("PUSH")
def _b_push(emu, instr):
    st, store = emu.state, emu.memory.write_u32
    load = _reader(emu, instr.operands[0])

    def run():
        value = load()
        g = st.gpr
        esp = (g[4] - 4) & MASK32
        store(esp, value)
        g[4] = esp
    return run


@_builder("POP")
def _b_pop(emu, instr):
    st, load, d = emu.state, emu.memory.read_u32, _reg(instr.operands[0])

    def run():
        g = st.gpr
        esp = g[4]
        value = load(esp)
        if d == 4:
            # POP ESP: the loaded value becomes the stack pointer; the
            # post-increment is not architecturally visible (x86 semantics).
            g[4] = value
        else:
            g[d] = value
            g[4] = (esp + 4) & MASK32
    return run


# Integer ALU.  ``op(a, b, flags)`` returns the 32-bit result and writes
# ``flags`` ([ZF, SF, CF, OF]) in place; unary ops get b = 0.  See DESIGN.md
# for the documented deviations from x86: PF/AF omitted, IDIV flags
# defined, shift OF defined as 0.

def _add(a, b, fl):
    r = (a + b) & MASK32
    fl[:] = (0 if r else 1, r >> 31, 1 if r < a else 0,
             (~(a ^ b) & (a ^ r)) >> 31 & 1)
    return r


def _sub(a, b, fl):
    r = (a - b) & MASK32
    fl[:] = (0 if r else 1, r >> 31, 1 if a < b else 0,
             ((a ^ b) & (a ^ r)) >> 31 & 1)
    return r


def _and(a, b, fl):
    r = a & b
    fl[:] = (0 if r else 1, r >> 31, 0, 0)
    return r


def _or(a, b, fl):
    r = a | b
    fl[:] = (0 if r else 1, r >> 31, 0, 0)
    return r


def _xor(a, b, fl):
    r = a ^ b
    fl[:] = (0 if r else 1, r >> 31, 0, 0)
    return r


def _inc(a, _, fl):
    r = (a + 1) & MASK32  # CF is preserved
    fl[0], fl[1], fl[3] = 0 if r else 1, r >> 31, 1 if r == 0x80000000 else 0
    return r


def _dec(a, _, fl):
    r = (a - 1) & MASK32  # CF is preserved
    fl[0], fl[1], fl[3] = 0 if r else 1, r >> 31, 1 if a == 0x80000000 else 0
    return r


def _neg(a, _, fl):
    r = -a & MASK32
    fl[:] = (0 if r else 1, r >> 31, 1 if a else 0,
             1 if a == 0x80000000 else 0)
    return r


def _not(a, _, fl):
    return ~a & MASK32


def _imul(a, b, fl):
    full = s32(a) * s32(b)
    r = full & MASK32
    overflow = 0 if -0x80000000 <= full <= 0x7FFFFFFF else 1
    fl[:] = (0 if r else 1, r >> 31, overflow, overflow)
    return r


def _shl(a, n, fl):
    n &= 31
    if not n:
        return a  # a zero count leaves the flags alone
    r = (a << n) & MASK32
    fl[:] = (0 if r else 1, r >> 31, (a >> (32 - n)) & 1, 0)
    return r


def _shr(a, n, fl):
    n &= 31
    if not n:
        return a
    r = a >> n
    fl[:] = (0 if r else 1, r >> 31, (a >> (n - 1)) & 1, 0)
    return r


def _sar(a, n, fl):
    n &= 31
    if not n:
        return a
    r = (s32(a) >> n) & MASK32
    fl[:] = (0 if r else 1, r >> 31, (a >> (n - 1)) & 1, 0)
    return r


def _alu(op, write=True):
    """Builder running ``op`` on (dst, src), storing the result to dst when
    ``write``.  A register store cannot fail; any other destination gets
    the flags only once the store succeeded."""
    def build(emu, instr):
        st, dst = emu.state, instr.operands[0]
        src = instr.operands[1] if len(instr.operands) > 1 else Imm(0)
        if not isinstance(dst, Reg):
            load_dst, load = _reader(emu, dst), _reader(emu, src)
            store = _writer(emu, dst)

            def run():
                flags = list(st.flags)
                r = op(load_dst(), load(), flags)
                if write:
                    store(r)
                st.flags[:] = flags
            return run
        d = dst.index
        if isinstance(src, Imm):
            b = src.u32

            def run():
                g = st.gpr
                r = op(g[d], b, st.flags)
                if write:
                    g[d] = r
        elif isinstance(src, Reg):
            s = src.index

            def run():
                g = st.gpr
                r = op(g[d], g[s], st.flags)
                if write:
                    g[d] = r
        else:
            load = _reader(emu, src)

            def run():
                g = st.gpr
                r = op(g[d], load(), st.flags)
                if write:
                    g[d] = r
        return run
    return build


for _m, _op in (("ADD", _add), ("SUB", _sub), ("AND", _and), ("OR", _or),
                ("XOR", _xor), ("INC", _inc), ("DEC", _dec), ("NEG", _neg),
                ("NOT", _not), ("IMUL", _imul), ("SHL", _shl),
                ("SHR", _shr), ("SAR", _sar)):
    _BUILDERS[_m] = _alu(_op)
_BUILDERS["CMP"] = _alu(_sub, write=False)
_BUILDERS["TEST"] = _alu(_and, write=False)


@_builder("IDIV")
def _b_idiv(emu, instr):
    st, load = emu.state, _reader(emu, instr.operands[0])

    def run():
        divisor = load()
        g = st.gpr
        q, r = sem.idiv32(g[0], divisor)
        g[0], g[2] = q, r
        st.flags[:] = (0 if q else 1, q >> 31, 0, 0)
    return run


@_builder("JMP", "JMPI")
def _b_jmp(emu, instr):
    return _reader(emu, instr.operands[0])


@_builder("CALL", "CALLI")
def _b_call(emu, instr):
    st, store = emu.state, emu.memory.write_u32
    load, ret = _reader(emu, instr.operands[0]), instr.next_addr

    def run():
        target = load()
        g = st.gpr
        esp = (g[4] - 4) & MASK32
        store(esp, ret)
        g[4] = esp
        return target
    return run


@_builder("RET")
def _b_ret(emu, instr):
    st, load = emu.state, emu.memory.read_u32

    def run():
        g = st.gpr
        esp = g[4]
        target = load(esp)
        g[4] = (esp + 4) & MASK32
        return target
    return run


@_builder(*(f"J{cc}" for cc in sem.CONDITION_EVAL))
def _b_jcc(emu, instr):
    st, taken = emu.state, sem.CONDITION_EVAL[instr.mnemonic[1:]]
    op = instr.operands[0]
    if isinstance(op, Imm):
        target = op.u32

        def run():
            if taken(st.flags):
                return target
        return run
    load = _reader(emu, op)

    def run():
        if taken(st.flags):
            return load()
    return run


@_builder("FCMP")
def _b_fcmp(emu, instr):
    st = emu.state
    x, y = (_reg(op) for op in instr.operands)

    def run():
        f = st.fpr
        a, b = f[x], f[y]
        if a != a or b != b:  # unordered (NaN) sets ZF=CF=1 like x86 FCOMI
            st.flags[:] = (1, 0, 1, 0)
        else:
            st.flags[:] = (1 if a == b else 0, 0, 1 if a < b else 0, 0)
    return run


@_builder("FLDI")
def _b_fldi(emu, instr):
    st, (freg, imm) = emu.state, instr.operands
    if not isinstance(imm, Imm):
        return lambda: imm.u32  # no such attribute: AttributeError
    d, value = _reg(freg), float(s32(imm.u32))

    def run():
        st.fpr[d] = value
    return run


# Register-file ops, table-driven.  Operand 0 is the destination; a
# one-operand op reads and writes the same register.

def _load(regfile, method):
    """``regfile[d] = memory.method(address)`` (FLD, VLD)."""
    regs = operator.attrgetter(regfile)

    def build(emu, instr):
        st, load = emu.state, getattr(emu.memory, method)
        d, addr = _reg(instr.operands[0]), _addr(st, instr.operands[1])

        def run():
            regs(st)[d] = load(addr())
        return run
    return build


def _store(regfile, method):
    """``memory.method(address, regfile[s])`` (FST, VST)."""
    regs = operator.attrgetter(regfile)

    def build(emu, instr):
        st, store = emu.state, getattr(emu.memory, method)
        addr, s = _addr(st, instr.operands[0]), _reg(instr.operands[1])

        def run():
            store(addr(), regs(st)[s])
        return run
    return build


def _unary(regfile, fn, src_file=None):
    """``regfile[d] = fn(src_file[s])``."""
    dst_regs = operator.attrgetter(regfile)
    src_regs = operator.attrgetter(src_file or regfile)

    def build(emu, instr):
        st = emu.state
        d, s = _reg(instr.operands[0]), _reg(instr.operands[-1])

        def run():
            dst_regs(st)[d] = fn(src_regs(st)[s])
        return run
    return build


def _binary(regfile, fn):
    """``regfile[d] = fn(regfile[d], regfile[s])``."""
    regs = operator.attrgetter(regfile)

    def build(emu, instr):
        st = emu.state
        d, s = (_reg(op) for op in instr.operands)

        def run():
            r = regs(st)
            r[d] = fn(r[d], r[s])
        return run
    return build


_BUILDERS.update({
    "FLD": _load("fpr", "read_f64"),
    "FST": _store("fpr", "write_f64"),
    "VLD": _load("vr", "read_vec"),
    "VST": _store("vr", "write_vec"),
    "FMOV": _unary("fpr", lambda x: x),
    "FSIN": _unary("fpr", sem.gisa_sin),
    "FCOS": _unary("fpr", sem.gisa_cos),
    "FSQRT": _unary("fpr", sem.gisa_sqrt),
    "FABS": _unary("fpr", abs),
    "FNEG": _unary("fpr", operator.neg),
    "CVTIF": _unary("fpr", lambda x: float(s32(x)), "gpr"),
    "CVTFI": _unary("gpr", sem.ftrunc32, "fpr"),
    "VMOV": _unary("vr", list),
    "VSPLAT": _unary("vr", lambda x: [x] * 4, "gpr"),
    "FADD": _binary("fpr", operator.add),
    "FSUB": _binary("fpr", operator.sub),
    "FMUL": _binary("fpr", operator.mul),
    "FDIV": _binary("fpr", sem.fdiv64),
    "VADD": _binary("vr", lambda a, b: [
        (x + y) & MASK32 for x, y in zip(a, b)]),
    "VSUB": _binary("vr", lambda a, b: [
        (x - y) & MASK32 for x, y in zip(a, b)]),
    "VMUL": _binary("vr", lambda a, b: [
        (s32(x) * s32(y)) & MASK32 for x, y in zip(a, b)]),
})


@_builder("REP_MOVSD", "REP_STOSD")
def _b_rep(emu, instr):
    """REP_MOVSD copies ECX dwords from [ESI] to [EDI], REP_STOSD stores EAX
    into them; restartable per element."""
    st, load, store = emu.state, emu.memory.read_u32, emu.memory.write_u32
    movs = instr.mnemonic == "REP_MOVSD"

    def run():
        g = st.gpr
        while g[1] != 0:
            if movs:
                store(g[7], load(g[6]))
                g[6] = (g[6] + 4) & MASK32
            else:
                store(g[7], g[0])
            g[7] = (g[7] + 4) & MASK32
            g[1] = (g[1] - 1) & MASK32
    return run


@_builder("SYSCALL")
def _b_syscall(emu, instr):
    return lambda: emu.os.execute(emu.state, emu.memory)


@_builder("HLT")
def _b_hlt(emu, instr):
    addr = instr.addr

    def run():
        emu.os.exit_code = emu.state.gpr[0]
        return addr  # stay put; halted property takes over
    return run
