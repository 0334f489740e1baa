"""Guest ISA (GISA) definition.

GISA is a synthetic CISC instruction set standing in for x86 (see DESIGN.md,
substitution table).  It reproduces the ISA *shape* that drives the paper's
evaluation: few architectural registers, condition flags written as a side
effect of ALU operations, memory operands with base+index*scale+disp
addressing, variable-length encoding, complex instructions (division, string
operations) and transcendental instructions (sin/cos) that the host must
emulate in software.

The module defines registers, operand kinds, the instruction table with
semantic metadata, and the :class:`GuestInstr` container produced by the
encoder/decoder in :mod:`repro.guest.encoding`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

MASK32 = 0xFFFFFFFF

#: Guest general purpose registers, x86 style.
GPR_NAMES = ("EAX", "ECX", "EDX", "EBX", "ESP", "EBP", "ESI", "EDI")
#: Guest scalar floating point registers (flat file, unlike the x87 stack).
FPR_NAMES = tuple(f"F{i}" for i in range(8))
#: Guest 4-lane 32-bit integer vector registers.
VR_NAMES = tuple(f"V{i}" for i in range(8))
#: Guest condition flags (PF/AF omitted; see DESIGN.md).
FLAG_NAMES = ("ZF", "SF", "CF", "OF")

GPR_INDEX = {name: i for i, name in enumerate(GPR_NAMES)}
FPR_INDEX = {name: i for i, name in enumerate(FPR_NAMES)}
VR_INDEX = {name: i for i, name in enumerate(VR_NAMES)}
FLAG_INDEX = {name: i for i, name in enumerate(FLAG_NAMES)}


@dataclass(frozen=True)
class Reg:
    """A guest general-purpose register operand."""

    name: str

    def __post_init__(self):
        if self.name not in GPR_INDEX:
            raise ValueError(f"unknown guest GPR {self.name!r}")

    @property
    def index(self) -> int:
        return GPR_INDEX[self.name]

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class FReg:
    """A guest floating-point register operand."""

    name: str

    def __post_init__(self):
        if self.name not in FPR_INDEX:
            raise ValueError(f"unknown guest FPR {self.name!r}")

    @property
    def index(self) -> int:
        return FPR_INDEX[self.name]

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class VReg:
    """A guest vector register operand."""

    name: str

    def __post_init__(self):
        if self.name not in VR_INDEX:
            raise ValueError(f"unknown guest VR {self.name!r}")

    @property
    def index(self) -> int:
        return VR_INDEX[self.name]

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Imm:
    """An immediate operand (32-bit two's-complement encodable)."""

    value: int

    def __post_init__(self):
        if not (-(1 << 31) <= self.value <= MASK32):
            raise ValueError(f"immediate {self.value} not encodable in 32 bits")

    @property
    def u32(self) -> int:
        return self.value & MASK32

    def __repr__(self):
        return f"${self.value:#x}"


@dataclass(frozen=True)
class Mem:
    """A memory operand: effective address = base + index*scale + disp."""

    base: Optional[str] = None
    index: Optional[str] = None
    scale: int = 1
    disp: int = 0

    def __post_init__(self):
        if self.base is not None and self.base not in GPR_INDEX:
            raise ValueError(f"unknown base register {self.base!r}")
        if self.index is not None and self.index not in GPR_INDEX:
            raise ValueError(f"unknown index register {self.index!r}")
        if self.scale not in (1, 2, 4, 8):
            raise ValueError(f"scale must be 1/2/4/8, got {self.scale}")
        if not (-(1 << 31) <= self.disp <= MASK32):
            raise ValueError(f"displacement {self.disp} not encodable")

    def __repr__(self):
        parts = []
        if self.base:
            parts.append(self.base)
        if self.index:
            parts.append(f"{self.index}*{self.scale}")
        if self.disp or not parts:
            parts.append(f"{self.disp:#x}")
        return "[" + "+".join(parts) + "]"


Operand = object  # union of Reg/FReg/VReg/Imm/Mem


class InsnClass(Enum):
    """Broad semantic classes used by the TOL and the timing cost tables."""

    ALU = "alu"
    MOVE = "move"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    CALL = "call"
    RET = "ret"
    MUL = "mul"
    DIV = "div"
    FP = "fp"
    FP_TRIG = "fp_trig"
    FP_MEM = "fp_mem"
    VEC = "vec"
    VEC_MEM = "vec_mem"
    STRING = "string"
    SYSCALL = "syscall"
    NOP = "nop"
    HALT = "halt"


@dataclass(frozen=True)
class InsnSpec:
    """Static description of one guest mnemonic.

    ``operands`` is a tuple of operand-kind strings used by the assembler and
    the encoder for validation: ``r`` GPR, ``f`` FPR, ``v`` VR, ``i``
    immediate, ``m`` memory, ``rm`` register-or-memory, ``rmi``
    register-memory-or-immediate, ``ri`` register-or-immediate.
    """

    mnemonic: str
    operands: Tuple[str, ...]
    klass: InsnClass
    writes_flags: bool = False
    reads_flags: bool = False
    #: True for instructions the TOL never includes in translations (they are
    #: handled by the interpreter "safety net": syscalls and string ops).
    interpreter_only: bool = False
    #: True for control transfer instructions (end a basic block).
    is_branch: bool = False


def _spec(mnemonic, operands, klass, **kw):
    return InsnSpec(mnemonic, tuple(operands), klass, **kw)


#: Condition codes for Jcc: name -> predicate over flags, documented in
#: :mod:`repro.guest.emulator`.
CONDITION_CODES = (
    "E", "NE", "L", "LE", "G", "GE", "B", "BE", "A", "AE", "S", "NS",
)

INSN_SPECS = {}


def _add(spec: InsnSpec):
    if spec.mnemonic in INSN_SPECS:
        raise ValueError(f"duplicate mnemonic {spec.mnemonic}")
    INSN_SPECS[spec.mnemonic] = spec


# Data movement.
_add(_spec("MOV", ("rm", "rmi"), InsnClass.MOVE))
_add(_spec("LEA", ("r", "m"), InsnClass.ALU))
_add(_spec("PUSH", ("ri",), InsnClass.STORE))
_add(_spec("POP", ("r",), InsnClass.LOAD))
_add(_spec("XCHG", ("r", "r"), InsnClass.MOVE))

# Integer ALU, flag-writing (x86 style side effect).
for op in ("ADD", "SUB", "AND", "OR", "XOR"):
    _add(_spec(op, ("rm", "rmi"), InsnClass.ALU, writes_flags=True))
_add(_spec("CMP", ("rm", "rmi"), InsnClass.ALU, writes_flags=True))
_add(_spec("TEST", ("r", "ri"), InsnClass.ALU, writes_flags=True))
_add(_spec("INC", ("rm",), InsnClass.ALU, writes_flags=True))
_add(_spec("DEC", ("rm",), InsnClass.ALU, writes_flags=True))
_add(_spec("NEG", ("r",), InsnClass.ALU, writes_flags=True))
_add(_spec("NOT", ("r",), InsnClass.ALU))
for op in ("SHL", "SHR", "SAR"):
    _add(_spec(op, ("r", "i"), InsnClass.ALU, writes_flags=True))
_add(_spec("IMUL", ("r", "rmi"), InsnClass.MUL, writes_flags=True))
_add(_spec("IDIV", ("rm",), InsnClass.DIV, writes_flags=True))

# Control flow.
_add(_spec("JMP", ("i",), InsnClass.BRANCH, is_branch=True))
_add(_spec("JMPI", ("rm",), InsnClass.BRANCH, is_branch=True))
for cc in CONDITION_CODES:
    _add(_spec(
        f"J{cc}", ("i",), InsnClass.BRANCH, reads_flags=True, is_branch=True))
_add(_spec("CALL", ("i",), InsnClass.CALL, is_branch=True))
_add(_spec("CALLI", ("rm",), InsnClass.CALL, is_branch=True))
_add(_spec("RET", (), InsnClass.RET, is_branch=True))

# Scalar floating point.
_add(_spec("FLD", ("f", "m"), InsnClass.FP_MEM))
_add(_spec("FST", ("m", "f"), InsnClass.FP_MEM))
_add(_spec("FMOV", ("f", "f"), InsnClass.FP))
for op in ("FADD", "FSUB", "FMUL", "FDIV"):
    _add(_spec(op, ("f", "f"), InsnClass.FP))
_add(_spec("FCMP", ("f", "f"), InsnClass.FP, writes_flags=True))
for op in ("FSIN", "FCOS"):
    _add(_spec(op, ("f",), InsnClass.FP_TRIG))
_add(_spec("FSQRT", ("f",), InsnClass.FP))
_add(_spec("FABS", ("f",), InsnClass.FP))
_add(_spec("FNEG", ("f",), InsnClass.FP))
_add(_spec("FLDI", ("f", "i"), InsnClass.FP))  # load small integer constant
_add(_spec("CVTIF", ("f", "r"), InsnClass.FP))
_add(_spec("CVTFI", ("r", "f"), InsnClass.FP))

# Vector (4 x int32 lanes).
_add(_spec("VLD", ("v", "m"), InsnClass.VEC_MEM))
_add(_spec("VST", ("m", "v"), InsnClass.VEC_MEM))
for op in ("VADD", "VSUB", "VMUL"):
    _add(_spec(op, ("v", "v"), InsnClass.VEC))
_add(_spec("VSPLAT", ("v", "r"), InsnClass.VEC))
_add(_spec("VMOV", ("v", "v"), InsnClass.VEC))

# Complex string operations (interpreter-only: the software layer handles
# the corner cases the hardware omits, as the paper describes).
_add(_spec("REP_MOVSD", (), InsnClass.STRING, interpreter_only=True))
_add(_spec("REP_STOSD", (), InsnClass.STRING, interpreter_only=True))

# System.
_add(_spec(
    "SYSCALL", (), InsnClass.SYSCALL, interpreter_only=True, is_branch=True))
_add(_spec("NOP", (), InsnClass.NOP))
_add(_spec("HLT", (), InsnClass.HALT, interpreter_only=True, is_branch=True))


#: Stable mnemonic ordering used by the byte encoder.
MNEMONICS = tuple(sorted(INSN_SPECS))
OPCODE_OF = {m: i for i, m in enumerate(MNEMONICS)}


@dataclass(slots=True, unsafe_hash=True)
class GuestInstr:
    """One decoded guest instruction.

    ``addr`` and ``length`` locate the instruction in guest memory so the TOL
    can compute fall-through addresses and code-cache keys.  ``spec`` (None
    for a mnemonic the ISA lacks, which the encoder rejects), ``next_addr``
    and ``is_branch`` are derived once, when it is made; it is not changed
    after that.
    """

    mnemonic: str
    operands: Tuple[Operand, ...]
    addr: int = 0
    length: int = 0
    spec: Optional[InsnSpec] = field(init=False, repr=False, compare=False)
    next_addr: int = field(init=False, repr=False, compare=False)
    is_branch: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.spec = spec = INSN_SPECS.get(self.mnemonic)
        self.next_addr = (self.addr + self.length) & MASK32
        self.is_branch = spec is not None and spec.is_branch

    def __repr__(self):
        ops = ", ".join(repr(o) for o in self.operands)
        return f"{self.mnemonic} {ops}".strip()


def u32(value: int) -> int:
    """Wrap an integer to an unsigned 32-bit guest value."""
    return value & MASK32


def s32(value: int) -> int:
    """Interpret a 32-bit guest value as signed."""
    value &= MASK32
    return value - (1 << 32) if value & 0x80000000 else value
