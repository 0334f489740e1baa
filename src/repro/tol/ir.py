"""TOL intermediate representation.

The decoder frontend translates guest instructions to this RISC-like IR; all
optimizations operate on it; the code generator lowers it to host code.  This
is the layer that makes DARCO's frontend pluggable: adding a new guest ISA
only requires a new decoder to this IR (paper §V-D, "Support for multiple
ISA").

Operands
--------
- :class:`GReg`/:class:`GFReg`/:class:`GVReg`/:class:`Flag` — guest
  architectural state (directly mapped onto host home registers);
- :class:`Tmp`/:class:`FTmp`/:class:`VTmp` — virtual registers;
- :class:`Const` — integer or float literal.

Control ops carry guest PCs in ``attrs``; ``br_true``/``br_false`` are the
only terminators the decoder emits for conditional branches — the superblock
builder rewrites them into asserts or side exits.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from typing import Dict, Optional, Tuple

from repro.guest.isa import FLAG_NAMES, FPR_NAMES, GPR_NAMES, VR_NAMES


class _Register:
    """A register operand: one instance per class and index, so ``==`` and
    ``hash`` are identity (an identity hash differs between processes, so a
    set of operands is only ever tested for membership).  Copies and
    pickles return the same instance."""

    __slots__ = ("index",)

    def __init_subclass__(cls):
        cls._interned = {}

    def __new__(cls, index: int):
        self = cls._interned.get(index)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "index", index)
            self = cls._interned.setdefault(index, self)
        return self

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return type(self), (self.index,)


class GReg(_Register):
    __slots__ = ()

    def __repr__(self):
        return GPR_NAMES[self.index]


class GFReg(_Register):
    __slots__ = ()

    def __repr__(self):
        return FPR_NAMES[self.index]


class GVReg(_Register):
    __slots__ = ()

    def __repr__(self):
        return VR_NAMES[self.index]


class Flag(_Register):
    __slots__ = ()

    def __repr__(self):
        return FLAG_NAMES[self.index]


class Tmp(_Register):
    __slots__ = ()

    def __repr__(self):
        return f"t{self.index}"


class FTmp(_Register):
    __slots__ = ()

    def __repr__(self):
        return f"ft{self.index}"


class VTmp(_Register):
    __slots__ = ()

    def __repr__(self):
        return f"vt{self.index}"


@dataclass(frozen=True, slots=True)
class Const:
    value: object  # int for integer ops, float for FP ops

    def __repr__(self):
        if isinstance(self.value, int):
            return f"#{self.value:#x}"
        return f"#{self.value}"


ZF, SF, CF, OF = Flag(0), Flag(1), Flag(2), Flag(3)


class IROp:
    """Opcode groups (integer ops have 32-bit wrapping semantics)."""

    INT = frozenset({
        "mov", "add", "sub", "mul", "div", "rem", "and", "or", "xor",
        "shl", "shr", "sar", "not", "neg",
        "cmpeq", "cmpne", "cmplts", "cmpltu", "cmples", "cmpleu",
        "addcf", "addof", "subcf", "subof", "mulof",
    })
    FP = frozenset({
        "fmov", "fadd", "fsub", "fmul", "fdiv", "fneg", "fabs", "fsqrt",
        "ffloor", "fsin", "fcos", "i2f", "f2i", "fcmpeq", "fcmplt", "fcmpun",
    })
    VEC = frozenset({"vmov", "vadd", "vsub", "vmul", "vsplat"})
    LOAD = frozenset({"ld32", "ldf", "ldv"})
    STORE = frozenset({"st32", "stf", "stv"})
    CONTROL = frozenset({
        "br_true", "br_false",     # conditional guest branch (decoder output)
        "jmp",                     # unconditional, attrs["target_pc"]
        "jmp_ind",                 # indirect, srcs[0] holds guest pc
        "assert_true", "assert_false",          # superblock speculation
        "side_exit_true", "side_exit_false",    # multi-exit superblocks
        "guard_exit_false",        # loop-unroll runtime trip-count guard
        "exit", "exit_ind",        # leave the region
    })
    ALL = INT | FP | VEC | LOAD | STORE | CONTROL

    #: Ops with side effects beyond their destination (never dead-code
    #: eliminated).
    SIDE_EFFECTS = STORE | CONTROL


_SAME = object()


@dataclass(slots=True, unsafe_hash=True)
class IRInstr:
    """One IR operation.

    ``imm`` is the memory displacement for loads/stores (address operand is
    ``srcs[0]``); other integer immediates appear as :class:`Const` sources.
    ``attrs`` holds control metadata (target PCs, speculation marks).
    An instruction is not changed once made: passes make changed copies
    with :meth:`with_changes`.
    """

    op: str
    dst: Optional[object] = None
    srcs: Tuple[object, ...] = ()
    imm: int = 0
    attrs: Dict[str, object] = field(default_factory=dict, compare=False)
    guest_pc: Optional[int] = None

    def with_changes(self, op=_SAME, dst=_SAME, srcs=_SAME, imm=_SAME,
                     attrs=_SAME, guest_pc=_SAME) -> "IRInstr":
        """A copy with the given fields changed; it shares ``attrs``
        unless given new ones."""
        return IRInstr(
            self.op if op is _SAME else op,
            self.dst if dst is _SAME else dst,
            self.srcs if srcs is _SAME else srcs,
            self.imm if imm is _SAME else imm,
            self.attrs if attrs is _SAME else attrs,
            self.guest_pc if guest_pc is _SAME else guest_pc)

    @property
    def is_load(self) -> bool:
        return self.op in IROp.LOAD

    @property
    def is_store(self) -> bool:
        return self.op in IROp.STORE

    @property
    def is_control(self) -> bool:
        return self.op in IROp.CONTROL

    @property
    def has_side_effects(self) -> bool:
        return self.op in IROp.SIDE_EFFECTS

    def __repr__(self):
        parts = [self.op]
        if self.dst is not None:
            parts.append(f"{self.dst!r} <-")
        parts.extend(repr(s) for s in self.srcs)
        if self.imm:
            parts.append(f"+{self.imm:#x}")
        if self.attrs:
            interesting = {
                k: (f"{v:#x}" if isinstance(v, int) else v)
                for k, v in self.attrs.items()
                if k in ("target_pc", "taken_pc", "fall_pc", "next_pc")}
            if interesting:
                parts.append(str(interesting))
        return " ".join(parts)


def is_arch(operand) -> bool:
    """True for guest architectural state operands."""
    return isinstance(operand, (GReg, GFReg, GVReg, Flag))


def is_tmp(operand) -> bool:
    return isinstance(operand, (Tmp, FTmp, VTmp))


class TmpAllocator:
    """Fresh virtual register factory (per translation region)."""

    def __init__(self):
        self._next = 0

    def tmp(self) -> Tmp:
        self._next += 1
        return Tmp(self._next)

    def ftmp(self) -> FTmp:
        self._next += 1
        return FTmp(self._next)

    def vtmp(self) -> VTmp:
        self._next += 1
        return VTmp(self._next)
