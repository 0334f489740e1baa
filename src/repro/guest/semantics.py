"""The guest ISA's semantics, stated once.

:data:`ROWS` gives every mnemonic's effect as a table row; both forms of
the reference emulator (the x86 component), the closure of one
instruction and the function of one basic block, are generated from it
(:mod:`repro.guest.emulator`).  It is stated independently of the TOL's
decode-to-IR path, and imports nothing from ``repro.tol`` or
``repro.host``: a translation bug cannot hide by being mirrored here.

The reference emulator and the TOL's translations must agree
bit-for-bit.  For integer arithmetic that is easy (exact wrap helpers).
For the transcendental instructions (``FSIN``/``FCOS``) the guest ISA
*defines* the result as a specific straight-line polynomial computation
— expressed here as a data "recipe" so the reference emulator evaluates
the exact same IEEE double operations, in the same order, as the
host-code expansion emitted by the TOL code generator.  This mirrors
real co-designed processors where trig is emulated in software (the
paper attributes Physicsbench's high emulation cost to exactly this).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.guest.isa import s32, u32
from repro.pycode import define


def idiv32(a: int, b: int) -> Tuple[int, int]:
    """Signed truncated division; by-zero yields (0, a) by ISA definition."""
    sa, sb = s32(a), s32(b)
    if sb == 0:
        return 0, u32(sa)
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    remainder = sa - quotient * sb
    return u32(quotient), u32(remainder)


# --------------------------------------------------------------------------
# The table.  A row is (roles, body, flags, next):
#
#   roles  one letter per operand: 'i' an integer (a register, an
#          immediate or the word at a memory operand), 'g'/'f'/'v' a
#          register of the GPR/FPR/VR file by its number, 'a' an
#          effective address, 'n' an immediate as a double, 'c' a shift
#          count (an integer & 31)
#   body   statements in execution order, over the operands {0} and {1},
#          the registers and flags by name (EAX..EDI, F0..F7, V0..V7,
#          ZF SF CF OF) and temps _x.  ``{k} = e`` stores to operand k;
#          {i0} is operand 0's register number, {fall} the fall-through
#          EIP and {here} the instruction's own.  A memory access is a
#          triple (access, address, value): MR/MW, MRF/MWF or MRV/MWV
#          (word, double, 4-lane vector) loads into value or stores it
#          (the REP rows' element loops call the accessors by name)
#   flags  flag -> value (0 or 1), set after the body; a row whose last
#          role is 'c' sets them only when the count is nonzero
#   next   the next EIP, or None to fall through
#
# Memory effects come before flag effects, so a faulting access leaves
# the flags as they were (restartable instructions).  Deviations from
# x86: PF/AF omitted, IDIV flags defined, shift OF 0.
# --------------------------------------------------------------------------

_M = "0xFFFFFFFF"
_ZS = {"ZF": "0 if _r else 1", "SF": "_r >> 31"}
_LOGIC = dict(_ZS, CF="0", OF="0")


def _alu(result, flags, roles="ii", write=True):
    """An integer op: ``_r = result`` over ``_a`` (operand 0) and ``_b``
    (operand 1), stored back to operand 0 when ``write``."""
    body = ["_a = {0}", "_b = {1}"][:len(roles)] + [f"_r = {result}"]
    return roles, body + ["{0} = _r"] * write, flags, None


def _push(value):
    """Push ``value`` on the stack, the new ESP in ``_e``."""
    return [f"_e = (ESP - 4) & {_M}", ("MW", "_e", value), "ESP = _e"]


#: Jcc condition -> predicate over the flags.
CONDITIONS = {
    "E": "ZF == 1", "NE": "ZF == 0", "L": "SF != OF",
    "LE": "ZF == 1 or SF != OF", "G": "ZF == 0 and SF == OF",
    "GE": "SF == OF", "B": "CF == 1", "BE": "CF == 1 or ZF == 1",
    "A": "CF == 0 and ZF == 0", "AE": "CF == 0", "S": "SF == 1",
    "NS": "SF == 0",
}

_ADD = dict(_ZS, CF="1 if _r < _a else 0",
            OF="(~(_a ^ _b) & (_a ^ _r)) >> 31 & 1")
_SUB = dict(_ZS, CF="1 if _a < _b else 0",
            OF="((_a ^ _b) & (_a ^ _r)) >> 31 & 1")
_SHIFT_OUT = "(_a >> (_b - 1)) & 1"
_REP = "while ECX != 0:\n    {}\n    EDI = (EDI + 4) & {M}\n" \
       "    ECX = (ECX - 1) & {M}"

ROWS: Dict[str, tuple] = {
    "NOP": ("", [], {}, None),
    "MOV": ("ii", ["{0} = {1}"], {}, None),
    "LEA": ("ga", ["{0} = {1}"], {}, None),
    "XCHG": ("gg", ["{0}, {1} = {1}, {0}"], {}, None),
    "PUSH": ("i", ["_v = {0}", *_push("_v")], {}, None),
    # POP ESP: the loaded value becomes the stack pointer; the
    # post-increment is not architecturally visible (x86 semantics).
    "POP": ("g", ["_e = ESP", ("MR", "_e", "_v"), "{0} = _v",
                  f"ESP = _v if {{i0}} == 4 else (_e + 4) & {_M}"], {}, None),
    "ADD": _alu(f"(_a + _b) & {_M}", _ADD),
    "SUB": _alu(f"(_a - _b) & {_M}", _SUB),
    "CMP": _alu(f"(_a - _b) & {_M}", _SUB, write=False),
    "AND": _alu("_a & _b", _LOGIC),
    "TEST": _alu("_a & _b", _LOGIC, write=False),
    "OR": _alu("_a | _b", _LOGIC),
    "XOR": _alu("_a ^ _b", _LOGIC),
    # INC and DEC preserve CF.
    "INC": _alu(f"(_a + 1) & {_M}",
                dict(_ZS, OF="1 if _r == 0x80000000 else 0"), "i"),
    "DEC": _alu(f"(_a - 1) & {_M}",
                dict(_ZS, OF="1 if _a == 0x80000000 else 0"), "i"),
    "NEG": _alu(f"-_a & {_M}", dict(_ZS, CF="1 if _a else 0",
                                    OF="1 if _a == 0x80000000 else 0"), "i"),
    "NOT": _alu(f"~_a & {_M}", {}, "i"),
    "IMUL": ("ii", ["_a = {0}", "_b = {1}", "_f = s32(_a) * s32(_b)",
                    f"_r = _f & {_M}", "{0} = _r",
                    "_o = 0 if -0x80000000 <= _f <= 0x7FFFFFFF else 1"],
             dict(_ZS, CF="_o", OF="_o"), None),
    "SHL": _alu(f"(_a << _b) & {_M}",
                dict(_ZS, CF="(_a >> (32 - _b)) & 1", OF="0"), "ic"),
    "SHR": _alu("_a >> _b", dict(_ZS, CF=_SHIFT_OUT, OF="0"), "ic"),
    "SAR": _alu(f"(s32(_a) >> _b) & {_M}",
                dict(_ZS, CF=_SHIFT_OUT, OF="0"), "ic"),
    "IDIV": ("i", ["_b = {0}", "EAX, EDX = idiv32(EAX, _b)"],
             {"ZF": "0 if EAX else 1", "SF": "EAX >> 31", "CF": "0",
              "OF": "0"}, None),
    "JMP": ("i", [], {}, "{0}"),
    "JMPI": ("i", [], {}, "{0}"),
    "CALL": ("i", ["_t = {0}", *_push("{fall}")], {}, "_t"),
    "CALLI": ("i", ["_t = {0}", *_push("{fall}")], {}, "_t"),
    "RET": ("", ["_e = ESP", ("MR", "_e", "_t"), f"ESP = (_e + 4) & {_M}"],
            {}, "_t"),
    # An unordered compare (a NaN) sets ZF=CF=1, like x86 FCOMI.
    "FCMP": ("ff", ["_a = {0}", "_b = {1}", "_u = _a != _a or _b != _b"],
             {"ZF": "1 if _u or _a == _b else 0", "SF": "0",
              "CF": "1 if _u or _a < _b else 0", "OF": "0"}, None),
    "FLDI": ("fn", ["{0} = {1}"], {}, None),
    "FLD": ("fa", [("MRF", "{1}", "{0}")], {}, None),
    "FST": ("af", [("MWF", "{0}", "{1}")], {}, None),
    "VLD": ("va", [("MRV", "{1}", "{0}")], {}, None),
    "VST": ("av", [("MWV", "{0}", "{1}")], {}, None),
    "FMOV": ("ff", ["{0} = {1}"], {}, None),
    "FSIN": ("f", ["{0} = gisa_sin({0})"], {}, None),
    "FCOS": ("f", ["{0} = gisa_cos({0})"], {}, None),
    "FSQRT": ("f", ["{0} = gisa_sqrt({0})"], {}, None),
    "FABS": ("f", ["{0} = abs({0})"], {}, None),
    "FNEG": ("f", ["{0} = -{0}"], {}, None),
    "CVTIF": ("fg", ["{0} = float(s32({1}))"], {}, None),
    "CVTFI": ("gf", ["{0} = ftrunc32({1})"], {}, None),
    "VMOV": ("vv", ["{0} = list({1})"], {}, None),
    "VSPLAT": ("vg", ["{0} = [{1}] * 4"], {}, None),
    "FADD": ("ff", ["{0} = {0} + {1}"], {}, None),
    "FSUB": ("ff", ["{0} = {0} - {1}"], {}, None),
    "FMUL": ("ff", ["{0} = {0} * {1}"], {}, None),
    "FDIV": ("ff", ["{0} = fdiv64({0}, {1})"], {}, None),
    "VADD": ("vv", [f"{{0}} = [(_x + _y) & {_M} for _x, _y in zip({{0}}, "
                    "{1})]"], {}, None),
    "VSUB": ("vv", [f"{{0}} = [(_x - _y) & {_M} for _x, _y in zip({{0}}, "
                    "{1})]"], {}, None),
    "VMUL": ("vv", [f"{{0}} = [(s32(_x) * s32(_y)) & {_M} for _x, _y in "
                    "zip({0}, {1})]"], {}, None),
    # REP_MOVSD copies ECX dwords from [ESI] to [EDI], REP_STOSD stores
    # EAX into them; restartable per element.
    "REP_MOVSD": ("", [_REP.format(
        f"MW(EDI, MR(ESI))\n    ESI = (ESI + 4) & {_M}", M=_M)], {}, None),
    "REP_STOSD": ("", [_REP.format("MW(EDI, EAX)", M=_M)], {}, None),
    "SYSCALL": ("", ["OS.execute(st, MEM)"], {}, None),
    "HLT": ("", ["OS.exit_code = EAX"], {}, "{here}"),  # stays put
}
ROWS.update((f"J{cc}", ("i", [], {}, f"{{0}} if {cond} else {{fall}}"))
            for cc, cond in CONDITIONS.items())


# --------------------------------------------------------------------------
# Transcendental recipes.
#
# A recipe is a list of straight-line steps over named double slots:
#   ("const", dst, value)      dst = value
#   ("mul",   dst, a, b)       dst = a * b
#   ("add",   dst, a, b)       dst = a + b
#   ("sub",   dst, a, b)       dst = a - b
#   ("floor", dst, a)          dst = floor(a)
# The input slot is "x" and the result slot is "res".  Every consumer
# (reference emulator, IR evaluator, host code generator) derives its
# implementation from the same recipe, guaranteeing bit-identical results.
# --------------------------------------------------------------------------

_TWO_PI = 6.283185307179586
_INV_TWO_PI = 0.15915494309189535
_HALF_PI = 1.5707963267948966

#: Odd Taylor coefficients for sin(y), y in [-pi, pi].
_SIN_COEFFS = (
    -1.0 / 6.0,
    1.0 / 120.0,
    -1.0 / 5040.0,
    1.0 / 362880.0,
    -1.0 / 39916800.0,
    1.0 / 6227020800.0,
    -1.0 / 1307674368000.0,
    1.0 / 355687428096000.0,
    -1.0 / 121645100408832000.0,
)


def _build_sin_recipe(phase_shift: float) -> List[tuple]:
    """Range-reduce x (optionally phase shifted for cos) then evaluate the
    odd polynomial with Horner's scheme."""
    steps: List[tuple] = []
    if phase_shift:
        steps += [
            ("const", "shift", phase_shift),
            ("add", "x1", "x", "shift"),
        ]
        x = "x1"
    else:
        x = "x"
    steps += [
        ("const", "inv2pi", _INV_TWO_PI),
        ("const", "twopi", _TWO_PI),
        ("const", "half", 0.5),
        ("mul", "t", x, "inv2pi"),
        ("add", "t2", "t", "half"),
        ("floor", "k", "t2"),
        ("mul", "kk", "k", "twopi"),
        ("sub", "y", x, "kk"),
        ("mul", "z", "y", "y"),
    ]
    coeffs = list(_SIN_COEFFS)
    steps.append(("const", "acc", coeffs[-1]))
    acc = "acc"
    for i in range(len(coeffs) - 2, -1, -1):
        steps.append(("const", f"c{i}", coeffs[i]))
        steps.append(("mul", f"m{i}", acc, "z"))
        steps.append(("add", f"a{i}", f"m{i}", f"c{i}"))
        acc = f"a{i}"
    steps += [
        ("const", "one", 1.0),
        ("mul", "p", acc, "z"),
        ("add", "q", "p", "one"),
        ("mul", "res", "q", "y"),
    ]
    return steps


SIN_RECIPE: List[tuple] = _build_sin_recipe(0.0)
COS_RECIPE: List[tuple] = _build_sin_recipe(_HALF_PI)

TRIG_RECIPES = {"sin": SIN_RECIPE, "cos": COS_RECIPE}

_RECIPE_OPS = {"mul": "{} * {}", "add": "{} + {}", "sub": "{} - {}",
               "floor": "_floor({})"}


def eval_recipe(recipe: List[tuple], x: float) -> float:
    """Reference evaluation of a transcendental recipe."""
    slots: Dict[str, float] = {"x": float(x)}
    for step in recipe:
        op = step[0]
        if op == "const":
            slots[step[1]] = step[2]
        elif op == "mul":
            slots[step[1]] = slots[step[2]] * slots[step[3]]
        elif op == "add":
            slots[step[1]] = slots[step[2]] + slots[step[3]]
        elif op == "sub":
            slots[step[1]] = slots[step[2]] - slots[step[3]]
        elif op == "floor":
            slots[step[1]] = math.floor(slots[step[2]])
        else:
            raise ValueError(f"bad recipe op {op!r}")
    return slots["res"]


def _straight_line(recipe: List[tuple], name: str):
    """``recipe`` as one straight-line function ``name(x)``: the IEEE
    operations of :func:`eval_recipe`, in its order, with the constants
    as literals (``repr`` of a float reads back exactly)."""
    consts: Dict[str, str] = {}
    lines = ["x = float(x)"]
    for op, dst, *args in recipe:
        if op == "const":
            consts[dst] = repr(args[0])
        else:
            lines.append(f"{dst} = " + _RECIPE_OPS[op].format(
                *(consts.get(arg, arg) for arg in args)))
    source = f"def {name}(x):\n" + "".join(
        f"    {line}\n" for line in lines + ["return res"])
    return define(source, name, {"_floor": math.floor}, f"<{name}>")


def __getattr__(name: str):
    """``gisa_sin``/``gisa_cos``, the guest ISA's architectural FSIN and
    FCOS: SIN_RECIPE/COS_RECIPE as straight-line functions, made at the
    first use of the name (so importing this module compiles nothing)."""
    recipe = {"gisa_sin": SIN_RECIPE, "gisa_cos": COS_RECIPE}.get(name)
    if recipe is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    fn = globals()[name] = _straight_line(recipe, name)
    return fn


def fdiv64(a: float, b: float) -> float:
    """Architectural FP division: IEEE-style inf/nan on divide by zero."""
    if b != 0.0:
        return a / b
    if a == 0.0 or a != a:
        return float("nan")
    return float("inf") if a > 0 else float("-inf")


def ftrunc32(value: float) -> int:
    """Architectural double -> int32 truncation (NaN/inf -> 0, wraps)."""
    if value != value or value in (float("inf"), float("-inf")):
        return 0
    return u32(int(value))


def gisa_sqrt(x: float) -> float:
    """FSQRT is a hardware instruction on the host: IEEE sqrt. Negative
    inputs yield NaN (no trap)."""
    if x < 0:
        return float("nan")
    return math.sqrt(x)
