"""Shared architectural semantics for guest arithmetic.

The reference emulator (x86 component) and the TOL's translations must agree
bit-for-bit.  For integer arithmetic that is easy (exact wrap helpers).  For
the transcendental instructions (``FSIN``/``FCOS``) the guest ISA *defines*
the result as a specific straight-line polynomial computation — expressed here
as a data "recipe" so the reference emulator evaluates the exact same IEEE
double operations, in the same order, as the host-code expansion emitted by
the TOL code generator.  This mirrors real co-designed processors where trig
is emulated in software (the paper attributes Physicsbench's high emulation
cost to exactly this).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.guest.isa import s32, u32

# --------------------------------------------------------------------------
# Integer division and condition codes.  The flag writes of each ALU op are
# stated once, in its builder in :mod:`repro.guest.emulator`.
# --------------------------------------------------------------------------


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


#: Condition-code predicates over the flags list [ZF, SF, CF, OF] -> bool.
CONDITION_EVAL = {
    "E": lambda f: f[0] == 1,
    "NE": lambda f: f[0] == 0,
    "L": lambda f: f[1] != f[3],
    "LE": lambda f: f[0] == 1 or f[1] != f[3],
    "G": lambda f: f[0] == 0 and f[1] == f[3],
    "GE": lambda f: f[1] == f[3],
    "B": lambda f: f[2] == 1,
    "BE": lambda f: f[2] == 1 or f[0] == 1,
    "A": lambda f: f[2] == 0 and f[0] == 0,
    "AE": lambda f: f[2] == 0,
    "S": lambda f: f[1] == 1,
    "NS": lambda f: f[1] == 0,
}


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


def gisa_sin(x: float) -> float:
    """The guest ISA's architectural definition of FSIN."""
    return eval_recipe(SIN_RECIPE, x)


def gisa_cos(x: float) -> float:
    """The guest ISA's architectural definition of FCOS."""
    return eval_recipe(COS_RECIPE, x)


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
