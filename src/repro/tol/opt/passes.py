"""TOL optimization passes.

Each pass is a pure function ``(ops) -> (new_ops, PassStats)`` over a
straight-line IR list.  The optimizer pipeline (paper §V-B3): a forward pass
applying constant folding, constant propagation and copy propagation; common
subexpression elimination with memory versioning (which subsumes redundant
load elimination and store-to-load forwarding); and a backward dead-code
elimination pass whose liveness rules implement the lazy-flag optimization
(intermediate flag values that are overwritten unconsumed simply die).

The pass framework is the paper's "plug-and-play" point: passes are selected
by name in :class:`repro.tol.config.TolConfig` and new ones register with
:func:`register_pass`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.tol.ir import (
    Const, FTmp, Flag, GFReg, GReg, GVReg, IRInstr, IROp, Tmp, VTmp, is_arch,
)
from repro.tol.ir_eval import _EVAL as _PURE_EVAL


@dataclass
class PassStats:
    name: str
    ops_in: int = 0
    ops_out: int = 0
    changed: int = 0

    @property
    def removed(self) -> int:
        return self.ops_in - self.ops_out


PassFn = Callable[[List[IRInstr]], Tuple[List[IRInstr], PassStats]]

_REGISTRY: Dict[str, PassFn] = {}


def register_pass(name: str):
    """Register an optimization pass under ``name`` (plug-and-play hook)."""
    def wrap(fn: PassFn) -> PassFn:
        _REGISTRY[name] = fn
        return fn
    return wrap


def get_pass(name: str) -> PassFn:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown optimization pass {name!r}; "
            f"available: {sorted(_REGISTRY)}") from None


def available_passes() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def run_pipeline(ops: List[IRInstr], names) -> Tuple[List[IRInstr], list]:
    """Run the named passes in order; returns (ops, [PassStats...])."""
    stats = []
    for name in names:
        ops, st = get_pass(name)(ops)
        stats.append(st)
    return ops, stats


# ---------------------------------------------------------------------------
# Constant folding.
# ---------------------------------------------------------------------------

#: Pure ops foldable when all sources are constants.  fsin/fcos are folded
#: through the architectural recipe so results stay bit-identical.
_FOLDABLE = (IROp.INT | IROp.FP) - {"mov", "fmov"}


@register_pass("constfold")
def const_fold(ops: List[IRInstr]):
    stats = PassStats("constfold", ops_in=len(ops))
    out = []
    for instr in ops:
        if (instr.op in _FOLDABLE
                and instr.srcs
                and all(isinstance(s, Const) for s in instr.srcs)):
            fn = _PURE_EVAL[instr.op]
            value = fn(*[s.value for s in instr.srcs])
            move = "fmov" if isinstance(instr.dst, (FTmp, GFReg)) else "mov"
            out.append(instr.with_changes(
                op=move, srcs=(Const(value),), imm=0))
            stats.changed += 1
        else:
            out.append(instr)
    stats.ops_out = len(out)
    return out, stats


# ---------------------------------------------------------------------------
# Constant + copy propagation (one forward pass).
# ---------------------------------------------------------------------------


@register_pass("constprop")
def const_copy_prop(ops: List[IRInstr]):
    """Propagate constants and copies through temps.

    Safe on SSA regions and on non-SSA basic blocks: copies of
    *architectural* sources are only propagated while the source has not
    been redefined.
    """
    stats = PassStats("constprop", ops_in=len(ops))
    env: Dict[object, object] = {}
    arch_version: Dict[object, int] = {}
    copy_version: Dict[object, int] = {}

    def resolve(operand):
        seen = 0
        while operand in env and seen < 8:
            replacement = env[operand]
            if is_arch(replacement):
                if copy_version.get(operand) != \
                        arch_version.get(replacement, 0):
                    break
            operand = replacement
            seen += 1
        return operand

    out = []
    for instr in ops:
        new_srcs = tuple(resolve(s) for s in instr.srcs)
        if new_srcs != instr.srcs:
            instr = instr.with_changes(srcs=new_srcs)
            stats.changed += 1
        dst = instr.dst
        if dst is not None:
            env.pop(dst, None)
            if is_arch(dst):
                arch_version[dst] = arch_version.get(dst, 0) + 1
                # invalidate copies *of* this arch location
            if instr.op in ("mov", "fmov", "vmov") and len(instr.srcs) == 1:
                src = instr.srcs[0]
                if isinstance(src, Const) or is_arch(src) or isinstance(
                        src, (Tmp, FTmp, VTmp)):
                    if isinstance(dst, (Tmp, FTmp, VTmp)):
                        env[dst] = src
                        if is_arch(src):
                            copy_version[dst] = arch_version.get(src, 0)
        out.append(instr)
    stats.ops_out = len(out)
    return out, stats


# ---------------------------------------------------------------------------
# CSE with memory versioning (subsumes RLE and store forwarding).
# ---------------------------------------------------------------------------

_CSEABLE = (IROp.INT | IROp.FP | IROp.VEC) - {"mov", "fmov", "vmov"}
_LOAD_SIZE = {"ld32": 4, "ldf": 8, "ldv": 16,
              "st32": 4, "stf": 8, "stv": 16}
_STORE_TO_LOAD = {"st32": "ld32", "stf": "ldf", "stv": "ldv"}
#: A float constant's bits.
_F64 = struct.Struct("<d").pack


@register_pass("cse")
def cse_rle_forwarding(ops: List[IRInstr]):
    """Common subexpression elimination; loads participate under a memory
    version that bumps at every store, giving redundant-load elimination;
    exact-match store-to-load forwarding is applied on top.

    Every register in an expression key — and every remembered result or
    forwarded store value — carries its definition-count version, so a
    redefined register never matches (or substitutes for) a stale value.
    A constant is keyed by its type and bits: ``#0.0`` and ``#-0.0``, or
    ``#1`` and ``#1.0``, compare equal but are different operands.
    Like constprop, the pass is safe on non-SSA regions.
    """
    stats = PassStats("cse", ops_in=len(ops))
    version: Dict[object, int] = {}

    def vkey(operand):
        if isinstance(operand, Const):
            value = operand.value
            return (type(value), _F64(value) if isinstance(value, float)
                    else value)
        return (operand, version.get(operand, 0))

    def valid(entry) -> bool:
        operand, at_version = entry
        return version.get(operand, 0) == at_version

    exprs: Dict[tuple, tuple] = {}      # key -> (result, version-at-def)
    mem_version = 0
    last_store: Dict[tuple, tuple] = {}  # key -> (value, version-at-store)
    out = []
    for instr in ops:
        replaced = False
        if instr.is_store:
            mem_version += 1
            last_store.clear()
            key = (_STORE_TO_LOAD[instr.op], vkey(instr.srcs[0]), instr.imm)
            value = instr.srcs[1]
            last_store[key] = (value, version.get(value, 0))
        elif instr.is_load:
            fwd_key = (instr.op, vkey(instr.srcs[0]), instr.imm)
            fwd = last_store.get(fwd_key)
            if fwd is not None and valid(fwd):
                move = {"ld32": "mov", "ldf": "fmov", "ldv": "vmov"}[instr.op]
                out.append(instr.with_changes(
                    op=move, srcs=(fwd[0],), imm=0))
                stats.changed += 1
                replaced = True
            else:
                key = (instr.op, vkey(instr.srcs[0]), instr.imm, mem_version)
                prior = exprs.get(key)
                if prior is not None and valid(prior):
                    move = {"ld32": "mov", "ldf": "fmov",
                            "ldv": "vmov"}[instr.op]
                    out.append(instr.with_changes(
                        op=move, srcs=(prior[0],), imm=0))
                    stats.changed += 1
                    replaced = True
                else:
                    exprs[key] = (instr.dst, version.get(instr.dst, 0) + 1)
        elif (instr.op in _CSEABLE and instr.dst is not None
              and isinstance(instr.dst, (Tmp, FTmp, VTmp))):
            key = (instr.op, tuple(vkey(s) for s in instr.srcs), instr.imm)
            prior = exprs.get(key)
            if prior is not None and valid(prior):
                move = ("fmov" if isinstance(instr.dst, FTmp) else
                        "vmov" if isinstance(instr.dst, VTmp) else "mov")
                out.append(instr.with_changes(op=move, srcs=(prior[0],),
                                              imm=0))
                stats.changed += 1
                replaced = True
            else:
                exprs[key] = (instr.dst, version.get(instr.dst, 0) + 1)
        if not replaced:
            out.append(instr)
        if instr.dst is not None:
            version[instr.dst] = version.get(instr.dst, 0) + 1
    stats.ops_out = len(out)
    return out, stats


# ---------------------------------------------------------------------------
# Dead code elimination (backward liveness).
# ---------------------------------------------------------------------------

_ALL_ARCH = (
    [GReg(i) for i in range(8)] + [Flag(i) for i in range(4)]
    + [GFReg(i) for i in range(8)] + [GVReg(i) for i in range(8)]
)

#: Control ops after which guest architectural state must be fully
#: materialized (they *commit*).  Asserts are absent on purpose: an assert
#: failure rolls back to the checkpoint, so no state needs to be live there.
_COMMITTING_EXITS = frozenset({
    "side_exit_true", "side_exit_false", "guard_exit_false",
    "exit", "exit_ind", "br_true", "br_false", "jmp", "jmp_ind",
})


@register_pass("dce")
def dead_code_elim(ops: List[IRInstr]):
    """Remove pure ops whose destination is never consumed.

    Architectural state is live at region exit, so final writebacks survive;
    intermediate (overwritten) architectural defs die if unconsumed — this
    is exactly DARCO's lazy condition-flag materialization.  Dead loads are
    removed too (legal for a co-designed DBT; a removed load at worst
    removes a spurious page fault).
    """
    stats = PassStats("dce", ops_in=len(ops))
    live = set(_ALL_ARCH)
    kept_rev = []
    for instr in reversed(ops):
        if instr.op in _COMMITTING_EXITS:
            live.update(_ALL_ARCH)
        needed = (
            instr.has_side_effects
            or instr.dst is None
            or instr.dst in live
        )
        if needed:
            if instr.dst is not None:
                live.discard(instr.dst)
            live.update(
                s for s in instr.srcs if not isinstance(s, Const))
            kept_rev.append(instr)
    out = list(reversed(kept_rev))
    stats.ops_out = len(out)
    stats.changed = stats.ops_in - stats.ops_out
    return out, stats


#: The standard pipelines (paper §V-B2/B3).
BBM_PIPELINE = ("constfold", "constprop", "dce")
SBM_PIPELINE = ("constfold", "constprop", "cse", "constprop", "dce")
