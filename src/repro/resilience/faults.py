"""Seeded, deterministic fault injection for translated artifacts.

A :class:`FaultInjector` arms exactly one fault, described by a
:class:`FaultSpec` ``(site, ordinal, salt)``:

- ``site``    — which artifact class to corrupt (see :data:`SITES`);
- ``ordinal`` — fire at the Nth *eligible* event for that site (1-based),
  so the same spec always corrupts the same artifact in a deterministic
  run;
- ``salt``    — seeds a private :class:`random.Random` used for every
  choice the fault makes (which instruction, which bit, ...).

The injector is attached to a :class:`~repro.tol.tol.Tol` before the run
starts; it hooks translation-unit installation, the post-optimization IR
pipeline, the alias table and the chainer.  At most one fault fires per
run, after which every hook becomes a transparent pass-through.

Fault sites
-----------
``host_bitflip``          flip an immediate bit / rewrite an opcode in a
                          freshly installed unit's host code;
``ir_drop``               delete one architectural-effect IR op after
                          the optimization pipeline;
``ir_mutate``             flip a bit in an integer constant operand of a
                          post-optimization IR op;
``assert_invert``         invert one speculation assert
                          (``assert_z`` <-> ``assert_nz``) in an
                          installed superblock;
``alias_false_negative``  make the alias table miss one genuine
                          store/load conflict;
``stale_chain``           chain an exit to the wrong translation unit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.host.isa import CodeUnit, HostInstr, HostOp
from repro.tol.ir import Flag, IRInstr, IROp, Const, is_arch

SITES = (
    "host_bitflip",
    "ir_drop",
    "ir_mutate",
    "assert_invert",
    "alias_false_negative",
    "stale_chain",
)

#: Opcode rewrites for ``host_bitflip`` that preserve operand arity, so
#: the corrupted unit still executes (and diverges) instead of crashing
#: the host emulator.
_OP_FLIPS = {
    "add32": "sub32", "sub32": "add32",
    "and32": "or32", "or32": "xor32", "xor32": "and32",
    "cmpeq": "cmpne", "cmpne": "cmpeq",
    "cmpeqi": "cmpnei", "cmpnei": "cmpeqi",
    "cmplt32s": "cmple32s", "cmple32s": "cmplt32s",
    "shl32": "shr32", "shr32": "shl32",
    "mov": "not32", "neg32": "not32", "not32": "neg32",
    "addi32": "xori32", "xori32": "addi32",
}

#: Host ops whose integer immediate is safe to bit-flip (never a branch
#: target or checkpoint bookkeeping).
_IMM_FLIP_OPS = (
    frozenset({"li", "addi32", "andi32", "ori32", "xori32",
               "shli32", "shri32", "sari32", "cmpeqi", "cmpnei"})
)

#: Guest GPR homes in the host integer register file; corrupting the
#: *last* write to one of these in a unit is architecturally live (the
#: value survives to the unit's exit instead of being overwritten).
_GPR_HOME_RANGE = range(1, 9)


@dataclass(frozen=True)
class FaultSpec:
    """One fault to arm: fire at the ``ordinal``-th eligible event of
    ``site``, with all random choices drawn from ``salt``."""

    site: str
    ordinal: int = 1
    salt: int = 0

    def __post_init__(self):
        if self.site not in SITES:
            raise ValueError(f"unknown fault site: {self.site!r}")
        if self.ordinal < 1:
            raise ValueError("ordinal is 1-based")


class FaultInjector:
    """Arms one :class:`FaultSpec` against a TOL instance."""

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self.rng = random.Random(spec.salt)
        self.fired = False
        self.fired_detail: Dict[str, Any] = {}
        self._seen = 0  # eligible events observed so far

    # -- wiring ----------------------------------------------------------------

    def attach(self, tol) -> None:
        """Hook the TOL's translation machinery for this fault site."""
        # Make the armed fault discoverable by checkpoint/bundle writers.
        tol.fault_injector = self
        site = self.spec.site
        if site in ("host_bitflip", "assert_invert"):
            tol.install_hook = self._on_install
        elif site in ("ir_drop", "ir_mutate"):
            tol.translator.ir_hook = self._on_ir
        elif site == "alias_false_negative":
            table = tol.host.alias_table
            orig = table.store_conflicts

            def wrapped(addr, size, seq):
                hit = orig(addr, size, seq)
                if hit and not self.fired:
                    self._seen += 1
                    if self._seen >= self.spec.ordinal:
                        self._fire({"addr": addr, "size": size, "seq": seq})
                        return False
                return hit

            table.store_conflicts = wrapped
        elif site == "stale_chain":
            cache = tol.cache
            orig_chain = cache.chain

            def chained(from_unit, exit_index, to_unit):
                target = to_unit
                if not self.fired:
                    self._seen += 1
                    if self._seen >= self.spec.ordinal:
                        wrong = self._pick_wrong_unit(cache, to_unit)
                        if wrong is not None:
                            target = wrong
                            self._fire({
                                "from_uid": from_unit.uid,
                                "exit_index": exit_index,
                                "intended_pc": to_unit.entry_pc,
                                "actual_pc": wrong.entry_pc,
                            })
                return orig_chain(from_unit, exit_index, target)

            cache.chain = chained

    # -- site implementations --------------------------------------------------

    def _fire(self, detail: Dict[str, Any]) -> None:
        self.fired = True
        self.fired_detail = {"site": self.spec.site,
                             "ordinal": self.spec.ordinal, **detail}

    def _on_install(self, unit: CodeUnit, variant) -> None:
        if self.fired:
            return
        if self.spec.site == "assert_invert":
            idxs = [i for i, ins in enumerate(unit.instrs)
                    if ins.op in HostOp.ASSERT]
        else:
            # Last flippable write per guest GPR home: those values are
            # live at the unit's exit, so the corruption is visible.
            last_write = {}
            for i, ins in enumerate(unit.instrs):
                if self._bitflip_eligible(ins):
                    last_write[ins.d] = i
            idxs = sorted(last_write.values())
        if not idxs:
            return
        self._seen += 1
        if self._seen < self.spec.ordinal:
            return
        idx = self.rng.choice(idxs)
        ins = unit.instrs[idx]
        before = ins.op
        if self.spec.site == "assert_invert":
            ins.op = "assert_nz" if ins.op == "assert_z" else "assert_z"
            detail = {"op_before": before, "op_after": ins.op}
        else:
            detail = self._bitflip(ins)
        # Drop any generated program (and the static timing profile) so
        # the corruption takes effect.
        unit.__dict__.pop("_directprog", None)
        unit.__dict__.pop("_directprog_traced", None)
        unit.__dict__.pop("_timing_profile", None)
        self._fire({"uid": unit.uid, "entry_pc": unit.entry_pc,
                    "mode": unit.mode, "instr_index": idx, **detail})

    @staticmethod
    def _bitflip_eligible(ins: HostInstr) -> bool:
        if ins.d not in _GPR_HOME_RANGE:
            return False
        if ins.op == "mov" and ins.a == ins.d:
            # Register-allocation epilogue identity movs: their homes
            # were already written by the real producer, and corrupting
            # registers the next block immediately reloads makes the
            # fault latent far too often to be an interesting campaign.
            return False
        if ins.op in _OP_FLIPS:
            return True
        return ins.op in _IMM_FLIP_OPS and isinstance(ins.imm, int)

    def _bitflip(self, ins: HostInstr) -> Dict[str, Any]:
        choices = []
        if ins.op in _OP_FLIPS:
            choices.append("op")
        if ins.op in _IMM_FLIP_OPS and isinstance(ins.imm, int):
            choices.append("imm")
        kind = self.rng.choice(choices)
        if kind == "op":
            before = ins.op
            ins.op = _OP_FLIPS[before]
            return {"flip": "op", "op_before": before, "op_after": ins.op}
        bit = self.rng.randrange(0, 16)
        before = ins.imm
        ins.imm = ins.imm ^ (1 << bit)
        return {"flip": "imm", "bit": bit,
                "imm_before": before, "imm_after": ins.imm}

    def _on_ir(self, ops: List[IRInstr], entry_pc: int, mode: str,
               unrolled: bool = False) -> List[IRInstr]:
        if self.fired:
            return ops
        if unrolled:
            # Unrolled loop bodies are not an eligible IR fault target:
            # the plain variant always re-executes the residual
            # iterations behind them, overwriting whatever the corrupted
            # replica produced before any validation boundary — latent
            # by construction.  (Host-level sites still cover them.)
            return ops
        if self.spec.site == "ir_drop":
            # For stores, only the *last* store per displacement is a
            # candidate: in unrolled bodies every earlier replica is
            # overwritten before any validation boundary can observe the
            # missing write, which makes the fault latent by construction.
            last_store = {}
            idxs = []
            for i, op in enumerate(ops):
                if not self._drop_eligible(op):
                    continue
                if op.op in IROp.STORE:
                    last_store[(op.op, op.imm)] = i
                else:
                    idxs.append(i)
            idxs = sorted(idxs + list(last_store.values()))
        else:
            idxs = [i for i in range(len(ops))
                    if self._mutate_eligible(ops, i)]
        if not idxs:
            return ops
        self._seen += 1
        if self._seen < self.spec.ordinal:
            return ops
        idx = self.rng.choice(idxs)
        victim = ops[idx]
        if self.spec.site == "ir_drop":
            out = ops[:idx] + ops[idx + 1:]
            self._fire({"entry_pc": entry_pc, "mode": mode,
                        "dropped_op": victim.op,
                        "dropped_repr": repr(victim)})
            return out
        const_idxs = [i for i, s in enumerate(victim.srcs)
                      if isinstance(s, Const) and isinstance(s.value, int)]
        ci = self.rng.choice(const_idxs)
        bit = self.rng.randrange(0, 16)
        old = victim.srcs[ci].value
        new_srcs = list(victim.srcs)
        new_srcs[ci] = Const(old ^ (1 << bit))
        out = list(ops)
        out[idx] = victim.with_changes(srcs=tuple(new_srcs))
        self._fire({"entry_pc": entry_pc, "mode": mode, "op": victim.op,
                    "bit": bit, "const_before": old,
                    "const_after": old ^ (1 << bit)})
        return out

    @staticmethod
    def _drop_eligible(op: IRInstr) -> bool:
        # Only ops whose disappearance cannot break codegen: stores, or
        # ops writing guest architectural state (later readers then see
        # the stale architectural value — a clean silent-corruption
        # model).  Never touch control flow, and skip flag writes — they
        # are frequently dead, which makes the fault silently latent.
        if op.op in IROp.CONTROL:
            return False
        if op.op in IROp.STORE:
            return True
        if op.dst is None or not is_arch(op.dst) \
                or isinstance(op.dst, Flag):
            return False
        # A constant re-assignment (``mov EDX <- #1`` in a loop body)
        # usually rewrites the value the register already holds, so
        # dropping it is an identity: only computed values are candidates.
        return not (op.op == "mov" and len(op.srcs) == 1
                    and isinstance(op.srcs[0], Const))

    @staticmethod
    def _mutate_eligible(ops: List[IRInstr], idx: int) -> bool:
        op = ops[idx]
        if op.op in IROp.CONTROL:
            return False
        if op.op in IROp.STORE:
            # The only Const in a store is its address base; the bytes a
            # shifted address corrupts are rewritten by the next clean
            # store to the same displacement.
            return False
        if not any(isinstance(s, Const) and isinstance(s.value, int)
                   for s in op.srcs):
            return False
        # Flag materializations (ZF/SF/OF recomputed after every
        # arithmetic guest op) are overwritten long before the next
        # validation epoch — mutating their constants is latent.  In BBM
        # the computation flows through a temporary, so follow the
        # result one step: a value consumed *only* by flag writebacks
        # (or never consumed) is just as dead as a Flag destination.
        if isinstance(op.dst, Flag):
            return False
        if op.dst is None or is_arch(op.dst):
            return True
        for later in ops[idx + 1:]:
            if op.dst in later.srcs:
                if not (later.op == "mov"
                        and isinstance(later.dst, Flag)):
                    return True
            if later.dst == op.dst:
                break
        return False

    def _pick_wrong_unit(self, cache, intended: CodeUnit
                         ) -> Optional[CodeUnit]:
        candidates = sorted(
            (u for u in cache.units()
             if u.entry_pc != intended.entry_pc),
            key=lambda u: u.uid)
        if not candidates:
            return None
        return self.rng.choice(candidates)
