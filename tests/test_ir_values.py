"""IR operands, IR instructions and guest instructions as values.

Register operands are interned: one object per class and index, compared
and hashed by identity.  Identity hashes differ from process to process,
so translation must never iterate a set of operands; the subprocess tests
below translate real kernels under different hash seeds and operand
creation orders and require the same host code and counters.
``IRInstr`` and ``GuestInstr`` are plain slotted dataclasses: nothing
enforces immutability, so the passes are checked to leave their inputs as
they found them.
"""

import copy
import dataclasses
import json
import os
import pickle
import struct
import subprocess
import sys
from typing import Dict, Optional, Tuple

import pytest

import repro
from repro.guest.encoding import EncodingError, encode_instr
from repro.guest.isa import INSN_SPECS, GuestInstr, Imm, Mem, Reg
from repro.guest.memory import PagedMemory
from repro.guest.state import GuestState
from repro.tol import translate
from repro.tol.ir import (
    Const, FTmp, Flag, GFReg, GReg, GVReg, IRInstr, Tmp, VTmp,
)
from repro.tol.ir_eval import eval_ops
from repro.tol.opt import passes
from repro.tol.opt.passes import cse_rle_forwarding, run_pipeline
from repro.workloads import get_workload
from repro.system.controller import run_codesigned

REGISTERS = (GReg, GFReg, GVReg, Flag, Tmp, FTmp, VTmp)


# -- register operands --------------------------------------------------------


@pytest.mark.parametrize("cls", REGISTERS)
def test_register_operand_is_one_object_per_index(cls):
    assert cls(3) is cls(3)
    assert cls(index=3) is cls(3)
    assert cls(3) is not cls(4)
    assert cls(-2) is cls(-2)  # the allocator's spill scratch temps
    for value in (pickle.loads(pickle.dumps(cls(3))), copy.copy(cls(3)),
                  copy.deepcopy(cls(3))):
        assert value is cls(3)
    with pytest.raises(AttributeError):
        cls(3).index = 4
    assert cls(3).index == 3


def test_register_classes_do_not_collide():
    ones = [cls(1) for cls in REGISTERS]
    assert len(set(ones)) == len(REGISTERS)
    assert GReg(1) != GFReg(1) and Tmp(1) != FTmp(1) and Flag(1) != GReg(1)
    assert GReg(1) != Const(1) and Const(1) != Tmp(1)


def test_register_reprs():
    assert [repr(cls(2)) for cls in REGISTERS] == [
        "EDX", "F2", "V2", "CF", "t2", "ft2", "vt2"]


def test_const_keeps_value_equality():
    assert Const(1) == Const(1.0) and hash(Const(1)) == hash(Const(1.0))
    assert Const(0.0) == Const(-0.0)
    assert Const(5) != Const(6)


def test_deepcopy_of_ir_keeps_interned_operands():
    instr = IRInstr("add", Tmp(1), (GReg(0), Const(2)), attrs={"k": [1]})
    clone = copy.deepcopy(instr)
    assert clone == instr and clone.dst is Tmp(1) and clone.srcs[0] is GReg(0)
    assert clone.attrs == instr.attrs and clone.attrs is not instr.attrs


# -- IRInstr and GuestInstr equality against frozen dataclasses --------------


@dataclasses.dataclass(frozen=True)
class _FrozenIRInstr:
    op: str
    dst: Optional[object] = None
    srcs: Tuple[object, ...] = ()
    imm: int = 0
    attrs: Dict[str, object] = dataclasses.field(default_factory=dict,
                                                 compare=False)
    guest_pc: Optional[int] = None


@dataclasses.dataclass(frozen=True)
class _FrozenGuestInstr:
    mnemonic: str
    operands: tuple
    addr: int = 0
    length: int = 0


_IR_FIELDS = [
    dict(op="add", dst=Tmp(1), srcs=(GReg(0), Const(2)), imm=0,
         attrs={}, guest_pc=0x1000),
    dict(op="sub", dst=Tmp(1), srcs=(GReg(0), Const(2)), imm=0,
         attrs={}, guest_pc=0x1000),
    dict(op="add", dst=FTmp(1), srcs=(GReg(0), Const(2)), imm=0,
         attrs={}, guest_pc=0x1000),
    dict(op="add", dst=Tmp(1), srcs=(GReg(0), Const(2.0)), imm=0,
         attrs={}, guest_pc=0x1000),
    dict(op="add", dst=Tmp(1), srcs=(GReg(0), Const(3)), imm=0,
         attrs={}, guest_pc=0x1000),
    dict(op="add", dst=Tmp(1), srcs=(GReg(0), Const(2)), imm=4,
         attrs={}, guest_pc=0x1000),
    dict(op="add", dst=Tmp(1), srcs=(GReg(0), Const(2)), imm=0,
         attrs={"seq": 3}, guest_pc=0x1000),
    dict(op="add", dst=Tmp(1), srcs=(GReg(0), Const(2)), imm=0,
         attrs={}, guest_pc=None),
]


def test_irinstr_equality_and_hash_match_a_frozen_dataclass():
    for a in _IR_FIELDS:
        for b in _IR_FIELDS:
            assert (IRInstr(**a) == IRInstr(**b)) == \
                (_FrozenIRInstr(**a) == _FrozenIRInstr(**b))
        assert hash(IRInstr(**a)) == hash(_FrozenIRInstr(**a))
        assert IRInstr(**a) != _FrozenIRInstr(**a)
    # attrs are not part of the value
    with_attrs = IRInstr("exit", attrs={"next_pc": 1})
    assert with_attrs == IRInstr("exit") and \
        hash(with_attrs) == hash(IRInstr("exit"))


def test_irinstr_with_changes_copies_and_shares_attrs():
    attrs = {"taken_pc": 8, "fall_pc": 12}
    instr = IRInstr("br_true", None, (Tmp(4),), 0, attrs, 0x40)
    moved = instr.with_changes(op="br_false", srcs=(Tmp(5),))
    assert (moved.op, moved.dst, moved.srcs, moved.imm, moved.guest_pc) == \
        ("br_false", None, (Tmp(5),), 0, 0x40)
    assert moved.attrs is attrs
    assert instr.with_changes(dst=None, attrs={}).attrs == {}
    assert instr.op == "br_true" and instr.srcs == (Tmp(4),)
    assert instr.with_changes() == instr and instr.with_changes() is not instr
    with pytest.raises(TypeError):
        instr.with_changes(opcode="x")


def test_guest_instr_equality_hash_and_derived_fields():
    variants = [
        ("ADD", (Reg("EAX"), Reg("EBX")), 0x100, 5),
        ("ADD", (Reg("EAX"), Reg("ECX")), 0x100, 5),
        ("SUB", (Reg("EAX"), Reg("EBX")), 0x100, 5),
        ("ADD", (Reg("EAX"), Reg("EBX")), 0x104, 5),
        ("ADD", (Reg("EAX"), Reg("EBX")), 0x100, 6),
        ("JNE", (Imm(0x40),), 0xFFFFFFFE, 5),
        ("MOV", (Reg("EAX"), Mem("EBX", None, 1, 8)), 0, 0),
    ]
    for a in variants:
        for b in variants:
            assert (GuestInstr(*a) == GuestInstr(*b)) == \
                (_FrozenGuestInstr(*a) == _FrozenGuestInstr(*b))
        instr = GuestInstr(*a)
        assert hash(instr) == hash(_FrozenGuestInstr(*a))
        assert instr.spec is INSN_SPECS[a[0]]
        assert instr.next_addr == (a[2] + a[3]) & 0xFFFFFFFF
        assert instr.is_branch == INSN_SPECS[a[0]].is_branch
    assert GuestInstr("JNE", (Imm(0x40),), 0xFFFFFFFE, 5).next_addr == 3
    assert repr(GuestInstr("ADD", (Reg("EAX"), Imm(1)))) == "ADD EAX, $0x1"
    unknown = GuestInstr("FROB", ())
    assert unknown.spec is None and not unknown.is_branch
    with pytest.raises(EncodingError):
        encode_instr(unknown)


# -- CSE keys constants by type and bits --------------------------------------


def _bits(value):
    return struct.pack("<d", value)


def _fp_result(ops, f0):
    state = GuestState()
    state.fpr[0] = f0
    eval_ops(ops, state, PagedMemory())
    return [_bits(state.fpr[i]) for i in range(1, 4)]


def test_cse_does_not_merge_signed_zeros():
    f0 = GFReg(0)
    ops = [IRInstr("fadd", FTmp(1), (f0, Const(0.0))),
           IRInstr("fadd", FTmp(2), (f0, Const(-0.0))),
           IRInstr("fmov", GFReg(1), (FTmp(1),)),
           IRInstr("fmov", GFReg(2), (FTmp(2),))]
    out, stats = cse_rle_forwarding(ops)
    assert [i.op for i in out[:2]] == ["fadd", "fadd"] and stats.changed == 0
    assert _fp_result(out, -0.0) == _fp_result(ops, -0.0)
    # The same bits still merge.
    same = [ops[0], ops[0].with_changes(dst=FTmp(2))] + ops[2:]
    out, stats = cse_rle_forwarding(same)
    assert out[1].op == "fmov" and out[1].srcs == (FTmp(1),)


def test_cse_does_not_merge_int_and_float_constants():
    f0 = GFReg(0)
    ops = [IRInstr("fmul", FTmp(1), (f0, Const(1.0))),
           IRInstr("fmul", FTmp(2), (f0, Const(1)))]
    out, _ = cse_rle_forwarding(ops)
    assert [i.op for i in out] == ["fmul", "fmul"]
    ops = [IRInstr("add", Tmp(1), (GReg(0), Const(1))),
           IRInstr("add", Tmp(2), (GReg(0), Const(1)))]
    out, _ = cse_rle_forwarding(ops)
    assert out[1].op == "mov"


def test_cse_store_forwarding_keys_constant_addresses_by_bits():
    ops = [IRInstr("stf", None, (Const(0x9000), Const(-0.0))),
           IRInstr("ldf", FTmp(1), (Const(0x9000),)),
           IRInstr("ldf", FTmp(2), (Const(float(0x9000)),)),
           IRInstr("fmov", GFReg(1), (FTmp(1),))]
    out, _ = cse_rle_forwarding(ops)
    assert out[1].op == "fmov" and out[1].srcs[0].value == -0.0
    assert _bits(out[1].srcs[0].value) == _bits(-0.0)
    assert out[2].op == "ldf"


def test_folded_negative_zero_survives_a_propagating_pipeline():
    """``constfold`` makes ``#-0.0`` from ``fneg #0.0``; a pipeline that
    propagates it must not let CSE merge it with ``#0.0``."""
    f0 = GFReg(0)
    ops = [IRInstr("fneg", FTmp(1), (Const(0.0),)),
           IRInstr("fadd", FTmp(2), (f0, FTmp(1))),
           IRInstr("fadd", FTmp(3), (f0, Const(0.0))),
           IRInstr("fmov", GFReg(1), (FTmp(2),)),
           IRInstr("fmov", GFReg(2), (FTmp(3),))]
    out, _ = run_pipeline(ops, ("constfold", "constprop", "cse",
                                "constprop", "dce"))
    for f0_value in (-0.0, 0.0, 1.5):
        assert _fp_result(out, f0_value) == _fp_result(ops, f0_value)


# -- passes leave their inputs unchanged --------------------------------------


def _fields(ops):
    return [(i.op, i.dst, i.srcs, i.imm, dict(i.attrs), i.guest_pc)
            for i in ops]


def _checked(name, fn, checks):
    """``fn`` wrapped to assert that its first argument's ops are left
    field by field as they were."""
    def wrapper(ops, *args, **kwargs):
        before = _fields(ops)
        result = fn(ops, *args, **kwargs)
        assert _fields(ops) == before, f"{name} changed its input"
        checks[name] = checks.get(name, 0) + 1
        return result
    return wrapper


def test_every_stage_leaves_its_input_ops_unchanged(monkeypatch):
    checks = {}
    for name, fn in list(passes._REGISTRY.items()):
        monkeypatch.setitem(passes._REGISTRY, name,
                            _checked(name, fn, checks))
    for name in ("to_ssa", "list_schedule", "allocate"):
        monkeypatch.setattr(
            translate, name, _checked(name, getattr(translate, name), checks))
    generate = translate.CodeGenerator.generate

    def checked_generate(self, *args, ops, **kwargs):
        before = _fields(ops)
        unit = generate(self, *args, ops=ops, **kwargs)
        assert _fields(ops) == before, "codegen changed its input"
        checks["generate"] = checks.get("generate", 0) + 1
        return unit

    monkeypatch.setattr(translate.CodeGenerator, "generate",
                        checked_generate)
    for name in ("429.mcf", "ragdoll"):
        result, _ = run_codesigned(get_workload(name).program(scale=0.5),
                                   validate=False)
        assert result.exit_code == 0
    assert set(checks) == {"constfold", "constprop", "cse", "dce", "to_ssa",
                           "list_schedule", "allocate", "generate"}
    assert checks["cse"] > 0 and checks["list_schedule"] > 0
    # Decoded code gives constfold nothing to fold before constprop has
    # run, so one region on which every pass changes something.
    region = [IRInstr("add", Tmp(1), (Const(2), Const(3))),
              IRInstr("mov", Tmp(2), (Tmp(1),)),
              IRInstr("add", Tmp(3), (GReg(0), Tmp(2))),
              IRInstr("add", Tmp(4), (GReg(0), Tmp(2))),
              IRInstr("ld32", Tmp(5), (GReg(0),), imm=4),
              IRInstr("mov", GReg(1), (Tmp(4),)),
              IRInstr("mov", GReg(2), (Tmp(3),)),
              IRInstr("exit", attrs={"next_pc": 0})]
    _, stats = run_pipeline(region, ("constfold", "constprop", "cse", "dce"))
    assert all(s.changed for s in stats)


# -- translation does not depend on identity or string hashes -----------------


_TRANSLATE = r"""
import hashlib, json, sys
from repro.tol import ir
from repro.tol.codegen import CodeGenerator
from repro.system.controller import run_codesigned
from repro.workloads import get_workload

if sys.argv[1] == "reversed":
    # Make every operand before the run, highest index first, so that the
    # interned objects' addresses (their hashes) come in another order.
    keep = [cls(i) for i in range(2047, -64, -1)
            for cls in (ir.VTmp, ir.FTmp, ir.Tmp)]
    keep += [cls(i) for i in range(7, -1, -1)
             for cls in (ir.GVReg, ir.GFReg, ir.Flag, ir.GReg)]
units = []
generate = CodeGenerator.generate

def recording(self, *args, **kwargs):
    unit = generate(self, *args, **kwargs)
    units.append(repr([(h.op, h.d, h.a, h.b, h.c, h.imm, h.target,
                        sorted((k, v) for k, v in h.meta.items()
                               if k != "link")) for h in unit.instrs]))
    return unit

CodeGenerator.generate = recording
out = {}
for name in ("429.mcf", "ragdoll"):
    result, _ = run_codesigned(get_workload(name).program(scale=0.5),
                               validate=False)
    counters = result.telemetry.as_dict()["counters"]
    out[name] = {
        "units": len(units),
        "code": hashlib.sha256("\n".join(units).encode()).hexdigest(),
        "counters": {k: v for k, v in counters.items()
                     if not k.startswith(tuple(sys.argv[2:]))}}
    units.clear()
print(json.dumps(out, sort_keys=True))
"""


def _translate(order: str, hashseed: str):
    from test_fastpath import DIRECT_WALLCLOCK_COUNTERS
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _TRANSLATE, order, *DIRECT_WALLCLOCK_COUNTERS],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_translation_is_independent_of_hash_seed_and_identity_order():
    """Host code and counters of 429.mcf and ragdoll at scale 0.5 (the
    smallest at which Physicsbench forms superblocks): the same under two
    string-hash seeds (ragdoll's trig recipes free their slots in reading
    order) and with the operands created in reverse index order."""
    base = _translate("normal", "0")
    assert base["ragdoll"]["counters"]["tol.translations.sb"] > 0
    assert _translate("normal", "1") == base
    assert _translate("reversed", "0") == base
