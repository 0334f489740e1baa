"""Golden values for the semantics of every host op and IR value op.

The values below were recorded from the implementation before the op
table in ``repro.host.isa`` replaced the hand-written handlers, segment
templates and IR evaluator entries; every execution form generated from
the table must reproduce them exactly:

- each value op as a ``chkpt; <op>; exit`` unit, on the host's
  reference loop and as a generated program (written register, floats
  as IEEE-754 bits; exit kind, ``next_pc``, ``fault_addr``,
  ``host_insns``, committed/wasted);
- loads, stores and speculative ops at in-page, page-straddling,
  missing-page and TOL-area addresses, with and without a checkpoint,
  plus rollback after stores and alias-table conflicts/overflow
  (memory bytes, dirty pages, alias-table entries, exception types);
- each IR value op through ``eval_ops``, ``compile_ops`` and
  ``constfold`` on the same operand sets;
- the 31 figure kernels at scale 0.02 in the reference forms
  (``host_fastpath=False``) and with the defaults, against one set of
  absolute counters.

Per-op cases are pinned as a digest of their canonical JSON so that a
mismatch names the op.  Serial alias-table search is left out on
purpose: its charge point is pinned in ``test_design_choices``.
"""

import hashlib
import json
import random
import struct

import pytest

from repro.guest.memory import PagedMemory
from repro.guest.state import GuestState
from repro.host.emulator import HostEmulator
from repro.host.isa import CodeUnit, HostInstr, HostOp
from repro.tol.ir import (
    Const, FTmp, GFReg, GReg, GVReg, IRInstr, Tmp, VTmp,
)
from repro.tol.ir_eval import compile_ops, eval_ops
from repro.tol.direct import compile_direct
from repro.tol.opt.passes import const_fold

INT_EDGES = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
FP_EDGES = (0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e300)


def _seeded(kind, width=32):
    """Four seeded operand values of ``kind`` ('i', 'f' or 'v')."""
    out = []
    for seed in range(4):
        rng = random.Random(seed)
        if kind == "i":
            out.append(rng.getrandbits(64 if seed == 3 else width))
        elif kind == "f":
            out.append(rng.uniform(-1e6, 1e6) * (1e-9 if seed == 2 else 1))
        else:
            out.append([rng.getrandbits(32) for _ in range(4)])
    return out


INTS = list(INT_EDGES) + _seeded("i")
IR_INTS = list(INT_EDGES) + _seeded("i", 32)[:3]
FLOATS = list(FP_EDGES) + _seeded("f")
VECS = [list(INT_EDGES[:4]), list(INT_EDGES[1:])] + _seeded("v")
VALUES = {"i": INTS, "f": FLOATS, "v": VECS}
IMMS = INTS + [-4, -0x80000000]


def _canon(value):
    if isinstance(value, float):
        return "f:" + struct.pack("<d", value).hex()
    if isinstance(value, list):
        return [_canon(v) for v in value]
    return value


def _digest(cases):
    text = json.dumps(cases, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Host value ops.
# ---------------------------------------------------------------------------

#: host op -> (dest file, source files); 'n' is the immediate.
HOST_VALUE_OPS = {
    "li": "in", "lif": "fn", "nop": "", "mov": "ii",
    "add32": "iii", "addi32": "iin", "sub32": "iii", "mul32": "iii",
    "div32s": "iii", "rem32s": "iii", "and32": "iii", "andi32": "iin",
    "or32": "iii", "ori32": "iin", "xor32": "iii", "xori32": "iin",
    "shl32": "iii", "shli32": "iin", "shr32": "iii", "shri32": "iin",
    "sar32": "iii", "sari32": "iin", "not32": "ii", "neg32": "ii",
    "cmpeq": "iii", "cmpeqi": "iin", "cmpne": "iii", "cmpnei": "iin",
    "cmplt32s": "iii", "cmplt32u": "iii", "cmple32s": "iii",
    "cmple32u": "iii", "addcf32": "iii", "addof32": "iii",
    "subcf32": "iii", "subof32": "iii", "mulof32": "iii",
    "fmov": "ff", "fadd": "fff", "fsub": "fff", "fmul": "fff",
    "fdiv": "fff", "fneg": "ff", "fabs": "ff", "fsqrt": "ff",
    "ffloor": "ff", "fcmpeq": "iff", "fcmplt": "iff", "fcmpun": "iff",
    "i2f": "fi", "f2i": "if", "vmov": "vv", "vadd32": "vvv",
    "vsub32": "vvv", "vmul32": "vvv", "vsplat": "vi",
}
MEMORY_OPS = ("ld32", "ldf", "vld", "sld32", "sldf",
              "st32", "stf", "vst", "st32chk", "stfchk")
CONTROL_OPS = HostOp.BRANCH | HostOp.ASSERT | {
    "chkpt", "commit", "exit", "exit_ind", "ibtc"}


def _unit(body, chkpt=True):
    instrs = [HostInstr("chkpt", meta={"guest_pc": 0x1000})] if chkpt \
        else []
    instrs += body
    instrs.append(HostInstr("exit", meta={"next_pc": 0x2000,
                                          "guest_insns": 1}))
    return CodeUnit(uid=1, mode="BBM", entry_pc=0x1000, instrs=instrs)


def _execute(emu, unit):
    """Run ``unit``; the outcome (or the exception type) as JSON data."""
    try:
        event = emu.execute(unit, GuestState())
    except Exception as exc:  # noqa: BLE001 (the type is the result)
        return ["raise", type(exc).__name__]
    return [event.kind, event.next_pc, event.fault_addr, event.host_insns,
            emu.host_insns_committed, emu.host_insns_wasted]


def _host(memory, fastpath, **kwargs):
    """A bare host emulator; with ``fastpath`` every unit runs as its
    generated program."""
    emu = HostEmulator(memory, **kwargs)
    if fastpath:
        emu.direct_promote_hook = lambda unit: setattr(
            unit, "_directprog", compile_direct(unit, emu))
    return emu


def _regs(emu, file):
    return {"i": emu.iregs, "f": emu.fregs, "v": emu.vregs}[file]


#: register indices of (d, a, b) per file (scratch registers).
_SLOTS = {"i": (20, 21, 22), "f": (20, 21, 22), "v": (12, 13, 14)}


def _value_cases(op, fastpath):
    files = HOST_VALUE_OPS[op]
    srcs = files[1:]
    combos = [()]
    for kind in srcs:
        pool = IMMS if kind == "n" and files[0] == "i" else \
            FLOATS + [3, -2] if kind == "n" else VALUES[kind]
        combos = [c + (v,) for c in combos for v in pool]
    cases = []
    for combo in combos:
        emu = _host(PagedMemory(demand_zero=False), fastpath)
        fields = {"d": _SLOTS[files[0]][0]} if files else {}
        for slot, kind, value in zip((1, 2), srcs, combo):
            if kind == "n":
                fields["imm"] = value
            else:
                index = _SLOTS[kind][slot]
                fields["ab"[slot - 1]] = index
                _regs(emu, kind)[index] = value
        outcome = _execute(emu, _unit([HostInstr(op, **fields)]))
        written = _regs(emu, files[0])[fields["d"]] if files else None
        cases.append([_canon(list(combo)), _canon(written), outcome])
    return cases


def test_every_value_op_is_covered():
    assert set(HOST_VALUE_OPS) | set(MEMORY_OPS) <= HostOp.ALL
    untested = HostOp.ALL - CONTROL_OPS - set(HOST_VALUE_OPS) \
        - set(MEMORY_OPS)
    # Ops the code generator never emits (dropped from the host ISA).
    assert untested <= {"add64", "ldx32", "stx32"}


@pytest.mark.parametrize("op", sorted(HOST_VALUE_OPS))
def test_host_value_op_golden(op):
    slow = _value_cases(op, fastpath=False)
    fast = _value_cases(op, fastpath=True)
    assert fast == slow
    assert _digest(slow) == GOLDEN_HOST_VALUE[op]


# ---------------------------------------------------------------------------
# Host memory and speculative ops.
# ---------------------------------------------------------------------------

TOL_ADDR = 0xF000_0100
#: name -> guest address (pages 0x10 and 0x11 present, 0x12 missing).
ADDRS = {
    "in_page": 0x10100, "straddle": 0x10FFE, "straddle_missing": 0x11FFE,
    "missing": 0x12010, "tol": TOL_ADDR,
}
_WIDTH = {"ld32": 0, "sld32": 0, "st32": 0, "st32chk": 0,
          "ldf": 1, "sldf": 1, "stf": 1, "stfchk": 1, "vld": 2, "vst": 2}


def _memory():
    memory = PagedMemory(demand_zero=False)
    for page in (0x10, 0x11):
        memory.install_page(page, bytes((page + i) & 0xFF
                                        for i in range(4096)))
    memory.clear_dirty()
    return memory


def _mem_op(op, base_reg, imm, seq=None):
    """``op`` addressing ``I[base_reg] + imm``: loads write register
    20 (vectors 12) of their file, stores read register 22 (14)."""
    d, _, b = _SLOTS["ifv"[_WIDTH[op]]]
    meta = {} if seq is None else {"seq": seq}
    if op in HostOp.STORE:
        return HostInstr(op, a=base_reg, b=b, imm=imm, meta=meta)
    return HostInstr(op, d=d, a=base_reg, imm=imm, meta=meta)


def _memory_state(emu):
    guest = b"".join(emu.memory.export_page(p) for p in (0x10, 0x11))
    return [hashlib.sha256(guest).hexdigest()[:16],
            sorted(emu.memory.dirty),
            emu.tol_memory.read_bytes(TOL_ADDR, 24).hex(),
            [list(e) for e in emu.alias_table.entries]]


def _run_memory(body, fastpath, chkpt=True, alias_table_size=32,
                regs=None):
    emu = _host(_memory(), fastpath, alias_table_size=alias_table_size)
    emu.iregs[22] = 0xDEADBEEF
    emu.fregs[22] = -1.5
    emu.vregs[14] = [1, 2, 3, 0xFFFFFFFF]
    for index, value in (regs or {}).items():
        emu.iregs[index] = value
    outcome = _execute(emu, _unit(body, chkpt=chkpt))
    return [outcome, _canon(emu.iregs[20]), _canon(emu.fregs[20]),
            _canon(emu.vregs[12]), _memory_state(emu)]


def _memory_cases(op, fastpath):
    cases = []
    seq = 5 if op in ("sld32", "sldf") else 2 if op.endswith("chk") \
        else None
    for name, addr in ADDRS.items():
        for chkpt in (True, False):
            for base, imm in ((addr, 0), (addr - 8, 8)):
                body = [_mem_op(op, 21, imm, seq)]
                cases.append([name, chkpt, imm, _run_memory(
                    body, fastpath, chkpt, regs={21: base})])
    return cases


@pytest.mark.parametrize("op", MEMORY_OPS)
def test_host_memory_op_golden(op):
    slow = _memory_cases(op, fastpath=False)
    fast = _memory_cases(op, fastpath=True)
    assert fast == slow
    assert _digest(slow) == GOLDEN_HOST_MEMORY[op]


def _scenarios():
    """Multi-op units: rollback after stores, alias conflicts."""
    inp, miss = ADDRS["in_page"], ADDRS["missing"]
    straddle = ADDRS["straddle_missing"]
    regs = {21: inp, 25: miss, 26: TOL_ADDR, 27: straddle}
    stores = [_mem_op("st32", 21, 0), _mem_op("stf", 21, 8),
              _mem_op("vst", 21, 16), _mem_op("st32", 26, 0),
              _mem_op("stf", 26, 8)]
    return {
        "rollback_after_stores": (stores + [_mem_op("ld32", 25, 0)],
                                  True, 32, regs),
        "stores_then_straddling_store": (
            stores + [_mem_op("st32", 27, 0)], True, 32, regs),
        "stores_without_checkpoint": (
            stores + [_mem_op("stf", 27, 0)], False, 32, regs),
        "spec_conflict": ([_mem_op("st32", 21, 0),
                           _mem_op("sld32", 21, 0, 5),
                           _mem_op("st32chk", 21, 2, 2)], True, 32, regs),
        "spec_no_conflict": ([_mem_op("sld32", 21, 0, 5),
                              _mem_op("stfchk", 21, 8, 2),
                              _mem_op("sldf", 21, 8, 3)], True, 32, regs),
        "spec_older_load": ([_mem_op("sld32", 21, 0, 1),
                             _mem_op("st32chk", 21, 0, 2)], True, 32, regs),
        "alias_overflow": ([_mem_op("sld32", 21, 0, 5),
                            _mem_op("sldf", 21, 8, 6)], True, 1, regs),
        "alias_entries_without_checkpoint": (
            [_mem_op("sld32", 21, 0, 5), _mem_op("sldf", 21, 8, 6),
             _mem_op("ld32", 25, 0)], False, 32, regs),
    }


@pytest.mark.parametrize("name", sorted(_scenarios()))
def test_host_memory_scenario_golden(name):
    body, chkpt, size, regs = _scenarios()[name]
    slow = _run_memory(body, False, chkpt, size, regs)
    fast = _run_memory(body, True, chkpt, size, regs)
    assert fast == slow
    assert _digest(slow) == GOLDEN_HOST_SCENARIO[name]


# ---------------------------------------------------------------------------
# IR value ops.
# ---------------------------------------------------------------------------

#: IR op -> (dest kind, source kinds).
IR_VALUE_OPS = {
    "mov": "ii", "add": "iii", "sub": "iii", "mul": "iii", "div": "iii",
    "rem": "iii", "and": "iii", "or": "iii", "xor": "iii", "shl": "iii",
    "shr": "iii", "sar": "iii", "not": "ii", "neg": "ii",
    "cmpeq": "iii", "cmpne": "iii", "cmplts": "iii", "cmpltu": "iii",
    "cmples": "iii", "cmpleu": "iii", "addcf": "iii", "addof": "iii",
    "subcf": "iii", "subof": "iii", "mulof": "iii",
    "fmov": "ff", "fadd": "fff", "fsub": "fff", "fmul": "fff",
    "fdiv": "fff", "fneg": "ff", "fabs": "ff", "fsqrt": "ff",
    "ffloor": "ff", "fsin": "ff", "fcos": "ff", "i2f": "fi", "f2i": "if",
    "fcmpeq": "iff", "fcmplt": "iff", "fcmpun": "iff",
    "vmov": "vv", "vadd": "vvv", "vsub": "vvv", "vmul": "vvv",
    "vsplat": "vi",
}
_TMP = {"i": Tmp, "f": FTmp, "v": VTmp}
_ARCH = {"i": GReg, "f": GFReg, "v": GVReg}
IR_VALUES = {"i": IR_INTS, "f": FLOATS[:8], "v": VECS[:4]}


def _ir_call(fn):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 (the type is the result)
        return ["raise", type(exc).__name__]


def _ir_state(kinds, combo):
    state = GuestState()
    for i, (kind, value) in enumerate(zip(kinds, combo)):
        bank = {"i": state.gpr, "f": state.fpr, "v": state.vr}[kind]
        bank[1 + i] = list(value) if kind == "v" else value
    return state


def _ir_cases(op):
    dst_kind, srcs = IR_VALUE_OPS[op][0], IR_VALUE_OPS[op][1:]
    combos = [()]
    for kind in srcs:
        combos = [c + (v,) for c in combos for v in IR_VALUES[kind]]
    cases = []
    for combo in combos:
        consts = tuple(Const(list(v) if isinstance(v, list) else v)
                       for v in combo)
        tmp = IRInstr(op, _TMP[dst_kind](0), consts)
        env = {}
        evaluated = _ir_call(lambda: (eval_ops(
            [tmp], GuestState(), PagedMemory(), env),
            _canon(env[tmp.dst]))[1])
        arch = IRInstr(op, _ARCH[dst_kind](0), tuple(
            _ARCH[k](1 + i) for i, k in enumerate(srcs)))
        compiled = compile_ops([arch])
        state = _ir_state(srcs, combo)
        out = _ir_call(lambda: compiled(state, PagedMemory()))
        bank = {"i": state.gpr, "f": state.fpr, "v": state.vr}[dst_kind]
        folded = _ir_call(lambda: const_fold([tmp])[0][0])
        if isinstance(folded, IRInstr):
            value = folded.srcs[0].value if folded.op != op else None
            folded = [folded.op, type(value).__name__, _canon(value)]
        cases.append([_canon(list(combo)), evaluated,
                      [repr(out), _canon(bank[0])], folded])
    return cases


@pytest.mark.parametrize("op", sorted(IR_VALUE_OPS))
def test_ir_value_op_golden(op):
    assert _digest(_ir_cases(op)) == GOLDEN_IR[op]


# ---------------------------------------------------------------------------
# Whole kernels.
# ---------------------------------------------------------------------------

KERNEL_CONFIGS = {
    "reference": dict(host_fastpath=False),
    "default": {},
}


def _kernel_counters(name, config):
    """Exit code, guest icount, stdout digest, validations, host
    instructions (total, committed, wasted), guest instructions retired
    in translated code, IR ops evaluated, guest instructions per mode
    (IM, BBM, SBM) and the TOL overhead per category."""
    from repro.system.controller import run_codesigned
    from repro.tol.config import TolConfig
    from repro.tol.overhead import CATEGORIES
    from repro.workloads import get_workload
    result, controller = run_codesigned(
        get_workload(name).program(scale=0.02), config=TolConfig(**config))
    tol = controller.codesigned.tol
    host = tol.host
    modes = tol.mode_distribution()
    return (
        result.exit_code, result.guest_icount,
        hashlib.sha256(result.stdout).hexdigest()[:12],
        result.validations, host.host_insns_total,
        host.host_insns_committed, host.host_insns_wasted,
        host.guest_retired_total, tol.interp.ir_ops_evaluated,
        *(modes[mode] for mode in ("IM", "BBM", "SBM")),
        *(tol.overhead.counters[c] for c in CATEGORIES),
    )


def _kernel_names():
    from repro.workloads import SUITES, suite_workloads
    return [w.name for suite in SUITES for w in suite_workloads(suite)]


@pytest.mark.parametrize("config", sorted(KERNEL_CONFIGS))
def test_kernels_golden(config):
    names = _kernel_names()
    assert sorted(names) == sorted(GOLDEN_KERNELS)
    for name in names:
        counters = _kernel_counters(name, KERNEL_CONFIGS[config])
        assert counters == GOLDEN_KERNELS[name], name


GOLDEN_HOST_VALUE = {
    'add32': '2edd7432cb4af197',
    'addcf32': '228207f4b2b3103e',
    'addi32': '42c47eeec30fcdb8',
    'addof32': '2515f54bb7a5af97',
    'and32': '531e228d90b2ff7a',
    'andi32': 'a574223e5225bdc7',
    'cmpeq': '944e85ec14e2833d',
    'cmpeqi': '2893b115f6e705fb',
    'cmple32s': '854bc6c4a1ef9151',
    'cmple32u': 'b7ad76296e61c97b',
    'cmplt32s': 'a41e640af919eacf',
    'cmplt32u': '587b4107b272a976',
    'cmpne': '93c3cbb3d8e05770',
    'cmpnei': '0c65636e6f65f974',
    'div32s': 'd6bdd415aaa7de6a',
    'f2i': 'e73f5843f5880332',
    'fabs': '0eb87cbd87bd0c8a',
    'fadd': 'db7f1b72853ebdf9',
    'fcmpeq': '7f7c7e831a25abf9',
    'fcmplt': 'c9bde53e8740e22c',
    'fcmpun': 'febc8ca7a24a511a',
    'fdiv': 'a47a1ecb05a1c5fd',
    'ffloor': '1748ec0a5fce1ff4',
    'fmov': 'e672caa55b515cbc',
    'fmul': 'd5d7c29f687eed18',
    'fneg': '52b759b36884b4e1',
    'fsqrt': '1692e15caf030bf5',
    'fsub': '33f55fcc6b0aa6f2',
    'i2f': 'e3d45fd52a779ef0',
    'li': '0e84a302264104b8',
    'lif': '627f6c7e7e3714b1',
    'mov': '9b81fd71f1c1afca',
    'mul32': '5201bfd7ea4e2e78',
    'mulof32': '7385cdbccde4bb9b',
    'neg32': '05116ba9f51ec0dd',
    'nop': 'e64c27dea6234027',
    'not32': 'eeb270f3498e30f3',
    'or32': '10ebc91d6c895b00',
    'ori32': 'fd44f7530cc0e2ef',
    'rem32s': '2e5ac04e6cb9759a',
    'sar32': 'b412676f2db6bfa0',
    'sari32': '9237081c7a9dbe74',
    'shl32': 'e818e4174533c8ce',
    'shli32': 'cbc39a679b63a15c',
    'shr32': '649ab7a9118dac48',
    'shri32': 'be909cd63ea8a8bc',
    'sub32': '2c82649103a45a85',
    'subcf32': '587b4107b272a976',
    'subof32': '32a9f6f69c2352cf',
    'vadd32': 'c10486c7d238e8b0',
    'vmov': '9e13b39825c72ac8',
    'vmul32': '2b6159fc17c1b957',
    'vsplat': '218ff2ea42500bd8',
    'vsub32': '35d2b40e10f85b1f',
    'xor32': '7c9b9216b74846e2',
    'xori32': 'eea5c4da41c1e7b4',
}
GOLDEN_HOST_MEMORY = {
    'ld32': '193af3bc255c8715',
    'ldf': 'cd4bd7c6622398b7',
    'sld32': '193af3bc255c8715',
    'sldf': 'cd4bd7c6622398b7',
    'st32': 'ea497bad82322247',
    'st32chk': 'ea497bad82322247',
    'stf': '6a5e3b9155e6dea3',
    'stfchk': '6a5e3b9155e6dea3',
    'vld': 'bd07b3517dc417a4',
    'vst': '4747d0abe44860e0',
}
GOLDEN_HOST_SCENARIO = {
    'alias_entries_without_checkpoint': '1cd4b025cae4fb03',
    'alias_overflow': 'c03124c519213dd2',
    'rollback_after_stores': '7b0ff1ecdfaed6ed',
    'spec_conflict': '07bb1eee14362934',
    'spec_no_conflict': '467fb9114b03b9bb',
    'spec_older_load': '9f3a4ea6da57e285',
    'stores_then_straddling_store': '8d510ee1466df933',
    'stores_without_checkpoint': '650565a412eb4c62',
}
GOLDEN_IR = {
    'add': 'df08b70493f6c521',
    'addcf': 'd4ced0675148458b',
    'addof': '1079298fc824917b',
    'and': 'ee2d25a1c21b64c3',
    'cmpeq': '53422888f7350ea4',
    'cmples': '0fdce5ca6e1e8052',
    'cmpleu': 'b9f93300ceaa66f7',
    'cmplts': '1289d09ecdc71ecb',
    'cmpltu': '83a88106af26771f',
    'cmpne': '65ed7bcca7bc511f',
    'div': '814db9344c5f180a',
    'f2i': 'bf76b0e242541f8f',
    'fabs': '5af4e7da948bdd46',
    'fadd': 'ed661000dc06e018',
    'fcmpeq': '60d6873e7b581d2a',
    'fcmplt': '673f8313345aa06f',
    'fcmpun': 'd143dc9fbfce3a6c',
    'fcos': '4b86b1530bfd13c3',
    'fdiv': '5feddc14de1a5e5e',
    'ffloor': '246dec92c7e3471e',
    'fmov': '3786c2fd1117b462',
    'fmul': 'c0b0d790c39b9e23',
    'fneg': '6daccf00f67b1188',
    'fsin': '8187fb23d87e88ad',
    'fsqrt': 'd0ef29d72864d764',
    'fsub': 'ec8e7cbc8c70aedf',
    'i2f': 'a616278cd07cb9ac',
    'mov': '9c42a480af1caad6',
    'mul': 'a8ef811586dd4162',
    'mulof': '2ce64a31b4eb65fd',
    'neg': 'edeb37d980585d7c',
    'not': 'c9ee4c0f17b907fa',
    'or': '2da5cff69e40d562',
    'rem': '1e6d693e3bb171e6',
    'sar': 'f111aa2727669aca',
    'shl': '3e8d855de0bf79db',
    'shr': 'f0101750b2f0e6a0',
    'sub': '38e06461b0f45463',
    'subcf': '83a88106af26771f',
    'subof': '0278e041da29722f',
    'vadd': '1ea4ca0cbb99eaa1',
    'vmov': 'beb5911bf9da0634',
    'vmul': '521c3de31386ed4b',
    'vsplat': '3cdf32d667219c9d',
    'vsub': '7e700924d5f4a36e',
    'xor': 'eb0e7e7d66d3aec0',
}
GOLDEN_KERNELS = {
    '400.perlbench': (
        0, 11403, 'e3b0c44298fc', 2, 50044, 50033, 11, 8990, 12991, 2412,
        8009, 981, 62806, 92618, 2941, 5954, 3044, 16256, 12278),
    '401.bzip2': (
        0, 11849, 'e3b0c44298fc', 2, 49711, 49621, 90, 9782, 11242, 2066,
        7730, 2052, 53766, 78168, 3666, 3614, 2608, 12464, 10352),
    '403.gcc': (
        0, 19411, 'e3b0c44298fc', 2, 84645, 84533, 112, 16444, 15959, 2966,
        10372, 6072, 77800, 122382, 11070, 6812, 5098, 20480, 14360),
    '410.bwaves': (
        0, 6253, 'e3b0c44298fc', 2, 16553, 16511, 42, 5776, 2317, 476, 1798,
        3978, 11756, 17164, 5679, 780, 562, 2736, 5608),
    '429.mcf': (
        0, 18498, 'e3b0c44298fc', 2, 78027, 78015, 12, 16071, 13175, 2426,
        9323, 6748, 63362, 95868, 4764, 4524, 3482, 15408, 11854),
    '433.milc': (
        0, 7835, 'e3b0c44298fc', 2, 17332, 17288, 44, 7318, 2447, 516, 2014,
        5304, 12486, 17950, 6384, 780, 562, 2720, 5570),
    '434.zeusmp': (
        0, 7789, 'e3b0c44298fc', 2, 19626, 19565, 61, 7282, 2417, 506, 1978,
        5304, 12316, 17764, 7109, 780, 562, 2736, 5608),
    '435.gromacs': (
        0, 8859, 'e3b0c44298fc', 2, 17960, 17914, 46, 8322, 2477, 536, 2134,
        6188, 12786, 18196, 6929, 780, 562, 2720, 5570),
    '436.cactusADM': (
        0, 8859, 'e3b0c44298fc', 2, 19639, 19591, 48, 8322, 2517, 536, 2134,
        6188, 12876, 18364, 7379, 780, 562, 2736, 5608),
    '437.leslie3d': (
        0, 7835, 'e3b0c44298fc', 2, 19986, 19925, 61, 7318, 2517, 516, 2014,
        5304, 12636, 18244, 7109, 780, 562, 2736, 5608),
    '444.namd': (
        0, 8813, 'e3b0c44298fc', 2, 17600, 17554, 46, 8286, 2377, 526, 2098,
        6188, 12466, 17716, 6929, 780, 562, 2720, 5570),
    '445.gobmk': (
        0, 14851, 'e3b0c44298fc', 2, 62837, 62315, 522, 12487, 13155, 2363,
        7636, 4851, 61976, 84662, 12655, 5876, 3910, 14736, 11488),
    '450.soplex': (
        0, 6920, 'e3b0c44298fc', 2, 25949, 25832, 117, 6326, 2891, 593, 2140,
        4186, 14588, 20334, 2898, 1482, 1002, 3472, 5886),
    '453.povray': (
        0, 5608, 'e3b0c44298fc', 2, 18874, 18739, 135, 4911, 2972, 696, 2312,
        2599, 15986, 20778, 3392, 1378, 914, 3408, 5854),
    '454.calculix': (
        0, 2826, 'e3b0c44298fc', 2, 5784, 5734, 50, 2706, 416, 119, 660, 2046,
        2430, 2740, 6515, 156, 88, 368, 4394),
    '458.sjeng': (
        0, 17677, 'e3b0c44298fc', 2, 66094, 66075, 19, 15269, 13324, 2407,
        9324, 5945, 63052, 94070, 6889, 4290, 3302, 14656, 11448),
    '459.GemsFDTD': (
        0, 8813, 'e3b0c44298fc', 2, 19279, 19231, 48, 8286, 2417, 526, 2098,
        6188, 12556, 17884, 7379, 780, 562, 2736, 5608),
    '462.libquantum': (
        0, 31898, 'e3b0c44298fc', 2, 63953, 63921, 32, 30711, 6604, 1186,
        4997, 25714, 30980, 45570, 10324, 1820, 1352, 6784, 7572),
    '464.h264ref': (
        0, 18625, 'e3b0c44298fc', 2, 71808, 71795, 13, 16509, 11614, 2115,
        8006, 8503, 55338, 81678, 5053, 3900, 3008, 13152, 10726),
    '470.lbm': (
        0, 10349, 'e3b0c44298fc', 2, 19509, 19463, 46, 9792, 2437, 556, 2278,
        7514, 12956, 18148, 7979, 780, 562, 2736, 5608),
    '471.omnetpp': (
        0, 13350, 'e3b0c44298fc', 2, 56023, 55531, 492, 10539, 15202, 2810,
        9220, 1319, 72544, 100736, 12764, 5356, 3658, 16368, 12304),
    '473.astar': (
        0, 21137, 'e3b0c44298fc', 2, 80670, 80553, 117, 18995, 11651, 2141,
        7847, 11148, 55774, 81258, 3827, 3822, 2766, 13056, 10648),
    '482.sphinx3': (
        0, 4650, 'e3b0c44298fc', 2, 15061, 14899, 162, 4395, 903, 254, 807,
        3588, 5304, 4950, 3170, 546, 264, 912, 4576),
    '483.xalancbmk': (
        0, 14673, 'e3b0c44298fc', 2, 70675, 70661, 14, 12201, 13376, 2471,
        8591, 3610, 64884, 102826, 6413, 5304, 3306, 16816, 12558),
    'breakable': (
        0, 7798, 'e3b0c44298fc', 2, 7652, 7652, 0, 4446, 8804, 3351, 540,
        3906, 65200, 2452, 5699, 286, 242, 11984, 10202),
    'continuous': (
        0, 1972, 'e3b0c44298fc', 2, 0, 0, 0, 0, 5014, 1971, 0, 0, 38110, 0, 0,
        0, 0, 7088, 7754),
    'deformable': (
        0, 9665, 'e3b0c44298fc', 2, 10880, 10880, 0, 6750, 7633, 2914, 540,
        6210, 56414, 2452, 5699, 286, 242, 10064, 9242),
    'explosions': (
        0, 8407, 'e3b0c44298fc', 2, 8233, 8233, 0, 4887, 9165, 3519, 540,
        4347, 68148, 2452, 5699, 260, 220, 12304, 10362),
    'highspeed': (
        0, 7859, 'e3b0c44298fc', 2, 7652, 7652, 0, 4446, 8905, 3412, 540,
        3906, 66134, 2452, 5699, 286, 242, 11984, 10202),
    'periodic': (
        0, 1519, 'e3b0c44298fc', 2, 0, 0, 0, 0, 3869, 1518, 0, 0, 29414, 0, 0,
        0, 0, 5536, 6978),
    'ragdoll': (
        0, 1984, 'e3b0c44298fc', 2, 0, 0, 0, 0, 5020, 1983, 0, 0, 38266, 0, 0,
        0, 0, 7088, 7754),
}
