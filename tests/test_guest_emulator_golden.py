"""Golden behaviour of the authoritative guest emulator (the x86 component).

The pinned digests were recorded from the decode-and-dispatch emulator
that every DARCO run has been validated against, before instructions were
bound to closures. A digest that changes is a change of guest semantics:
Figs. 4-7, checkpoints and repro bundles would all inherit it.

Each digest covers the retirement counters (``icount``, ``branch_count``,
``bb_count``, ``class_counts``), the final architectural state (bit exact
for floats), stdout, the exit code, the dirty-page set and the memory
image with its pages in the order they appeared.
"""

import hashlib
import itertools
import json
import random
import struct

import pytest

from repro.guest.assembler import EAX, ECX, Assembler, M
from repro.guest.emulator import EmulationError, GuestEmulator
from repro.guest.encoding import _encode_operand
from repro.guest.isa import (
    FPR_NAMES, GPR_NAMES, INSN_SPECS, OPCODE_OF, VR_NAMES, FReg, Imm,
    InsnClass, Mem, Reg, VReg,
)
from repro.guest.memory import PAGE_SIZE, PagedMemory
from repro.guest.program import GuestProgram
from repro.guest.syscalls import GuestOS
from repro.workloads import SUITES, get_workload, suite_workloads

KERNEL_SCALE = 0.02
CODE = 0x0000_1000
DATA = 0x0030_0000  # two random pages; offsets near 0xFFF straddle them
MASK32 = 0xFFFFFFFF


def _digest(blob) -> str:
    text = json.dumps(blob, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fingerprint(emu: GuestEmulator, error=None) -> str:
    snap = emu.state.snapshot()
    memory = emu.memory
    image = hashlib.sha256()
    for page in memory.present_pages():  # insertion order: first touch
        image.update(page.to_bytes(4, "little"))
        image.update(memory.export_page(page))
    return _digest({
        "error": error,
        "icount": emu.icount,
        "branch_count": emu.branch_count,
        "bb_count": emu.bb_count,
        "class_counts": sorted(
            (klass.value, n) for klass, n in emu.class_counts.items()),
        "gpr": snap["gpr"],
        "fpr": [type(x).__name__ + struct.pack("<d", x).hex()
                for x in snap["fpr"]],
        "vr": snap["vr"],
        "flags": snap["flags"],
        "eip": snap["eip"],
        "stdout": emu.os.stdout.hex(),
        "exit_code": emu.os.exit_code,
        "dirty": sorted(memory.dirty),
        "image": image.hexdigest(),
    })


# ---------------------------------------------------------------------------
# Whole kernels.
# ---------------------------------------------------------------------------

KERNELS = [w.name for suite in SUITES for w in suite_workloads(suite)]

#: name -> (icount, fingerprint) at scale KERNEL_SCALE.
GOLDEN_KERNELS = {
    "400.perlbench": (11403, "a76fd836e76962e2"),
    "401.bzip2": (11849, "72f91189fe57b70f"),
    "403.gcc": (19411, "d302b660d1005c9d"),
    "429.mcf": (18498, "f1bdfa75b397f0cb"),
    "445.gobmk": (14851, "a797ffdc7c1fa58b"),
    "458.sjeng": (17677, "8871107e19b1eac3"),
    "462.libquantum": (31898, "e2441985ef4e6234"),
    "464.h264ref": (18625, "5c5c30b908b15136"),
    "471.omnetpp": (13350, "16b34f7c93443c2b"),
    "473.astar": (21137, "86fd50a25e054cc4"),
    "483.xalancbmk": (14673, "c1bae2fe064bc282"),
    "410.bwaves": (6253, "e3ea2dca1f0951ee"),
    "433.milc": (7835, "27b707f274785b84"),
    "434.zeusmp": (7789, "d5f0f1b68adf617f"),
    "435.gromacs": (8859, "206cd3d81adbda5b"),
    "436.cactusADM": (8859, "95487fd228caa3bd"),
    "437.leslie3d": (7835, "5984f64c2c612bd2"),
    "444.namd": (8813, "8a8983eee884e19a"),
    "459.GemsFDTD": (8813, "c2e0032ed8d528fa"),
    "470.lbm": (10349, "15c64c11601c7ac8"),
    "450.soplex": (6920, "4225dee7acf8a8ba"),
    "453.povray": (5608, "a8eecc0cb174820a"),
    "454.calculix": (2826, "65116ccb786a1f70"),
    "482.sphinx3": (4650, "dff43a38b44279e3"),
    "breakable": (7798, "cd98ec9368183f63"),
    "continuous": (1972, "3d4ae2158f272dca"),
    "deformable": (9665, "08568fc9b97e8a78"),
    "explosions": (8407, "f459337d26e7fbbc"),
    "highspeed": (7859, "278925ac204b085e"),
    "periodic": (1519, "fe4a41941af8e748"),
    "ragdoll": (1984, "82001ba0a4055345"),
}


def test_every_figure_kernel_is_pinned():
    assert len(KERNELS) == 31
    assert sorted(GOLDEN_KERNELS) == sorted(KERNELS)


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_matches_golden(name):
    emu = GuestEmulator(get_workload(name).program(scale=KERNEL_SCALE))
    emu.run()
    assert emu.halted
    assert (emu.icount, fingerprint(emu)) == GOLDEN_KERNELS[name]


# ---------------------------------------------------------------------------
# Every mnemonic, one instruction at a time.
# ---------------------------------------------------------------------------

#: Operand classes each encoder kind accepts.
KIND_CLASSES = {
    "r": (Reg,), "f": (FReg,), "v": (VReg,), "i": (Imm,), "m": (Mem,),
    "rm": (Reg, Mem), "ri": (Reg, Imm), "rmi": (Reg, Mem, Imm),
}
#: Everything the decoder can produce in any operand slot, which is what
#: executes when control lands mid-instruction.
DECODABLE = (Reg, FReg, VReg, Imm, Mem)

_INT_EDGES = (0, 1, 2, 31, 32, 33, 0x7FFFFFFF, 0x80000000, 0x80000001,
              0xFFFFFFFE, 0xFFFFFFFF)
_FP_EDGES = (0.0, -0.0, 1.5, -2.25, 3.0e9, -3.0e9, 1e300, float("inf"),
             float("-inf"), float("nan"))
#: Offsets into the two data pages; the last ones straddle the boundary.
_DATA_OFFSETS = (0x10, 0x404, 0x7F3, 0xFF0, 0xFF8, 0xFF9, 0xFFC, 0xFFD,
                 0xFFF)


def _int(rng):
    if rng.random() < 0.4:
        return rng.choice(_INT_EDGES)
    return rng.getrandbits(32)


def _data_addr(rng):
    if rng.random() < 0.5:
        return DATA + rng.choice(_DATA_OFFSETS)
    return DATA + rng.randrange(0, 2 * PAGE_SIZE - 16)


def _operand(cls, rng, gpr):
    if cls is Reg:
        return Reg(rng.choice(GPR_NAMES))
    if cls is FReg:
        return FReg(rng.choice(FPR_NAMES))
    if cls is VReg:
        return VReg(rng.choice(VR_NAMES))
    if cls is Imm:
        return Imm(_int(rng))
    base = rng.choice((None,) + GPR_NAMES)
    index = rng.choice((None,) + GPR_NAMES)
    scale = rng.choice((1, 2, 4, 8))
    offset = (gpr[GPR_NAMES.index(base)] if base else 0) + \
        (gpr[GPR_NAMES.index(index)] * scale if index else 0)
    return Mem(base=base, index=index, scale=scale,
               disp=(_data_addr(rng) - offset) & MASK32)


def one_instruction(mnemonic, classes, seed):
    """An emulator about to execute ``mnemonic`` with operands of
    ``classes`` (encoded without the encoder's kind check) from a random
    state drawn from ``seed``."""
    rng = random.Random(
        f"{mnemonic}|{'/'.join(c.__name__ for c in classes)}|{seed}")
    gpr = [_int(rng) for _ in GPR_NAMES]
    gpr[4] = DATA + rng.choice((0x400, 0xFFE, 0x1002, 0x1000))  # ESP
    if mnemonic == "SYSCALL":
        gpr[0] = rng.randrange(0, 8)            # number (7: unknown)
        gpr[1] = _data_addr(rng)                # buffer
        gpr[2] = rng.randrange(0, 48)           # length
    elif mnemonic.startswith("REP_"):
        gpr[1] = rng.randrange(0, 12)           # ECX count
        gpr[6], gpr[7] = _data_addr(rng), _data_addr(rng)
    operands = [_operand(cls, rng, gpr) for cls in classes]
    code = bytes([OPCODE_OF[mnemonic]]) + b"".join(
        _encode_operand(op) for op in operands)
    memory = PagedMemory()
    for page in range(2):
        memory.install_page((DATA >> 12) + page, rng.randbytes(PAGE_SIZE))
    emu = GuestEmulator(
        GuestProgram(code=code, base=CODE, entry=CODE),
        os=GuestOS(stdin=rng.randbytes(32), rand_seed=seed),
        memory=memory)
    emu.state.gpr = gpr
    emu.state.flags = [rng.getrandbits(1) for _ in range(4)]
    emu.state.fpr = [rng.choice(_FP_EDGES) if rng.random() < 0.4
                     else rng.uniform(-1e6, 1e6) for _ in FPR_NAMES]
    emu.state.vr = [[_int(rng) for _ in range(4)] for _ in VR_NAMES]
    return emu


def outcome(emu, run) -> str:
    try:
        run(emu)
        error = None
    except Exception as exc:  # the outcome under test, type and message
        error = f"{type(exc).__name__}: {exc}"
    return fingerprint(emu, error)


def cases(mnemonic):
    """(classes, seed) pairs: every combination the encoder accepts from
    four random states, then every other decodable one from one."""
    spec = INSN_SPECS[mnemonic]
    accepted = list(itertools.product(
        *(KIND_CLASSES[kind] for kind in spec.operands)))
    out = [(classes, seed) for classes in accepted for seed in range(4)]
    out += [(classes, 4) for classes in itertools.product(
        DECODABLE, repeat=len(spec.operands)) if classes not in accepted]
    return out


def mnemonic_digest(mnemonic, run) -> str:
    return _digest([outcome(one_instruction(mnemonic, classes, seed), run)
                    for classes, seed in cases(mnemonic)])


#: mnemonic -> digest of every case's fingerprint after one ``step()``.
GOLDEN_MNEMONICS = {
    "ADD": "038d5ad485e08b17",
    "AND": "b7667063d84116ca",
    "CALL": "f10a5bbee62f1a33",
    "CALLI": "7dd5b5ad74123680",
    "CMP": "e828a27e457cb670",
    "CVTFI": "ad16df8a3c5022a8",
    "CVTIF": "2dedf0c28322e816",
    "DEC": "97566e35c8187517",
    "FABS": "0a5f6b3a096356d7",
    "FADD": "2f26fa910b59b5e8",
    "FCMP": "83ccde6639a17cfd",
    "FCOS": "6017c0ec889edc06",
    "FDIV": "ed95583b4f1cc741",
    "FLD": "cf42525399637455",
    "FLDI": "5020635c034b9dfe",
    "FMOV": "8ff158f6d76c43b3",
    "FMUL": "15d3ac3b41f29ed2",
    "FNEG": "1863998bf175c648",
    "FSIN": "24440ca6fbe68261",
    "FSQRT": "aac55ac5dfb77c06",
    "FST": "49bef6c61bcfe784",
    "FSUB": "1acafbf43479ac17",
    "HLT": "c711aaf37a5570c8",
    "IDIV": "65874f215a3bb463",
    "IMUL": "296b368a04105658",
    "INC": "d5afb7c87d49fb7f",
    "JA": "5984dcd9582d5f60",
    "JAE": "7fbaad62cfdb9598",
    "JB": "db1cfb4b7f6dcaf8",
    "JBE": "0f61f143c9a55d7f",
    "JE": "335787e845daeef6",
    "JG": "34a445ae1e24aac0",
    "JGE": "93da96bc391501fc",
    "JL": "60d6b6a4fddebfe7",
    "JLE": "c15b8b85db0f95ee",
    "JMP": "00f08cf4ddd394fa",
    "JMPI": "6a240cf5e86da7e0",
    "JNE": "371cf4e819b723dc",
    "JNS": "f93c9a1dc0842619",
    "JS": "b27ea92673d497e5",
    "LEA": "a979b946e816453b",
    "MOV": "1b2cd438bd11734a",
    "NEG": "e97a1db887967380",
    "NOP": "c624e50e0dddb07c",
    "NOT": "1200ab55ca74802f",
    "OR": "3830add01c51abf0",
    "POP": "58fcd395a646bd6f",
    "PUSH": "78988b14d853245e",
    "REP_MOVSD": "69526685f3dce949",
    "REP_STOSD": "537346ec2258227e",
    "RET": "baea90c38caae120",
    "SAR": "b6c042a2f49a564d",
    "SHL": "7facd9df7da416cc",
    "SHR": "1eee2e4f9a5faeaa",
    "SUB": "027941beee11877e",
    "SYSCALL": "ffd43e0b68c07738",
    "TEST": "673d0c27dafe9a6c",
    "VADD": "e55fee13877813fb",
    "VLD": "e15f136652680099",
    "VMOV": "18411233c0736782",
    "VMUL": "1bb9b759de168b77",
    "VSPLAT": "6abf354cbb1656eb",
    "VST": "7f08a10830f4511c",
    "VSUB": "9fe698f62c04cefc",
    "XCHG": "facfb635851b0b6e",
    "XOR": "43d0738d854cffda",
}


def test_every_mnemonic_is_pinned():
    assert sorted(GOLDEN_MNEMONICS) == sorted(INSN_SPECS)


@pytest.mark.parametrize("mnemonic", sorted(INSN_SPECS))
def test_mnemonic_matches_golden(mnemonic):
    assert mnemonic_digest(mnemonic, GuestEmulator.step) == \
        GOLDEN_MNEMONICS[mnemonic]
    assert mnemonic_digest(mnemonic, lambda e: e.run_to_icount(1)) == \
        GOLDEN_MNEMONICS[mnemonic]


#: Operand shapes that decode when control lands mid-instruction, with
#: the exception each raises (None: it executes).
MALFORMED = [
    ("POP", (FReg("F3"),), None),
    ("PUSH", (Mem(disp=0x3000),), None),
    ("JMP", (Reg("EBX"),), None),
    ("MOV", (FReg("F1"), Reg("EAX")), EmulationError),
    ("ADD", (Reg("EAX"), FReg("F2")), EmulationError),
    ("LEA", (VReg("V1"), Reg("EBX")), AttributeError),
    ("FLD", (FReg("F0"), Reg("EAX")), AttributeError),
]


def _malformed(mnemonic, operands):
    code = bytes([OPCODE_OF[mnemonic]]) + b"".join(
        _encode_operand(op) for op in operands)
    emu = GuestEmulator(GuestProgram(code=code, base=CODE, entry=CODE,
                                     data={0x3000: b"\x78\x56\x34\x12"}))
    emu.state.gpr[3] = 0xBEEF  # EBX
    return emu


@pytest.mark.parametrize("mnemonic,operands,raises", MALFORMED,
                         ids=[m for m, _, _ in MALFORMED])
def test_malformed_operands_keep_their_outcome(mnemonic, operands, raises):
    emu = _malformed(mnemonic, operands)
    esp = emu.state.gpr[4]
    if raises is not None:
        with pytest.raises(raises):
            emu.step()
        assert (emu.icount, emu.state.eip) == (0, CODE)
        return
    emu.step()
    assert emu.icount == 1
    if mnemonic == "POP":  # pops into EBX, F3's index
        assert emu.state.gpr[3] == 0 and emu.state.gpr[4] == esp + 4
    elif mnemonic == "PUSH":  # pushes the loaded word
        assert emu.memory.read_u32(esp - 4) == 0x12345678
    else:  # jumps to EBX
        assert emu.state.eip == 0xBEEF


# ---------------------------------------------------------------------------
# Run loops agree with single steps.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["429.mcf", "ragdoll", "482.sphinx3"])
def test_run_loops_equal_single_steps(name):
    """ragdoll exits before the last target: both loops stop there."""
    program = get_workload(name).program(scale=KERNEL_SCALE)
    stepped, chained = GuestEmulator(program), GuestEmulator(program)
    for target in (1, 17, 1000, 4099):
        fresh = GuestEmulator(program)
        fresh.run_to_icount(target)
        chained.run_to_icount(target)
        while stepped.icount < target and not stepped.halted:
            stepped.step()
        assert fingerprint(fresh) == fingerprint(stepped) == \
            fingerprint(chained), target
    whole = GuestEmulator(program)
    whole.run()
    chained.run(max_steps=7)
    chained.run()
    while not stepped.halted:
        stepped.step()
    assert fingerprint(whole) == fingerprint(stepped) == fingerprint(chained)


def test_raising_instruction_leaves_counts_at_last_retired():
    asm = Assembler()
    asm.mov(ECX, 3)
    asm.label("top")
    asm.add(EAX, M(disp=0x3000))
    asm.dec(ECX)
    asm.jne("top")
    loop = asm.program()
    # Then MOV F1, EAX: it decodes but cannot execute.
    bad = bytes([OPCODE_OF["MOV"]]) + _encode_operand(FReg("F1")) + \
        _encode_operand(EAX)
    program = GuestProgram(code=loop.code + bad, base=loop.base,
                           entry=loop.entry)
    fault_at = loop.base + len(loop.code)
    retired = {InsnClass.MOVE: 1, InsnClass.ALU: 6, InsnClass.BRANCH: 3}
    for run in (GuestEmulator.run,
                lambda e: e.run_to_icount(50),
                lambda e: [e.step() for _ in range(50)]):
        emu = GuestEmulator(program)
        with pytest.raises(EmulationError, match="not a writable operand"):
            run(emu)
        assert emu.icount == 10
        assert dict(emu.class_counts) == retired
        assert (emu.branch_count, emu.bb_count) == (3, 3)
        assert emu.state.eip == fault_at
        assert emu.state.gpr[1] == 0  # ECX: the loop ran out
