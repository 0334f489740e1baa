"""Host ISA (HISA) definition.

HISA is the PowerPC-like RISC ISA implemented by the co-designed hardware.
It is designed *for* guest emulation, the way Transmeta's and Denver's host
ISAs were: flat register files large enough to home the guest state
permanently, no condition flags (explicit compare-to-register), and a set of
co-designed extensions the TOL relies on:

- ``assert_z``/``assert_nz``: speculation asserts (paper §V-B3);
- ``chkpt``/``commit``: architectural checkpoints for rollback;
- ``sld32``/``sldf`` + ``st32chk``/``stfchk``: speculative memory reordering
  with hardware alias detection;
- ``addcf32``/``addof32``/``subcf32``/``subof32``/``mulof32``: single-cycle
  guest condition-flag helpers;
- ``ibtc``: inline indirect-branch translation cache lookup;
- 32-bit ALU ops (``add32`` ...) that wrap like the guest's arithmetic.

Register conventions (see :data:`GUEST_GPR_HOME` etc.): the guest state is
directly and permanently mapped onto host registers, the paper's "maps guest
architectural registers directly on the host registers".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.costs import IBTC_HIT_INLINE
from repro.guest import semantics as sem
from repro.pycode import IN_PAGE, in_page, names

NUM_IREGS = 64
NUM_FREGS = 32
NUM_VREGS = 16

#: Guest GPR i (EAX..EDI) lives in host integer register 1+i.
GUEST_GPR_HOME = tuple(range(1, 9))
#: Guest flags ZF,SF,CF,OF live in host integer registers 9..12.
GUEST_FLAG_HOME = tuple(range(9, 13))
#: Guest FPR i lives in host FP register 1+i.
GUEST_FPR_HOME = tuple(range(1, 9))
#: Guest VR i lives in host vector register 1+i.
GUEST_VR_HOME = tuple(range(1, 9))
#: First host integer register available to the register allocator.
FIRST_SCRATCH_IREG = 16
#: First host FP register available to the register allocator.
FIRST_SCRATCH_FREG = 16
#: First host vector register available to the register allocator.
FIRST_SCRATCH_VREG = 9
#: Host addresses at/above this are the TOL-private data area (spill slots
#: and TOL bookkeeping), invisible to the guest and exempt from
#: checkpointing and validation.
TOL_AREA_BASE = 0xF000_0000


class HostOp:
    """Namespace of host opcode mnemonics, grouped by execution class."""

    # Integer ALU (32-bit wrapping semantics for guest emulation).
    INT_ALU = frozenset({
        "li", "mov", "add32", "addi32", "sub32", "and32", "andi32",
        "or32", "ori32", "xor32", "xori32", "shl32", "shli32", "shr32",
        "shri32", "sar32", "sari32", "not32", "neg32",
        "cmpeq", "cmpeqi", "cmpne", "cmpnei", "cmplt32s", "cmplt32u",
        "cmple32s", "cmple32u",
        "addcf32", "addof32", "subcf32", "subof32",
    })
    INT_MUL = frozenset({"mul32", "mulof32"})
    INT_DIV = frozenset({"div32s", "rem32s"})
    FP_ALU = frozenset({
        "fmov", "fadd", "fsub", "fmul", "fneg", "fabs", "ffloor",
        "fcmpeq", "fcmplt", "fcmpun", "lif", "i2f", "f2i",
    })
    FP_DIV = frozenset({"fdiv", "fsqrt"})
    VEC = frozenset({"vadd32", "vsub32", "vmul32", "vsplat", "vmov"})
    LOAD = frozenset({"ld32", "ldf", "vld", "sld32", "sldf"})
    STORE = frozenset({"st32", "stf", "vst", "st32chk", "stfchk"})
    BRANCH = frozenset({"beqz", "bnez", "j"})
    ASSERT = frozenset({"assert_z", "assert_nz"})
    SPECIAL = frozenset({"chkpt", "commit", "exit", "exit_ind", "ibtc", "nop"})

    ALL = (INT_ALU | INT_MUL | INT_DIV | FP_ALU | FP_DIV | VEC | LOAD
           | STORE | BRANCH | ASSERT | SPECIAL)


#: Execution-unit class per op, consumed by the timing simulator.
def op_unit_class(op: str) -> str:
    if op in HostOp.INT_ALU:
        return "simple"
    if op in HostOp.INT_MUL or op in HostOp.INT_DIV:
        return "complex"
    if op in HostOp.FP_ALU:
        return "fp"
    if op in HostOp.FP_DIV:
        return "fp_div"
    if op in HostOp.VEC:
        return "vector"
    if op in HostOp.LOAD:
        return "load"
    if op in HostOp.STORE:
        return "store"
    if (op in HostOp.BRANCH or op in HostOp.ASSERT
            or op in ("exit", "exit_ind", "ibtc")):
        return "branch"
    return "simple"


# ---------------------------------------------------------------------------
# Op semantics, stated once.  The host emulator's reference loop and
# generated programs and the IR evaluator (eval_ops, compile_ops,
# constant folding) are all generated from these rows; the control ops
# follow below the memory template.
# ---------------------------------------------------------------------------

#: Value ops: op -> (register files, result expression).  ``files`` names
#: the destination's file, then each source's: 'i' integer, 'f' FP, 'v'
#: vector, 'n' the immediate.  The expression reads the sources as {a}
#: and {b}, which must stay atoms (a register, a local or a literal).
#: Keys are host ops; an IR op reaches its row through ``IR_HOST_OPS``
#: (fsin/fcos are IR-only: codegen expands them in software), and an
#: immediate form through ``IR_IMM_FORMS``, with {b} the immediate.
VALUE_OPS = {
    "li": ("in", "{a} & 0xFFFFFFFFFFFFFFFF"),
    "lif": ("fn", "float({a})"),
    "nop": ("", None),
    "mov": ("ii", "{a}"),
    "add32": ("iii", "({a} + {b}) & 0xFFFFFFFF"),
    "sub32": ("iii", "({a} - {b}) & 0xFFFFFFFF"),
    "mul32": ("iii", "({a} * {b}) & 0xFFFFFFFF"),
    "div32s": ("iii", "idiv32({a}, {b})[0]"),
    "rem32s": ("iii", "idiv32({a}, {b})[1]"),
    "and32": ("iii", "({a} & {b}) & 0xFFFFFFFF"),
    "or32": ("iii", "({a} | {b}) & 0xFFFFFFFF"),
    "xor32": ("iii", "({a} ^ {b}) & 0xFFFFFFFF"),
    "shl32": ("iii", "({a} << ({b} & 31)) & 0xFFFFFFFF"),
    "shr32": ("iii", "({a} & 0xFFFFFFFF) >> ({b} & 31)"),
    "sar32": ("iii", "((({a} & 0xFFFFFFFF ^ 0x80000000) - 0x80000000)"
                     " >> ({b} & 31)) & 0xFFFFFFFF"),
    "not32": ("ii", "~{a} & 0xFFFFFFFF"),
    "neg32": ("ii", "-{a} & 0xFFFFFFFF"),
    "cmpeq": ("iii", "1 if {a} & 0xFFFFFFFF == {b} & 0xFFFFFFFF else 0"),
    "cmpne": ("iii", "1 if {a} & 0xFFFFFFFF != {b} & 0xFFFFFFFF else 0"),
    "cmplt32s": ("iii", "1 if {a} & 0xFFFFFFFF ^ 0x80000000"
                        " < {b} & 0xFFFFFFFF ^ 0x80000000 else 0"),
    "cmplt32u": ("iii", "1 if {a} & 0xFFFFFFFF < {b} & 0xFFFFFFFF else 0"),
    "cmple32s": ("iii", "1 if {a} & 0xFFFFFFFF ^ 0x80000000"
                        " <= {b} & 0xFFFFFFFF ^ 0x80000000 else 0"),
    "cmple32u": ("iii", "1 if {a} & 0xFFFFFFFF <= {b} & 0xFFFFFFFF else 0"),
    "addcf32": ("iii", "1 if ({a} + {b}) & 0xFFFFFFFF < {a} & 0xFFFFFFFF"
                       " else 0"),
    "addof32": ("iii", "(~({a} ^ {b}) & ({a} ^ ({a} + {b}) & 0xFFFFFFFF))"
                       " >> 31 & 1"),
    "subcf32": ("iii", "1 if {a} & 0xFFFFFFFF < {b} & 0xFFFFFFFF else 0"),
    "subof32": ("iii", "(({a} ^ {b}) & ({a} ^ ({a} - {b}) & 0xFFFFFFFF))"
                       " >> 31 & 1"),
    "mulof32": ("iii", "0 if -0x80000000 <= (({a} & 0xFFFFFFFF"
                       " ^ 0x80000000) - 0x80000000) * (({b} & 0xFFFFFFFF"
                       " ^ 0x80000000) - 0x80000000) < 0x80000000 else 1"),
    "fmov": ("ff", "float({a})"),
    "fadd": ("fff", "{a} + {b}"),
    "fsub": ("fff", "{a} - {b}"),
    "fmul": ("fff", "{a} * {b}"),
    "fdiv": ("fff", "fdiv64({a}, {b})"),
    "fneg": ("ff", "-{a}"),
    "fabs": ("ff", "abs({a})"),
    "fsqrt": ("ff", "gisa_sqrt({a})"),
    "ffloor": ("ff", "float(_floor({a}))"),
    "fsin": ("ff", "gisa_sin({a})"),
    "fcos": ("ff", "gisa_cos({a})"),
    "fcmpeq": ("iff", "1 if {a} == {b} else 0"),
    "fcmplt": ("iff", "1 if {a} < {b} else 0"),
    "fcmpun": ("iff", "1 if {a} != {a} or {b} != {b} else 0"),
    "i2f": ("fi", "float(({a} & 0xFFFFFFFF ^ 0x80000000) - 0x80000000)"),
    "f2i": ("if", "ftrunc32({a})"),
    "vmov": ("vv", "list({a})"),
    "vadd32": ("vvv", "[(_x + _y) & 0xFFFFFFFF for _x, _y in zip({a}, {b})]"),
    "vsub32": ("vvv", "[(_x - _y) & 0xFFFFFFFF for _x, _y in zip({a}, {b})]"),
    "vmul32": ("vvv", "[(_x * _y) & 0xFFFFFFFF for _x, _y in zip({a}, {b})]"),
    "vsplat": ("vi", "[{a} & 0xFFFFFFFF] * 4"),
}

#: IR op -> host op for three-address lowering.
IR_HOST_OPS = {
    "mov": "mov", "add": "add32", "sub": "sub32", "mul": "mul32",
    "div": "div32s", "rem": "rem32s", "and": "and32", "or": "or32",
    "xor": "xor32", "shl": "shl32", "shr": "shr32", "sar": "sar32",
    "not": "not32", "neg": "neg32",
    "cmpeq": "cmpeq", "cmpne": "cmpne", "cmplts": "cmplt32s",
    "cmpltu": "cmplt32u", "cmples": "cmple32s", "cmpleu": "cmple32u",
    "addcf": "addcf32", "addof": "addof32", "subcf": "subcf32",
    "subof": "subof32", "mulof": "mulof32",
    "fmov": "fmov", "fadd": "fadd", "fsub": "fsub", "fmul": "fmul",
    "fdiv": "fdiv", "fneg": "fneg", "fabs": "fabs", "fsqrt": "fsqrt",
    "ffloor": "ffloor", "i2f": "i2f", "f2i": "f2i",
    "fcmpeq": "fcmpeq", "fcmplt": "fcmplt", "fcmpun": "fcmpun",
    "vmov": "vmov", "vadd": "vadd32", "vsub": "vsub32", "vmul": "vmul32",
    "vsplat": "vsplat",
}

#: Integer IR ops with an immediate host form when the *second* source is
#: constant (plus commutative ops usable with the first).
IR_IMM_FORMS = {
    "add": "addi32", "and": "andi32", "or": "ori32", "xor": "xori32",
    "shl": "shli32", "shr": "shri32", "sar": "sari32",
    "cmpeq": "cmpeqi", "cmpne": "cmpnei",
}

#: Every host value op (immediate forms included) -> (files, expression).
HOST_VALUE_OPS = {op: row for op, row in VALUE_OPS.items()
                  if op in HostOp.ALL}
HOST_VALUE_OPS.update(
    (imm, (VALUE_OPS[IR_HOST_OPS[ir]][0][:2] + "n",
           VALUE_OPS[IR_HOST_OPS[ir]][1]))
    for ir, imm in IR_IMM_FORMS.items())

#: Loads and stores: op -> (width, alias-table size).  Width '' is a u32
#: access, 'F' an f64 one and 'V' four u32 lanes (the suffix of the
#: memory bindings below).  A nonzero size marks the speculative ops:
#: loads record their access in the alias table, and checking stores
#: search it for a younger overlapping load.
MEMORY_OPS = {
    "ld32": ("", 0), "ldf": ("F", 0), "vld": ("V", 0),
    "sld32": ("", 4), "sldf": ("F", 8),
    "st32": ("", 0), "stf": ("F", 0), "vst": ("V", 0),
    "st32chk": ("", 4), "stfchk": ("F", 8),
}
_WIDTH_FILE = {"": "i", "F": "f", "V": "v"}
#: Widths accessed in-page (:func:`repro.pycode.in_page`): width ->
#: (bytes, unpack, pack, the stored value's form).  A store packs what
#: the memory's method packs: the u32 wrapped, the f64 as ``float``.
#: Vectors take the memory's methods.
IN_PAGE_WIDTHS = {"": (4, "_SUI", "_SPI", "{} & 0xFFFFFFFF"),
                  "F": (8, "_SUF", "_SPF", "float({})")}

#: op -> register files of its (d, a, b, c) fields, for every host op.
REGFILES = {op: "iiii" for op in HostOp.ALL}
REGFILES.update((op, (files.replace("n", "i") + "iii")[:4])
                for op, (files, _) in HOST_VALUE_OPS.items() if files)
REGFILES.update((op, _WIDTH_FILE[width] + "iii" if op in HostOp.LOAD
                 else "ii" + _WIDTH_FILE[width] + "i")
                for op, (width, _) in MEMORY_OPS.items())

#: The names the memory and control templates read, bound to the
#: emulator state ``EMU``.  All of it is identity-stable for the emulator's lifetime
#: (register files and alias table are restored and cleared in place,
#: memories install pages in place), so generated code may bind it once.
#: ``AT.store_conflicts`` is looked up per call: fault injection wraps it.
BINDINGS = {
    "I": "EMU.iregs", "F": "EMU.fregs", "V": "EMU.vregs",
    "UNDO": "EMU._undo", "AT": "EMU.alias_table",
    "ATE": "EMU.alias_table.entries",
    "ATRL": "EMU.alias_table.record_load",
    "MR": "EMU.memory.read_u32", "MW": "EMU.memory.write_u32",
    "MRF": "EMU.memory.read_f64", "MWF": "EMU.memory.write_f64",
    "MRV": "EMU.memory.read_vec", "MWV": "EMU.memory.write_vec",
    "TMR": "EMU.tol_memory.read_u32", "TMW": "EMU.tol_memory.write_u32",
    "TMRF": "EMU.tol_memory.read_f64", "TMWF": "EMU.tol_memory.write_f64",
    "TMRV": "EMU.tol_memory.read_vec", "TMWV": "EMU.tol_memory.write_vec",
    "IBTCL": "EMU.ibtc.lookup", "FLUSH": "EMU._flush_trace",
    "STEPS": "EMU._steps",
    # Guest-memory internals for the inlined u32 access (the page dict
    # is only mutated in place; the dirty set only added to/cleared).
    "GP": "EMU.memory._pages", "DIRTYA": "EMU.memory.dirty.add",
}

#: Helpers the generated code calls (copied into each exec namespace).
OP_NS = {
    "idiv32": sem.idiv32, "fdiv64": sem.fdiv64, "gisa_sqrt": sem.gisa_sqrt,
    "gisa_sin": sem.gisa_sin, "gisa_cos": sem.gisa_cos,
    "ftrunc32": sem.ftrunc32, "_floor": math.floor, **IN_PAGE,
}


def value_stmt(op, d, a, b, imm):
    """Statement computing host value op ``op`` from operand texts, or
    None for ``nop``: ``I[d] = (I[a] + imm) & 0xFFFFFFFF``."""
    files, expr = HOST_VALUE_OPS[op]
    if not files:
        return None
    srcs = [imm if f == "n" else f"{f.upper()}[{r}]"
            for f, r in zip(files[1:], (a, b))]
    return f"{files[0].upper()}[{d}] = " + expr.format(a=srcs[0],
                                                       b=srcs[-1])


def evaluator(op):
    """Value op ``op`` (a VALUE_OPS key) as a Python function."""
    files, expr = VALUE_OPS[op]
    params = ", ".join("ab"[:len(files) - 1])
    return eval(f"lambda {params}: " + expr.format(a="a", b="b"),  # noqa: S307
                dict(OP_NS))


def names_in(lines):
    """The BINDINGS names that source ``lines`` read."""
    return sorted(BINDINGS.keys() & names("\n".join(lines)))


def memory_lines(op, d, a, b, imm, seq):
    """Source lines of load/store ``op`` over BINDINGS, ``IN_PAGE``
    and ``_FS`` (raised on an alias-table conflict or
    overflow), with the effective address left in ``_a``, inside the
    frame of :func:`host_factory`.

    The operands are texts: literals and parameters in a program,
    ``ins.d``-style reads in the reference loop.  A guest store under a
    live checkpoint (``_ck``) logs the old value in the undo log; a
    checking store under serial alias-table search charges one host
    instruction per occupied entry to ``executed``, inside the store's
    region.  TOL-area addresses (spill slots) bypass the undo log; u32
    and f64 accesses inside one present page skip the memory's methods
    (:func:`repro.pycode.in_page`, :data:`IN_PAGE_WIDTHS`)."""
    width, alias = MEMORY_OPS[op]
    out = [f"_a = (I[{a}] + {imm}) & 0xFFFFFFFF" if imm
           else f"_a = I[{a}] & 0xFFFFFFFF"]

    def put(depth, *lines):
        out.extend("    " * depth + line for line in lines)

    def undo(entry):
        return ["if _ck is not None:", f"    UNDO.append({entry})"]

    reg = _WIDTH_FILE[width].upper() + "[{}]"
    in_page_width = IN_PAGE_WIDTHS.get(width)
    if op in HostOp.STORE:
        value = reg.format(b)
        if alias:
            put(0, "if EMU.alias_serial_search:")
            put(1, "_c = len(ATE)", "executed += _c",
                "EMU.alias_search_insns += _c")
            put(0, f"if AT.store_conflicts(_a, {alias}, {seq}):")
            put(1, "raise _FS")
        put(0, f"if _a < {TOL_AREA_BASE:#x}:")
        tag = {"": "'u32'", "F": "'f64'", "V": "'vec'"}[width]
        slow = undo(f"({tag}, _a, MR{width}(_a))") + [
            f"MW{width}(_a, {value})"]
        if in_page_width is None:
            put(1, *slow)
        else:
            size, unpack, pack, packed = in_page_width
            fast = undo(f"({tag}, _a, {unpack}(_pg, _po)[0])") + [
                f"{pack}(_pg, _po, {packed.format(value)})",
                "DIRTYA(_a >> 12)"]
            put(1, *in_page("_a", size, fast, slow))
        put(0, "else:")
        put(1, f"TMW{width}(_a, {value})")
        return out
    dest = "_v" if alias else reg.format(d)
    put(0, f"if _a < {TOL_AREA_BASE:#x}:")
    slow = [f"{dest} = MR{width}(_a)"]
    if in_page_width is None:
        put(1, *slow)
    else:
        size, unpack, _, _ = in_page_width
        put(1, *in_page("_a", size, [f"{dest} = {unpack}(_pg, _po)[0]"],
                        slow))
    put(0, "else:")
    put(1, f"{dest} = TMR{width}(_a)")
    if alias:
        put(0, f"if not ATRL(_a, {alias}, {seq}):")
        put(1, "raise _FS")
        put(0, f"{reg.format(d)} = _v")
    return out


# ---------------------------------------------------------------------------
# Control ops, stated once.  Both host execution forms are rendered from
# these templates: the reference loop, one generic function that steps
# through any unit reading each instruction's fields, and the generated
# program of one unit, with its operands folded in.  The templates run
# inside the frame of :func:`host_factory`, whose locals hold the
# dispatch's accounting:
#
#   executed    host instructions executed in this dispatch
#   _rb         ``executed`` where the open region began
#   GRT, _hc    guest instructions retired; host instructions committed
#   _g0         ``GRT`` at entry
#   _ck, _ckpc  the open region's checkpoint (saved registers), restart PC
#   _de         unit entries made without the driver
#   _k, _x, _y  how control leaves the dispatch loop: 0 chain to unit
#               ``_x``; 1 TOL exit to ``_x`` from exit index ``_y`` (None:
#               a pause); 2 IBTC miss; 3 page fault (``_y`` the address);
#               4 assert fail; 5 alias-table fail (``_x`` the restart PC)
#
# Operands come as texts: ``ins.a``-style reads in the reference loop,
# literals and factory parameters in a program.  A condition that only
# the reference loop cannot know statically (a profiled exit) is a text
# tested at run time; a program passes True or False.  The hooks of a
# form (see :class:`ControlHooks`) say how it records trace entries and
# jumps inside the unit, and whether it re-enters a chained unit itself.
# ---------------------------------------------------------------------------

#: Max buffered trace records before a mid-unit flush (bounds memory on
#: long-running loops; batch boundaries never change timing results).
TRACE_BATCH_CAP = 8192

FUEL_ERROR = ('f"fuel exhausted in unit {U.uid} (entry {U.entry_pc:#x}): '
              'likely a translation bug (infinite loop)"')
FELL_OFF_ERROR = 'f"fell off the end of unit {U.uid} (entry {U.entry_pc:#x})"'


def indent(lines, depth=1):
    return ["    " * depth + line for line in lines]


def leave(kind, a, b):
    """Leave the dispatch loop for the frame's epilogue."""
    return [f"_k, _x, _y = {kind}, {a}, {b}", "break"]


class ControlHooks:
    """How one execution form renders the control templates.  The
    defaults are the reference loop's: it cannot know which register
    files a unit writes or whether it stores, so a checkpoint saves
    every register and commits always clear the undo log and the alias
    table."""

    traced = False
    has_store = has_spec = True
    save = "(I[:], F[:], V[:])"
    restore = ("I[:], F[:], V[:] = _ck",)

    def record(self, info):
        """Lines appending the current instruction's trace entry."""
        return []

    def goto(self, target):
        """Lines continuing at instruction ``target`` of this unit."""
        raise NotImplementedError

    def reenter(self):
        """Lines run when the dispatch loop leaves with a chain (``_k``
        0) to unit ``_x``: ``break`` to return it to the driver, or
        enter it and fall through to dispatch it."""
        return ["break"]


def commit_lines(guest_insns, h):
    """Commit the open region: it retires ``guest_insns``."""
    return (["del UNDO[:]"] * h.has_store + ["del ATE[:]"] * h.has_spec
            + ["_ck = None", "_hc += executed - _rb", "_rb = executed",
               f"GRT += {guest_insns}"])


def control_lines(op, o, h):
    """Source lines of control op ``op`` with operand texts ``o`` (``a``,
    ``target``, ``index``, ``guest_pc``, ``next_pc``, ``guest_insns``,
    ``meta``, ``profile``) under hooks ``h``.  The op's own host
    instruction is already charged to ``executed``."""
    if op in ("beqz", "bnez"):
        test = f"I[{o['a']}] {'==' if op == 'beqz' else '!='} 0"
        taken = h.record("{'taken': _tk}")
        if taken:
            taken.insert(0, f"_tk = {test}")
            test = "_tk"
        return taken + [f"if {test}:", *indent(h.goto(o["target"]))]
    if op == "j":
        return h.record("{'taken': True}") + h.goto(o["target"])
    if op in ("assert_z", "assert_nz"):
        fails = "!=" if op == "assert_z" else "=="
        return [f"if I[{o['a']}] {fails} 0:", "    raise _FA",
                *h.record("None")]
    if op == "chkpt":
        # The previous region committed: returning here is clean.
        return ["if PAUSE is not None and GRT >= PAUSE:",
                *indent(leave(1, o["guest_pc"], None)),
                f"_ck = {h.save}", f"_ckpc = {o['guest_pc']}",
                *["del UNDO[:]"] * h.has_store, *h.record("None")]
    if op == "commit":
        return commit_lines(o["guest_insns"], h) + h.record("None")
    # exit / exit_ind / ibtc: charge the inline profiling and IBTC
    # lookup sequences, commit, then chain or leave.
    target = o["next_pc"] if op == "exit" else "_pc"
    out = [] if op == "exit" else [f"_pc = I[{o['a']}] & 0xFFFFFFFF"]
    profile = o["profile"]
    if profile is not False:
        seq = ["executed += EMU.profile_inline_cost",
               f"_int = PH is not None and PH(U, {target})"]
        out += seq if profile is True else [
            "_int = False", f"if {profile}:", *indent(seq)]
    if op == "ibtc":
        out.append(f"executed += {IBTC_HIT_INLINE}")
    out += commit_lines(o["guest_insns"], h) + h.record("{'taken': True}")
    unless = "" if profile is False else " and not _int"
    if op == "exit":
        out += [f"_lnk = {o['meta']}.get('link')",
                f"if _lnk is not None{unless}:",
                *indent(leave(0, "_lnk", None))]
        return out + leave(1, target, o["index"])
    if op == "ibtc":
        if profile is not False:
            out += ["if _int:", *indent(leave(1, "_pc", o["index"]))]
        out += ["_t = IBTCL(_pc)", "if _t is not None:",
                *indent(leave(0, "_t", None))]
        return out + leave(2, "_pc", o["index"])
    return out + leave(1, "_pc", o["index"])


def rollback_lines(h):
    """Restore the open region's checkpoint: replay the undo log, clear
    the alias table, restore the saved registers and charge the region
    as wasted work."""
    return [
        "if EMU.undo_check is not None:", "    EMU.undo_check(U)",
        "if _ck is None:",
        "    raise _HEE('rollback without active checkpoint')",
        "for _kind, _ra, _ro in reversed(UNDO):",
        "    if _kind == 'u32':", "        MW(_ra, _ro)",
        "    elif _kind == 'f64':", "        MWF(_ra, _ro)",
        "    else:", "        MWV(_ra, _ro)",
        "del UNDO[:]", "del ATE[:]", *h.restore,
        "_r = executed - _rb", "_rb = executed",
        "U.host_insns_wasted += _r", "EMU.host_insns_wasted += _r"]


def enter_lines():
    """Enter unit ``U`` without the driver: the per-entry bookkeeping
    the driver would do."""
    return ["U.exec_count += 1", "_de += 1",
            "if ULOG is not None:", "    ULOG.append(U)"]


#: Emulator state read once per call: it may change between calls (the
#: TOL sets the pause point per dispatch and wires the hooks and the
#: unit log after construction).
_PER_CALL = {"PAUSE": "EMU.pause_retired_at", "PH": "EMU.profile_hook",
             "ULOG": "EMU.unit_log"}


def host_factory(name, args, params, prologue, body, h):
    """Source of the factory ``_mk(EMU, *params)`` returning host
    function ``name(EMU, executed, fuel<args>)``.  The function runs
    ``prologue`` and then ``body`` (one iteration of its dispatch loop)
    until the body leaves; a page fault, failed assert or alias-table
    conflict rolls the open region back, and every path out -- returns
    and exceptions alike -- writes the accounting back to the emulator
    and the unit in one epilogue.  It returns ``(kind, a, b,
    executed)``: the leave kind and operands."""
    lines = [
        "_rb = executed - EMU._region_insns",
        "_g0 = GRT = EMU.guest_retired_total",
        "_hc = _de = 0", "_ck = None", "_ckpc = _ip = 0",
        *prologue, *["TRB = []"] * h.traced,
        "try:", "    while True:", "        while True:", *indent(body, 3),
        "        if _k:", "            break", *indent(h.reenter(), 2),
        "except (_PF, _FA, _FS) as _e:", *indent(rollback_lines(h)),
        "    if isinstance(_e, _PF):", "        _k, _x, _y = 3, _ckpc, _e.addr",
        "    elif isinstance(_e, _FA):", "        U.assert_failures += 1",
        "        _k, _x, _y = 4, _ckpc, None",
        "    else:", "        U.spec_failures += 1",
        "        _k, _x, _y = 5, _ckpc, None",
        "finally:",
        "    EMU._region_insns = executed - _rb",
        "    EMU.guest_retired_total = GRT",
        "    EMU.host_insns_committed += _hc", "    EMU.direct_entries += _de",
        "    U.guest_insns_retired += GRT - _g0",
        "    U.host_insns_committed += _hc",
        # A commit's region holds at least the committing op, so ``_hc``
        # is nonzero exactly when one happened (the per-mode keys appear
        # at the first commit, even one retiring no guest instruction).
        "    if _hc:", "        _m = U.mode",
        "        _d = EMU.guest_retired_by_mode",
        "        _d[_m] = _d.get(_m, 0) + GRT - _g0",
        "        _d = EMU.host_committed_by_mode",
        "        _d[_m] = _d.get(_m, 0) + _hc",
        *["    FLUSH(U, TRB)"] * h.traced,
        "return _k, _x, _y, executed"]
    words = names("\n".join(lines))
    bound = names_in(lines)
    binds = "".join(f", {n}={n}" for n in bound)
    return "\n".join(
        [f"def _mk({', '.join(['EMU', *params])}):"]
        + [f"    {n} = {BINDINGS[n]}" for n in bound]
        + [f"    def {name}(EMU, executed, fuel{args}{binds}):"]
        + [f"        {n} = {e}" for n, e in _PER_CALL.items() if n in words]
        + indent(lines, 2) + [f"    return {name}", ""])


@dataclass
class HostInstr:
    """One host instruction.

    Fields ``d``/``a``/``b``/``c`` are register indices whose file (integer,
    FP, vector) is implied by the opcode; ``imm`` is an integer or float
    immediate; ``target`` is an intra-unit instruction index for branches.
    ``guest_pc`` records the guest instruction this op emulates (debugging,
    attribution); ``meta`` carries op-specific data:

    - ``exit``:      ``meta["next_pc"]`` guest continuation,
                     ``meta["link"]`` chained unit (patched by the TOL),
                     ``meta["guest_insns"]`` guest insns completed at exit;
    - ``chkpt``:     ``meta["guest_pc"]`` precise restart point;
    - ``commit``:    ``meta["guest_insns"]`` guest insns being committed;
    - ``sld32/sldf/st32chk/stfchk``: ``meta["seq"]`` original program order.
    """

    op: str
    d: Optional[int] = None
    a: Optional[int] = None
    b: Optional[int] = None
    c: Optional[int] = None
    imm: object = None
    target: Optional[int] = None
    guest_pc: Optional[int] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.op not in HostOp.ALL:
            raise ValueError(f"unknown host op {self.op!r}")

    def __repr__(self):
        parts = [self.op]
        for name in ("d", "a", "b", "c"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        if self.imm is not None:
            parts.append(f"imm={self.imm}")
        if self.target is not None:
            parts.append(f"->{self.target}")
        return "<" + " ".join(str(p) for p in parts) + ">"


UNIT_MODE_BBM = "BBM"
UNIT_MODE_SBM = "SBM"
#: Superblock recreated without asserts after repeated failures
#: (single-entry multiple-exit, conservatively optimized).
UNIT_MODE_SBX = "SBX"


@dataclass
class CodeUnit:
    """A translated region stored in the code cache."""

    uid: int
    mode: str
    entry_pc: int
    instrs: list
    guest_insn_count: int = 0
    #: guest basic blocks covered (superblocks span several).
    guest_bb_count: int = 1
    #: indices of exit instructions, for chaining patches.
    exit_indices: tuple = ()
    #: True for the unrolled variant of a loop superblock.
    unrolled: bool = False
    # -- dynamic statistics --
    exec_count: int = 0
    host_insns_committed: int = 0
    host_insns_wasted: int = 0
    guest_insns_retired: int = 0
    assert_failures: int = 0
    spec_failures: int = 0

    def size(self) -> int:
        return len(self.instrs)
