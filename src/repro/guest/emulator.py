"""Authoritative guest functional emulator.

This is the execution core of DARCO's *x86 component*: it executes the
unmodified guest binary directly (decode-and-execute, no translation) and
therefore holds the authoritative architectural and memory state the
co-designed component is validated against (paper §V).

Both of its execution forms are generated (:mod:`repro.pycode`) from the
guest ISA's semantics table, :data:`repro.guest.semantics.ROWS`, which is
stated independently from the TOL's decode-to-IR path on purpose: a
translation bug cannot hide by being mirrored here.

- Each instruction is decoded and bound to its *closure* the first time
  it executes.  ``step()``, the tail of ``run_to_icount`` and code that
  is not hot yet run one closure at a time.
- A block leader reached for the second time gets the *function* of its
  basic block, written only from instructions already decoded, with the
  guest registers and flags in locals written back once at its exit.

Nothing is decoded ahead of execution, so self-modifying code and the
order in which demand-zero pages appear are those of decoding one
instruction at a time (DESIGN.md §14).
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections import Counter
from typing import Dict, List, Optional

from repro.guest import semantics as sem
from repro.guest.encoding import decode_instr
from repro.guest.isa import (
    FLAG_NAMES, FPR_NAMES, GPR_INDEX, GPR_NAMES, INSN_SPECS, MASK32,
    VR_NAMES, FReg, GuestInstr, Imm, Mem, Reg, VReg, s32,
)
from repro.guest.memory import PagedMemory
from repro.guest.program import GuestProgram
from repro.guest.state import GuestState
from repro.guest.syscalls import GuestOS
from repro.pycode import IN_PAGE, in_page, names, shape


class EmulationError(Exception):
    """Raised on conditions the guest ISA leaves undefined (bad opcode...)."""


#: Retirement count slots, one per (class, is_branch) pair of the ISA.
_SLOTS = sorted({(s.klass, s.is_branch) for s in INSN_SPECS.values()},
                key=lambda slot: (slot[0].value, slot[1]))
_SLOT_OF = {m: _SLOTS.index((s.klass, s.is_branch))
            for m, s in INSN_SPECS.items()}

#: Arrivals at a block leader that make its block function.
_HOT = 2
#: Most instructions in one block function.
_MAX_BLOCK = 64


class GuestEmulator:
    """Decode-and-execute guest emulator with authoritative state."""

    def __init__(self, program: GuestProgram,
                 os: Optional[GuestOS] = None,
                 memory: Optional[PagedMemory] = None):
        self.program = program
        self.os = os if os is not None else GuestOS()
        self.memory = memory if memory is not None else PagedMemory()
        program.load_into(self.memory)
        self.state = GuestState()
        self.state.eip = program.entry
        self.state.set("ESP", program.stack_top)
        self.icount = 0
        self.branch_count = 0
        self.bb_count = 0
        self.class_counts: Counter = Counter()
        self._decode_cache: Dict[int, GuestInstr] = {}
        #: addr -> (function, values, is_branch): the instruction's
        #: closure, bound with the decode.  A function runs on (state,
        #: retirement counts, values), adds its retirements and returns
        #: the next EIP.
        self._bound: Dict[int, tuple] = {}
        #: leader -> (function, values, instruction count) of its block
        self._blocks: Dict[int, tuple] = {}
        self._arrivals: Counter = Counter()
        #: structure -> function, made from its shape's factory
        self._functions: Dict[tuple, object] = {}
        m = self.memory
        #: The per-emulator arguments of every factory (see _PARAMS).
        self._objects = (m.read_u32, m.write_u32, m.read_f64, m.write_f64,
                         m.read_vec, m.write_vec, m._pages, m.dirty.add,
                         self.os, m)

    # -- fetch ---------------------------------------------------------------

    def fetch(self, addr: int) -> GuestInstr:
        instr = self._decode_cache.get(addr)
        if instr is None:
            instr = decode_instr(self.memory.read_u8, addr)
            self._decode_cache[addr] = instr
            self._bound[addr] = (*self._make([_describe(instr)]),
                                 instr.is_branch)
        return instr

    @property
    def halted(self) -> bool:
        return self.os.exited

    def current_instr(self) -> GuestInstr:
        return self.fetch(self.state.eip)

    # -- run loops -----------------------------------------------------------

    def step(self) -> GuestInstr:
        """Execute exactly one guest instruction (including syscalls)."""
        instr = self.fetch(self.state.eip)
        counts = [0] * len(_SLOTS)
        run, values, _ = self._bound[instr.addr]
        self.state.eip = run(self.state, counts, values)
        self._retire(counts)
        return instr

    def run(self, max_steps: Optional[int] = None) -> int:
        """Run until the program exits (or ``max_steps``); returns icount."""
        self._run(sys.maxsize if max_steps is None else max_steps)
        return self.icount

    def run_to_icount(self, target: int) -> None:
        """Advance until exactly ``target`` instructions have retired.

        This is how the x86 component catches up to the co-designed
        component's execution point during synchronization.
        """
        if target < self.icount:
            raise EmulationError(
                f"cannot run backwards: at {self.icount}, asked {target}")
        self._run(target - self.icount)
        if self.icount != target and not self.halted:
            raise EmulationError("failed to reach synchronization point")

    def _run(self, steps: int) -> None:
        """Execute up to ``steps`` instructions, stopping at program exit.

        A block runs whole when it fits in the steps left; otherwise the
        instructions run one closure at a time.  EIP and the counters are
        written back in ``finally``: when an instruction raises they stop
        at the last retired one (a block of more than one instruction
        stores the EIP it stopped at).
        """
        state, os, bound = self.state, self.os, self._bound
        blocks, arrivals = self._blocks, self._arrivals
        counts = [0] * len(_SLOTS)
        eip, leader = state.eip, True
        try:
            while steps > 0 and os.exit_code is None:
                block = blocks.get(eip)
                if block is None and leader:
                    arrivals[eip] += 1
                    if arrivals[eip] >= _HOT:
                        block = self._block(eip)
                if block is not None and block[2] <= steps:
                    try:
                        eip = block[0](state, counts, block[1])
                    except BaseException:
                        if block[2] > 1:  # a closure leaves eip as it was
                            eip = state.eip
                        raise
                    steps -= block[2]
                    leader = True
                    continue
                try:
                    run, values, leader = bound[eip]
                except KeyError:
                    self.fetch(eip)
                    run, values, leader = bound[eip]
                eip = run(state, counts, values)
                steps -= 1
        finally:
            state.eip = eip
            self._retire(counts)

    def _retire(self, counts: List[int]) -> None:
        for slot, n in enumerate(counts):
            if n:
                klass, is_branch = _SLOTS[slot]
                self.icount += n
                self.class_counts[klass] += n
                if is_branch:
                    self.branch_count += n
                    self.bb_count += n

    # -- generated forms -----------------------------------------------------

    def _block(self, leader: int) -> Optional[tuple]:
        """The function of the basic block at ``leader``, made from the
        instructions decoded so far (it decodes none): up to the first
        branch, and before an instruction not yet decoded, a SYSCALL or
        HLT, or one with an operand of a kind its mnemonic does not
        take.  None when there is no such instruction at ``leader``."""
        descs, addr = [], leader
        while len(descs) < _MAX_BLOCK:
            instr = self._decode_cache.get(addr)
            if instr is None or instr.mnemonic in ("SYSCALL", "HLT"):
                break
            desc = _describe(instr)
            if any(op[0] == "x" for op in desc[0][1]):
                break
            descs.append(desc)
            if instr.is_branch:
                break
            addr = instr.next_addr
        if not descs:
            return None
        block = self._blocks[leader] = (*self._make(descs), len(descs))
        return block

    def _make(self, descs) -> tuple:
        """``(function, values)`` of the instructions ``descs`` describe:
        one (the closure) or a basic block.  The function is made once
        per structure from its shape's factory, found by structure
        before any source is written; the values are its argument."""
        structure = tuple([desc[0] for desc in descs])
        function = self._functions.get(structure)
        if function is None:
            can_fault = len(descs) > 1 and not self.memory.demand_zero
            function = self._functions[structure] = shape(
                ("x86", can_fault, structure),
                lambda: _source(structure, can_fault), _namespace(),
                "<x86>")(*self._objects)
        return function, tuple([v for desc in descs for v in desc[1]])


# ---------------------------------------------------------------------------
# Writing the forms.  An operand is described by what the source depends
# on: 'r' a register number, 'k' an immediate (a value), 'm' a memory
# operand's registers and scale (its displacement a value), or 'x' a kind
# its role does not take.  Then the operand itself is the value, and the
# source raises, where it uses the operand, what the golden tests pin: an
# EmulationError for an integer read or store, the AttributeError or
# TypeError of its missing ``disp``/``u32`` or non-integer ``index``.
# ---------------------------------------------------------------------------

#: Factory parameters bound to per-emulator objects (see ``_make``).
_PARAMS = "MR, MW, MRF, MWF, MRV, MWV, GP, DIRTY, OS, MEM"
#: memory access -> (size, its struct function) inside a present page
_IN_PAGE = {"MR": (4, "_SUI"), "MW": (4, "_SPI"), "MRF": (8, "_SUF"),
            "MWF": (8, "_SPF")}
#: register file -> (GuestState list, alias in generated code, local names)
_FILES = {"g": ("gpr", "_G", GPR_NAMES), "f": ("fpr", "_F", FPR_NAMES),
          "v": ("vr", "_V", VR_NAMES), "flags": ("flags", "_FL", FLAG_NAMES)}
_STATE = frozenset(GPR_NAMES + FPR_NAMES + VR_NAMES + FLAG_NAMES)
_MEMORY = frozenset({"MR", "MW", "MRF", "MWF", "MRV", "MWV"})
_FILE_REGS = (FReg, VReg)
_TRIG = frozenset({"gisa_sin", "gisa_cos"})  # raise on inf and NaN


def _err(what, op, *_):
    """Raise the EmulationError of operand ``op`` used as ``what``, after
    the arguments that follow (a store's value) were evaluated."""
    raise EmulationError(f"{what}: {op!r}")


@functools.lru_cache(maxsize=None)
def _namespace() -> dict:
    return {"s32": s32, "idiv32": sem.idiv32, "fdiv64": sem.fdiv64,
            "ftrunc32": sem.ftrunc32, "gisa_sqrt": sem.gisa_sqrt,
            "gisa_sin": sem.gisa_sin, "gisa_cos": sem.gisa_cos,
            "_err": _err, **IN_PAGE}


def _describe(instr: GuestInstr):
    """``(structure, values)`` of ``instr``: what its source depends on,
    and its factory arguments: the operands' values, then the
    fall-through EIP and its own."""
    roles = sem.ROWS[instr.mnemonic][0]
    ops, values = [], []
    for k, op in enumerate(instr.operands):
        role, kind = roles[k], type(op)
        if kind is Reg and role in "gfvic" or kind in _FILE_REGS and \
                role in "gfv":
            ops.append(("r", op.index))
        elif kind is Mem and role in "aic":
            base = None if op.base is None else GPR_INDEX[op.base]
            index = None if op.index is None else GPR_INDEX[op.index]
            ops.append(("m", base, index, op.scale))
            values.append(op.disp if base is not None or index is not None
                          else op.disp & MASK32)
        elif kind is Imm and role in "cn":
            value = op.u32
            ops.append(("k", role == "c" and value & 31 != 0))
            values.append(value & 31 if role == "c" else float(s32(value)))
        elif kind is Imm and role == "i" and not _stores(instr.mnemonic, k):
            ops.append(("k", False))
            values.append(op.u32)
        else:
            ops.append(("x", kind.__name__))
            values.append(op)
    values += (instr.next_addr, instr.addr)
    return (instr.mnemonic, tuple(ops)), values


def _stores(mnemonic: str, k: int) -> bool:
    """Whether ``mnemonic``'s row stores to integer operand ``k``."""
    return any(isinstance(line, str) and line.startswith(f"{{{k}}} = ")
               for line in sem.ROWS[mnemonic][1])


def _address(op, name: str) -> str:
    _, base, index, scale = op
    terms = [] if base is None else [GPR_NAMES[base]]
    if index is not None:
        terms.append(GPR_NAMES[index] + f" * {scale}" * (scale != 1))
    return f"({' + '.join(terms + [name])}) & 0xFFFFFFFF" if terms else name


def _read(role: str, op, name: str, loaded=None) -> str:
    """Source of operand ``op`` in ``role``; ``name`` is its parameter.
    The word at a memory operand is the local ``loaded`` it was loaded
    into, or else read by the memory's method."""
    tag = op[0]
    if tag == "k":
        return name
    if tag == "r":
        text = _FILES["g" if role in "ic" else role][2][op[1]]
    elif tag == "m":
        text = _address(op, name)
        if role == "a":
            return text
        text = loaded or f"MR({text})"
    elif role in "gfv":
        return f"st.{_FILES[role][0]}[{name}.index]"
    elif role == "a":
        return f"{name}.disp"
    elif role == "n" or op[1] == "Imm":
        return f"{name}.u32"
    else:
        text = f"_err('not an integer operand', {name})"
    return f"{text} & 31" if role == "c" else text


def _store(op, name: str, value: str) -> str:
    """Source storing ``value`` to integer operand ``op``."""
    if op[0] == "r":
        return f"{GPR_NAMES[op[1]]} = {value}"
    if op[0] == "m":
        return _access("MW", _address(op, name), value)
    return f"_err('not a writable operand', {name}, {value})"


def _access(access: str, addr: str, value: str) -> str:
    """Source of memory access ``access`` at address ``addr``: a load
    into ``value`` or a store of it.  A word or double inside a present
    page is accessed in the page's bytes (:func:`repro.pycode.in_page`)."""
    load = access[1] == "R"
    if access not in _IN_PAGE:
        return (f"{value} = {access}({addr})" if load
                else f"{access}({addr}, {value})")
    size, form = _IN_PAGE[access]
    if load:
        fast = [f"{value} = {form}(_pg, _po)[0]"]
        slow = [f"{value} = {access}(_ma)"]
    else:
        packed = f"{value} & 0xFFFFFFFF" if size == 4 else f"float({value})"
        fast = [f"{form}(_pg, _po, {packed})", "DIRTY(_ma >> 12)"]
        slow = [f"{access}(_ma, {value})"]
    return "\n".join([f"_ma = {addr}", *in_page("_ma", size, fast, slow)])


def _statements(mnemonic: str, ops, params, fall: str, here: str,
                last: bool) -> List[tuple]:
    """One instruction's statements as ``(flag, source)``: ``flag`` is
    the flag a statement sets unconditionally, or None."""
    roles, body, flags, nxt = sem.ROWS[mnemonic]
    operands = list(zip(roles, ops, params))
    # The next EIP reads a memory operand by the memory's method (a Jcc
    # reads its target only when taken); the body loads it just before
    # the statement that reads it.
    texts = [_read(*operand) for operand in operands]
    loaded = [_read(*operand, f"_m{k}") for k, operand in enumerate(operands)]
    fields = dict(fall=fall, here=here,
                  i0=ops[0][1] if ops and ops[0][0] == "r" else None)
    out = []
    for line in body:
        if isinstance(line, tuple):
            access, addr, value = (part.format(*loaded, **fields)
                                   for part in line)
            out.append((None, _access(access, addr, value)))
            continue
        k = int(line[1]) if line[:1] == "{" and line[3:6] == " = " else None
        store = k is not None and roles[k] == "i"
        reads = line[6:] if store else line
        out += [(None, _access("MR", _address(op, name), f"_m{j}"))
                for j, (role, op, name) in enumerate(operands)
                if op[0] == "m" and role in "ic" and f"{{{j}}}" in reads]
        stmt = reads.format(*loaded, **fields)
        out.append((None, _store(ops[k], params[k], stmt) if store
                    else stmt))
    count = ops[-1] if roles.endswith("c") else ("k", True)
    for flag, value in flags.items() if count[0] != "k" or count[1] else ():
        if count[0] == "k":
            out.append((flag, f"{flag} = {value}"))
        else:  # a count known only at run time
            out.append((None, f"{flag} = ({value}) if _b else {flag}"))
    if last:
        out.append((None, "_t = " + (nxt or "{fall}").format(*texts,
                                                            **fields)))
    return out


def _source(structure, can_fault: bool) -> str:
    """The factory source of the function of the instructions in
    ``structure`` (one: the closure)."""
    count = itertools.count()
    insns, heres = [], []
    for n, (mnemonic, ops) in enumerate(structure):
        params = [f"K[{next(count)}]" if op[0] != "r" else None
                  for op in ops]
        fall, here = f"K[{next(count)}]", f"K[{next(count)}]"
        insns.append(_statements(mnemonic, ops, params, fall, here,
                                 n == len(structure) - 1))
        heres.append(here)
    block = len(structure) > 1
    # A flag set that a later statement sets again before anything reads
    # it, or can raise, is not computed.
    live, lines = set(FLAG_NAMES), []
    for n in reversed(range(len(insns))):
        kept, raises = [], False
        for flag, stmt in reversed(insns[n]):
            words = names(stmt.split(" = ", 1)[1] if flag else stmt)
            if flag is not None:
                if flag not in live:
                    continue
                live.discard(flag)
            elif words & _TRIG or can_fault and words & _MEMORY:
                live.update(FLAG_NAMES)
                raises = True
            live |= words & set(FLAG_NAMES)
            kept.append(stmt)
        kept += [f"_i = {n}"] * (raises and n > 0 and block)
        lines = kept[::-1] + lines
    lines = [line for stmt in lines for line in stmt.split("\n")]
    used = names("\n".join(lines)) & _STATE
    stored = set()
    for line in lines:
        if " = " in line:
            stored |= names(line.split(" = ", 1)[0]) & _STATE
    entry, exit_ = [], []
    for attr, alias, local in _FILES.values():
        if used & set(local):
            entry.append(f"{alias} = st.{attr}")
        entry += [f"{name} = {alias}[{i}]" for i, name in enumerate(local)
                  if name in used]
        exit_ += [f"{alias}[{i}] = {name}" for i, name in enumerate(local)
                  if name in stored]
    slots = Counter(_SLOT_OF[mnemonic] for mnemonic, _ in structure)
    tail = [f"C[{slot}] += {n}" for slot, n in sorted(slots.items())]
    if block:
        entry.append("_i = 0")
        lines = ["try:", *("    " + line for line in lines),
                 "except BaseException:",
                 f"    st.eip = ({', '.join(heres)},)[_i]",
                 f"    for _s in {tuple(_SLOT_OF[m] for m, _ in structure)}"
                 "[:_i]:",
                 "        C[_s] += 1",
                 "    raise"]
    if exit_:
        if not block:
            lines = ["try:", *("    " + line for line in lines)]
        lines += ["finally:", *("    " + line for line in exit_)]
    return "".join(f"{line}\n" for line in (
        [f"def _mk({_PARAMS}):", "    def run(st, C, K):"]
        + ["        " + line for line in entry + lines + tail
           + ["return _t"]] + ["    return run"]))
