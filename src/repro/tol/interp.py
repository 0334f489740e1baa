"""TOL interpreter (IM).

Interprets guest instructions one at a time by evaluating their IR expansion
(:mod:`repro.tol.ir_eval`), so the decoder frontend is exercised from the
first instruction.  Guarantees forward progress and acts as the safety net
for instructions excluded from translations (complex string operations) and
after speculation failures (paper §V-B1).

The hot loop uses a closure-compiled fast path: the IR expansion of each
decode address becomes a closure (:func:`repro.tol.ir_eval.compile_ops`,
an instance of a shape compiled once per process) and is cached, so
steady-state interpretation executes one specialized Python
closure per guest instruction instead of re-walking the op list.  IR-op
accounting (``ir_ops_evaluated``, per-step ``ir_ops``) is identical on both
paths — the fast path changes simulator wall-clock speed, never simulated
cost.

System calls and program end are *signalled*, not executed: only the x86
component interacts with the operating system.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.guest.isa import GPR_NAMES, u32
from repro.guest.memory import PagedMemory
from repro.guest.state import GuestState
from repro.tol.decoder import DecodedInstr, Frontend
from repro.tol.ir_eval import FALLTHROUGH, eval_ops

OK = "ok"
SYSCALL = "syscall"
END = "end"

_EAX = GPR_NAMES.index("EAX")
_ECX = GPR_NAMES.index("ECX")
_ESI = GPR_NAMES.index("ESI")
_EDI = GPR_NAMES.index("EDI")

#: Step-kind codes for the per-address fast cache.
_K_NORMAL = 0
_K_SYSCALL = 1
_K_END = 2
_K_STRING = 3


@dataclass
class StepResult:
    status: str
    #: IR operations evaluated (drives the interpretation cost model).
    ir_ops: int = 0
    #: True when the executed instruction ended a basic block.
    ended_bb: bool = False
    #: False when a chunked string operation yielded before finishing its
    #: element count; EIP still points at the instruction and the next
    #: step resumes it (per-element restartability).
    completed: bool = True


class Interpreter:
    """Decode-to-IR interpreter over the emulated guest state."""

    #: Elements a REP string op executes per step before yielding control
    #: (bounds the work of one step against corrupted counts, e.g. an ECX
    #: of 0xFFFFFFFF, while per-element register updates keep the op
    #: restartable).
    string_chunk_elements = 65536

    def __init__(self, frontend: Frontend, state: GuestState,
                 memory: PagedMemory, fastpath: bool = True):
        self.frontend = frontend
        self.state = state
        self.memory = memory
        self.fastpath = fastpath
        self.icount = 0
        self.ir_ops_evaluated = 0
        #: decode address -> (kind, decoded, closure_or_None, StepResult).
        self._fastcache = {}

    def current(self) -> DecodedInstr:
        """Decode (cached) the instruction at EIP; may raise PageFault."""
        return self.frontend.decode(self.memory, self.state.eip)

    def step(self) -> StepResult:
        """Interpret one guest instruction.

        Returns a signal instead of executing for SYSCALL (the controller
        synchronizes and lets the x86 component run it) and HLT.  Page
        faults propagate with architectural state untouched, so the
        instruction is simply retried once the page arrives.
        """
        state = self.state
        entry = self._fastcache.get(state.eip)
        if entry is None:
            entry = self._fill_cache(state.eip)
        kind, decoded, fn, result = entry
        if kind == _K_NORMAL:
            if fn is not None:
                outcome, target = fn(state, self.memory)
            else:
                outcome, target = eval_ops(decoded.ops, state, self.memory)
            if outcome == FALLTHROUGH:
                state.eip = decoded.guest.next_addr
            else:
                state.eip = u32(target)
            self.icount += 1
            self.ir_ops_evaluated += result.ir_ops
            return result
        if kind == _K_STRING:
            return self._step_string(decoded)
        return result  # SYSCALL / END signal (no state change)

    def _fill_cache(self, pc: int):
        """Decode + classify + closure-compile the instruction at ``pc``."""
        if self.fastpath:
            decoded, fn = self.frontend.decode_compiled(self.memory, pc)
        else:
            decoded = self.current()
            fn = None
        mnemonic = decoded.guest.mnemonic
        if mnemonic == "SYSCALL":
            entry = (_K_SYSCALL, decoded, None, StepResult(SYSCALL))
        elif mnemonic == "HLT":
            entry = (_K_END, decoded, None, StepResult(END))
        elif decoded.interpreter_only:
            entry = (_K_STRING, decoded, None, None)
        else:
            # The OK StepResult is immutable per decode address, so one
            # instance is reused across steps.
            entry = (_K_NORMAL, decoded, fn,
                     StepResult(OK, ir_ops=len(decoded.ops),
                                ended_bb=decoded.is_branch))
        self._fastcache[pc] = entry
        return entry

    def _step_string(self, decoded: DecodedInstr) -> StepResult:
        elements, done = self._exec_string_op(decoded)
        self.ir_ops_evaluated += elements * 3
        if done:
            self.state.eip = decoded.guest.next_addr
            self.icount += 1
        return StepResult(OK, ir_ops=elements * 3,
                          ended_bb=decoded.is_branch and done,
                          completed=done)

    def advance_past_syscall(self) -> int:
        """Move EIP past a SYSCALL after the controller has run it.

        Returns the IR ops accounted for the step (the SYSCALL expansion is
        empty, so normally 0) and keeps ``ir_ops_evaluated`` consistent
        with the per-step sums.
        """
        decoded = self.current()
        self.state.eip = decoded.guest.next_addr
        self.icount += 1
        ir_ops = len(decoded.ops)
        self.ir_ops_evaluated += ir_ops
        return ir_ops

    # -- interpreter-native complex instructions -----------------------------

    def _exec_string_op(self, decoded: DecodedInstr):
        """Execute up to one chunk of a REP string op.

        Returns ``(elements, done)``: the number of elements moved this
        chunk and whether the operation ran to completion (ECX == 0).
        Per-element register updates make the operation restartable at any
        page fault or chunk boundary, mirroring x86 semantics.
        """
        state, memory = self.state, self.memory
        mnemonic = decoded.guest.mnemonic
        gpr = state.gpr
        budget = self.string_chunk_elements
        elements = 0
        if mnemonic == "REP_MOVSD":
            while gpr[_ECX] != 0 and elements < budget:
                value = memory.read_u32(gpr[_ESI])
                memory.write_u32(gpr[_EDI], value)
                gpr[_ESI] = (gpr[_ESI] + 4) & 0xFFFFFFFF
                gpr[_EDI] = (gpr[_EDI] + 4) & 0xFFFFFFFF
                gpr[_ECX] = (gpr[_ECX] - 1) & 0xFFFFFFFF
                elements += 1
        elif mnemonic == "REP_STOSD":
            while gpr[_ECX] != 0 and elements < budget:
                memory.write_u32(gpr[_EDI], gpr[_EAX])
                gpr[_EDI] = (gpr[_EDI] + 4) & 0xFFFFFFFF
                gpr[_ECX] = (gpr[_ECX] - 1) & 0xFFFFFFFF
                elements += 1
        else:
            raise ValueError(f"unexpected interpreter-only {mnemonic}")
        return elements, gpr[_ECX] == 0
