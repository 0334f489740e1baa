"""Delta-debugging minimizer for divergent guest programs.

Given a program that makes the co-designed stack diverge (under a given
config and optional armed fault), shrink it to a minimal instruction
sequence that still diverges, so fuzzer- and campaign-found failures
become one-screen reproducers.

Two phases:

1. **NOP masking (ddmin).**  The guest encoding is variable-length with
   absolute branch targets, so instructions cannot simply be deleted —
   every deletion would shift all later addresses and break every
   branch.  Instead, a removed n-byte instruction is overwritten with n
   one-byte ``NOP``\\ s: all addresses, branch targets and data
   references stay valid, and the classic ddmin algorithm applies
   unchanged over the instruction list.

2. **Compaction.**  The masked program is rewritten without its NOPs:
   surviving instructions are re-encoded back to back and the absolute
   ``Imm`` targets of direct branches are remapped through the
   old-address -> new-address map (a target inside a deleted NOP run
   maps to the next surviving instruction, which is where the NOP slide
   would have delivered control).  Programs whose control flow the
   rewrite cannot preserve (e.g. computed targets via ``JMPI``) simply
   fail the oracle and the minimizer keeps the masked form — compaction
   is verify-or-fallback, never trusted blindly.

The oracle is two runs per candidate: the plain authoritative
:class:`GuestEmulator` first (a candidate that crashes or hangs the
*reference* is an invalid program, not an interesting one), then the
full co-designed stack; a candidate is interesting iff the reference
run is clean and the co-designed run raises or records incidents.  Both
runs are bounded by the candidate's size: the reference by a step cap
scaled to the original program's run, the co-designed host's fuel
watchdog by :data:`HOST_FUEL_PER_REFERENCE_STEP` times that cap.

Oracles are pluggable: :class:`ProgramOracle` is the generic divergence
oracle; :class:`SanitizerOracle` keeps only candidates that still trip a
``sanitizer_violation`` (so a sanitizer finding cannot degrade into an
unrelated divergence during shrinking); :class:`TimingMismatchOracle`
keeps candidates whose two timing legs still report different cycle
counts.  :func:`minimize_bundle` picks the oracle from the bundle's
``reason`` so every fuzz finding kind minimizes with its own signal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.guest.emulator import GuestEmulator
from repro.guest.encoding import decode_bytes, encode_instr
from repro.guest.isa import GuestInstr, Imm
from repro.guest.program import GuestProgram
from repro.guest.syscalls import GuestOS

#: One-byte NOP used for masking.
_NOP_BYTE = encode_instr(GuestInstr("NOP", ()))
assert len(_NOP_BYTE) == 1

#: Direct branches whose ``Imm`` operand is an absolute code address.
_DIRECT_BRANCH_PREFIXES = ("JMP", "CALL")

#: Host instructions one co-designed dispatch may execute per guest step
#: of the oracle's reference step cap before the run counts as a livelock
#: (the host's fuel watchdog).  A candidate the reference completes
#: within the cap retires at most that many guest instructions, and no
#: translation expands one by this much; with the default cap the host's
#: own fuel is the smaller bound.
HOST_FUEL_PER_REFERENCE_STEP = 64


def _is_direct_branch(instr: GuestInstr) -> bool:
    if not instr.is_branch or not instr.operands:
        return False
    return isinstance(instr.operands[0], Imm) and (
        instr.mnemonic.startswith("J") or instr.mnemonic == "CALL")


def decode_program_instrs(program: GuestProgram) -> List[GuestInstr]:
    """The static instruction sequence of ``program.code``."""
    code, base = program.code, program.base
    instrs = []
    offset = 0
    while offset < len(code):
        instr = decode_bytes(code, offset, base + offset)
        instrs.append(instr)
        offset += instr.length
    return instrs


@dataclass
class MinimizeResult:
    """Outcome of one minimization."""

    program: GuestProgram          #: the minimized program (still diverges)
    instructions: int              #: surviving (non-NOP) instruction count
    original_instructions: int
    tests_run: int
    compacted: bool                #: False => compaction failed the oracle,
                                   #: the masked (NOP-padded) form is kept


class ProgramOracle:
    """``diverges(program) -> bool`` for candidate programs."""

    def __init__(self, config, fault: Optional[Dict] = None,
                 os_stdin: bytes = b"", os_seed: int = 0x5EED,
                 max_events: int = 200_000,
                 reference_step_cap: int = 2_000_000):
        self.config = config
        self.fault = fault
        self.os_stdin = os_stdin
        self.os_seed = os_seed
        self.max_events = max_events
        self.reference_step_cap = reference_step_cap
        self.tests_run = 0

    def _os(self) -> GuestOS:
        return GuestOS(stdin=self.os_stdin, rand_seed=self.os_seed)

    def valid(self, program: GuestProgram) -> bool:
        """Does the *reference* emulator run the candidate cleanly?"""
        reference = GuestEmulator(program, os=self._os())
        try:
            reference.run(max_steps=self.reference_step_cap)
        except Exception:
            return False
        return reference.os.exited

    def _codesigned(self, program: GuestProgram):
        """A controller for the co-designed run of ``program``, with the
        fault armed and the host's per-dispatch fuel scaled to the
        reference step cap, so a candidate whose co-designed run
        livelocks is settled as quickly as an infinite reference loop is
        (a divergence to :class:`ProgramOracle`; :class:`SanitizerOracle`
        rejects it)."""
        from repro.system.controller import Controller

        controller = Controller(program, config=self.config,
                                os=self._os())
        tol = controller.codesigned.tol
        if self.fault is not None:
            from repro.resilience.faults import FaultInjector, FaultSpec
            FaultInjector(FaultSpec(
                site=self.fault["site"], ordinal=self.fault["ordinal"],
                salt=self.fault["salt"])).attach(tol)
        host = tol.host
        host.fuel_per_dispatch = min(
            host.fuel_per_dispatch,
            HOST_FUEL_PER_REFERENCE_STEP * self.reference_step_cap)
        return controller, tol

    def diverges(self, program: GuestProgram) -> bool:
        self.tests_run += 1
        if not self.valid(program):
            return False
        controller, tol = self._codesigned(program)
        try:
            controller.run(max_events=self.max_events)
        except Exception:
            # Validation mismatch (strict), lost sync, corrupted-code
            # crash, or a co-designed livelock on a reference-clean
            # program: all divergence signals.
            return True
        return bool(len(tol.incidents))


class SanitizerOracle(ProgramOracle):
    """Keeps only candidates that still violate a TOL invariant.

    The config is forced to ``sanitize=True``; a candidate is
    interesting iff the run raises :class:`SanitizerError` or records a
    ``sanitizer_violation`` incident.  A candidate that diverges some
    *other* way is rejected — shrinking must preserve the finding kind,
    not trade it for a different bug."""

    def __init__(self, config, **kwargs):
        super().__init__(replace(config, sanitize=True), **kwargs)

    def diverges(self, program: GuestProgram) -> bool:
        from repro.tol.sanitize import KIND_SANITIZER, SanitizerError

        self.tests_run += 1
        if not self.valid(program):
            return False
        controller, tol = self._codesigned(program)
        try:
            controller.run(max_events=self.max_events)
        except SanitizerError:
            return True
        except Exception:
            pass  # a different failure kind: not this finding
        return KIND_SANITIZER in tol.incidents.kinds()


class TimingMismatchOracle:
    """Keeps candidates whose two timing legs still disagree.

    The legs are ``(timing_config, host_fastpath=True)`` vs
    ``(timing_config_b or timing_config, host_fastpath=False)`` — with
    one timing config this checks that the generated forms time exactly
    as the reference forms do (a mismatch is a generated-path bug); with
    two it shrinks any configuration-sensitive kernel to the minimal
    cycle-divergent core.  A candidate whose generated leg *raises*
    while the reference leg runs clean is also a mismatch (a
    generated-path-only failure)."""

    def __init__(self, config, timing_config=None, timing_config_b=None,
                 fault: Optional[Dict] = None, os_stdin: bytes = b"",
                 os_seed: int = 0x5EED, max_events: int = 200_000,
                 reference_step_cap: int = 2_000_000):
        if fault is not None:
            raise ValueError(
                "TimingMismatchOracle does not support armed faults: "
                "a timing mismatch is a property of the clean run")
        self.config = config
        self.timing_config = timing_config
        self.timing_config_b = timing_config_b
        self.fault = None
        self.os_stdin = os_stdin
        self.os_seed = os_seed
        self.max_events = max_events
        self.reference_step_cap = reference_step_cap
        self.tests_run = 0

    _os = ProgramOracle._os
    valid = ProgramOracle.valid

    def _leg(self, program: GuestProgram, timing_config, generated: bool):
        from repro.timing.run import run_with_timing
        _, _, core = run_with_timing(
            program, tol_config=replace(self.config,
                                        host_fastpath=generated),
            timing_config=timing_config, os=self._os())
        return core.report()

    def diverges(self, program: GuestProgram) -> bool:
        self.tests_run += 1
        if not self.valid(program):
            return False
        cfg_b = self.timing_config_b or self.timing_config
        try:
            report_b = self._leg(program, cfg_b, generated=False)
        except Exception:
            return False  # reference leg fails: invalid candidate
        try:
            report_a = self._leg(program, self.timing_config,
                                 generated=True)
        except Exception:
            return True  # generated-path-only failure
        return report_a != report_b


def _mask_code(instrs: List[GuestInstr], program: GuestProgram,
               keep: List[int]) -> GuestProgram:
    """Program with every instruction not in ``keep`` NOP-masked."""
    kept = set(keep)
    out = bytearray()
    code = program.code
    base = program.base
    for i, instr in enumerate(instrs):
        offset = instr.addr - base
        if i in kept:
            out += code[offset:offset + instr.length]
        else:
            out += _NOP_BYTE * instr.length
    return GuestProgram(code=bytes(out), base=program.base,
                        entry=program.entry, data=dict(program.data),
                        stack_top=program.stack_top)


def _ddmin(indices: List[int], test) -> List[int]:
    """Classic ddmin: a 1-minimal sublist of ``indices`` for which
    ``test(sublist)`` holds.  ``test(indices)`` must hold on entry."""
    items = list(indices)
    n = 2
    while len(items) >= 2:
        chunk_size = -(-len(items) // n)  # ceil
        chunks = [items[i:i + chunk_size]
                  for i in range(0, len(items), chunk_size)]
        reduced = False
        for chunk in chunks:
            if len(chunk) == len(items):
                continue
            if test(chunk):
                items, n = chunk, 2
                reduced = True
                break
        if not reduced and n > 2:
            for chunk in chunks:
                complement = [i for i in items if i not in set(chunk)]
                if complement and test(complement):
                    items, n = complement, max(n - 1, 2)
                    reduced = True
                    break
        if not reduced:
            if n >= len(items):
                break
            n = min(len(items), 2 * n)
    return items


def _compact(instrs: List[GuestInstr], keep: List[int],
             program: GuestProgram) -> Optional[GuestProgram]:
    """Delete the masked instructions outright, remapping direct branch
    targets; returns None when a target cannot be remapped."""
    kept = [instrs[i] for i in sorted(keep)]
    base = program.base
    # New address of each surviving instruction.
    new_addr: Dict[int, int] = {}
    cursor = base
    for instr in kept:
        new_addr[instr.addr] = cursor
        cursor += instr.length
    end_old = instrs[-1].addr + instrs[-1].length if instrs else base

    def remap(target: int) -> Optional[int]:
        if target < base or target > end_old:
            return target  # outside the code image: leave untouched
        # Exact survivor, or fall through a deleted run to the next one.
        for instr in kept:
            if instr.addr >= target:
                return new_addr[instr.addr]
        return cursor  # past the last survivor: one past the end

    out = bytearray()
    for instr in kept:
        if _is_direct_branch(instr):
            target = remap(instr.operands[0].u32)
            if target is None:
                return None
            rewritten = GuestInstr(
                instr.mnemonic,
                (Imm(target),) + tuple(instr.operands[1:]))
            out += encode_instr(rewritten)
        else:
            out += encode_instr(instr)
    entry = remap(program.entry)
    if entry is None:
        return None
    return GuestProgram(code=bytes(out), base=base, entry=entry,
                        data=dict(program.data),
                        stack_top=program.stack_top)


def minimize_program(program: GuestProgram, config=None,
                     fault: Optional[Dict] = None,
                     os_stdin: bytes = b"", os_seed: int = 0x5EED,
                     max_events: int = 200_000,
                     oracle=None) -> MinimizeResult:
    """Shrink ``program`` to a minimal instruction sequence for which
    ``oracle.diverges`` still holds (default: the generic
    :class:`ProgramOracle` divergence oracle built from ``config`` and
    ``fault``).

    Raises :class:`ValueError` when the input program does not diverge
    in the first place (nothing to minimize)."""
    if oracle is None:
        oracle = ProgramOracle(config, fault=fault, os_stdin=os_stdin,
                               os_seed=os_seed, max_events=max_events)
    instrs = decode_program_instrs(program)
    all_indices = list(range(len(instrs)))
    if not oracle.diverges(program):
        raise ValueError(
            "program does not diverge under the given config/fault; "
            "nothing to minimize")
    # Masking can turn loops infinite (e.g. masking the decrement); cap
    # candidate reference runs by the original program's length so such
    # invalid candidates are rejected quickly instead of spinning to the
    # default 2M-step cap.
    baseline = GuestEmulator(program, os=oracle._os())
    baseline.run(max_steps=oracle.reference_step_cap)
    oracle.reference_step_cap = max(10_000, 8 * baseline.icount)

    def test(keep: List[int]) -> bool:
        return oracle.diverges(_mask_code(instrs, program, keep))

    keep = _ddmin(all_indices, test)
    masked = _mask_code(instrs, program, keep)

    compacted = _compact(instrs, keep, program)
    if compacted is not None and oracle.diverges(compacted):
        return MinimizeResult(
            program=compacted, instructions=len(keep),
            original_instructions=len(instrs),
            tests_run=oracle.tests_run, compacted=True)
    return MinimizeResult(
        program=masked, instructions=len(keep),
        original_instructions=len(instrs),
        tests_run=oracle.tests_run, compacted=False)


def oracle_for_reason(reason: str, config, fault: Optional[Dict] = None,
                      os_stdin: bytes = b"", os_seed: int = 0x5EED,
                      max_events: int = 200_000):
    """The right oracle for a bundle/finding ``reason`` string:
    sanitizer findings shrink against the sanitizer oracle, timing
    findings against the timing-mismatch oracle, everything else
    against the generic divergence oracle."""
    common = dict(fault=fault, os_stdin=os_stdin, os_seed=os_seed,
                  max_events=max_events)
    if "sanitizer" in reason:
        return SanitizerOracle(config, **common)
    if "timing" in reason:
        common.pop("fault")
        return TimingMismatchOracle(config, **common)
    return ProgramOracle(config, **common)


def minimize_bundle(bundle, max_events: int = 200_000) -> MinimizeResult:
    """Minimize the guest program of a loaded
    :class:`~repro.snapshot.bundle.ReproBundle`, with the oracle picked
    from the bundle's ``reason``."""
    oracle = oracle_for_reason(
        bundle.reason or "", bundle.config, fault=bundle.fault,
        os_stdin=bundle.os_stdin, os_seed=bundle.os_seed,
        max_events=max_events)
    return minimize_program(bundle.program, oracle=oracle)


def format_program(program: GuestProgram) -> str:
    """Human-readable listing of a (minimized) program."""
    lines = []
    for instr in decode_program_instrs(program):
        marker = " <- entry" if instr.addr == program.entry else ""
        lines.append(f"  {instr.addr:#06x}: {instr!r}{marker}")
    return "\n".join(lines)
