"""The differential oracle: one candidate, every execution tier.

Each candidate runs through the reference interpretive path first (a
program that crashes or never exits there is *invalid*, not
interesting), then through three co-designed legs — the reference forms
(``host_fastpath=False``: IM op-list interpretation, the host's
reference loop), and generated code in strict and in recover mode, each
validating against the authoritative x86 component, each with the
invariant sanitizer hot — and optionally a timing leg whose cycle
report in the generated forms must be bit-identical to the reference
forms'.

Anything that raises, records a divergence-class incident, disagrees
with the other legs on retirement or host accounting (guest and host
instructions per mode, host instructions committed and wasted), or
breaks the timing identity is a finding.  A mutant that exhausts the event budget or only
trips the livelock watchdog is classified ``runaway`` and skipped — it
must never hang a worker or abort the campaign.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.guest.emulator import GuestEmulator
from repro.guest.program import GuestProgram
from repro.guest.syscalls import GuestOS
from repro.tol.config import TolConfig

#: Leg matrix: (name, TolConfig overrides).  The interpretive strict leg
#: is the in-stack reference; the generated legs run both recovery modes.
DEFAULT_LEGS: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("interp_strict", {"host_fastpath": False, "recovery_mode": "strict"}),
    ("generated_strict", {"recovery_mode": "strict"}),
    ("generated_recover", {"recovery_mode": "recover"}),
)

#: Incident kinds that constitute a divergence finding.  Deliberately
#: excludes ``rollback_storm`` (speculation failing hard enough to
#: demote is the adaptive pipeline working, not a bug) and
#: ``livelock`` (watchdog-tamed mutants classify as runaway).
_DIVERGENCE_KINDS = frozenset(
    {"state_divergence", "memory_divergence", "sync_lost"})


@dataclass
class FuzzOutcome:
    """Result of one candidate through the whole oracle (picklable)."""

    classification: str            #: ok | invalid | runaway | finding
    edges: List[str] = field(default_factory=list)
    finding_kind: Optional[str] = None   #: divergence|sanitizer|timing
    finding_leg: Optional[str] = None
    signature: Optional[str] = None
    error: Optional[str] = None
    bundle_path: Optional[str] = None
    runaway_leg: Optional[str] = None


def _reference_clean(program: GuestProgram, os_stdin: bytes,
                     os_seed: int, step_cap: int) -> Optional[int]:
    """Reference icount when the candidate runs clean, else None."""
    emu = GuestEmulator(program,
                        os=GuestOS(stdin=os_stdin, rand_seed=os_seed))
    try:
        emu.run(max_steps=step_cap)
    except Exception:
        return None
    return emu.icount if emu.os.exited else None


def _signature_for(kind: str, leg: str, tol, error: Optional[str]) -> str:
    """Dedup signature: the incident log's canonical digest when the
    run recorded incidents, else a hash of the failure head (two
    different mutants hitting the same corrupting step dedup to one
    finding either way)."""
    if tol is not None and len(tol.incidents):
        return tol.incidents.signature()
    head = (error or "").splitlines()[0][:160] if error else ""
    blob = f"{kind}|{leg}|{head}".encode()
    return hashlib.sha256(blob).hexdigest()


def _write_finding_bundle(repro_dir: Optional[str], controller,
                          reason: str, error: Optional[str]
                          ) -> Optional[str]:
    if repro_dir is None or controller is None:
        return None
    from repro.snapshot.bundle import write_bundle
    try:
        bundle_path = write_bundle(repro_dir, controller, reason,
                                   error=error)
        return str(bundle_path)
    except Exception:
        return None  # triage must never kill the worker


def evaluate_candidate(program: GuestProgram,
                       base_overrides: Optional[Dict[str, object]] = None,
                       fault: Optional[Dict] = None,
                       os_stdin: bytes = b"", os_seed: int = 0x5EED,
                       max_events: int = 100_000,
                       step_cap: int = 400_000,
                       legs=DEFAULT_LEGS,
                       timing: bool = False,
                       sanitize: bool = True,
                       repro_dir: Optional[str] = None) -> FuzzOutcome:
    """Run one candidate through the full oracle matrix."""
    from repro.system.controller import Controller
    from repro.tol.sanitize import KIND_SANITIZER, SanitizerError

    ref_icount = _reference_clean(program, os_stdin, os_seed, step_cap)
    if ref_icount is None:
        return FuzzOutcome(classification="invalid")

    edges: set = set()
    accounts: Dict[str, Dict[str, object]] = {}
    controllers: Dict[str, object] = {}

    base = TolConfig().with_overrides(base_overrides or {})
    for leg_name, leg_overrides in legs:
        cfg = base.with_overrides(dict(leg_overrides))
        if sanitize:
            cfg = cfg.with_overrides({"sanitize": True})
        controller = Controller(program, config=cfg,
                                os=GuestOS(stdin=os_stdin,
                                           rand_seed=os_seed))
        tol = controller.codesigned.tol
        if fault is not None:
            from repro.resilience.faults import FaultInjector, FaultSpec
            FaultInjector(FaultSpec(
                site=fault["site"], ordinal=fault["ordinal"],
                salt=fault["salt"])).attach(tol)
        error: Optional[str] = None
        finding_kind: Optional[str] = None
        try:
            result = controller.run(max_events=max_events)
            accounts[leg_name] = _account(result, tol)
        except SanitizerError as exc:
            error = f"SanitizerError: {exc}"
            finding_kind = "sanitizer"
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            if "event budget" in str(exc):
                return FuzzOutcome(classification="runaway",
                                   edges=sorted(edges),
                                   runaway_leg=leg_name, error=error)
            finding_kind = "divergence"

        _collect_edges(edges, tol)
        controllers[leg_name] = controller

        if finding_kind is None:
            kinds = set(tol.incidents.kinds())
            if KIND_SANITIZER in kinds:
                finding_kind = "sanitizer"
            elif kinds & _DIVERGENCE_KINDS:
                finding_kind = "divergence"
            elif "livelock" in kinds:
                # Watchdog-tripped: a spinning mutant the ladder already
                # tamed.  Skip, never abort.
                return FuzzOutcome(classification="runaway",
                                   edges=sorted(edges),
                                   runaway_leg=leg_name)
        if finding_kind is not None:
            reason = f"fuzz_{finding_kind}"
            sig = _signature_for(finding_kind, leg_name, tol, error)
            path = _write_finding_bundle(repro_dir, controller, reason,
                                         error)
            return FuzzOutcome(
                classification="finding", edges=sorted(edges),
                finding_kind=finding_kind, finding_leg=leg_name,
                signature=sig, error=error, bundle_path=path)

    # Cross-leg identity: every clean leg must agree with the first on
    # retirement and host accounting.
    first = next(iter(accounts.values()), None)
    worst = next((leg for leg, account in accounts.items()
                  if account != first), None)
    if worst is not None:
        controller = controllers[worst]
        tol = controller.codesigned.tol
        tol.incidents.record(
            "state_divergence", accounts[worst]["guest_icount"],
            detail={"accounts": dict(sorted(accounts.items())),
                    "check": "cross_leg_accounting"},
            suspects=(), actions=("cross-leg accounting mismatch",))
        err = (f"cross-leg accounting mismatch in {worst}: "
               f"{accounts[worst]} vs {first}")
        sig = _signature_for("divergence", worst, tol, err)
        path = _write_finding_bundle(repro_dir, controller,
                                     "fuzz_divergence", err)
        return FuzzOutcome(
            classification="finding", edges=sorted(edges),
            finding_kind="divergence", finding_leg=worst,
            signature=sig, error=err, bundle_path=path)

    if timing:
        outcome = _timing_leg(program, base, os_stdin, os_seed,
                              sanitize, edges, repro_dir)
        if outcome is not None:
            return outcome

    return FuzzOutcome(classification="ok", edges=sorted(edges))


def _account(result, tol) -> Dict[str, object]:
    """What every clean leg must agree on: guest instructions retired,
    per mode, and host instructions committed (per mode) and wasted."""
    host = tol.host
    return {"guest_icount": result.guest_icount,
            "guest_retired_by_mode": dict(sorted(
                host.guest_retired_by_mode.items())),
            "host_committed_by_mode": dict(sorted(
                host.host_committed_by_mode.items())),
            "host_committed": host.host_insns_committed,
            "host_wasted": host.host_insns_wasted}


def _collect_edges(edges: set, tol) -> None:
    from repro.fuzz.coverage import edges_from_counters
    try:
        snap = tol.telemetry.snapshot()
        edges.update(edges_from_counters(snap.counters))
    except Exception:
        pass


def _timing_leg(program, base_cfg, os_stdin, os_seed, sanitize,
                edges: set, repro_dir) -> Optional[FuzzOutcome]:
    """Reference vs generated forms under timing: reports must be
    identical."""
    from repro.timing.run import run_with_timing

    reports = {}
    for generated in (False, True):
        leg = f"timing_{'generated' if generated else 'reference'}"
        cfg = base_cfg.with_overrides(
            {"recovery_mode": "strict", "sanitize": bool(sanitize),
             "host_fastpath": generated})
        try:
            _, controller, core = run_with_timing(
                program, tol_config=cfg,
                os=GuestOS(stdin=os_stdin, rand_seed=os_seed))
        except Exception as exc:
            err = f"{type(exc).__name__}: {exc}"
            sig = _signature_for("timing", leg, None, err)
            return FuzzOutcome(
                classification="finding", edges=sorted(edges),
                finding_kind="timing", finding_leg=leg,
                signature=sig, error=err)
        _collect_edges(edges, controller.codesigned.tol)
        reports[generated] = (core.report(), controller)
    if reports[True][0] != reports[False][0]:
        controller = reports[True][1]
        tol = controller.codesigned.tol
        tol.incidents.record(
            "timing_mismatch", tol.guest_icount,
            detail={"check": "generated_vs_reference"},
            suspects=(), actions=("cycle report mismatch",))
        err = "generated-form timing cycle report differs"
        sig = _signature_for("timing", "timing_generated", tol, err)
        path = _write_finding_bundle(repro_dir, controller,
                                     "fuzz_timing", err)
        return FuzzOutcome(
            classification="finding", edges=sorted(edges),
            finding_kind="timing", finding_leg="timing_generated",
            signature=sig, error=err, bundle_path=path)
    return None
