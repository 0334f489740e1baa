"""Convenience runners coupling the co-designed system with the timing
simulator (the timing simulator is optional and does not affect
functionality — paper §V, "the use of the timing and power simulators is
optional")."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.guest.program import GuestProgram
from repro.guest.syscalls import GuestOS
from repro.system.controller import Controller, RunResult
from repro.telemetry.collectors import register_timing_collector
from repro.timing.config import TimingConfig
from repro.timing.core import InOrderCore
from repro.timing.trace import TimingSession
from repro.tol.config import TolConfig


def run_with_timing(program: GuestProgram,
                    tol_config: Optional[TolConfig] = None,
                    timing_config: Optional[TimingConfig] = None,
                    include_tol_overhead: bool = True,
                    os: Optional[GuestOS] = None,
                    validate: bool = True,
                    ) -> Tuple[RunResult, Controller, InOrderCore]:
    """Run a program with detailed timing simulation attached.

    Application host instructions stream from the host emulator in
    batches, one per unit execution; TOL overhead charges are
    (optionally) fed as synthetic instruction batches so the timing
    results reflect the whole dynamic host stream.

    ``tol_config.host_fastpath`` selects the generated forms (hot units
    tiered up to generated appliers) or the reference forms (every
    record on the generic loop); results are bit-identical either way,
    only simulator wall-clock changes.
    """
    controller = Controller(program, config=tol_config, os=os,
                            validate=validate)
    core = InOrderCore(timing_config)
    session = TimingSession(core)
    tol = controller.codesigned.tol
    register_timing_collector(tol.telemetry, core, session=session)
    session.install(tol)
    if include_tol_overhead:
        def on_charge(category, insns):
            session.feed_tol_overhead(insns)
        tol.overhead.on_charge = on_charge
    result = controller.run()
    core.finalize()
    return result, controller, core
