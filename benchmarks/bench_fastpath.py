"""Interpreter fast-path speed: closure-compiled vs op-list interpretation.

The IM interpreter's fast path (:mod:`repro.tol.ir_eval.compile_ops`)
replaces per-instruction op-list walking with one cached specialized
closure per decode address.  This benchmark measures both modes on the
same workload with a standalone interpreter (syscalls executed locally, so
only interpretation speed is timed), in interleaved rounds, and asserts
the fast path clears a 2x bar on the ratio of the two modes' median guest
KIPS, reported with both sides' quartiles (``benchmarks/darco/measure.py``).

``--direct`` measures the host's generated programs (every translated
unit runs as one, :mod:`repro.tol.direct`) against the reference loop
(``host_fastpath=False``: one step per host instruction).  A raw
co-designed component (TOL + host emulator, syscalls executed locally,
no controller/validation) runs the same workload to the same
instruction count both ways, in interleaved rounds:

- ``generated_kips``: guest KIPS inside generated programs, timed by
  wrapping every program ``repro.tol.tol.compile_direct`` returns (as
  the DARCO benchmark's span tracer does);
- ``reference_kips``: guest KIPS inside ``HostEmulator._run`` with
  ``host_fastpath=False``.

The bar is asserted on the ratio of their medians, reported with both
sides' quartiles (``benchmarks/darco/measure.py``).

It also enforces the telemetry layer's overhead budget: a full-system
run with ``telemetry="counters"`` must stay within 5% of the KIPS of an
identical run with ``telemetry="off"`` (the guarantee that makes
``counters`` the safe default).  The comparison interleaves the two
modes and takes the best of five rounds per mode, so scheduler noise
does not fail the bar spuriously.  The overhead is reported signed: a
negative one means the counters run happened to be faster.

Every entry in the emitted JSON records its own ``guest_insns``: the
interpreter and direct comparisons stop at a fixed instruction count,
while the telemetry comparison runs its workload to completion, so the
per-entry counts legitimately differ and are reported explicitly.

Run as a script to (re)generate ``BENCH_fastpath.json`` at the repo root
(``--telemetry`` / ``--direct`` add their entries to the file):

    PYTHONPATH=src python benchmarks/bench_fastpath.py [--smoke]
    PYTHONPATH=src python benchmarks/bench_fastpath.py --direct
    PYTHONPATH=src python benchmarks/bench_fastpath.py --direct --smoke
    PYTHONPATH=src python benchmarks/bench_fastpath.py --telemetry
    PYTHONPATH=src python benchmarks/bench_fastpath.py --telemetry-smoke
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.guest.memory import PagedMemory
from repro.guest.state import GuestState
from repro.guest.syscalls import GuestOS
from repro.tol.decoder import GisaFrontend
from repro.tol.interp import END, SYSCALL, Interpreter
from repro.workloads import get_workload

WORKLOAD = "429.mcf"
SCALE = 0.4
STEPS = 120_000


def measure_interp_kips(fastpath: bool, steps: int = STEPS,
                        workload_name: str = WORKLOAD,
                        scale: float = SCALE):
    """KIPS of a standalone interpreter run over ``steps`` guest
    instructions; returns ``(kips, icount, closures)``, ``closures``
    the decode addresses that run a compiled closure."""
    program = get_workload(workload_name).program(scale=scale)
    memory = PagedMemory()
    program.load_into(memory)
    state = GuestState()
    state.eip = program.entry
    state.set("ESP", program.stack_top)
    interp = Interpreter(GisaFrontend(), state, memory, fastpath=fastpath)
    os = GuestOS()

    t0 = time.perf_counter()
    while interp.icount < steps:
        result = interp.step()
        if result.status == SYSCALL:
            os.execute(state, memory)
            interp.advance_past_syscall()
            if os.exited:
                break
        elif result.status == END:
            break
    dt = time.perf_counter() - t0
    closures = sum(fn is not None for _, _, fn, _ in
                   interp._fastcache.values())
    return interp.icount / dt / 1e3, interp.icount, closures


#: Closures must run >=2.0x op-list interpretation's guest KIPS (the
#: ratio of the medians of interleaved rounds).
INTERP_SPEEDUP_BAR = 2.0
INTERP_ROUNDS = 9


def interleaved(measure, names, bar, rounds, **kwargs):
    """Interleaved rounds of ``measure(False, **kwargs)`` and
    ``measure(True, **kwargs)``, each ``(kips, icount, made)``: the two
    sides' q1/median/q3 KIPS under ``names[0]`` and ``names[1]``, what
    the second made under ``names[2]``, and whether the ratio of the
    medians clears ``bar``.  Both sides must retire the same count."""
    from darco.measure import quartiles

    slow, fast = [], []
    icount = made = None
    for _ in range(rounds):
        kips, icount, _ = measure(False, **kwargs)
        slow.append(kips)
        kips, n, made = measure(True, **kwargs)
        fast.append(kips)
        assert n == icount, "the two forms executed different work"
    slow_q, fast_q = quartiles(slow), quartiles(fast)
    speedup = fast_q[1] / slow_q[1] if slow_q[1] else 0.0
    return {
        "guest_insns": icount,
        "rounds": rounds,
        names[2]: made,
        names[0]: [round(v, 1) for v in slow_q],
        names[1]: [round(v, 1) for v in fast_q],
        "speedup": round(speedup, 2),
        "bar": bar,
        "pass": speedup >= bar,
    }


def compare(steps: int = STEPS, rounds: int = INTERP_ROUNDS):
    """Op-list interpretation against closures on the same run."""
    return interleaved(
        measure_interp_kips, ("interpreted_kips", "compiled_kips",
                              "closures"),
        INTERP_SPEEDUP_BAR, rounds, steps=steps)


# -- generated programs vs the reference loop ---------------------------------

#: Generated programs must run >=3.0x the reference loop's guest KIPS.
#: The bar restates ">=3x ``compiled_kips``" (guest KIPS inside the
#: direct-tier programs over the IM fast path's): 3 x the
#: median ``compiled_kips`` over the median guest KIPS of the reference
#: loop it divides by, in interleaved rounds, rounded up to 0.1x (2.93
#: and 2.95 in two 9-round runs, 2-vCPU x86-64 VM, CPython 3.11).  The
#: step loop this reference loop replaced was slower: against it the
#: same conversion reads 3.8.
DIRECT_SPEEDUP_BAR = 3.0
DIRECT_ROUNDS = 9


def measure_tol_kips(generated: bool, steps: int = STEPS,
                     workload_name: str = WORKLOAD,
                     scale: float = SCALE):
    """A raw co-designed component run (TOL + host emulator, syscalls
    executed locally, no controller/validation) to ``steps`` guest
    instructions, on generated programs or on the reference loop.

    Returns ``(kips, icount, programs)``: ``kips`` is guest KIPS inside
    the timed form only -- the programs ``compile_direct`` returned, or
    ``HostEmulator._run`` -- and ``programs`` counts the programs made.
    """
    from repro.tol import tol as tol_module
    from repro.tol.config import TolConfig
    from repro.tol.tol import (
        EVENT_DATA_REQUEST, EVENT_END, EVENT_PAUSE, EVENT_SYSCALL, Tol,
    )

    program = get_workload(workload_name).program(scale=scale)
    memory = PagedMemory()
    program.load_into(memory)
    state = GuestState()
    state.eip = program.entry
    state.set("ESP", program.stack_top)
    config = TolConfig(telemetry="off", host_fastpath=generated)
    acc = [0.0, 0, 0]          # [seconds, guest insns, programs made]
    perf = time.perf_counter

    def timed(fn):
        def run(emu, *args):
            g0 = emu.guest_retired_total
            t0 = perf()
            try:
                return fn(emu, *args)
            finally:
                acc[0] += perf() - t0
                acc[1] += emu.guest_retired_total - g0
        return run

    original = tol_module.compile_direct

    def compile_direct(unit, emu, traced=False):
        prog = original(unit, emu, traced=traced)
        if prog is None:
            return None
        acc[2] += 1
        return timed(prog)

    tol_module.compile_direct = compile_direct
    try:
        tol = Tol(state, memory, config=config)
        if not generated:
            tol.host._run = timed(type(tol.host)._run).__get__(tol.host)
        os = GuestOS()
        tol.pause_at_icount = steps
        while True:
            event = tol.run()
            if event.kind == EVENT_SYSCALL:
                os.execute(state, memory)
                tol.complete_syscall()
                if os.exited:
                    break
            elif event.kind == EVENT_DATA_REQUEST:
                memory.install_page(event.fault_addr & ~0xFFF, bytes(4096))
            elif event.kind in (EVENT_END, EVENT_PAUSE):
                break
    finally:
        tol_module.compile_direct = original
    kips = acc[1] / acc[0] / 1e3 if acc[0] > 0 else 0.0
    return kips, tol.guest_icount, acc[2]


def compare_direct(steps: int = STEPS, rounds: int = DIRECT_ROUNDS,
                   scale: float = SCALE):
    """The reference loop against generated programs on the same run."""
    return interleaved(
        measure_tol_kips, ("reference_kips", "generated_kips", "programs"),
        DIRECT_SPEEDUP_BAR, rounds, steps=steps, scale=scale)


#: The telemetry guarantee: ``counters`` mode costs <5% KIPS vs ``off``.
TELEMETRY_OVERHEAD_BAR = 0.05
TELEMETRY_ROUNDS = 5


def measure_system_kips(telemetry_mode: str,
                        workload_name: str = WORKLOAD,
                        scale: float = SCALE):
    """KIPS of a full-controller run (both components, sync protocol,
    validation off so dispatch dominates) under the given telemetry
    mode; returns ``(kips, icount)``."""
    from repro.system.controller import run_codesigned
    from repro.tol.config import TolConfig
    program = get_workload(workload_name).program(scale=scale)
    config = TolConfig(telemetry=telemetry_mode)
    t0 = time.perf_counter()
    result, _ = run_codesigned(program, config=config, validate=False)
    dt = time.perf_counter() - t0
    return result.guest_icount / dt / 1e3, result.guest_icount


def compare_telemetry(scale: float = SCALE,
                      rounds: int = TELEMETRY_ROUNDS):
    """Best-of-``rounds`` KIPS for ``off`` vs ``counters``; the
    ``pass`` flag enforces the <5% bar.  Runs the workload to
    completion (no instruction-count cutoff), so ``guest_insns`` here
    is the full dynamic count, not the ``steps`` cutoff the other
    entries use."""
    off = 0.0
    counters = 0.0
    icount = None
    for _ in range(rounds):
        kips, n = measure_system_kips("off", scale=scale)
        off = max(off, kips)
        kips, n2 = measure_system_kips("counters", scale=scale)
        counters = max(counters, kips)
        assert n == n2, "telemetry modes executed different work"
        icount = n
    overhead = 1.0 - counters / off
    return {
        "scale": scale,
        "guest_insns": icount,
        "kips_off": round(off, 1),
        "kips_counters": round(counters, 1),
        "overhead_fraction": round(overhead, 4),
        "bar": TELEMETRY_OVERHEAD_BAR,
        "pass": overhead < TELEMETRY_OVERHEAD_BAR,
    }


def test_fastpath_speedup(benchmark):
    results = benchmark.pedantic(compare, rounds=1, iterations=1)
    print("\n=== interpreter fast path ===")
    print(f"op-list interpretation (q1/median/q3): "
          f"{results['interpreted_kips']} KIPS")
    print(f"closure-compiled (q1/median/q3):       "
          f"{results['compiled_kips']} KIPS")
    print(f"median ratio:                          {results['speedup']:.2f}x")
    assert results["pass"], (
        f"closures at {results['speedup']:.2f}x op-list interpretation "
        f"(bar {results['bar']:.1f}x)")


def test_direct_speedup(benchmark):
    results = benchmark.pedantic(compare_direct, rounds=1, iterations=1)
    print("\n=== generated programs vs the reference loop ===")
    print(f"reference loop (q1/median/q3):     "
          f"{results['reference_kips']} KIPS")
    print(f"generated programs (q1/median/q3): "
          f"{results['generated_kips']} KIPS")
    print(f"median ratio:                      {results['speedup']:.2f}x")
    assert results["pass"], (
        f"generated programs at {results['speedup']:.2f}x the reference "
        f"loop (bar {results['bar']:.1f}x)")


def test_telemetry_counters_overhead(benchmark):
    results = benchmark.pedantic(
        lambda: compare_telemetry(scale=0.2), rounds=1, iterations=1)
    print("\n=== telemetry counters-mode overhead ===")
    print(f"off:      {results['kips_off']:.1f} KIPS")
    print(f"counters: {results['kips_counters']:.1f} KIPS")
    print(f"overhead: {results['overhead_fraction']:.2%} "
          f"(bar {results['bar']:.0%})")
    assert results["pass"], (
        f"counters-mode telemetry costs "
        f"{results['overhead_fraction']:.2%} KIPS "
        f"(budget {results['bar']:.0%})")


def main(argv):
    if "--telemetry-smoke" in argv:
        results = compare_telemetry(scale=0.1, rounds=2)
        print(json.dumps(results, indent=2))
        return 0 if results["pass"] else 1
    smoke = "--smoke" in argv
    if "--direct" in argv and smoke:
        # CI smoke: a short run must make programs and agree with the
        # reference loop on work done (compare_direct asserts it); the
        # bar is only asserted on the full-length run (short runs are
        # dominated by warm-up and scheduler noise).
        results = compare_direct(steps=20_000, rounds=1)
        print(json.dumps(results, indent=2))
        return 0 if results["programs"] else 1
    # A smoke run is one short round: the modes must agree on work done
    # (compare asserts it) and closures must be made; the bar is only
    # asserted on full runs, as for --direct.
    steps = 5_000 if smoke else STEPS
    interp = compare(steps=steps, rounds=1 if smoke else INTERP_ROUNDS)
    from repro.hostinfo import host_snapshot
    results = {
        "workload": WORKLOAD,
        "scale": SCALE,
        "host": host_snapshot(),
        "interp": interp,
    }
    if "--direct" in argv:
        results["direct"] = compare_direct(steps=steps)
    if "--telemetry" in argv:
        results["telemetry"] = compare_telemetry()
    print(json.dumps(results, indent=2))
    if not smoke:
        out = Path(__file__).resolve().parent.parent / "BENCH_fastpath.json"
        out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {out}")
    if not (interp["closures"] if smoke else interp["pass"]):
        return 1
    if "--direct" in argv and not results["direct"]["pass"]:
        return 1
    if "--telemetry" in argv and not results["telemetry"]["pass"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
