"""Traced-timing speed: cycle-annotated batches vs one record per call.

A detailed-timing run pays a *trace tax* on top of plain co-designed
execution: every retired host instruction is a record the timing model
applies.  Delivered one record per call (``TimingSession.sink``), each
record crosses a Python call boundary into the generated step.  Annotated
delivery removes most of that tax: units carry a static timing
annotation, record batches are applied through ``InOrderCore.feed_unit``
in one call, and hot units tier up to a generated per-unit applier with
the static facts folded into bytecode (:mod:`repro.timing.annotate`).

The benchmark isolates exactly that tax.  Three legs on the same
workload, run interleaved for ``ROUNDS`` rounds with their order
rotated each round, so load drifts on the host fall on all three alike:

- ``base``: plain ``run_codesigned`` (no timing attached);
- ``annotated``: ``run_with_timing`` (batched annotated delivery);
- ``per_instruction``: a session wired as ``run_with_timing`` wires it
  (timing collector, TOL overhead feed), with the host's record batches
  handed to ``TimingSession.sink`` one record per call.

Each round's ``tax = traced - base`` per mode gives one ratio
``tax_per / tax_annotated``; the >=3x bar is asserted on the median of
the rounds' ratios, and their quartiles (``benchmarks/darco/measure.py``)
are reported beside it.  Both timed legs feed TOL overhead charges
through the same generated TOL applier, so the ratio moves with it.
``timing_kips_*`` report host timing instructions per second of median
tax.  The differential identity suite
(tests/test_timing_annotation.py) guarantees both modes produce
bit-identical ``core.report()``; this benchmark re-checks it on its own
workload every round, so a regression cannot hide behind a
fast-but-wrong path.

Run as a script to (re)generate ``BENCH_timing.json`` at the repo root:

    PYTHONPATH=src python benchmarks/bench_timing.py
    PYTHONPATH=src python benchmarks/bench_timing.py --smoke
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
from pathlib import Path

from darco.measure import quartiles
from repro.system.controller import Controller, run_codesigned
from repro.telemetry.collectors import register_timing_collector
from repro.timing.core import InOrderCore
from repro.timing.run import run_with_timing
from repro.timing.trace import TimingSession
from repro.tol.config import TolConfig
from repro.workloads import SyntheticSpec, generate

#: The annotated-path guarantee: >=3x the per-instruction path on the
#: trace tax (wall-clock added by detailed timing), in the median round.
TIMING_SPEEDUP_BAR = 3.0
ROUNDS = 7

#: A hot, branchy, mixed int/fp/mem workload: mostly translated-code
#: execution, so the trace tax dominates the timed delta.
SPEC = SyntheticSpec(seed=5, hot_loops=3, trip_count=4000, bb_size=8,
                     branchy=True, mem_ops=1, fp_ops=1)
SMOKE_SPEC = SyntheticSpec(seed=5, hot_loops=3, trip_count=400, bb_size=8,
                           branchy=True, mem_ops=1, fp_ops=1)
TOL = dict(bbm_threshold=3, sbm_threshold=8)


def _per_instruction(spec):
    """``run_with_timing``'s run, with every record fed through
    ``TimingSession.sink`` in its own call."""
    controller = Controller(generate(spec), config=TolConfig(**TOL),
                            validate=False)
    core = InOrderCore()
    session = TimingSession(core)
    tol = controller.codesigned.tol
    register_timing_collector(tol.telemetry, core, session=session)
    session.install(tol)

    def one_record_per_call(unit, records):
        instrs = unit.instrs
        for index, info in records:
            session.sink(unit, index, instrs[index], info)

    tol.host.trace_sink = one_record_per_call
    tol.overhead.on_charge = \
        lambda category, insns: session.feed_tol_overhead(insns)
    result = controller.run()
    core.finalize()
    return result, controller, core


def _legs(spec):
    """name -> thunk running the leg once."""
    return {
        "base": lambda: run_codesigned(
            generate(spec), config=TolConfig(**TOL), validate=False),
        "annotated": lambda: run_with_timing(
            generate(spec), tol_config=TolConfig(**TOL), validate=False),
        "per_instruction": lambda: _per_instruction(spec),
    }


def compare(spec=SPEC, rounds: int = ROUNDS):
    legs = _legs(spec)
    names = list(legs)
    seconds = {name: [] for name in names}
    ratios = []
    reports = set()
    for r in range(rounds):
        order = names[r % len(names):] + names[:r % len(names)]
        took = {}
        for name in order:
            gc.collect()
            t0 = time.perf_counter()
            value = legs[name]()
            took[name] = time.perf_counter() - t0
            seconds[name].append(took[name])
            if name == "annotated":
                ann = value
            elif name == "per_instruction":
                per = value
        reports.add(json.dumps(ann[2].report(), sort_keys=True))
        reports.add(json.dumps(per[2].report(), sort_keys=True))
        ratios.append(max(took["per_instruction"] - took["base"], 1e-9)
                      / max(took["annotated"] - took["base"], 1e-9))
    _, ann_controller, ann_core = ann
    session = ann_controller.codesigned.tol.host.trace_sink.__self__
    insns = ann_core.stats.instructions
    base_s, ann_s, per_s = (statistics.median(seconds[name])
                            for name in names)
    tax_ann = max(ann_s - base_s, 1e-9)
    tax_per = max(per_s - base_s, 1e-9)
    q1, speedup, q3 = quartiles(ratios)
    identical = len(reports) == 1
    return {
        "timed_insns": insns,
        "rounds": rounds,
        "base_s": round(base_s, 3),
        "annotated_s": round(ann_s, 3),
        "per_instruction_s": round(per_s, 3),
        "timing_kips_annotated": round(insns / tax_ann / 1e3, 1),
        "timing_kips_per_instruction": round(insns / tax_per / 1e3, 1),
        "annotated_units": session.annotated_units,
        "compiled_units": session.compiled_units,
        "fastpath_insns": session.fastpath_insns,
        "report_identical": identical,
        "round_speedups": [round(ratio, 2) for ratio in ratios],
        "speedup": round(speedup, 2),
        "speedup_q1": round(q1, 2),
        "speedup_q3": round(q3, 2),
        "bar": TIMING_SPEEDUP_BAR,
        "pass": identical and speedup >= TIMING_SPEEDUP_BAR,
    }


def test_annotated_timing_speedup(benchmark):
    results = benchmark.pedantic(compare, rounds=1, iterations=1)
    print("\n=== cycle-annotated timing ===")
    print(f"base (no timing):   {results['base_s']:.2f}s (medians)")
    print(f"annotated:          {results['annotated_s']:.2f}s "
          f"({results['timing_kips_annotated']:.0f} KIPS of tax)")
    print(f"per-instruction:    {results['per_instruction_s']:.2f}s "
          f"({results['timing_kips_per_instruction']:.0f} KIPS of tax)")
    print(f"trace-tax speedup:  {results['speedup']:.2f}x median of "
          f"{results['rounds']} rounds (quartiles "
          f"{results['speedup_q1']:.2f}-{results['speedup_q3']:.2f})")
    assert results["report_identical"], \
        "annotated and per-instruction timing reports diverged"
    assert results["pass"], (
        f"annotated timing at {results['speedup']:.2f}x the "
        f"per-instruction trace tax (bar {results['bar']:.1f}x)")


def main(argv):
    smoke = "--smoke" in argv
    if smoke:
        # CI smoke: a short run must exercise the annotated fast path
        # (batches actually consumed) and stay identical to the
        # per-instruction path; the 3x bar is only asserted on the
        # full-length run (short runs are dominated by warm-up).
        results = compare(spec=SMOKE_SPEC, rounds=1)
        print(json.dumps(results, indent=2))
        ok = (results["report_identical"]
              and results["fastpath_insns"] > 0)
        return 0 if ok else 1
    from repro.hostinfo import host_snapshot
    results = compare()
    results["host"] = host_snapshot()
    print(json.dumps(results, indent=2))
    out = Path(__file__).resolve().parent.parent / "BENCH_timing.json"
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    return 0 if results["pass"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
