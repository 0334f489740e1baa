"""Observability overhead: serve throughput with tracing on vs off.

The tracing design note (DESIGN.md §13) claims counters-mode tracing —
the serve default: a handful of lifecycle spans per job written by the
service and the worker, plus the always-on flight recorder — is cheap
enough to leave on in production.  This benchmark is that claim as a
gate: the same distinct-job load (no coalescing — every submission does
real simulation work) is driven through two fresh service instances,
one with ``tracing="off"`` and one with ``tracing="counters"``, and the
throughput penalty must stay under :data:`MAX_OVERHEAD` (5%).

A trial submits :data:`WORKLOADS` x :data:`SCALES` distinct jobs to a
fresh service and waits for all of them.  The two modes run in
:data:`TRIALS` *pairs*, after one untimed trial: each traced trial next
to an untraced one, the order alternating, so machine drift hits both
sides equally.  Each trial's throughput is normalized by the calibration
repetitions of ``benchmarks/darco/measure.py`` taken around it (a shared
host slows down in bursts of a few seconds, which those repetitions
see), a pair's overhead is ``1 - traced / untraced``, and the gate is on
the *median* pair overhead, reported with its quartiles.  The traced
runs must also actually trace: the gate cross-checks that span files
appeared (service + worker roles) and that every completed job left
latency-percentile samples, so "fast because tracing silently never
happened" cannot pass.

Run as a script to (re)generate ``BENCH_obs.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_obs.py [--smoke]
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

from darco import measure
from repro.hostinfo import host_snapshot
from repro.serve import ServeClient, ServeConfig, ServeService

#: The hard gate: counters-mode tracing may cost at most this fraction
#: of untraced throughput (full runs; smoke runs are tiny and noisy, so
#: they gate at SMOKE_MAX_OVERHEAD instead).
MAX_OVERHEAD = 0.05
SMOKE_MAX_OVERHEAD = 0.25

#: Pairs of trials (one traced, one not) in a full run.
TRIALS = 25
WORKLOADS = ("429.mcf", "462.libquantum", "continuous", "ragdoll")
SCALES = (0.05, 0.08)


class ServeUnderTest:
    """An in-process service on a background loop + a client."""

    def __init__(self, root: str, **kw):
        self.sock = os.path.join(root, "serve.sock")
        kw.setdefault("cache_dir", os.path.join(root, "cache"))
        kw.setdefault("use_cache", False)
        self.config = ServeConfig(socket_path=self.sock, **kw)
        self.service = ServeService(self.config)
        self._ready = threading.Event()
        self._thread = None

    def __enter__(self):
        async def _run():
            await self.service.start()
            self._ready.set()
            await self.service.serve_until_shutdown()

        self._thread = threading.Thread(
            target=lambda: asyncio.run(_run()), daemon=True)
        self._thread.start()
        assert self._ready.wait(15), "service did not come up"
        return self

    def __exit__(self, *exc):
        try:
            with ServeClient(socket_path=self.sock) as client:
                client.shutdown()
        except Exception:
            pass
        self._thread.join(30)

    def client(self) -> ServeClient:
        return ServeClient(socket_path=self.sock)


def run_trial(tracing: str, jobs, workers: int) -> dict:
    """One fresh service, all jobs to completion; returns the stats."""
    root = tempfile.mkdtemp(prefix=f"bench_obs_{tracing}_")
    trace_dir = os.path.join(root, "traces")
    try:
        with ServeUnderTest(root, workers=workers, tracing=tracing,
                            trace_dir=trace_dir) as host:
            with host.client() as client:
                start = time.perf_counter()
                accepted = []
                for params in jobs:
                    reply = client.submit("workload_metrics", params)
                    assert reply["code"] == 202, reply
                    accepted.append(reply["job"])
                for job in accepted:
                    final = client.wait(job, timeout=600)
                    assert final["state"] == "done", final
                wall = time.perf_counter() - start
                health = client.healthz()
        span_files = (sorted(os.listdir(trace_dir))
                      if os.path.isdir(trace_dir) else [])
        return {
            "tracing": tracing,
            "jobs": len(jobs),
            "wall_s": round(wall, 3),
            "jobs_per_s": round(len(jobs) / wall, 3),
            "run_ms_p50": health["latency"]["run_ms"]["p50"],
            "span_files": span_files,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def compare(smoke: bool = False) -> dict:
    workloads = WORKLOADS[:2] if smoke else WORKLOADS
    scales = SCALES[:1] if smoke else SCALES
    trials = 2 if smoke else TRIALS
    workers = 2
    jobs = [{"workload": w, "scale": s}
            for w in workloads for s in scales]

    # An untimed trial first: the process's first service starts cold.
    run_trial("off", jobs, workers)
    calibrator = measure.Calibrator()
    calibrator.sample(measure.CALIB_REPS)
    pairs = []
    for index in range(trials):
        order = ("off", "counters") if index % 2 == 0 \
            else ("counters", "off")
        pair = {}
        for mode in order:
            start = time.perf_counter()
            trial = run_trial(mode, jobs, workers)
            pair[mode] = (trial, start, time.perf_counter())
            calibrator.sample(2)
        pairs.append(pair)
    calibrator.sample(measure.CALIB_REPS)

    results = {"off": [], "counters": []}
    overheads, raw = [], []
    for pair in pairs:
        rates = {}
        for mode, (trial, start, end) in pair.items():
            factor = calibrator.factor(start, end)
            trial["calib_factor"] = round(factor, 4)
            trial["normalized_jobs_per_s"] = round(
                trial["jobs_per_s"] * factor, 3)
            rates[mode] = trial["jobs_per_s"] * factor
            results[mode].append(trial)
        # Signed: a traced trial faster than its untraced partner reads
        # negative, so the recorded number shows the noise.
        overheads.append(1.0 - rates["counters"] / rates["off"])
        raw.append(1.0 - pair["counters"][0]["jobs_per_s"]
                   / pair["off"][0]["jobs_per_s"])
    q1, median, q3 = measure.quartiles(overheads)
    return {
        "host": host_snapshot(),
        "jobs_per_trial": len(jobs),
        "trials": trials,
        "workers": workers,
        "calib_median_s": round(calibrator.median_s(), 5),
        "trials_off": results["off"],
        "trials_counters": results["counters"],
        "median_off_jobs_per_s": round(measure.quartiles(
            [t["normalized_jobs_per_s"] for t in results["off"]])[1], 3),
        "median_counters_jobs_per_s": round(measure.quartiles(
            [t["normalized_jobs_per_s"]
             for t in results["counters"]])[1], 3),
        "pair_overheads": [round(v, 4) for v in overheads],
        "raw_pair_overheads": [round(v, 4) for v in raw],
        "overhead_quartiles": [round(q1, 4), round(median, 4),
                               round(q3, 4)],
        "tracing_overhead": round(median, 4),
        "max_overhead": SMOKE_MAX_OVERHEAD if smoke else MAX_OVERHEAD,
        "smoke": smoke,
    }


def check_gates(results: dict) -> None:
    bound = results["max_overhead"]
    assert results["tracing_overhead"] < bound, (
        f"counters-mode tracing costs "
        f"{results['tracing_overhead']:.1%} of serve throughput, the "
        f"median of {results['trials']} paired trials (quartiles "
        f"{results['overhead_quartiles']}; bound {bound:.0%})")
    for trial in results["trials_counters"]:
        roles = {name.split("-")[0] for name in trial["span_files"]}
        assert {"service", "worker"} <= roles, (
            f"a traced trial produced no spans ({trial['span_files']}) "
            f"— the overhead number is meaningless")
        assert trial["run_ms_p50"] > 0, "no latency samples recorded"
    for trial in results["trials_off"]:
        assert not trial["span_files"], (
            f"tracing=off still wrote span files: {trial['span_files']}")


def test_obs_overhead(benchmark):
    results = benchmark.pedantic(lambda: compare(smoke=True),
                                 rounds=1, iterations=1)
    print("\n=== serve tracing overhead (counters vs off) ===")
    print(f"off      : {results['median_off_jobs_per_s']:.3f} jobs/s"
          " (normalized median)")
    print(f"counters : {results['median_counters_jobs_per_s']:.3f} jobs/s")
    q1, _, q3 = results["overhead_quartiles"]
    print(f"overhead : {results['tracing_overhead']:.1%} median pair "
          f"(q1 {q1:.1%}, q3 {q3:.1%}; bound "
          f"{results['max_overhead']:.0%})")
    check_gates(results)


def main(argv):
    smoke = "--smoke" in argv
    results = compare(smoke=smoke)
    print(json.dumps(results, indent=2))
    check_gates(results)
    if not smoke:
        out = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
        out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
