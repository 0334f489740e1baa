"""Observability overhead: serve throughput with tracing on vs off.

The tracing design note (DESIGN.md §13) claims counters-mode tracing —
the serve default: a handful of lifecycle spans per job written by the
service and the worker, plus the always-on flight recorder — is cheap
enough to leave on in production.  This benchmark is that claim as a
gate: the same distinct-job load (no coalescing — every submission does
real simulation work) is driven through two fresh service instances,
one with ``tracing="off"`` and one with ``tracing="counters"``, and the
throughput penalty must stay under :data:`MAX_OVERHEAD` (5%).

Each mode runs :data:`TRIALS` times, interleaved so machine drift hits
both sides equally, and the gate compares the modes' *median*
throughput — span I/O cost is present in every traced trial, while a
single lucky (or unlucky) trial is exactly what a median discards.  The
traced
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

from repro.hostinfo import host_snapshot
from repro.serve import ServeClient, ServeConfig, ServeService

#: The hard gate: counters-mode tracing may cost at most this fraction
#: of untraced throughput (full runs; smoke runs are tiny and noisy, so
#: they gate at SMOKE_MAX_OVERHEAD instead).
MAX_OVERHEAD = 0.05
SMOKE_MAX_OVERHEAD = 0.25

TRIALS = 5
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

    results = {"off": [], "counters": []}
    # Interleave the modes so drift (thermal, cache, background load)
    # hits both sides equally.
    for _ in range(trials):
        for mode in ("off", "counters"):
            results[mode].append(run_trial(mode, jobs, workers))

    def median_rate(rs):
        ordered = sorted(r["jobs_per_s"] for r in rs)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    off_rate = median_rate(results["off"])
    traced_rate = median_rate(results["counters"])
    # Signed: a traced median above the untraced one reads negative, so
    # the recorded number shows the noise instead of hiding it as 0.0.
    overhead = (off_rate - traced_rate) / off_rate
    return {
        "host": host_snapshot(),
        "jobs_per_trial": len(jobs),
        "trials": trials,
        "workers": workers,
        "trials_off": results["off"],
        "trials_counters": results["counters"],
        "median_off_jobs_per_s": round(off_rate, 3),
        "median_counters_jobs_per_s": round(traced_rate, 3),
        "tracing_overhead": round(overhead, 4),
        "max_overhead": SMOKE_MAX_OVERHEAD if smoke else MAX_OVERHEAD,
        "smoke": smoke,
    }


def check_gates(results: dict) -> None:
    bound = results["max_overhead"]
    assert results["tracing_overhead"] < bound, (
        f"counters-mode tracing costs "
        f"{results['tracing_overhead']:.1%} of serve throughput "
        f"(bound {bound:.0%})")
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
    print(f"off      : {results['median_off_jobs_per_s']:.3f} jobs/s")
    print(f"counters : {results['median_counters_jobs_per_s']:.3f} jobs/s")
    print(f"overhead : {results['tracing_overhead']:.1%} "
          f"(bound {results['max_overhead']:.0%})")
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
