"""darco serve under load: throughput, latency, coalescing, chaos.

A load generator drives an in-process serve instance (real unix socket,
real supervised worker processes) with a zipf-distributed job mix — a
few hot jobs dominate, exactly the multi-tenant pattern the coalescing
tier exists for — and reports:

- accepted-jobs throughput (jobs/sec) and end-to-end latency p50/p99;
- the cache-coalescing rate: the fraction of submissions answered by
  riding an in-flight run or replaying the shared result cache instead
  of consuming a worker;
- a **chaos** section: workers are SIGKILLed mid-job on a timer while a
  batch of checkpointable jobs runs.  The acceptance bar is absolute —
  every accepted job still completes, and every result is bit-identical
  to a clean, uninterrupted run of the same job.

Run as a script to (re)generate ``BENCH_serve.json`` at the repo root:

    PYTHONPATH=src python benchmarks/bench_serve.py [--smoke]
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.harness.parallel import _execute
from repro.harness.retry import RetryPolicy
from repro.ioutil import canonical_json
from repro.hostinfo import host_snapshot
from repro.serve import ServeClient, ServeConfig, ServeService
from repro.serve.service import wire_value

#: Zipf exponent for the job mix (1.1: heavy head, long tail).
ZIPF_S = 1.1
SEED = 20170424  # ISPASS'17

LOAD_WORKLOADS = ("429.mcf", "462.libquantum", "continuous", "ragdoll",
                  "433.milc", "blend")
LOAD_SCALES = (0.05, 0.1)
LOAD_SUBMISSIONS = 48

CHAOS_WORKLOADS = ("429.mcf", "462.libquantum", "continuous")
#: Each chaos job runs 1.5-2.5 s with checkpoints, several kill periods,
#: so the killer lands mid-job.
CHAOS_SCALE = 3.0
CHAOS_KILL_PERIOD_S = 0.6


class ServeUnderTest:
    """An in-process service on a background loop + a client."""

    def __init__(self, root: str, **kw):
        self.sock = os.path.join(root, "serve.sock")
        kw.setdefault("cache_dir", os.path.join(root, "cache"))
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


def _zipf_mix(jobs, n, seed=SEED):
    """``n`` draws from ``jobs`` with zipf(rank) weights."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(jobs))]
    return rng.choices(jobs, weights=weights, k=n)


def _percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def run_load(workers=2, submissions=LOAD_SUBMISSIONS,
             workloads=LOAD_WORKLOADS, scales=LOAD_SCALES):
    """Drive the zipf mix through a fresh service; returns the stats."""
    distinct = [{"workload": w, "scale": s}
                for w in workloads for s in scales]
    mix = _zipf_mix(distinct, submissions)
    root = tempfile.mkdtemp(prefix="bench_serve_")
    try:
        with ServeUnderTest(root, workers=workers) as host:
            with host.client() as client:
                inflight = []  # (job_id, t_submit)
                latencies = []
                start = time.perf_counter()
                for params in mix:
                    reply = client.submit("workload_metrics", params)
                    assert reply["code"] in (200, 202, 203), reply
                    inflight.append((reply["job"], time.perf_counter()))
                pending = dict(inflight[::-1])  # job -> first submit t
                for job, t_submit in inflight:
                    pending.setdefault(job, t_submit)
                while pending:
                    for job in list(pending):
                        status = client.status(job)
                        if status.get("state") in ("done", "failed"):
                            assert status["state"] == "done", status
                            latencies.append(
                                time.perf_counter() - pending.pop(job))
                    time.sleep(0.02)
                wall = time.perf_counter() - start
                health = client.healthz()
                counters = health["counters"]
        submitted = counters["serve.submitted"]
        coalesced = (counters.get("serve.coalesced", 0)
                     + counters.get("serve.cache_hits", 0))
        return {
            "submissions": submissions,
            "distinct_jobs": len(distinct),
            "workers": workers,
            "wall_s": round(wall, 3),
            "jobs_per_s": round(submissions / wall, 2),
            "latency_p50_s": round(_percentile(latencies, 0.50), 4),
            "latency_p99_s": round(_percentile(latencies, 0.99), 4),
            "coalescing_rate": round(coalesced / submitted, 3),
            "counters": counters,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _chaos_killer(sock_path, stop, period_s, kills, max_kills):
    """SIGKILL whichever worker is busy, every ``period_s`` seconds.

    Kills are bounded so chaos stays distinguishable from denial of
    service: a job must be able to out-progress the killer via its
    checkpoints, not merely out-retry it."""
    with ServeClient(socket_path=sock_path) as client:
        while not stop.is_set() and len(kills) < max_kills:
            stop.wait(period_s)
            if stop.is_set():
                return
            try:
                busy = [w for w in client.healthz()["workers"]
                        if w["state"] == "busy" and w["pid"]]
            except Exception:
                return
            if busy:
                try:
                    os.kill(busy[0]["pid"], signal.SIGKILL)
                    kills.append(busy[0]["pid"])
                except ProcessLookupError:
                    pass


def run_chaos(workers=2, workloads=CHAOS_WORKLOADS, scale=CHAOS_SCALE,
              kill_period_s=CHAOS_KILL_PERIOD_S, max_kills=4):
    """Kill workers mid-job; every accepted job must still finish with
    a result bit-identical to a clean in-process run."""
    specs = [{"workload": w, "scale": scale} for w in workloads]
    clean = {w["workload"]: canonical_json(
        wire_value(_execute("arch_run", dict(w)))) for w in specs}

    root = tempfile.mkdtemp(prefix="bench_serve_chaos_")
    kills, stop = [], threading.Event()
    try:
        with ServeUnderTest(
                root, workers=workers, use_cache=False,
                checkpoint_dir=os.path.join(root, "ckpt"),
                retry=RetryPolicy(max_attempts=8, base_delay_s=0.02,
                                  max_delay_s=0.5, jitter=0.5)) as host:
            killer = threading.Thread(
                target=_chaos_killer,
                args=(host.sock, stop, kill_period_s, kills, max_kills),
                daemon=True)
            killer.start()
            with host.client() as client:
                accepted = {}
                for spec in specs:
                    reply = client.submit("arch_run", spec,
                                          max_attempts=8)
                    assert reply["code"] == 202, reply
                    accepted[reply["job"]] = spec["workload"]
                finals = {}
                for job, workload in accepted.items():
                    finals[workload] = client.wait(job, timeout=600)
                stop.set()
                killer.join(10)
                counters = client.healthz()["counters"]
        completed = {w: f["state"] == "done" for w, f in finals.items()}
        identical = {w: canonical_json(f.get("value")) == clean[w]
                     for w, f in finals.items()}
        attempts = {w: f["attempts"] for w, f in finals.items()}
        return {
            "jobs": len(specs),
            "scale": scale,
            "worker_kills": len(kills),
            "worker_deaths_seen": counters.get("serve.worker_deaths", 0),
            "worker_restarts": counters.get("serve.worker_restarts", 0),
            "attempts_per_job": attempts,
            "all_completed": all(completed.values()),
            "bit_identical_to_clean_run": all(identical.values()),
        }
    finally:
        stop.set()
        shutil.rmtree(root, ignore_errors=True)


def check_gates(results, smoke: bool = False) -> None:
    load, chaos = results["load"], results["chaos"]
    assert load["jobs_per_s"] > 0
    assert load["coalescing_rate"] > 0, (
        "zipf mix produced no coalescing/cache sharing")
    assert chaos["all_completed"], "an accepted job was lost to chaos"
    assert chaos["bit_identical_to_clean_run"], (
        "chaos changed a result: determinism contract broken")
    if not smoke:
        assert chaos["worker_kills"] > 0, "chaos mode never killed"


def compare(smoke: bool = False):
    if smoke:
        load = run_load(submissions=12,
                        workloads=LOAD_WORKLOADS[:3], scales=(0.05,))
        chaos = run_chaos(workloads=CHAOS_WORKLOADS[:2], scale=0.2,
                          kill_period_s=0.5, max_kills=2)
    else:
        load = run_load()
        chaos = run_chaos()
    return {
        "host": host_snapshot(),
        "zipf_s": ZIPF_S,
        "seed": SEED,
        "load": load,
        "chaos": chaos,
    }


def test_serve_load_and_chaos(benchmark):
    results = benchmark.pedantic(lambda: compare(smoke=True),
                                 rounds=1, iterations=1)
    print("\n=== darco serve: load + chaos ===")
    load, chaos = results["load"], results["chaos"]
    print(f"throughput : {load['jobs_per_s']:.2f} jobs/s "
          f"(p50 {load['latency_p50_s']:.3f}s, "
          f"p99 {load['latency_p99_s']:.3f}s)")
    print(f"coalescing : {load['coalescing_rate']:.1%}")
    print(f"chaos      : {chaos['worker_kills']} kills, "
          f"completed={chaos['all_completed']}, "
          f"bit-identical={chaos['bit_identical_to_clean_run']}")
    check_gates(results, smoke=True)


def main(argv):
    smoke = "--smoke" in argv
    results = compare(smoke=smoke)
    print(json.dumps(results, indent=2))
    check_gates(results, smoke=smoke)
    if not smoke:
        out = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
        out.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
