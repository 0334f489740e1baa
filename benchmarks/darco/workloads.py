"""The DARCO benchmark's four workloads.

Each workload exercises a different set of layers, so an optimization of
one layer shows on the workload built around it and not on another:

- ``spec-steady``: the 24 SPEC kernels at scale 0.2 through
  ``run_workload_metrics`` (validation on) -- the Fig. 4-7 SPEC rows.
  Steady-state superblock/direct-tier execution; the authoritative x86
  component takes most of the wall time.
- ``physics-cold``: the 7 Physicsbench kernels at scale 0.5 through
  ``run_workload_metrics``.  Cold code: interpreter, BB translation,
  superblock formation, optimization passes and code generation, with
  code-cache writes beside reads.
- ``speed-timed``: the paper's section VI.A.  429.mcf, 433.milc and
  ragdoll at scale 0.25, each once functional (``run_codesigned``) and
  once with the timing simulator (``run_with_timing``), validation off.
  The only workload that runs the timing layer.
- ``serve-zipf``: a closed loop of two clients through a real
  ``ServeService`` with two workers: 60 distinct ``run_workload_metrics``
  jobs, each first submitted once (a cache miss that runs a worker),
  plus 140 zipf(1.1) repeats (coalesced or cached hits).

The kernel scales are a fraction of the Fig. 4-7 ones so that a whole
pass fits in a run's ``run_seconds`` on a busy host too (see README.md).

Every item's simulated output is projected to the fields that must not
change (no wall clock) and hashed; :mod:`run` compares the hash with
``expected.json``.
"""

from __future__ import annotations

import asyncio
import os
import random
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import measure
from repro.harness.figures import run_workload_metrics
from repro.harness.parallel import register_task, serialize_params
from repro.ioutil import content_hash
from repro.serve import ServeClient, ServeConfig, ServeService
from repro.system.controller import run_codesigned
from repro.timing.run import run_with_timing
from repro.workloads import PHYSICS, SPECFP, SPECINT, get_workload, \
    suite_workloads

WORKLOADS = ("spec-steady", "physics-cold", "speed-timed", "serve-zipf")

SPEC_SCALE = 0.2
PHYSICS_SCALE = 0.5
SPEED_SCALE = 0.25
SPEED_KERNELS = ("429.mcf", "433.milc", "ragdoll")

#: Twenty kernels from all three suites, each at three small scales.
SERVE_KERNELS = (
    "400.perlbench", "401.bzip2", "403.gcc", "429.mcf", "445.gobmk",
    "458.sjeng", "462.libquantum", "464.h264ref", "471.omnetpp",
    "473.astar", "410.bwaves", "433.milc", "435.gromacs", "444.namd",
    "470.lbm", "482.sphinx3", "continuous", "deformable", "periodic",
    "ragdoll",
)
SERVE_SCALES = (0.05, 0.08, 0.12)
SERVE_SUBMISSIONS = 200
SERVE_WORKERS = 2
SERVE_CLIENTS = 2
ZIPF_S = 1.1

#: ``--smoke`` divides kernel scales by this and shrinks the serve mix.
SMOKE_DIVISOR = 20
SMOKE_SERVE_KERNELS = SERVE_KERNELS[:2]
SMOKE_SERVE_SUBMISSIONS = 20


# ---------------------------------------------------------------------------
# Kernel items.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Item:
    """One kernel run: ``metrics`` (Fig. 4-7 row, validated),
    ``functional`` or ``timed`` (section VI.A legs, not validated)."""

    kernel: str
    scale: float
    leg: str = "metrics"

    @property
    def id(self) -> str:
        base = f"{self.kernel}@{self.scale:g}"
        return base if self.leg == "metrics" else f"{base}:{self.leg}"


@dataclass
class Outcome:
    """What one item produced."""

    guest_insns: int
    host_insns: int
    #: The simulated outputs the correctness digest covers.
    simulated: Dict[str, object]
    #: Telemetry counters of the run (per-layer counts).
    counters: Dict[str, int] = field(default_factory=dict)


def kernel_items(workload: str, smoke: bool = False) -> List[Item]:
    """The items of one pass over a kernel workload, in canonical order."""
    div = SMOKE_DIVISOR if smoke else 1
    if workload == "spec-steady":
        return [Item(w.name, SPEC_SCALE / div)
                for suite in (SPECINT, SPECFP)
                for w in suite_workloads(suite)]
    if workload == "physics-cold":
        return [Item(w.name, PHYSICS_SCALE / div)
                for w in suite_workloads(PHYSICS)]
    if workload == "speed-timed":
        return [Item(name, SPEED_SCALE / div, leg)
                for name in SPEED_KERNELS
                for leg in ("functional", "timed")]
    raise KeyError(f"{workload!r} is not a kernel workload")


def metrics_projection(wire: Dict[str, object]) -> Dict[str, object]:
    """The Fig. 4-7 fields of a ``KernelMetrics`` in its wire form, minus
    the telemetry dict (it carries wall-clock-only counters)."""
    fields = dict(wire["fields"])
    fields.pop("telemetry", None)
    return fields


def digest(simulated: Dict[str, object]) -> str:
    return content_hash(simulated)


def _counters(telemetry) -> Dict[str, int]:
    if telemetry is None:
        return {}
    if hasattr(telemetry, "as_dict"):
        telemetry = telemetry.as_dict()
    return dict(telemetry.get("counters", {}))


def run_item(item: Item) -> Outcome:
    """Run one item; raises when the guest program does not exit 0."""
    workload = get_workload(item.kernel)
    if item.leg == "metrics":
        km = run_workload_metrics(workload, scale=item.scale)
        return Outcome(
            guest_insns=km.guest_icount,
            host_insns=km.app_host_insns + km.tol_host_insns,
            simulated=metrics_projection(serialize_params(km)),
            counters=_counters(km.telemetry))
    program = workload.program(scale=item.scale)
    if item.leg == "functional":
        result, controller = run_codesigned(program, validate=False)
        tol = controller.codesigned.tol
        host = tol.app_host_insns + tol.tol_overhead_insns
        simulated = {"guest_icount": result.guest_icount,
                     "exit_code": result.exit_code,
                     "app_host_insns": tol.app_host_insns,
                     "tol_host_insns": tol.tol_overhead_insns}
    elif item.leg == "timed":
        result, controller, core = run_with_timing(
            program, include_tol_overhead=True, validate=False)
        host = core.finalize().instructions
        simulated = {"guest_icount": result.guest_icount,
                     "exit_code": result.exit_code,
                     "report": core.report()}
    else:
        raise KeyError(f"unknown leg {item.leg!r}")
    if result.exit_code != 0:
        raise RuntimeError(f"{item.id} exited with {result.exit_code}")
    return Outcome(guest_insns=result.guest_icount, host_insns=host,
                   simulated=serialize_params(simulated),
                   counters=_counters(result.telemetry))


# ---------------------------------------------------------------------------
# serve-zipf.
# ---------------------------------------------------------------------------


#: The task the serve mix submits: ``run_workload_metrics`` between two
#: calibration repetitions, registered through the public
#: ``register_task`` before the service forks its workers.  A miss's run
#: time is normalized on the worker that ran it: the benchmark process's
#: own calibration says nothing about the processors the workers ran on.
SERVE_TASK = "darco_bench.workload_metrics"


def _calibrated_workload_metrics(workload: str, scale: float):
    before = measure.calibration_rep()
    t0 = time.perf_counter()
    metrics = run_workload_metrics(get_workload(workload), scale=scale)
    run_s = time.perf_counter() - t0
    after = measure.calibration_rep()
    return {"metrics": metrics, "run_s": run_s, "calib_s": [before, after]}


def serve_jobs(smoke: bool = False) -> List[Item]:
    """The distinct jobs of the serve mix (``metrics`` items)."""
    kernels = SMOKE_SERVE_KERNELS if smoke else SERVE_KERNELS
    return [Item(k, s) for k in kernels for s in SERVE_SCALES]


def serve_sequence(seed: int, smoke: bool = False) -> List[Item]:
    """The submission order: every distinct job first appears once, at
    evenly spread positions, in a seeded order that is also its
    popularity rank; every other position repeats an already-submitted
    job with zipf(``ZIPF_S``) weights over that rank."""
    rng = random.Random(seed)
    jobs = serve_jobs(smoke)
    rng.shuffle(jobs)
    n = SMOKE_SERVE_SUBMISSIONS if smoke else SERVE_SUBMISSIONS
    firsts = {round(i * n / len(jobs)): i for i in range(len(jobs))}
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(jobs))]
    sequence, seen = [], 0
    for slot in range(n):
        if slot in firsts:
            seen = firsts[slot] + 1
            sequence.append(jobs[firsts[slot]])
        else:
            sequence.append(rng.choices(jobs[:seen],
                                        weights=weights[:seen])[0])
    return sequence


class ServeHost:
    """A ``ServeService`` on a background event-loop thread, with its
    socket, result cache and span files under ``root`` (pass a relative
    path: a unix socket path is limited to ~100 bytes, and a checkout's
    absolute path may be longer)."""

    def __init__(self, root: str, workers: int = SERVE_WORKERS):
        register_task(SERVE_TASK)(_calibrated_workload_metrics)
        self.sock = os.path.join(root, "serve.sock")
        self.config = ServeConfig(
            socket_path=self.sock, workers=workers,
            cache_dir=os.path.join(root, "cache"),
            trace_dir=os.path.join(root, "traces"))
        self.service: Optional[ServeService] = None
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "ServeHost":
        self.service = ServeService(self.config)

        async def _run():
            await self.service.start()
            self._ready.set()
            await self.service.serve_until_shutdown()

        self._thread = threading.Thread(target=lambda: asyncio.run(_run()),
                                        name="darco-bench-serve")
        self._thread.start()
        if not self._ready.wait(60):
            raise RuntimeError("serve did not start within 60 s")
        with self.client() as client:
            health = client.healthz()
        if not health.get("live"):
            raise RuntimeError(f"serve not live: {health}")
        return self

    def __exit__(self, *exc) -> None:
        try:
            with self.client() as client:
                client.shutdown()
        finally:
            self._thread.join(60)
        if self._thread.is_alive():
            raise RuntimeError("serve did not stop within 60 s")

    def client(self) -> ServeClient:
        return ServeClient(socket_path=self.sock, timeout=120.0)


@dataclass
class JobSample:
    """One submission, from submit to fetched result."""

    id: str
    miss: bool
    latency_s: float
    ok: bool
    guest_insns: int = 0
    host_insns: int = 0
    #: For a miss: the simulation's seconds on the worker, and the
    #: calibration repetitions just before and after it there.
    run_s: float = 0.0
    calib_s: tuple = ()
    counters: Dict[str, int] = field(default_factory=dict)
    error: str = ""

    @property
    def seconds(self) -> float:
        return self.latency_s


def _no_span(_name: str):
    return nullcontext()


def _one_job(client: ServeClient, item: Item, expected: Dict[str, str],
             tracer=None) -> JobSample:
    span = _no_span
    if tracer is not None:
        span = tracer.span
        tracer.item = item.id
    t0 = time.perf_counter()
    with span("serve.job"):
        with span("serve.submit"):
            reply = client.submit(SERVE_TASK, {"workload": item.kernel,
                                               "scale": item.scale})
        code = reply.get("code")
        if code not in (200, 202):
            return JobSample(item.id, False, time.perf_counter() - t0, False,
                             error=f"submit answered {code}: "
                                   f"{reply.get('error')}")
        miss = code == 202 and not reply.get("coalesced")
        if reply.get("state") not in ("done", "failed"):
            with span("serve.watch"):
                for _update in client.watch(reply["job"]):
                    pass
        with span("serve.fetch"):
            final = client.fetch(reply["job"])
    latency = time.perf_counter() - t0
    if final.get("state") != "done" or final.get("stale"):
        return JobSample(item.id, miss, latency, False,
                         error=f"job ended {final.get('state')}: "
                               f"{final.get('last_error')}")
    value = final["value"]
    fields = value["metrics"]["fields"]
    ok = digest(metrics_projection(value["metrics"])) == \
        expected.get(item.id)
    return JobSample(
        item.id, miss, latency, ok,
        guest_insns=fields["guest_icount"],
        host_insns=fields["app_host_insns"] + fields["tol_host_insns"],
        run_s=value["run_s"], calib_s=tuple(value["calib_s"]),
        counters=dict(fields.get("telemetry", {}).get("counters", {})),
        error="" if ok else "served value differs from the pinned digest")


def serve_pass(host: ServeHost, sequence: List[Item],
               expected: Dict[str, str], tracer=None) -> List[JobSample]:
    """Drive ``sequence`` through ``host`` with ``SERVE_CLIENTS`` closed-loop
    clients (one thread and one connection each)."""
    samples: List[JobSample] = []
    errors: List[BaseException] = []
    lock = threading.Lock()
    cursor = iter(sequence)

    def client_loop():
        try:
            with host.client() as client:
                while True:
                    with lock:
                        item = next(cursor, None)
                    if item is None:
                        return
                    sample = _one_job(client, item, expected, tracer)
                    with lock:
                        samples.append(sample)
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=client_loop,
                                name=f"darco-bench-client-{i}")
               for i in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return samples
