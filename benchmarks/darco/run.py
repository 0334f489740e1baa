#!/usr/bin/env python3
"""The DARCO benchmark: end-to-end and per-layer numbers from one command.

Run from the repository root::

    python3 benchmarks/darco/run.py --workload spec-steady --seed 1 \\
        [--trace 0|1] [--out FILE] [--smoke]
    python3 benchmarks/darco/run.py --record-expected
    python3 benchmarks/darco/run.py --compare parent/*.json change/*.json

A run measures one workload (see ``workloads.py``) from outside: it only
calls public functions of ``repro`` and times them.  It checks every
simulated output against ``expected.json`` and prints, as the last line
of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
(``--trace 0``) or its per-layer metrics (``--trace 1``).  The exit code
is 0 only when every output was correct.

Times and speeds are normalized to the reference host speed by the
calibration loop in ``measure.py``; ``--out`` also keeps the raw values.
See README.md for the workloads, the metrics and how to compare commits.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import pickle
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import measure
from spans import LayerPatches, SpanTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
EXPECTED_FILE = HERE / "expected.json"
#: Scratch space (serve sockets, caches, traces), relative to the
#: repository root, which :func:`main` makes the working directory: the
#: benchmark writes only inside its checkout, and a relative socket path
#: stays under the ~100-byte unix socket limit however deep the checkout.
SCRATCH = Path(".darco_bench")
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 15
#: A run gives up (and exits non-zero) this long after it started, so
#: that it ends within the benchmark interface's 180 s even when a child
#: process hangs.
RUN_LIMIT_S = 170.0
_STARTED = time.monotonic()


def _bootstrap() -> None:
    """Put the checkout's ``src`` on the import path, or stop."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'repro'} not found; run the benchmark "
                 f"from a full checkout of the repository")
    sys.path.insert(0, str(src))


def _load_spec() -> dict:
    try:
        return json.loads(SPEC_FILE.read_text())
    except (OSError, ValueError) as exc:
        sys.exit(f"error: cannot read {SPEC_FILE}: {exc}")


def _load_expected(workload: str) -> dict:
    """The pinned digest of every item of ``workload`` in expected.json;
    empty if missing."""
    try:
        data = json.loads(EXPECTED_FILE.read_text())
        return data["workloads"][workload]["items"]
    except (OSError, ValueError, KeyError):
        return {}


def _layer_names() -> List[str]:
    return [m["name"] for m in _load_spec()["per_layer"]]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: ``prctl`` options (Linux): reap orphaned descendants; signal a child
#: when its parent dies.
PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36


def _prctl(option: int, value: int) -> bool:
    """``prctl(option, value)``; False where the call does not exist."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(option, value, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _die_with_parent() -> None:
    """In a child, before it runs: be killed when the benchmark process
    dies, however it dies (a SIGKILL runs no cleanup of ours)."""
    _prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def _forks_die_with_this_process() -> None:
    """In a pass or set-up child: every process it forks (a serve
    worker) is killed when it dies, as the child is with the benchmark
    process, so a killed run leaves no worker behind either."""
    parent = os.getpid()

    def after_in_child():
        _die_with_parent()
        if os.getppid() != parent:  # died before the line above
            os._exit(1)
    os.register_at_fork(after_in_child=after_in_child)


def _run_child(cmd: List[str], what: str) -> None:
    """Run ``cmd`` (a fresh interpreter) to completion in a process group
    of its own; raises when it fails or outlives the run's time limit.

    On every way out -- success, failure, timeout, interrupt -- the
    group is killed and the child and every process it left (a serve
    worker, say) waited for, so a run leaves no process behind."""
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True,
                            preexec_fn=_die_with_parent)
    try:
        _, err = proc.communicate(
            timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - _STARTED)))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{what} did not end within the run's "
                           f"{RUN_LIMIT_S:g} s") from None
    finally:
        _stop_group(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"{what} failed ({proc.returncode}): "
                           f"{err.decode(errors='replace')[-2000:]}")


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill ``proc``'s process group and wait for ``proc`` and everything
    it left.  The benchmark process is a child subreaper (see
    :func:`main`), so an orphaned descendant becomes its child: once
    ``waitpid`` finds no child at all, every descendant has ended and
    been reaped.  Gives up after 5 s (only a descendant that left the
    group, which nothing the benchmark runs does, could outlive that)."""
    deadline = time.monotonic() + 5.0
    while True:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            return
        if time.monotonic() > deadline:
            return
        time.sleep(0.01)


# ---------------------------------------------------------------------------
# Kernel workloads.
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """One timed item, as a pass reports it."""

    id: str
    seconds: float
    #: Calibration factor of the item's interval (``measure.Calibrator``).
    factor: float
    traced: bool = False
    error: Optional[str] = None
    guest_insns: int = 0
    host_insns: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


def _timed_item(item, expected: Dict[str, str], tracer=None):
    """Run ``item`` (traced when ``tracer`` is given); returns
    ``(t0, t1, outcome, error)``."""
    from workloads import digest, run_item
    outcome, error = None, None
    # Each item starts on an empty collector, as in a fresh process:
    # otherwise the garbage of one item is collected during the next,
    # and the seeded order alone moves item times by ~10%.
    gc.collect()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            outcome = run_item(item)
        else:
            with LayerPatches(tracer):
                tracer.item = item.id
                with tracer.span("item"):
                    outcome = run_item(item)
    except Exception as exc:  # a failed item counts, the run goes on
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if outcome is not None and \
            digest(outcome.simulated) != expected.get(item.id):
        error = "simulated output differs from expected.json"
    return t0, t1, outcome, error


def measure_pass(workload: str, seed: int, index: int, smoke: bool,
                 trace_file: Optional[str]) -> dict:
    """One whole pass over ``workload``, run in a fresh interpreter
    (``--pass-out``) by :func:`measure_workload`.  Returns ``units``
    (every timed item or served job), ``calib_s`` (the calibration
    repetitions) and ``layers`` (the per-layer metrics when
    ``trace_file`` is given; the Chrome trace is written there)."""
    if workload == "serve-zipf":
        return _serve_pass(seed, smoke, trace_file)
    return _kernel_pass(workload, seed, index, smoke, trace_file)


def _kernel_pass(workload, seed, index, smoke, trace_file):
    """Every item, in an order shuffled by ``seed`` and ``index``.
    Traced, every item runs untraced and traced, alternating which goes
    first."""
    from workloads import Item, SMOKE_DIVISOR, kernel_items, run_item
    expected = _load_expected(workload)
    items = kernel_items(workload, smoke)
    order = list(items)
    random.Random(f"{seed}:{index}").shuffle(order)
    first = items[0]
    run_item(Item(first.kernel, first.scale / SMOKE_DIVISOR, first.leg))
    calib = measure.Calibrator()
    calib.sample(measure.CALIB_REPS)
    tracer = SpanTracer() if trace_file else None
    runs = []  # (item, traced, t0, t1, outcome, error)
    for k, item in enumerate(order):
        variants = (None,) if tracer is None else \
            ((None, tracer) if k % 2 == 0 else (tracer, None))
        for t in variants:
            runs.append((item, t is not None)
                        + _timed_item(item, expected, t))
        # Two, so that both repetitions an item's factor takes on each
        # side are next to it.
        calib.sample(2)
    calib.sample(measure.CALIB_REPS)
    samples = [Sample(item.id, t1 - t0, calib.factor(t0, t1), traced, error,
                      *((outcome.guest_insns, outcome.host_insns)
                        if outcome is not None else ()))
               for item, traced, t0, t1, outcome, error in runs]
    layers = None
    if tracer is not None:
        traced = [(item, t1 - t0, outcome)
                  for item, tr, t0, t1, outcome, error in runs
                  if tr and error is None]
        layers = kernel_layers(tracer, traced, samples, calib)
        tracer.write_chrome_trace(trace_file)
    return {"units": samples, "calib_s": [v for _, v in calib.samples],
            "layers": layers}


def _kernel_values(samples: List[Sample], seconds_of,
                   items) -> Dict[str, float]:
    """Speeds of a kernel run over ``items``: Σ insns / Σ seconds, each
    item's seconds being the median of ``seconds_of(sample)`` over the
    whole passes the run made (an item that failed counts in neither
    sum)."""
    by_id: Dict[str, list] = {}
    sample_of: Dict[str, Sample] = {}
    for s in samples:
        if s.ok and not s.traced:
            by_id.setdefault(s.id, []).append(seconds_of(s))
            sample_of[s.id] = s
    seconds = {i: statistics.median(v) for i, v in by_id.items()}

    def kips(ids, kind):
        ran = [i for i in ids if i in seconds]
        return _ratio(sum(getattr(sample_of[i], f"{kind}_insns")
                          for i in ran),
                      sum(seconds[i] for i in ran)) / 1e3

    ids = [item.id for item in items]
    values = {"guest_kips": kips(ids, "guest"),
              "host_kips": kips(ids, "host")}
    legs = {leg: [item.id for item in items if item.leg == leg]
            for leg in ("functional", "timed")}
    if legs["timed"]:
        # Section VI.A: guest and host speed, functional and with timing.
        for leg, ids in legs.items():
            for kind in ("guest", "host"):
                values[f"sixa.{leg}.{kind}_kips"] = kips(ids, kind)
        values["sixa.functional_over_timed"] = _ratio(
            values["sixa.functional.guest_kips"],
            values["sixa.timed.guest_kips"])
    return values


def measure_workload(args, trace_file: Optional[str]) -> dict:
    """Whole passes within ``run_seconds`` of BENCHMARK.json: the first
    always, another only when it should end before the deadline (as long
    as the last one took), and exactly one when traced or ``--smoke``.
    No pass is cut, so every run measures every item (and the serve mix
    its designed hit/miss share).  Every pass runs in a fresh
    interpreter: an item repeated in one process runs up to 30% faster
    (code caches stay warm), a user running ``darco figures`` pays for
    the cold run, and the benchmark process's memory stays the same
    however many passes fit."""
    deadline = time.perf_counter() + _load_spec()["run_seconds"]
    passes: List[dict] = []

    def another() -> bool:
        return not (args.trace or args.smoke) and \
            deadline - time.perf_counter() >= passes[-1]["wall_s"]

    while not passes or another():
        out = SCRATCH / f"pass-{os.getpid()}-{len(passes)}.pickle"
        cmd = [sys.executable, str(HERE / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--pass-index", str(len(passes)), "--pass-out", str(out)]
        cmd += ["--smoke"] if args.smoke else []
        cmd += ["--trace-file", trace_file] if trace_file else []
        out.parent.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        try:
            _run_child(cmd, f"pass {len(passes)}")
            result = pickle.loads(out.read_bytes())
        finally:
            out.unlink(missing_ok=True)
        result["wall_s"] = time.perf_counter() - t0
        passes.append(result)
    units = [u for p in passes for u in p["units"]]
    if args.workload == "serve-zipf":
        done = [s for p in passes for s in p["serve_passes"]
                if not s.traced]
        raw = _serve_values(done, normalize=False)
        norm = _serve_values(done, normalize=True)
    else:
        from workloads import kernel_items
        items = kernel_items(args.workload, args.smoke)
        raw = {**_kernel_values(units, lambda s: s.seconds, items),
               "passes": len(passes)}
        norm = {**_kernel_values(units, lambda s: s.seconds / s.factor,
                                 items), "passes": len(passes)}
    return {"raw": raw, "norm": norm, "units": units,
            "layers": passes[0]["layers"],
            "calib_s": [v for p in passes for v in p["calib_s"]]}


def kernel_layers(tracer, traced, samples: List[Sample],
                  calib) -> Dict[str, float]:
    """Per-layer metrics of a traced kernel pass; ``traced`` holds
    ``(item, seconds, outcome)`` for every correct traced item."""
    ctr: Counter = Counter()
    tol_insns = 0
    for item, _, outcome in traced:
        ctr.update(outcome.counters)
        if item.leg == "timed":
            tol_insns += outcome.counters.get("tol.overhead.total", 0)
    wall = tracer.total_s("item")
    guest = sum(outcome.guest_insns for _, _, outcome in traced)
    sf = tracer.self_s
    bb, sb = tracer.calls("xl.bb"), tracer.calls("xl.sb")
    records = (ctr["timing.annotated.fastpath"]
               + ctr["timing.annotated.fallback"])
    direct = tracer.direct
    layers = dict.fromkeys(_layer_names(), 0.0)
    layers.update({
        "x86.self_s": sf("x86"),
        "x86.share": _ratio(sf("x86"), wall),
        "x86.ns_per_insn": _ratio(sf("x86"), guest) * 1e9,
        "controller.sync_s": sf("controller.sync"),
        "controller.validate_s": sf("controller.validate"),
        "controller.sync_events": (ctr["controller.syscalls"]
                                   + ctr["controller.data_requests"]),
        "im.self_s": sf("im"),
        "im.steps": tracer.calls("im"),
        "im.ns_per_step": _ratio(sf("im"), tracer.calls("im")) * 1e9,
        "xl.bb_count": bb,
        "xl.sb_count": sb,
        "xl.bb_self_s": sf("xl.bb"),
        "xl.sb_self_s": sf("xl.sb"),
        "xl.decode_s": sf("xl.decode"),
        "xl.region_s": sf("xl.region"),
        "xl.ssa_s": sf("xl.ssa"),
        "xl.pass.constfold_s": sf("xl.pass.constfold"),
        "xl.pass.constprop_s": sf("xl.pass.constprop"),
        "xl.pass.cse_s": sf("xl.pass.cse"),
        "xl.pass.dce_s": sf("xl.pass.dce"),
        "xl.schedule_s": sf("xl.schedule"),
        "xl.regalloc_s": sf("xl.regalloc"),
        "xl.codegen_s": sf("xl.codegen"),
        "xl.us_per_translation": _ratio(
            tracer.total_s("xl.bb") + tracer.total_s("xl.sb"), bb + sb)
        * 1e6,
        "host.self_s": sf("host"),
        "host.executes": tracer.calls("host"),
        "host.ns_per_host_insn": _ratio(
            sf("host"), ctr["host.insns.total"] - ctr["host.direct.insns"])
        * 1e9,
        "direct.compile_s": sf("direct.compile"),
        "direct.exec_s": sf("direct.exec"),
        "direct.promotions": direct["promoted"],
        "direct.guest_insns": direct["guest_insns"],
        "direct.promote_ratio": _ratio(direct["promoted"],
                                       direct["attempts"]),
        "timing.batch_s": sf("timing.batch"),
        "timing.records": records,
        "timing.ns_per_record": _ratio(sf("timing.batch"), records) * 1e9,
        "timing.tol_feed_s": sf("timing.tol_feed"),
        "timing.tol_insns": tol_insns,
        "timing.fallback_frac": _ratio(ctr["timing.annotated.fallback"],
                                       records),
        "dispatch.self_s": sf("dispatch"),
        "assemble.self_s": sf("assemble"),
        "other.self_s": sf("item"),
    })
    layers.update(_tol_counts(ctr))
    named = sum(acc.self_s for name, acc in tracer.layers.items()
                if name != "item")
    untraced = {s.id: s.seconds for s in samples if s.ok and not s.traced}
    traced_s = sum(sec for item, sec, _ in traced if item.id in untraced)
    untraced_s = sum(untraced[item.id] for item, _, _ in traced
                     if item.id in untraced)
    layers.update({
        "trace.coverage": _ratio(named, wall),
        "trace.overhead_frac": _ratio(traced_s, untraced_s) - 1.0,
        "host.calib_s": calib.median_s(),
    })
    return layers


def _tol_counts(ctr: Counter) -> Dict[str, float]:
    """Dispatch and code-cache counts from the runs' telemetry."""
    return {
        "tol.translations": (ctr["tol.translations.bb"]
                             + ctr["tol.translations.sb"]
                             + ctr["tol.translations.sbx"]),
        "tol.flushes": ctr["cache.flushes"],
        "tol.chains_made": ctr["tol.chains_made"],
        "tol.ibtc_fills": ctr["tol.ibtc_fills"],
        "tol.rollback_frac": _ratio(
            ctr["tol.rollbacks.assert"] + ctr["tol.rollbacks.spec"],
            ctr["cache.hits"]),
    }


# ---------------------------------------------------------------------------
# serve-zipf.
# ---------------------------------------------------------------------------


@dataclass
class ServePass:
    t0: float
    t1: float
    jobs: list
    health: dict
    traced: bool

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


def _serve_one_pass(sequence, expected, calib, tracer, index) -> ServePass:
    from workloads import ServeHost, serve_pass
    root = SCRATCH / f"serve-{os.getpid()}-{index}"
    root.mkdir(parents=True, exist_ok=True)
    # Calibrate with no service thread competing for the interpreter.
    calib.sample(measure.CALIB_REPS)
    try:
        with ServeHost(str(root)) as host:
            t0 = time.perf_counter()
            jobs = serve_pass(host, sequence, expected, tracer)
            t1 = time.perf_counter()
            with host.client() as client:
                health = client.healthz()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    calib.sample(measure.CALIB_REPS)
    return ServePass(t0, t1, jobs, health, tracer is not None)


def _serve_pass(seed, smoke, trace_file):
    """The serve mix once on a fresh service; traced, once untraced and
    once traced."""
    from workloads import serve_sequence
    expected = _load_expected("serve-zipf")
    sequence = serve_sequence(seed, smoke)
    calib = measure.Calibrator()
    tracer = SpanTracer() if trace_file else None
    passes = [_serve_one_pass(sequence, expected, calib, t, index)
              for index, t in enumerate((None, tracer) if tracer
                                        else (None,))]
    layers = None
    if tracer is not None:
        layers = serve_layers(tracer, passes, calib)
        tracer.write_chrome_trace(trace_file)
    return {"units": [j for p in passes for j in p.jobs],
            "serve_passes": passes,
            "calib_s": [v for _, v in calib.samples], "layers": layers}


def _serve_values(passes: List[ServePass],
                  normalize: bool) -> Dict[str, float]:
    """Speeds of the misses' simulations on the workers (each normalized
    by the calibration repetitions the worker took around it, against
    the median of all the misses' repetitions), and the raw client-side
    latency and throughput."""
    jobs = [j for p in passes for j in p.jobs if j.ok]
    misses = [j for j in jobs if j.miss]
    sim_s = sum(j.run_s for j in misses)
    if normalize and misses:
        run_s = statistics.median(v for j in misses for v in j.calib_s)
        sim_s = sum(j.run_s / measure.calibration_factor(j.calib_s, run_s)
                    for j in misses)
    latency = [j.latency_s for j in jobs]
    values = {
        "guest_kips": _ratio(sum(j.guest_insns for j in misses), sim_s)
        / 1e3,
        "host_kips": _ratio(sum(j.host_insns for j in misses), sim_s)
        / 1e3,
        "job_p50_ms": statistics.median(latency) * 1e3,
        "jobs_per_s": _ratio(len(jobs), sum(p.seconds for p in passes)),
        "passes": len(passes), "jobs": len(jobs), "misses": len(misses)}
    tail = measure.tail(latency)
    if tail is not None:
        values[f"job_p{tail[0]:g}_ms"] = tail[1] * 1e3
    return values


def serve_layers(tracer, passes: List[ServePass], calib) -> Dict[str, float]:
    """Per-layer metrics of a traced serve run: client-side and healthz
    numbers of the traced pass, end-to-end latency of the untraced one."""
    run = next(p for p in passes if p.traced)
    base = next(p for p in passes if not p.traced)
    ok = [j for j in run.jobs if j.ok]
    ctr: Counter = Counter()
    for j in ok:
        if j.miss:
            ctr.update(j.counters)
    hits = [j.latency_s for j in ok if not j.miss]
    misses = [j.latency_s for j in ok if j.miss]
    counters = run.health.get("counters", {})
    latency = run.health.get("latency", {})
    base_values = _serve_values([base], normalize=False)
    layers = dict.fromkeys(_layer_names(), 0.0)
    layers.update(_tol_counts(ctr))
    layers.update({
        "serve.job_p50_ms": base_values["job_p50_ms"],
        "serve.job_p95_ms": base_values.get("job_p95_ms", 0.0),
        "serve.jobs_per_s": base_values["jobs_per_s"],
        "serve.queue_wait_p50_ms": latency.get("queue_wait_ms", {})
        .get("p50", 0.0),
        "serve.run_p50_ms": latency.get("run_ms", {}).get("p50", 0.0),
        "serve.hit_p50_ms": statistics.median(hits) * 1e3 if hits else 0.0,
        "serve.miss_p50_ms": (statistics.median(misses) * 1e3
                              if misses else 0.0),
        "serve.coalesced_frac": _ratio(
            counters.get("serve.coalesced", 0)
            + counters.get("serve.cache_hits", 0),
            counters.get("serve.submitted", 0)),
        "serve.retries": counters.get("serve.retries", 0),
        "serve.shed": counters.get("serve.shed", 0),
        "other.self_s": tracer.self_s("serve.job"),
    })
    named = sum(acc.self_s for name, acc in tracer.layers.items()
                if name != "serve.job")
    layers.update({
        "trace.coverage": _ratio(named, tracer.total_s("serve.job")),
        "trace.overhead_frac": _ratio(run.seconds, base.seconds) - 1.0,
        "host.calib_s": calib.median_s(),
    })
    return layers


# ---------------------------------------------------------------------------
# Set-up time.
# ---------------------------------------------------------------------------


def setup_probe(args) -> None:
    """One cold set-up (run in a fresh interpreter by the parent):
    imports, program assembly, and for serve-zipf the service up to its
    first healthz."""
    from repro.workloads import get_workload
    from workloads import ServeHost, kernel_items
    if args.workload == "serve-zipf":
        root = SCRATCH / f"setup-{os.getpid()}"
        root.mkdir(parents=True, exist_ok=True)
        try:
            with ServeHost(str(root)):
                pass
        finally:
            shutil.rmtree(root, ignore_errors=True)
    else:
        for item in kernel_items(args.workload, args.smoke):
            get_workload(item.kernel).program(scale=item.scale)


def measure_setup(args) -> List[tuple]:
    """``SETUP_PROBES`` cold set-ups as ``(seconds, factor)``, each
    probe's calibration factor from the repetitions around it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload] + (["--smoke"] if args.smoke else [])
    calib = measure.Calibrator()
    calib.sample(measure.CALIB_REPS)
    probes = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        _run_child(cmd, "set-up probe")
        t1 = time.perf_counter()
        calib.sample(2)
        probes.append((t0, t1))
    return [(t1 - t0, calib.factor(t0, t1)) for t0, t1 in probes]


# ---------------------------------------------------------------------------
# One benchmark run.
# ---------------------------------------------------------------------------


def benchmark(args) -> int:
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    spec = _load_spec()
    measure.check_no_hooks()
    expected = _load_expected(args.workload)
    if not expected:
        print(f"error: no pinned digests for {args.workload} in "
              f"{EXPECTED_FILE}", file=sys.stderr)
    trace_file = None
    if args.trace:
        trace_file = args.out + ".trace.json" if args.out else \
            str(SCRATCH / f"trace-{args.workload}-{args.seed}.json")
        Path(trace_file).parent.mkdir(parents=True, exist_ok=True)
    setup = [] if args.trace else measure_setup(args)
    started = time.perf_counter()
    report = measure_workload(args, trace_file)
    elapsed = time.perf_counter() - started
    units = report["units"]
    failed = [f"{u.id}: {u.error}" for u in units if not u.ok]
    raw, normalized = report["raw"], report["norm"]
    if setup:
        raw["setup_s"] = statistics.median(s for s, _ in setup)
        normalized["setup_s"] = statistics.median(s / f for s, f in setup)
    raw["peak_rss_mb"] = normalized["peak_rss_mb"] = measure.peak_rss_mb()

    correct = bool(expected) and not failed
    section = "per_layer" if args.trace else "end_to_end"
    values = report["layers"] if args.trace else normalized
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    for name, entry in metrics.items():
        print(f"{name:28s} {entry['value']:14.6g} {entry['unit']}",
              file=sys.stderr)
    for name, value in sorted(normalized.items()):
        if name not in metrics:
            print(f"  {name:26s} {value:14.6g}", file=sys.stderr)
    for message in failed[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    if trace_file:
        print(f"trace: {trace_file}", file=sys.stderr)
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": spec["run_seconds"], "trace": bool(args.trace),
            "smoke": args.smoke, "measured_s": elapsed,
            "host": measure.host(),
            "calibration": {
                "nominal_s": measure.CALIB_NOMINAL_S,
                "elasticity_run": measure.CALIB_ELASTICITY_RUN,
                "elasticity_burst": measure.CALIB_ELASTICITY_BURST,
                "samples_s": report["calib_s"]},
            "setup_probes": setup,
            "metrics": normalized, "raw": raw,
            "layers": report["layers"],
            "units": [[u.id, u.seconds, getattr(u, "factor", 1.0), u.ok]
                      for u in units],
            "correct": correct, "attempted": len(units),
            "failed": len(failed), "failures": failed[:50],
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(units),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Pinning the expected outputs.
# ---------------------------------------------------------------------------


def record_expected() -> int:
    """Pin every item's digest."""
    from repro.ioutil import content_hash
    from workloads import WORKLOADS, digest, kernel_items, run_item, \
        serve_jobs
    pinned = {}
    for workload in WORKLOADS:
        if workload == "serve-zipf":
            items = serve_jobs() + serve_jobs(smoke=True)
        else:
            items = kernel_items(workload) + kernel_items(workload, True)
        digests = {item.id: digest(run_item(item).simulated)
                   for item in items}
        pinned[workload] = {"digest": content_hash(digests),
                            "items": digests}
        print(f"{workload}: {len(digests)} items, "
              f"{pinned[workload]['digest'][:16]}", file=sys.stderr)
    EXPECTED_FILE.write_text(json.dumps(
        {"about": "sha256 of the canonical JSON of each item's simulated "
                  "outputs; written by run.py --record-expected",
         "workloads": pinned}, indent=1, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Comparing two commits.
# ---------------------------------------------------------------------------


def compare_runs(paths: List[str]) -> int:
    """Per-workload verdicts for two directories of ``--out`` records
    (the first directory named is the parent, the second the change)."""
    groups: Dict[str, list] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        if record.get("trace"):
            continue
        groups.setdefault(str(Path(path).parent), []).append(record)
    if len(groups) != 2:
        sys.exit(f"error: --compare needs runs from exactly two "
                 f"directories, got {sorted(groups)}")
    (parent_dir, parent), (change_dir, change) = groups.items()
    spec = _load_spec()
    print(f"parent: {parent_dir}  change: {change_dir}")
    for workload in sorted({r["workload"] for r in parent + change}):
        p_runs = sorted((r for r in parent if r["workload"] == workload),
                        key=lambda r: r["seed"])
        c_runs = sorted((r for r in change if r["workload"] == workload),
                        key=lambda r: r["seed"])
        n = min(len(p_runs), len(c_runs))
        if n == 0:
            print(f"\n{workload}: missing on one side")
            continue
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        print(f"\n{workload} ({n} pairs)")
        print(f"  {'metric':14s} {'parent q1/med/q3':>30s} "
              f"{'change q1/med/q3':>30s} {'win':>5s} {'worse':>7s} "
              f"{'raw worse':>9s}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            res = measure.compare([r["metrics"][name] for r in p_runs],
                                  [r["metrics"][name] for r in c_runs],
                                  m["better"], m["bound"])
            raw = measure.compare([r["raw"][name] for r in p_runs],
                                  [r["raw"][name] for r in c_runs],
                                  m["better"], m["bound"])

            def fmt(side):
                return (f"{side['q1']:.4g}/{side['median']:.4g}/"
                        f"{side['q3']:.4g}")
            print(f"  {name:14s} {fmt(res['parent']):>30s} "
                  f"{fmt(res['change']):>30s} {res['win_frac']:5.2f} "
                  f"{res['worse_by']:+7.2%} {raw['worse_by']:+9.2%}  "
                  f"{res['verdict']} (raw {raw['verdict']})")
    return 0


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="DARCO benchmark (see benchmarks/darco/README.md)")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="accepted only equal to run_seconds of "
                             "BENCHMARK.json, the fixed run length")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run printing per-layer metrics")
    parser.add_argument("--out", help="write the full record here")
    parser.add_argument("--smoke", action="store_true",
                        help="each workload at ~1/20 size")
    parser.add_argument("--record-expected", action="store_true",
                        help="pin the simulated outputs in expected.json")
    parser.add_argument("--compare", nargs="+", metavar="RUN.json",
                        help="compare two directories of --out records")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    # One pass of a run, in the fresh interpreter measure_workload starts.
    parser.add_argument("--pass-index", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--pass-out", help=argparse.SUPPRESS)
    parser.add_argument("--trace-file", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.record_expected or args.compare or args.workload):
        parser.error("--workload is required")
    if args.seconds is not None and \
            args.seconds != _load_spec()["run_seconds"]:
        # Two commits' runs are comparable only at one run length.
        parser.error(f"--seconds must equal run_seconds of {SPEC_FILE}")
    if args.out:
        args.out = os.path.abspath(args.out)
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    _bootstrap()
    if args.compare:
        return compare_runs(args.compare)
    if args.record_expected:
        return record_expected()
    os.chdir(ROOT)  # SCRATCH is relative to it
    if args.setup_probe or args.pass_out:
        _forks_die_with_this_process()
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.pass_out:
        result = measure_pass(args.workload, args.seed, args.pass_index,
                              args.smoke, args.trace_file)
        Path(args.pass_out).write_bytes(pickle.dumps(result))
        return 0
    # Terminated, exit through the finally clauses that stop the children;
    # a descendant a child orphans becomes this process's to reap.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    _prctl(PR_SET_CHILD_SUBREAPER, 1)
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
