"""Parallel sweep runner with a persistent, content-addressed result cache.

The paper ran DARCO's evaluation as thousands of independent simulations
fanned out on a cluster (§VI); every figure, ablation and case study in
this reproduction is likewise an embarrassingly parallel bag of
independent runs.  :func:`sweep` is the one fan-out point they all share:

- jobs are declarative :class:`SweepJob` records (a registered task name
  plus picklable keyword arguments), so they cross process boundaries and
  hash cleanly;
- execution fans out over ``n_jobs`` worker shards (default
  ``os.cpu_count()``), the supervised worker processes of
  :mod:`repro.serve.supervisor` that ``darco serve`` runs on too;
  ``n_jobs=1`` runs first attempts inline with the exact same task
  functions, so parallelism changes wall-clock only;
- results are memoized in an on-disk cache (``.repro_cache/`` by default)
  keyed by a content hash of the task name, its arguments (configs are
  serialized field by field) and a fingerprint of the whole ``src/repro``
  source tree — any source or config change invalidates cleanly, and an
  unchanged run is an instant replay;
- robustness is per task: a worker exception, crash or timeout degrades
  that one job to an error record (after the retries its
  :class:`~repro.harness.retry.RetryPolicy` allows) without killing the
  sweep; a hung attempt is killed at its own deadline and charges no
  other job.

Results come back as :class:`SweepResult` records in job order; cached
values are plain pickled dataclasses (``KernelMetrics`` et al.) that
round-trip losslessly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import io
import json
import os
import pickle
import time
import traceback
from collections import Counter, deque
from contextlib import redirect_stderr
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.harness.retry import RetryPolicy, SWEEP_DEFAULT

#: Bump when the cache record layout changes (invalidates old entries).
CACHE_VERSION = 1
DEFAULT_CACHE_DIR = ".repro_cache"

_MISS = object()


# ---------------------------------------------------------------------------
# Harness-side error accounting.
# ---------------------------------------------------------------------------

#: Structured counters for exceptions the sweep machinery absorbs
#: (``sweep.errors.*`` namespace).  Expected, narrow error classes —
#: cache corruption, worker death — are handled in place; anything
#: *outside* those classes is still absorbed where crashing would kill
#: an unrelated thousand-run campaign, but lands in
#: ``sweep.errors.swallowed`` with its summary in
#: :data:`SWEEP_ERROR_LOG`, so nothing disappears silently.
SWEEP_ERROR_COUNTERS: Counter = Counter()
#: Most recent absorbed unexpected exceptions, newest last, as
#: ``(context, exception summary)`` pairs.
SWEEP_ERROR_LOG: deque = deque(maxlen=32)


def _record_swallowed(context: str) -> None:
    """Count (and remember) an exception absorbed outside its expected
    error classes."""
    SWEEP_ERROR_COUNTERS["sweep.errors.swallowed"] += 1
    summary = traceback.format_exc().strip().splitlines()[-1]
    SWEEP_ERROR_LOG.append((context, summary))


#: Error classes a damaged, truncated or stale cache entry is expected
#: to raise while unpickling (``IndexError``/``AttributeError``/
#: ``ImportError`` cover records written by a different code version).
CACHE_CORRUPTION_ERRORS = (
    pickle.UnpicklingError, EOFError, OSError, ValueError,
    AttributeError, ImportError, IndexError,
)


# ---------------------------------------------------------------------------
# Content addressing: code fingerprint + job keys.
# ---------------------------------------------------------------------------

#: Root of the source tree covered by the fingerprint.
SOURCE_ROOT = Path(__file__).resolve().parents[1]

_fingerprint_cache: Optional[str] = None


def code_fingerprint(root: Optional[Path] = None) -> str:
    """SHA-256 over every ``*.py`` under ``src/repro`` (path + content).

    Computed once per process for the default root; any source change
    yields a different digest and therefore different cache keys.
    """
    global _fingerprint_cache
    if root is None and _fingerprint_cache is not None:
        return _fingerprint_cache
    base = Path(root) if root is not None else SOURCE_ROOT
    digest = hashlib.sha256()
    for path in sorted(base.rglob("*.py")):
        digest.update(path.relative_to(base).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    result = digest.hexdigest()
    if root is None:
        _fingerprint_cache = result
    return result


def serialize_params(value: Any) -> Any:
    """JSON-able projection of task parameters for hashing.

    Dataclasses (``TolConfig``, ``TimingConfig``, nested cache configs)
    are expanded field by field with their class name, so any field change
    changes the key; unknown objects fall back to ``repr``.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {f.name: serialize_params(getattr(value, f.name))
                       for f in dataclasses.fields(value)},
        }
    if isinstance(value, dict):
        return {str(k): serialize_params(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [serialize_params(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


# ---------------------------------------------------------------------------
# Jobs and results.
# ---------------------------------------------------------------------------


@dataclass
class SweepJob:
    """One unit of sweep work: a registered task plus picklable kwargs."""

    task: str
    params: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self):
        if not self.label:
            hint = self.params.get("workload") or self.params.get("name")
            self.label = f"{self.task}:{hint}" if hint else self.task

    def key(self, fingerprint: Optional[str] = None) -> str:
        payload = {
            "version": CACHE_VERSION,
            "task": self.task,
            "params": serialize_params(self.params),
            "code": fingerprint if fingerprint is not None
            else code_fingerprint(),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class SweepResult:
    """Outcome of one job: a value, or an error record (never both)."""

    job: SweepJob
    value: Any = None
    error: Optional[str] = None
    cached: bool = False
    attempts: int = 0
    duration_s: float = 0.0
    #: Tail of the worker's captured stderr — populated only on failure
    #: (successful and cached results keep it empty, so sweep artifacts
    #: stay byte-identical across resumes).
    stderr_tail: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None


# ---------------------------------------------------------------------------
# Task registry (the only things workers execute).
# ---------------------------------------------------------------------------

_TASKS: Dict[str, Callable] = {}
#: Tasks that accept a ``_checkpoint`` execution parameter (a
#: ``{"dir", "every", "resume"}`` mapping) and can resume a killed or
#: timed-out attempt from its last checkpoint.
_CHECKPOINTABLE: set = set()


def register_task(name: str, checkpointable: bool = False):
    """Register a sweep task under ``name`` (module-level, picklable).

    ``checkpointable`` tasks additionally receive a ``_checkpoint``
    execution parameter when the sweep runs with a checkpoint
    directory; it never participates in the cache key (the key hashes
    the *logical* job, not where its resume points live)."""
    def wrap(fn):
        _TASKS[name] = fn
        if checkpointable:
            _CHECKPOINTABLE.add(name)
        return fn
    return wrap


@register_task("workload_metrics")
def _task_workload_metrics(workload: str, scale: float = 1.0,
                           config=None, validate: bool = True):
    from repro.harness.figures import run_workload_metrics
    from repro.workloads import get_workload
    return run_workload_metrics(get_workload(workload), scale=scale,
                                config=config, validate=validate)


@register_task("timing_report")
def _task_timing_report(workload: str, scale: float = 1.0, config=None,
                        validate: bool = True):
    """Detailed-timing run; the value is the core's cycle report plus
    run identity fields.  Deterministic: the report is bit-identical
    across repeats, job counts, and ``host_fastpath`` (the
    differential suite in tests/test_timing_annotation.py holds the
    forms to identity)."""
    from repro.timing.run import run_with_timing
    from repro.workloads import get_workload
    program = get_workload(workload).program(scale=scale)
    result, _controller, core = run_with_timing(
        program, tol_config=config, validate=validate)
    report = core.report()
    report["exit_code"] = result.exit_code
    report["guest_icount"] = result.guest_icount
    return report


@register_task("ablation")
def _task_ablation(name: str, **kwargs):
    from repro.harness.ablations import run_ablation
    return run_ablation(name, **kwargs)


@register_task("speed")
def _task_speed(workload: str = "429.mcf", scale: float = 0.5, config=None):
    from repro.harness.speed import measure_speed
    return measure_speed(workload_name=workload, scale=scale,
                         config=config)


@register_task("warmup_case")
def _task_warmup_case(workload: str = "473.astar", **kwargs):
    from repro.harness.warmup_case import run_case_study
    return run_case_study(workload_name=workload, **kwargs)


@register_task("fault_run")
def _task_fault_run(site: str, ordinal: int, salt: int,
                    mode: str = "recover", config_overrides=None):
    from repro.resilience.campaign import run_fault_case
    return run_fault_case(site, ordinal, salt, mode=mode,
                          config_overrides=config_overrides)


@register_task("fuzz_case")
def _task_fuzz_case(program: Dict, base_overrides=None, fault=None,
                    os_stdin_b64: str = "", os_seed: int = 0x5EED,
                    max_events: int = 100_000, step_cap: int = 400_000,
                    timing: bool = False, sanitize: bool = True,
                    repro_dir=None):
    """One fuzz candidate through the differential oracle matrix; the
    value is a plain ``FuzzOutcome`` dict (classification, coverage
    edges, finding metadata).  Pure per-candidate: results are
    identical at any ``n_jobs``."""
    import base64
    from dataclasses import asdict
    from repro.fuzz.oracle import evaluate_candidate
    from repro.snapshot.serialize import program_from_dict
    outcome = evaluate_candidate(
        program_from_dict(program),
        base_overrides=base_overrides, fault=fault,
        os_stdin=base64.b64decode(os_stdin_b64 or ""),
        os_seed=os_seed, max_events=max_events, step_cap=step_cap,
        timing=timing, sanitize=sanitize, repro_dir=repro_dir)
    return asdict(outcome)


@register_task("arch_run", checkpointable=True)
def _task_arch_run(workload: str, scale: float = 1.0, config=None,
                   validate: bool = True, _checkpoint=None):
    """Architectural run with checkpoint/resume support: the value is an
    :class:`~repro.snapshot.runner.ArchResult`, bit-identical whether
    the run completed in one attempt or resumed from a checkpoint."""
    from repro.snapshot.runner import run_checkpointed
    from repro.workloads import get_workload
    program = get_workload(workload).program(scale=scale)
    ck = _checkpoint or {}
    value, _ = run_checkpointed(
        program, config=config, validate=validate,
        checkpoint_dir=ck.get("dir"),
        checkpoint_every=ck.get("every", 1),
        resume=ck.get("resume", False))
    return value


def _execute(task: str, params: Dict[str, Any]):
    fn = _TASKS.get(task)
    if fn is None:
        raise KeyError(f"unknown sweep task {task!r}; "
                       f"registered: {', '.join(sorted(_TASKS))}")
    return fn(**params)


#: How much captured worker stderr a failure record keeps.
STDERR_TAIL_CHARS = 2000


def _worker(task: str, params: Dict[str, Any]):
    """Top-level worker entry (picklable); exceptions become records.

    Worker stderr is captured so a failing task's diagnostics (warnings,
    native-layer complaints) survive the process boundary; only the tail
    is kept, and only for failures.

    An optional ``_trace`` exec param (a distributed trace context from
    ``darco serve``) is consumed here, never passed to the task: like
    ``_checkpoint`` it is execution plumbing, excluded from job identity.
    While the job runs the context is active process-wide, so Telemetry
    hubs adopt span tracers; at the end one ``attempt`` span plus every
    collected tracer's events are flushed to the worker's span file.
    """
    start = time.perf_counter()
    captured = io.StringIO()
    trace_wire = params.pop("_trace", None)
    resume = bool((params.get("_checkpoint") or {}).get("resume"))
    ctx = writer = None
    if trace_wire is not None:
        try:
            from repro.telemetry import tracectx
            ctx = tracectx.TraceContext.from_wire(trace_wire.get("ctx"))
            if ctx is not None and ctx.mode != "off":
                writer = tracectx.SpanFileWriter(
                    trace_wire.get("dir", tracectx.DEFAULT_TRACE_DIR),
                    "worker")
                start_us = tracectx.epoch_us()
                # Flushed before execution, so an attempt killed mid-run
                # (SIGKILL, deadline) still leaves its start on the
                # timeline; the closing "attempt" span below only exists
                # for attempts that survive.
                writer.instant("attempt_start", "worker", ctx=ctx,
                               ts_us=start_us, task=task, resume=resume)
                tracectx.activate(ctx)
            else:
                ctx = None
        except Exception:
            ctx = writer = None  # tracing must never fail a job
    try:
        with redirect_stderr(captured):
            value = _execute(task, params)
        result = ("ok", value, time.perf_counter() - start, "")
    except Exception:
        result = ("error", traceback.format_exc(),
                  time.perf_counter() - start,
                  captured.getvalue()[-STDERR_TAIL_CHARS:])
    if ctx is not None:
        try:
            tracers = tracectx.deactivate()
            writer.complete(
                "attempt", "worker", start_us, tracectx.epoch_us(),
                ctx=ctx, task=task, status=result[0], resume=resume)
            for tracer in tracers:
                writer.tracer_events(tracer, ctx=ctx)
        except Exception:
            pass
    return result


# ---------------------------------------------------------------------------
# Persistent on-disk cache.
# ---------------------------------------------------------------------------


class ResultCache:
    """Content-addressed pickle store: ``<dir>/<key[:2]>/<key>.pkl``.

    Entries are written atomically (temp file + rename); a corrupted,
    truncated or key-mismatched entry reads as a miss and is dropped.
    """

    def __init__(self, directory=DEFAULT_CACHE_DIR):
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0

    def cleanup_stale(self, max_age_s: float = 3600.0) -> int:
        """Drop orphaned temp files left by killed writers (see
        :func:`repro.ioutil.cleanup_stale_tmp`); returns count removed."""
        from repro.ioutil import cleanup_stale_tmp
        return cleanup_stale_tmp(self.directory, max_age_s)

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def get(self, key: str):
        """Cached value for ``key``, or the module-level ``_MISS``."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                stored_key, value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return _MISS
        except CACHE_CORRUPTION_ERRORS:
            # Corrupted/truncated/stale entry: a miss, never a crash.
            return self._drop(path)
        except Exception:
            # Not an expected corruption signature.  Still degrade to a
            # miss — one bad entry must never kill a sweep — but record
            # it instead of losing it silently.
            _record_swallowed(f"cache.get:{key[:12]}")
            return self._drop(path)
        if stored_key != key:
            self.misses += 1
            return _MISS
        self.hits += 1
        return value

    def _drop(self, path: Path):
        """Remove an unreadable entry and account a miss."""
        self.misses += 1
        try:
            path.unlink()
        except OSError:
            pass
        return _MISS

    def put(self, key: str, value: Any) -> None:
        from repro.ioutil import atomic_write_bytes
        atomic_write_bytes(
            self._path(key),
            pickle.dumps((key, value), protocol=pickle.HIGHEST_PROTOCOL))


# ---------------------------------------------------------------------------
# The sweep runner.
# ---------------------------------------------------------------------------


def attempt_params(job: SweepJob, key: str, attempt: int, checkpoint_dir,
                   checkpoint_every: int = 1,
                   resume: bool = False) -> Dict[str, Any]:
    """Execution params for attempt ``attempt`` (1-based) of ``job``, in
    sweep and serve alike.  With a ``checkpoint_dir``, checkpointable
    tasks get a ``_checkpoint`` spec under ``<dir>/<key16>/``; it rides
    outside the cache key.  Every attempt after the first resumes from
    the last checkpoint; a first attempt resumes only if ``resume``."""
    if checkpoint_dir is None or job.task not in _CHECKPOINTABLE:
        return job.params
    return {**job.params, "_checkpoint": {
        "dir": str(Path(checkpoint_dir) / key[:16]),
        "every": int(checkpoint_every),
        "resume": bool(resume) or attempt > 1,
    }}


def _attempt_result(job: SweepJob, attempt: int, status: str, payload: Any,
                    duration: float, stderr_tail: str) -> SweepResult:
    """One attempt's :func:`_worker` record as a :class:`SweepResult`."""
    if status == "ok":
        return SweepResult(job=job, value=payload, attempts=attempt,
                           duration_s=duration)
    return SweepResult(job=job, error=payload, attempts=attempt,
                       duration_s=duration, stderr_tail=stderr_tail)


def _run_on_shards(jobs: List[SweepJob], keys: List[str], queue: list,
                   workers: int, timeout: Optional[float],
                   params: Callable, settle: Callable) -> None:
    """Run attempts on ``workers`` shards until ``queue`` and the pool
    drain.

    ``queue`` is a heap of ``(due, index, attempt)`` triples, ``due`` on
    the :func:`time.monotonic` clock; ``settle(index, result)`` takes
    each finished attempt and pushes the job's retry onto ``queue``.
    One synchronous loop, no threads: it waits on the shard pipes and
    wakes at the nearest attempt deadline or retry due time.  An overdue
    attempt is killed by the check the serve reaper runs
    (:meth:`~repro.serve.supervisor.Shard.kill_if_overdue`), and its
    shard respawns for the next attempt.
    """
    from multiprocessing.connection import wait

    from repro.serve.supervisor import Shard
    shards = [Shard(i) for i in range(workers)]
    running: Dict[Any, tuple] = {}   # pipe -> (shard, index, attempt, t0)
    try:
        while queue or running:
            busy = [entry[0] for entry in running.values()]
            idle = [shard for shard in shards if shard not in busy]
            while idle and queue and queue[0][0] <= time.monotonic():
                _due, index, attempt = heapq.heappop(queue)
                shard = idle.pop()
                if not shard.alive:
                    shard.reap()
                    shard.spawn()
                try:
                    shard.send_job(keys[index], jobs[index].task,
                                   params(index, attempt), timeout)
                except OSError:
                    pass  # a dead worker: its EOF is charged below
                except Exception:
                    # Params the pipe cannot carry fail this attempt;
                    # the worker never saw them and stays idle.
                    shard.abort_dispatch()
                    idle.append(shard)
                    settle(index, SweepResult(
                        job=jobs[index], attempts=attempt,
                        error=traceback.format_exc()))
                    continue
                running[shard.conn] = (shard, index, attempt,
                                       time.monotonic())
            wakes = [entry[0].deadline for entry in running.values()
                     if entry[0].deadline is not None]
            if idle and queue:
                wakes.append(queue[0][0])
            for conn in wait(list(running), max(
                    0.0, min(wakes) - time.monotonic()) if wakes else None):
                shard, index, attempt, started = running[conn]
                try:
                    frame = shard.recv()
                except Exception:
                    # Workers turn task exceptions into records, so a
                    # frame this process cannot unpickle is unexpected.
                    _record_swallowed(f"pool.result:{jobs[index].label}")
                    frame = ("done", None, "error",
                             traceback.format_exc(), 0.0, "")
                if frame is not None and frame[0] == "ready":
                    continue
                del running[conn]
                if frame is None:
                    reason = shard.take_crash_context()[1]
                    shard.reap()
                    frame = (None, None, "error",
                             f"timed out after {timeout}s"
                             if reason == "deadline" else
                             "worker process died (crash during task)",
                             time.monotonic() - started, "")
                else:
                    shard.note_job_done()
                settle(index, _attempt_result(jobs[index], attempt,
                                              *frame[2:]))
            now = time.monotonic()
            for shard, *_ in running.values():
                shard.kill_if_overdue(now)
    finally:
        for shard in shards:
            shard.stop()


def sweep(jobs: Iterable[SweepJob],
          n_jobs: Optional[int] = None,
          use_cache: bool = True,
          cache_dir=DEFAULT_CACHE_DIR,
          cache: Optional[ResultCache] = None,
          retries: Optional[int] = None,
          retry: Optional[RetryPolicy] = None,
          timeout: Optional[float] = None,
          progress: Optional[Callable] = None,
          checkpoint_dir=None,
          checkpoint_every: int = 1,
          resume: bool = False) -> List[SweepResult]:
    """Run ``jobs``, fanning out over worker shards, memoizing on disk.

    ``n_jobs``:   worker shards (default ``os.cpu_count()``); ``1`` runs
                  first attempts inline in this process (identical
                  results) and retries on a one-shard pool.
    ``use_cache``/``cache_dir``/``cache``: persistent result cache; pass
                  ``use_cache=False`` to both skip lookups and not write.
    ``retry``:    a :class:`~repro.harness.retry.RetryPolicy` governing
                  re-runs of failed/crashed/timed-out jobs (attempt
                  budget + backoff/jitter between attempts); a retry
                  requeues on the pool once its backoff has passed.
                  Default: :data:`~repro.harness.retry.SWEEP_DEFAULT`
                  (one immediate retry — the historical behaviour).
    ``retries``:  legacy integer shorthand for ``retry`` (N extra
                  attempts, no backoff); ignored when ``retry`` is set.
    ``timeout``:  per-attempt seconds, the same for every attempt on a
                  shard: an attempt past it is killed and charged to
                  its own job only.  Defaults to ``retry.deadline_s``.
    ``progress``: callable ``(result, done_count, total)`` invoked as
                  each job resolves (cache hits first).
    ``checkpoint_dir``: when set, checkpointable tasks write periodic
                  checkpoints under ``<dir>/<key16>/`` and a crashed or
                  timed-out attempt's retry resumes from the last one.
    ``checkpoint_every``: checkpoint cadence in validation boundaries.
    ``resume``:   start every checkpointable task from its last
                  checkpoint if one exists (crash-resumable sweeps:
                  rerun the same command after a kill and completed
                  tasks replay from cache while interrupted ones
                  continue where they stopped).

    Completed results are written to the cache eagerly, as each job
    resolves — a sweep killed mid-flight keeps everything it finished.
    """
    jobs = list(jobs)
    total = len(jobs)
    results: List[Optional[SweepResult]] = [None] * total
    done = 0

    policy = retry
    if policy is None:
        policy = SWEEP_DEFAULT if retries is None else RetryPolicy(
            max_attempts=max(0, retries) + 1,
            base_delay_s=0.0, jitter=0.0)
    if timeout is None:
        timeout = policy.deadline_s

    store = cache
    if store is None and use_cache and cache_dir is not None:
        store = ResultCache(cache_dir)
        store.cleanup_stale()
    fingerprint = code_fingerprint()
    keys = [job.key(fingerprint) for job in jobs]

    def resolve(index: int, result: SweepResult) -> None:
        nonlocal done
        results[index] = result
        done += 1
        if store is not None and result.ok and not result.cached:
            store.put(keys[index], result.value)
        if progress is not None:
            progress(result, done, total)

    def params(index: int, attempt: int) -> Dict[str, Any]:
        return attempt_params(jobs[index], keys[index], attempt,
                              checkpoint_dir, checkpoint_every, resume)

    # Attempts waiting for a shard: a heap of (due, index, attempt).
    queue: list = []

    def settle(index: int, result: SweepResult) -> None:
        """Keep a finished attempt, or queue the retry the policy
        allows after its backoff (jitter seeded by the job key, so the
        schedule is reproducible per job and decorrelated across
        jobs)."""
        if result.ok or not policy.allows(result.attempts):
            resolve(index, result)
            return
        due = time.monotonic() + policy.delay(result.attempts,
                                              seed=keys[index])
        heapq.heappush(queue, (due, index, result.attempts + 1))

    pending: List[int] = []
    for index, job in enumerate(jobs):
        if store is not None:
            value = store.get(keys[index])
            if value is not _MISS:
                resolve(index, SweepResult(job=job, value=value,
                                           cached=True))
                continue
        pending.append(index)

    if n_jobs is None:
        n_jobs = os.cpu_count() or 1
    n_jobs = max(1, int(n_jobs))
    if n_jobs == 1:
        for index in pending:
            settle(index, _attempt_result(
                jobs[index], 1, *_worker(jobs[index].task,
                                         params(index, 1))))
    else:
        queue.extend((0.0, index, 1) for index in pending)
    if queue:
        _run_on_shards(jobs, keys, queue, min(n_jobs, len(queue)),
                       timeout, params, settle)
    return results


def retry_summary(results: List[SweepResult]) -> Dict[str, int]:
    """Retry accounting for a finished sweep: how many tasks needed
    more than one attempt, how many extra attempts were spent, and how
    many tasks were rescued (failed first, succeeded on a retry)."""
    retried = [r for r in results if r.attempts > 1]
    return {
        "tasks_retried": len(retried),
        "extra_attempts": sum(r.attempts - 1 for r in retried),
        "rescued": sum(1 for r in retried if r.ok),
    }


# ---------------------------------------------------------------------------
# Convenience: job builders and reporting.
# ---------------------------------------------------------------------------


def suite_sweep_jobs(scale: float = 1.0, config=None,
                     suites=None, workloads=None,
                     validate: bool = True,
                     task: str = "workload_metrics") -> List[SweepJob]:
    """One job of ``task`` per workload of the paper suite (or an
    explicit ``workloads`` name list).  ``task`` is ``workload_metrics``
    (performance counters) or ``arch_run`` (architectural results with
    checkpoint/resume support).

    Sweeps default to ``recovery_mode="recover"``: one bad translation
    should degrade one data point (with its incidents surfaced), not kill
    a thousand-run campaign.  Pass an explicit ``config`` to override.
    """
    if config is None:
        from repro.tol.config import TolConfig
        config = TolConfig(recovery_mode="recover")
    if workloads is None:
        from repro.workloads import SUITES, suite_workloads
        chosen = suites if suites is not None else SUITES
        workloads = [w.name for suite in chosen
                     for w in suite_workloads(suite)]
    return [SweepJob(task=task,
                     params={"workload": name, "scale": scale,
                             "config": config, "validate": validate},
                     label=name)
            for name in workloads]


#: Counters projected into the compact per-task telemetry digest.
DIGEST_COUNTERS = (
    "tol.guest_icount",
    "tol.translations.bb",
    "tol.translations.sb",
    "cache.hits",
    "cache.misses",
    "host.insns.committed",
    "resilience.incidents",
    "controller.validations",
    "controller.recoveries",
)


def telemetry_digest(value: Any) -> Dict[str, int]:
    """Compact named-counter digest of a task value's telemetry.

    Accepts anything a sweep task returns: objects carrying a
    :class:`~repro.telemetry.TelemetrySnapshot` (``RunResult``) or an
    ``as_dict`` mapping (``KernelMetrics``).  Returns ``{}`` when the
    value carries no telemetry, so digests are safe to compute
    unconditionally.  Every digest value derives from simulated
    quantities — never wall clock — keeping sweep artifacts
    byte-identical across resumes and parallelism levels.
    """
    telem = getattr(value, "telemetry", None)
    if telem is None:
        return {}
    counters = getattr(telem, "counters", None)
    if counters is None and isinstance(telem, dict):
        counters = telem.get("counters", {})
    if not counters:
        return {}
    return {k: counters[k] for k in DIGEST_COUNTERS if k in counters}


def merged_telemetry(results: List[SweepResult]):
    """Fold the telemetry of every successful result into one
    :class:`~repro.telemetry.TelemetrySnapshot` (counters and histogram
    buckets sum, gauges keep the peak); ``None`` when no result carried
    telemetry."""
    from repro.telemetry import merge_snapshots
    snaps = []
    for result in results:
        if not result.ok:
            continue
        telem = getattr(result.value, "telemetry", None)
        if telem:
            snaps.append(telem)
    return merge_snapshots(snaps)


def _incident_note(value: Any) -> str:
    """`` incidents=N`` when the task's value carries a nonzero incident
    count (``KernelMetrics.extras`` or ``FaultRunRecord``-like objects)."""
    count = 0
    extras = getattr(value, "extras", None)
    if isinstance(extras, dict):
        count = extras.get("incidents", 0) or 0
    else:
        count = getattr(value, "incidents", 0) or 0
    return f" incidents={count}" if count else ""


def print_progress(result: SweepResult, done: int, total: int) -> None:
    """Default per-task progress line for CLI/benchmark drivers."""
    if result.ok:
        note = "cached" if result.cached else f"{result.duration_s:.2f}s"
        retry_note = (f" retries={result.attempts - 1}"
                      if result.attempts > 1 else "")
        print(f"[{done}/{total}] {result.job.label:<24} ok    ({note})"
              f"{_incident_note(result.value)}{retry_note}",
              flush=True)
    else:
        reason = result.error.strip().splitlines()[-1]
        print(f"[{done}/{total}] {result.job.label:<24} FAIL  "
              f"({result.attempts} attempts): {reason}", flush=True)


def raise_on_errors(results: List[SweepResult]) -> List[Any]:
    """Values of ``results`` in order; raises if any job failed."""
    errors = [r for r in results if not r.ok]
    if errors:
        detail = "\n".join(
            f"--- {r.job.label} ({r.attempts} attempts) ---\n{r.error}"
            for r in errors)
        raise RuntimeError(
            f"{len(errors)}/{len(results)} sweep jobs failed:\n{detail}")
    return [r.value for r in results]
