"""The serve front end: admission, coalescing, degradation, supervision.

Robustness model (DESIGN.md §11):

- **Admission control.**  Accepted jobs live in a job table plus one
  dispatch queue bounded by ``max_pending``; past the bound, new work
  is *shed explicitly* (429 + ``retry_after_s`` derived from the
  observed service rate) instead of growing memory without bound.
  Already-accepted jobs bypass the bound on retry — acceptance is a
  completion promise, shedding happens only at the door.  Client
  budgets (``deadline_s``, ``max_attempts``) are validated at the door
  too: garbage is the submitter's 400, never a worker-pool exception.
  Completed/failed table entries are bounded as well
  (``max_terminal_entries``, oldest-finished evicted; the stale index
  is an LRU under ``max_stale_entries``) — evicted results remain
  fetchable by full key from the on-disk result cache.
- **Coalescing.**  Job identity is the sweep runner's content-addressed
  cache key, so identical submissions — same task, params, config and
  source fingerprint, from any number of tenants — ride one run and one
  table entry; completed results land in the shared
  :class:`~repro.harness.parallel.ResultCache`, where both later
  submissions and ``darco sweep`` replay them for free.
- **Supervision.**  Worker shards (:mod:`repro.serve.supervisor`) are
  restarted on death with exponential backoff + jitter; the in-flight
  job's attempt is charged against its bounded retry budget and the job
  requeues (resuming from its last checkpoint when the task supports
  it) or fails with the death recorded.  A reaper enforces per-job
  deadlines by killing the worker — the deadline path and the chaos
  path are the same code.
- **Graceful degradation.**  Under overload the service still answers:
  cache hits are served from the shared result cache without touching
  the queue, and when a full queue forces shedding, a previously
  completed result for the same *logical* job (any source fingerprint)
  is served instead with ``stale: true`` and the fingerprint it was
  computed at (203, never silently).  ``healthz`` is answered inline by
  the event loop, so liveness never queues behind simulation work.

Wall-clock note: unlike the simulator underneath it, the service layer
is *about* wall clock (deadlines, backoff, latency gauges).  The
determinism contract lives one level down — job *values* remain
bit-identical however many times, on whichever shard, a job ran.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.harness.parallel import (
    _MISS, _TASKS, ResultCache, SweepJob, attempt_params,
    code_fingerprint, serialize_params, telemetry_digest,
)
from repro.harness.retry import RetryPolicy
from repro.hostinfo import host_snapshot
from repro.serve import protocol
from repro.serve.flightrec import FlightRecorder
from repro.serve.supervisor import (
    STATE_BACKOFF, STATE_BUSY, STATE_IDLE, Shard, shared_code,
)
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.timeseries import TimeSeriesScraper
from repro.telemetry.tracectx import (
    DEFAULT_TRACE_DIR, SpanFileWriter, TraceContext, epoch_us,
    mint_trace_id,
)

#: Job states (terminal: done / failed).
QUEUED = "queued"
RUNNING = "running"
RETRY_WAIT = "retry-wait"
DONE = "done"
FAILED = "failed"
TERMINAL = (DONE, FAILED)

#: Events kept per job (forensic tail, not a full log).
MAX_EVENTS_PER_JOB = 32

#: Hard ceiling on a client-requested per-job attempt budget.
MAX_ATTEMPTS_CAP = 8


def wire_value(value: Any) -> Any:
    """JSON-able projection of a task value (same shape ``darco sweep
    --out`` writes, so served and swept artifacts are comparable)."""
    if hasattr(value, "as_dict"):
        return value.as_dict()
    return serialize_params(value)


@dataclass
class ServeConfig:
    """Service shape: transport, pool size, robustness budgets."""

    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    port: Optional[int] = None
    workers: int = 2
    #: Admission bound: queued + running jobs before shedding starts.
    max_pending: int = 64
    #: Default per-attempt deadline (seconds; None = unbounded).
    default_deadline_s: Optional[float] = None
    #: Worker respawn + job retry policy (shared with the sweep runner).
    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(
        max_attempts=3, base_delay_s=0.05, max_delay_s=2.0, jitter=0.5))
    use_cache: bool = True
    cache_dir: str = ".repro_cache"
    #: Arm checkpointing for checkpointable tasks (killed workers then
    #: *resume* long jobs instead of restarting them).
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 1
    #: Serve stale results (203) instead of shedding when possible.
    stale_serve: bool = True
    reaper_tick_s: float = 0.05
    #: Terminal (done/failed) table entries kept in memory; beyond the
    #: bound the oldest-finished are evicted (0 = unbounded).  Evicted
    #: results stay fetchable by full key from the on-disk result cache.
    max_terminal_entries: int = 512
    #: Logical results kept for the stale-serving tier (LRU; 0 = unbounded).
    max_stale_entries: int = 256
    #: Distributed tracing default for jobs that arrive without their
    #: own context: ``off`` (no span files), ``counters`` (lifecycle
    #: spans: submit/queue/attempt/retry), ``full`` (simulator-internal
    #: spans too).  A client-supplied context overrides per job.
    tracing: str = "counters"
    #: Directory for per-process span files (client/service/worker).
    trace_dir: str = DEFAULT_TRACE_DIR
    #: Time-series sampling interval (seconds) and ring capacity.
    metrics_interval_s: float = 1.0
    timeseries_capacity: int = 512
    #: Flight-recorder ring size per job (events).
    flight_recorder_events: int = 64


@dataclass
class JobEntry:
    """One logical job in the table (possibly many submitters)."""

    key: str
    job: SweepJob
    state: str = QUEUED
    attempts: int = 0
    max_attempts: int = 3
    deadline_s: Optional[float] = None
    submits: int = 1
    created: float = field(default_factory=time.time)
    finished: Optional[float] = None
    events: List[str] = field(default_factory=list)
    value: Any = None
    value_payload: Any = None
    telemetry_digest: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    stderr_tail: str = ""
    cached: bool = False
    stale: bool = False
    stale_fingerprint: Optional[str] = None
    duration_s: float = 0.0
    #: Distributed trace context riding with (never inside) the job.
    trace: Optional[TraceContext] = None
    #: Flight recorder: bounded ring of recent lifecycle events,
    #: attached to the record on terminal failure.
    flight: Optional[FlightRecorder] = None
    #: Epoch-µs instant of the most recent (re)queue — the left edge
    #: of the next queue-wait span.
    queued_us: int = 0
    #: Epoch-µs instant of the most recent dispatch to a shard.
    dispatched_us: int = 0
    #: Bumped on every visible change (watch streams on it).
    version: int = 0

    def mark(self, state: str, note: str = "") -> None:
        self.state = state
        stamp = time.strftime("%H:%M:%S")
        self.events.append(f"{stamp} {state}{': ' + note if note else ''}")
        del self.events[:-MAX_EVENTS_PER_JOB]
        if state in TERMINAL:
            self.finished = time.time()
        self.version += 1

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL

    def status_dict(self) -> Dict[str, Any]:
        return {
            "job": self.key[:16],
            "key": self.key,
            "task": self.job.task,
            "label": self.job.label,
            "state": self.state,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "deadline_s": self.deadline_s,
            "submits": self.submits,
            "cached": self.cached,
            "stale": self.stale,
            "stale_fingerprint": self.stale_fingerprint,
            "duration_s": round(self.duration_s, 4),
            "trace_id": self.trace.trace_id if self.trace else None,
            "telemetry_digest": self.telemetry_digest,
            # "error" is reserved for protocol-level failures; a job's
            # own (most recent) failure rides in "last_error".
            "last_error": (self.error or "").strip().splitlines()[-1]
            if self.error else None,
            "events": list(self.events),
            "version": self.version,
        }


class ServeService:
    """The asyncio job service (one instance per ``darco serve``)."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.retry = self.config.retry
        self.registry = MetricsRegistry()
        self.table: Dict[str, JobEntry] = {}
        self.queue: asyncio.Queue = asyncio.Queue()
        self.shards = [Shard(i) for i in range(max(1,
                                                   self.config.workers))]
        self.cache: Optional[ResultCache] = None
        if self.config.use_cache:
            self.cache = ResultCache(self.config.cache_dir)
            self.cache.cleanup_stale()
        self.fingerprint = code_fingerprint()
        #: logical key -> last completed wire payload + provenance
        #: (the stale-serving tier under overload).
        self._stale_index: Dict[str, Dict[str, Any]] = {}
        self._pending = 0           # queued + running + retry-wait
        self._duration_ewma = 0.0   # seconds per completed job
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: List[asyncio.Task] = []
        #: In-flight retry-wait sleepers (cancelled on stop()).
        self._retry_tasks: set = set()
        self._stopping = False
        #: Open client connections: writer -> its handler task.
        self._clients: Dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._drained = asyncio.Event()
        self._shutdown_requested = asyncio.Event()
        self.started_at = time.time()
        #: Per-phase latency histograms (ms) promoted to p50/p95/p99 on
        #: healthz and scraped into the time-series ring.
        self.queue_wait_hist = self.registry.histogram(
            "serve.queue_wait_ms")
        self.run_hist = self.registry.histogram("serve.run_ms")
        #: Bounded time-series ring sampled by :meth:`_sample_loop`.
        self.scraper = TimeSeriesScraper(
            self.registry,
            interval_s=self.config.metrics_interval_s,
            capacity=self.config.timeseries_capacity)
        #: The service's span file (lazy: created on first traced job,
        #: so a tracing-off service never touches the trace dir).
        self._spans: Optional[SpanFileWriter] = None

    def _span_writer(self) -> SpanFileWriter:
        if self._spans is None:
            self._spans = SpanFileWriter(self.config.trace_dir, "service")
        return self._spans

    def _trace_span(self, entry: JobEntry, name: str, start_us: int,
                    end_us: int, **args: Any) -> None:
        """One service-side X span for a traced job (no-op otherwise;
        tracing must never fail service work)."""
        if entry.trace is None or entry.trace.mode == "off":
            return
        try:
            self._span_writer().complete(name, "service", start_us,
                                         end_us, ctx=entry.trace, **args)
        except Exception:
            pass

    def _trace_instant(self, entry: JobEntry, name: str,
                       **args: Any) -> None:
        if entry.trace is None or entry.trace.mode == "off":
            return
        try:
            self._span_writer().instant(name, "service",
                                        ctx=entry.trace, **args)
        except Exception:
            pass

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start shards + reaper."""
        # Raise asyncio's default 64 KiB StreamReader limit to the
        # protocol's own line bound (plus slack so the limit trips
        # strictly *after* protocol.decode's check would): large-params
        # submissions get a 400, not a dropped connection.
        limit = protocol.MAX_LINE_BYTES + 4096
        if self.config.socket_path:
            path = Path(self.config.socket_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.exists():
                path.unlink()
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=str(path), limit=limit)
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.config.host,
                port=self.config.port or 0, limit=limit)
        for shard in self.shards:
            self._tasks.append(asyncio.ensure_future(
                self._run_shard(shard)))
        self._tasks.append(asyncio.ensure_future(self._reap_loop()))
        self._tasks.append(asyncio.ensure_future(self._sample_loop()))
        self._update_gauges()
        self.scraper.sample()

    @property
    def endpoint(self) -> str:
        if self.config.socket_path:
            return str(self.config.socket_path)
        addr = self._server.sockets[0].getsockname()
        return f"{addr[0]}:{addr[1]}"

    @property
    def port(self) -> Optional[int]:
        if self.config.socket_path or self._server is None:
            return None
        return self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`stop`) arrives."""
        await self._shutdown_requested.wait()
        await self.stop()

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every accepted job is terminal."""
        self._check_drained()
        try:
            await asyncio.wait_for(self._drained.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def stop(self) -> None:
        """Stop accepting, cancel supervision, tear the pool down."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            # Hang up on open clients and let their handlers end before
            # waiting for the server, which from Python 3.12 waits for
            # every connection to close.  A handler still waiting on its
            # client when the loop is torn down would be cancelled, and
            # asyncio logs that as an error.
            for writer in list(self._clients):
                writer.close()
            if self._clients:
                await asyncio.wait(list(self._clients.values()),
                                   timeout=5.0)
            try:
                await self._server.wait_closed()
            except Exception:
                pass
        pending = self._tasks + list(self._retry_tasks)
        for task in pending:
            task.cancel()
        for task in pending:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        self._retry_tasks.clear()
        # Closing pipes unblocks any recv threads; kill what's left.
        for shard in self.shards:
            shard.stop()
        if self.config.socket_path:
            try:
                Path(self.config.socket_path).unlink()
            except OSError:
                pass

    # -- telemetry -------------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        self.registry.inc(name, n)

    def _update_gauges(self) -> None:
        reg = self.registry
        reg.set_gauge("serve.queue_depth", self.queue.qsize())
        reg.set_gauge("serve.pending", self._pending)
        reg.set_gauge("serve.inflight", sum(
            1 for s in self.shards if s.state == STATE_BUSY))
        reg.set_gauge("serve.workers_alive", sum(
            1 for s in self.shards if s.alive))
        reg.set_gauge("serve.workers_total", len(self.shards))
        reg.set_gauge("serve.saturation", min(
            1.0, self._pending / max(1, self.config.max_pending)))

    def service_rate(self) -> float:
        """Observed completions/second across the pool (0 = unknown)."""
        if self._duration_ewma <= 0.0:
            return 0.0
        workers = max(1, sum(1 for s in self.shards if s.alive))
        return workers / self._duration_ewma

    # -- job identity ----------------------------------------------------------

    def _logical_key(self, job: SweepJob) -> str:
        """Identity of the job *regardless of source version* — the
        stale-serving index key."""
        return job.key(fingerprint="")

    def _find(self, job_id: str) -> Optional[JobEntry]:
        if job_id in self.table:
            return self.table[job_id]
        matches = [e for k, e in self.table.items()
                   if k.startswith(job_id)]
        return matches[0] if len(matches) == 1 else None

    # -- admission -------------------------------------------------------------

    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Admission decision for one submit request (sync: runs inline
        on the event loop; nothing here blocks)."""
        if self._stopping:
            return protocol.error_response(
                protocol.SHUTTING_DOWN, "service is shutting down")
        task = spec.get("task", "workload_metrics")
        if task not in _TASKS:
            return protocol.error_response(
                protocol.NOT_FOUND,
                f"unknown task {task!r}; registered: "
                f"{', '.join(sorted(t for t in _TASKS if not t.startswith('_')))}")
        try:
            params = protocol.inflate_job_params(spec.get("params"))
        except (ValueError, TypeError) as exc:
            return protocol.error_response(
                protocol.BAD_REQUEST, f"bad params: {exc}")
        # Budgets are validated at the door: a bad value is the
        # client's 400, never a worker-pool exception later.
        deadline = spec.get("deadline_s", self.config.default_deadline_s)
        if deadline is not None:
            try:
                deadline = float(deadline)
            except (TypeError, ValueError):
                deadline = math.nan
            if not math.isfinite(deadline) or deadline <= 0:
                return protocol.error_response(
                    protocol.BAD_REQUEST,
                    f"deadline_s must be a positive number, got "
                    f"{spec.get('deadline_s')!r}")
        try:
            max_attempts = int(spec.get("max_attempts",
                                        self.retry.max_attempts))
        except (TypeError, ValueError):
            return protocol.error_response(
                protocol.BAD_REQUEST,
                f"max_attempts must be an integer, got "
                f"{spec.get('max_attempts')!r}")
        max_attempts = max(1, min(MAX_ATTEMPTS_CAP, max_attempts))
        try:
            trace = TraceContext.from_wire(spec.get("trace"))
        except ValueError as exc:
            return protocol.error_response(
                protocol.BAD_REQUEST, f"bad trace: {exc}")
        job = SweepJob(task=task, params=params,
                       label=spec.get("label", ""))
        key = job.key(self.fingerprint)
        # No client context: mint one server-side (deterministically,
        # from the job key) unless tracing is off.  The context rides
        # next to the job, never inside its identity.
        if trace is None and self.config.tracing != "off":
            trace = TraceContext(trace_id=mint_trace_id(seed=key),
                                 mode=self.config.tracing)
        if trace is not None:
            trace = trace.with_job(key[:16])
        self._count("serve.submitted")

        entry = self.table.get(key)
        if entry is not None and not entry.terminal:
            # Identical in-flight job: ride it.
            entry.submits += 1
            entry.version += 1
            self._count("serve.coalesced")
            if entry.flight is not None:
                entry.flight.mark("submit_coalesced",
                                  submits=entry.submits)
            self._trace_instant(entry, "submit_coalesced",
                                submits=entry.submits)
            return protocol.response(
                protocol.ACCEPTED, coalesced=True,
                **entry.status_dict())
        if entry is not None and entry.state == DONE and not entry.stale:
            entry.submits += 1
            self._count("serve.coalesced")
            return protocol.response(protocol.OK, coalesced=True,
                                     **entry.status_dict())
        # Failed (or stale-served) entries are resubmittable: fall
        # through to fresh admission below.

        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not _MISS:
                entry = self._install_done(job, key, cached, cached=True)
                self._count("serve.cache_hits")
                return protocol.response(protocol.OK,
                                         **entry.status_dict())

        if self._pending >= self.config.max_pending:
            return self._degrade_or_shed(job, key)

        entry = JobEntry(key=key, job=job,
                         max_attempts=max_attempts,
                         deadline_s=deadline,
                         trace=trace,
                         flight=FlightRecorder(
                             self.config.flight_recorder_events))
        if self.table.get(key) is not None:
            entry.submits += self.table[key].submits
        self.table[key] = entry
        entry.mark(QUEUED, f"accepted (queue depth {self.queue.qsize()})")
        entry.queued_us = epoch_us()
        entry.flight.mark("accepted", task=task,
                          queue_depth=self.queue.qsize(),
                          trace_id=trace.trace_id if trace else None)
        self._trace_instant(entry, "accepted",
                            queue_depth=self.queue.qsize())
        self._enqueue(entry)
        self._count("serve.accepted")
        return protocol.response(protocol.ACCEPTED, coalesced=False,
                                 **entry.status_dict())

    def _degrade_or_shed(self, job: SweepJob, key: str) -> Dict[str, Any]:
        """Queue is full: serve stale if we can, shed explicitly if not."""
        logical = self._logical_key(job)
        known = self._stale_index.get(logical)
        if self.config.stale_serve and known is not None:
            entry = JobEntry(key=key, job=job, state=DONE,
                             stale=True,
                             stale_fingerprint=known["fingerprint"])
            entry.value_payload = known["payload"]
            entry.telemetry_digest = known.get("digest", {})
            entry.mark(DONE, "stale result served under overload "
                             f"(computed at {known['fingerprint'][:12]})")
            self.table[key] = entry
            self._count("serve.stale_served")
            self._evict_terminal()
            return protocol.response(protocol.DEGRADED_STALE,
                                     **entry.status_dict())
        self._count("serve.shed")
        retry_after = self.retry.retry_after_hint(
            self._pending, self.service_rate())
        return protocol.error_response(
            protocol.SHED,
            f"queue full ({self._pending}/{self.config.max_pending})",
            retry_after_s=round(retry_after, 2))

    def _enqueue(self, entry: JobEntry) -> None:
        self._pending += 1
        self._drained.clear()
        self.queue.put_nowait(entry.key)
        self._update_gauges()

    def _requeue(self, entry: JobEntry) -> None:
        """Re-dispatch an already-accepted job (bypasses admission:
        acceptance is a completion promise)."""
        self.queue.put_nowait(entry.key)
        self._update_gauges()

    def _install_done(self, job: SweepJob, key: str, value: Any,
                      cached: bool) -> JobEntry:
        entry = JobEntry(key=key, job=job, state=DONE, cached=cached)
        entry.value = value
        entry.value_payload = wire_value(value)
        entry.telemetry_digest = telemetry_digest(value)
        entry.mark(DONE, "served from result cache" if cached else "")
        self.table[key] = entry
        self._note_known_result(entry)
        self._evict_terminal()
        return entry

    def _evict_terminal(self) -> None:
        """Bound the table: a long-lived service must not accumulate one
        payload per job forever.  Oldest-finished terminal entries go
        first; their values remain fetchable (by full key) from the
        on-disk result cache."""
        cap = self.config.max_terminal_entries
        if cap <= 0:
            return
        terminal = [e for e in self.table.values() if e.terminal]
        excess = len(terminal) - cap
        if excess <= 0:
            return
        terminal.sort(key=lambda e: e.finished or 0.0)
        for entry in terminal[:excess]:
            del self.table[entry.key]
            self._count("serve.evicted")

    # -- shard supervision -----------------------------------------------------

    async def _run_shard(self, shard: Shard) -> None:
        """Supervision loop: spawn, pump until death, backoff, respawn."""
        while not self._stopping:
            shard.spawn()
            self._count("serve.worker_spawns")
            self._update_gauges()
            try:
                clean = await self._pump_shard(shard)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                # Last-ditch net: supervision survives *any* pump bug.
                # The in-flight job (if one) is charged and retried so
                # it cannot wedge in RUNNING forever.
                self._count("serve.supervisor_errors")
                key, _reason = shard.take_crash_context()
                entry = self.table.get(key) if key else None
                if entry is not None and entry.state == RUNNING:
                    entry.error = f"supervisor error: {exc!r}"
                    self._retry_or_fail(entry, entry.error)
                clean = False
            shard.reap()
            self._update_gauges()
            if clean or self._stopping:
                break
            shard.crashes += 1
            shard.state = STATE_BACKOFF
            self._count("serve.worker_restarts")
            delay = self.retry.delay(
                shard.crashes, seed=f"respawn:{shard.index}:{shard.spawns}")
            await asyncio.sleep(delay)

    async def _pump_shard(self, shard: Shard) -> bool:
        """Feed jobs to one worker until it dies (False) or the service
        stops (True)."""
        frame = await asyncio.to_thread(shard.recv)
        if frame is None or frame[0] != "ready":
            return False
        shard.state = "idle"
        while not self._stopping:
            entry = await self._next_job()
            if entry is None:
                continue
            entry.attempts += 1
            entry.mark(RUNNING,
                       f"attempt {entry.attempts}/{entry.max_attempts} "
                       f"on shard {shard.index} (pid {shard.pid})")
            now_us = epoch_us()
            if entry.queued_us:
                wait_ms = max(0.0, (now_us - entry.queued_us) / 1000.0)
                self.queue_wait_hist.observe(wait_ms)
                self._trace_span(entry, "queue_wait", entry.queued_us,
                                 now_us, attempt=entry.attempts)
                if entry.flight is not None:
                    entry.flight.span("queue_wait", wait_ms,
                                      attempt=entry.attempts)
            entry.dispatched_us = now_us
            if entry.flight is not None:
                entry.flight.mark("dispatch", attempt=entry.attempts,
                                  shard=shard.index, pid=shard.pid)
            try:
                shard.send_job(entry.key, entry.job.task,
                               self._exec_params(entry),
                               entry.deadline_s,
                               trace=self._wire_trace(entry))
            except (BrokenPipeError, OSError):
                # Worker died between jobs: don't charge the attempt.
                entry.attempts -= 1
                entry.mark(QUEUED, "worker lost before dispatch; requeued")
                entry.queued_us = epoch_us()
                self._requeue(entry)
                return False
            except Exception as exc:
                # Defence in depth: a job the pipe cannot carry (or any
                # other unexpected dispatch failure) fails the *job* —
                # it must never kill this shard's supervision task.
                shard.abort_dispatch()
                entry.error = (f"dispatch error on attempt "
                               f"{entry.attempts}: {exc!r}")
                self._count("serve.dispatch_errors")
                self._retry_or_fail(entry, entry.error)
                self._update_gauges()
                continue
            self._update_gauges()
            started = time.monotonic()
            frame = await asyncio.to_thread(shard.recv)
            if frame is None:
                _key, reason = shard.take_crash_context()
                self._on_worker_death(entry, reason,
                                      time.monotonic() - started)
                return False
            _tag, _key, status, payload, duration, stderr_tail = frame
            shard.note_job_done()
            try:
                self._on_result(entry, status, payload, duration,
                                stderr_tail)
            except Exception as exc:
                # A result we cannot process charges the job, not the
                # supervision task (the worker itself is fine).
                self._count("serve.supervisor_errors")
                if not entry.terminal:
                    entry.error = f"result handling error: {exc!r}"
                    self._retry_or_fail(entry, entry.error)
            self._update_gauges()
        return True

    async def _next_job(self) -> Optional[JobEntry]:
        key = await self.queue.get()
        entry = self.table.get(key)
        if entry is None or entry.state != QUEUED:
            return None
        return entry

    def _wire_trace(self, entry: JobEntry) -> Optional[Dict[str, Any]]:
        """The trace payload a dispatch carries to the worker (None when
        this job is untraced): context + the span-file directory."""
        if entry.trace is None or entry.trace.mode == "off":
            return None
        return {"ctx": entry.trace.as_wire(),
                "dir": str(self.config.trace_dir)}

    def _exec_params(self, entry: JobEntry) -> Dict[str, Any]:
        """Execution params for this attempt: a retry after a kill or
        deadline resumes from the last checkpoint, as in the sweep."""
        return attempt_params(entry.job, entry.key, entry.attempts,
                              self.config.checkpoint_dir,
                              self.config.checkpoint_every)

    def _on_result(self, entry: JobEntry, status: str, payload: Any,
                   duration: float, stderr_tail: str) -> None:
        end_us = epoch_us()
        run_ms = max(0.0, duration * 1000.0)
        self.run_hist.observe(run_ms)
        if entry.dispatched_us:
            self._trace_span(entry, "run", entry.dispatched_us, end_us,
                             attempt=entry.attempts, status=status)
        if entry.flight is not None:
            entry.flight.span("run", run_ms, attempt=entry.attempts,
                              status=status)
        if status == "ok":
            entry.value = payload
            entry.value_payload = wire_value(payload)
            entry.telemetry_digest = telemetry_digest(payload)
            entry.duration_s = duration
            entry.error = None
            entry.mark(DONE, f"completed in {duration:.2f}s")
            if entry.flight is not None:
                entry.flight.counters("digest", entry.telemetry_digest)
            self._trace_instant(entry, "done",
                                attempts=entry.attempts)
            self._job_finished(entry)
            self._count("serve.completed")
            alpha = 0.3
            self._duration_ewma = (duration if not self._duration_ewma
                                   else alpha * duration
                                   + (1 - alpha) * self._duration_ewma)
            if self.cache is not None:
                self.cache.put(entry.key, payload)
            self._note_known_result(entry)
            return
        # Task raised: retry under the budget (transient host trouble),
        # then surface the record.
        entry.error = payload
        entry.stderr_tail = stderr_tail
        self._count("serve.task_errors")
        if entry.flight is not None:
            last = (payload or "").strip().splitlines()
            entry.flight.incident("task_error", attempt=entry.attempts,
                                  error=last[-1] if last else "")
        self._retry_or_fail(entry, f"task error on attempt "
                                   f"{entry.attempts}")

    def _on_worker_death(self, entry: JobEntry, reason: Optional[str],
                         elapsed: float) -> None:
        if reason == "deadline":
            self._count("serve.deadline_kills")
            entry.error = (f"deadline exceeded ({entry.deadline_s}s) "
                           f"on attempt {entry.attempts}; worker killed")
        else:
            self._count("serve.worker_deaths")
            entry.error = (f"worker process died after {elapsed:.2f}s "
                           f"on attempt {entry.attempts} (crash or kill)")
        incident = ("deadline_kill" if reason == "deadline"
                    else "worker_death")
        if entry.flight is not None:
            entry.flight.incident(incident, attempt=entry.attempts,
                                  elapsed_s=round(elapsed, 3))
        self._trace_instant(entry, incident, attempt=entry.attempts)
        self._retry_or_fail(entry, entry.error)

    def _retry_or_fail(self, entry: JobEntry, note: str) -> None:
        if entry.attempts < entry.max_attempts and not self._stopping:
            self._count("serve.retries")
            delay = self.retry.delay(entry.attempts, seed=entry.key)
            entry.mark(RETRY_WAIT, f"{note}; retrying in {delay:.2f}s")
            if entry.flight is not None:
                entry.flight.mark("retry_wait", attempt=entry.attempts,
                                  delay_s=round(delay, 3))
            self._trace_instant(entry, "retry_wait",
                                attempt=entry.attempts,
                                delay_s=round(delay, 3))
            task = asyncio.get_running_loop().create_task(
                self._requeue_later(entry, delay))
            self._retry_tasks.add(task)
            task.add_done_callback(self._retry_tasks.discard)
        else:
            entry.mark(FAILED, note)
            if entry.flight is not None:
                entry.flight.incident("failed", attempts=entry.attempts)
            self._trace_instant(entry, "failed",
                                attempts=entry.attempts)
            self._job_finished(entry)
            self._count("serve.failed")

    async def _requeue_later(self, entry: JobEntry, delay: float) -> None:
        if delay > 0:
            await asyncio.sleep(delay)
        if entry.terminal or self._stopping:
            return
        entry.mark(QUEUED, "requeued for retry")
        entry.queued_us = epoch_us()
        if entry.flight is not None:
            entry.flight.mark("requeued", attempt=entry.attempts)
        self._requeue(entry)

    def _job_finished(self, entry: JobEntry) -> None:
        self._pending = max(0, self._pending - 1)
        self._check_drained()
        self._evict_terminal()
        self._update_gauges()

    def _check_drained(self) -> None:
        if self._pending == 0:
            self._drained.set()

    def _note_known_result(self, entry: JobEntry) -> None:
        if entry.value_payload is None:
            return
        # Accumulate the job's simulator digest into service-level
        # counters ("work served, by tier") — the data behind darco
        # top's hottest-tier panel.
        for name, value in (entry.telemetry_digest or {}).items():
            try:
                self.registry.inc(f"jobs.{name}", int(value))
            except (TypeError, ValueError):
                continue
        logical = self._logical_key(entry.job)
        # Re-insert for LRU recency (dicts preserve insertion order),
        # then trim oldest-first down to the bound.
        self._stale_index.pop(logical, None)
        self._stale_index[logical] = {
            "payload": entry.value_payload,
            "digest": entry.telemetry_digest,
            "fingerprint": self.fingerprint,
        }
        cap = self.config.max_stale_entries
        while cap > 0 and len(self._stale_index) > cap:
            self._stale_index.pop(next(iter(self._stale_index)))

    # -- the reaper ------------------------------------------------------------

    async def _reap_loop(self) -> None:
        while not self._stopping:
            await asyncio.sleep(self.config.reaper_tick_s)
            now = time.monotonic()
            for shard in self.shards:
                shard.kill_if_overdue(now)

    async def _sample_loop(self) -> None:
        """Feed the time-series ring at the configured interval (cheap:
        one registry snapshot per tick, no collectors)."""
        while not self._stopping:
            await asyncio.sleep(self.scraper.interval_s)
            self._update_gauges()
            self.scraper.sample()

    # -- request handling ------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._clients[writer] = asyncio.current_task()
        try:
            # A connection accepted while the service stops is hung up
            # on at once: stop() may have closed the others already.
            while not self._stopping:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, OSError):
                    break
                except (ValueError, asyncio.LimitOverrunError):
                    # Line exceeded the reader limit.  Framing is lost
                    # past this point, so answer 400 and hang up rather
                    # than silently dropping the connection.
                    writer.write(protocol.encode(protocol.error_response(
                        protocol.BAD_REQUEST,
                        f"request line exceeds "
                        f"{protocol.MAX_LINE_BYTES} bytes")))
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    request = protocol.decode(line)
                except protocol.ProtocolError as exc:
                    writer.write(protocol.encode(protocol.error_response(
                        protocol.BAD_REQUEST, str(exc))))
                    await writer.drain()
                    continue
                op = request.get("op")
                if op == "watch":
                    await self._handle_watch(request, writer)
                    continue
                reply = self._dispatch(request)
                writer.write(protocol.encode(reply))
                await writer.drain()
                if op == "shutdown":
                    break
        finally:
            self._clients.pop(writer, None)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op == "submit":
            return self.submit(request)
        if op == "status":
            return self._handle_status(request)
        if op == "fetch":
            return self._handle_fetch(request)
        if op == "healthz":
            return self.healthz()
        if op == "metrics":
            self._update_gauges()
            return protocol.response(
                protocol.OK, snapshot=self.registry.snapshot(
                    collect=False).as_dict())
        if op == "timeseries":
            n = request.get("n")
            try:
                n = None if n is None else max(1, int(n))
            except (TypeError, ValueError):
                return protocol.error_response(
                    protocol.BAD_REQUEST,
                    f"n must be an integer, got {request.get('n')!r}")
            self._update_gauges()
            self.scraper.sample()
            return protocol.response(
                protocol.OK, timeseries=self.scraper.wire_dict(n))
        if op == "shutdown":
            self._shutdown_requested.set()
            return protocol.response(protocol.OK, stopping=True)
        return protocol.error_response(
            protocol.BAD_REQUEST,
            f"unknown op {op!r}; valid: {', '.join(protocol.OPS)}")

    def _handle_status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job_id = request.get("job")
        if not job_id:
            return self.healthz()
        entry = self._find(job_id)
        if entry is None:
            return protocol.error_response(protocol.NOT_FOUND,
                                           f"unknown job {job_id!r}")
        return protocol.response(protocol.OK, **entry.status_dict())

    def _handle_fetch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job_id = request.get("job") or ""
        entry = self._find(job_id)
        if entry is None:
            # Evicted (or pre-restart) completions stay fetchable by
            # full key from the on-disk result cache.  Full hex keys
            # only: the key names a cache path, so a prefix (or any
            # other client string) must not reach the filesystem.
            if self.cache is not None and len(job_id) == 64 \
                    and all(c in "0123456789abcdef" for c in job_id):
                cached = self.cache.get(job_id)
                if cached is not _MISS:
                    self._count("serve.cache_hits")
                    return protocol.response(
                        protocol.OK, job=job_id[:16], key=job_id,
                        state=DONE, cached=True, evicted=True,
                        value=wire_value(cached))
            return protocol.error_response(
                protocol.NOT_FOUND, f"unknown job {job_id!r}")
        if entry.state == DONE:
            code = (protocol.DEGRADED_STALE if entry.stale
                    else protocol.OK)
            return protocol.response(code, value=entry.value_payload,
                                     **entry.status_dict())
        if entry.state == FAILED:
            return protocol.response(protocol.FAILED,
                                     stderr_tail=entry.stderr_tail,
                                     full_error=entry.error,
                                     flight=entry.flight.as_dict()
                                     if entry.flight is not None
                                     else None,
                                     **entry.status_dict())
        return protocol.response(protocol.ACCEPTED,
                                 **entry.status_dict())

    async def _handle_watch(self, request: Dict[str, Any],
                            writer: asyncio.StreamWriter) -> None:
        """Stream status objects until the job reaches a terminal state."""
        job_id = request.get("job")
        entry = self._find(job_id or "")
        if entry is None:
            writer.write(protocol.encode(protocol.error_response(
                protocol.NOT_FOUND, f"unknown job {job_id!r}")))
            await writer.drain()
            return
        last_version = -1
        while True:
            if entry.version != last_version:
                last_version = entry.version
                writer.write(protocol.encode(protocol.response(
                    protocol.OK, **entry.status_dict())))
                await writer.drain()
            if entry.terminal or self._stopping:
                return
            await asyncio.sleep(0.05)

    def healthz(self) -> Dict[str, Any]:
        """Liveness + saturation — always served inline by the event
        loop, never queued behind simulation work."""
        self._update_gauges()
        snapshot = self.registry.snapshot(collect=False)
        return protocol.response(
            protocol.OK,
            live=True,
            uptime_s=round(time.time() - self.started_at, 2),
            host=host_snapshot(),
            endpoint=self.endpoint,
            fingerprint=self.fingerprint[:16],
            queue={"depth": self.queue.qsize(),
                   "pending": self._pending,
                   "capacity": self.config.max_pending},
            saturation=snapshot.gauges.get("serve.saturation", 0.0),
            service_rate_jobs_per_s=round(self.service_rate(), 3),
            latency={
                "queue_wait_ms": self.queue_wait_hist.percentiles(),
                "run_ms": self.run_hist.percentiles(),
            },
            workers=[shard.healthz() for shard in self.shards],
            code_table=shared_code(),
            counters={k: v for k, v in snapshot.counters.items()
                      if k.startswith(("serve.", "jobs."))},
            jobs={state: sum(1 for e in self.table.values()
                             if e.state == state)
                  for state in (QUEUED, RUNNING, RETRY_WAIT, DONE,
                                FAILED)},
        )
