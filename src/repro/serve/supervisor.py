"""Supervised worker shards: the one worker pool of sweep and serve.

Each shard owns one worker **process** (crash isolation: a SIGKILL, a
segfault-class failure or a runaway job takes down the shard's worker,
never its owner) plus the parent-side lifecycle state.  ``darco serve``
runs its jobs on shards, and so does every pooled attempt of
:func:`repro.harness.parallel.sweep`:

- **spawn**: fork a worker running :func:`_worker_main`, a loop that
  receives ``("job", ...)`` frames over a pipe, executes the registered
  sweep task (:func:`repro.harness.parallel._worker` — stderr captured,
  exceptions become records), and sends ``("done", ...)`` frames back;
- **detect death**: a dead worker surfaces as ``EOFError``/``OSError``
  on the pipe, which :meth:`Shard.recv` reports as ``None``; the owner
  then takes the in-flight job from :meth:`Shard.take_crash_context`;
- **deadline kills**: :meth:`Shard.kill_if_overdue` SIGKILLs a worker
  whose job is past its per-attempt deadline; the kill then flows
  through the same death path, so deadline enforcement and chaos
  SIGKILLs are literally the same code.

The shard never decides a job's fate.  Its owner (serve's supervision
tasks, or sweep's loop) charges the attempt, applies the
:class:`~repro.harness.retry.RetryPolicy`, builds the next attempt's
checkpoint-resume params with
:func:`repro.harness.parallel.attempt_params` and respawns the worker
(serve after a backoff that grows with the shard's crash streak).
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from typing import Any, Optional, Tuple

#: Parent-side view of the worker lifecycle (exported on /healthz).
STATE_STARTING = "starting"
STATE_IDLE = "idle"
STATE_BUSY = "busy"
STATE_BACKOFF = "backoff"
STATE_STOPPED = "stopped"

#: The parent ends of the pipes of this process's shards.  A worker is
#: forked with its copies of them open, its own pipe's included, and
#: closes them first: otherwise it would hold its own pipe open and never
#: see EOF when its owner dies without cleanup (a SIGKILL).
_PARENT_ENDS: set = set()


def _worker_main(conn) -> None:
    """Worker-process entry: execute jobs until told to stop.

    SIGINT is ignored (the shard's owner does teardown; a Ctrl-C on the
    terminal must not race the parent's graceful drain), and the
    final state of every job is delivered as a frame — exceptions are
    records, never worker deaths (only SIGKILL-class events kill a
    worker, which is exactly what supervision is for).
    """
    for end in _PARENT_ENDS:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.harness.parallel import _worker
    conn.send(("ready", None))
    while True:
        try:
            frame = conn.recv()
        except (EOFError, OSError):
            break
        if frame[0] == "stop":
            break
        _, job_key, task, params, trace = frame
        if trace is not None:
            params = {**params, "_trace": trace}
        status, payload, duration, stderr_tail = _worker(task, params)
        try:
            conn.send(("done", job_key, status, payload, duration,
                       stderr_tail))
        except (BrokenPipeError, OSError):
            break
    conn.close()


class Shard:
    """One supervised worker slot: process + pipe + lifecycle state."""

    def __init__(self, index: int):
        self.index = index
        self.state = STATE_STOPPED
        self.process: Optional[multiprocessing.Process] = None
        self.conn = None
        #: Key of the job currently on the worker, if any.
        self.current_key: Optional[str] = None
        #: Monotonic deadline for the in-flight job (None = unbounded).
        self.deadline: Optional[float] = None
        #: Reason recorded by :meth:`kill` so the crash path can label
        #: the attempt ("deadline" vs plain worker death).
        self.kill_reason: Optional[str] = None
        #: Consecutive crash streak driving respawn backoff.
        self.crashes = 0
        #: Lifetime spawn count (healthz).
        self.spawns = 0
        self.jobs_done = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def spawn(self) -> None:
        """Start a fresh worker process for this shard."""
        parent, child = multiprocessing.Pipe()
        _PARENT_ENDS.add(parent)
        self.process = multiprocessing.Process(
            target=_worker_main, args=(child,),
            name=f"darco-worker-{self.index}", daemon=True)
        self.process.start()
        child.close()
        self.conn = parent
        self.state = STATE_STARTING
        self.spawns += 1
        self.kill_reason = None

    def send_job(self, job_key: str, task: str, params: dict,
                 deadline_s: Optional[float],
                 trace: Optional[dict] = None) -> None:
        self.current_key = job_key
        self.deadline = (time.monotonic() + deadline_s
                         if deadline_s else None)
        self.state = STATE_BUSY
        self.conn.send(("job", job_key, task, params, trace))

    def abort_dispatch(self) -> None:
        """Forget a dispatch that never reached the worker (the frame
        could not be sent, e.g. unpicklable params): the worker is still
        idle and usable, only the parent-side bookkeeping rolls back."""
        self.current_key = None
        self.deadline = None
        self.state = STATE_IDLE

    def recv(self) -> Optional[Tuple[Any, ...]]:
        """Blocking receive; ``None`` = the worker died."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            return None

    def kill(self, reason: str) -> bool:
        """SIGKILL the worker (deadline enforcement, chaos testing).
        Returns False when there was no live worker to kill."""
        if not self.alive:
            return False
        if self.kill_reason is None:
            self.kill_reason = reason
        self.process.kill()
        return True

    def kill_if_overdue(self, now: float) -> bool:
        """Kill the worker if its job is past its deadline at monotonic
        time ``now`` (the one deadline check of sweep and serve)."""
        if (self.state != STATE_BUSY or self.deadline is None
                or now <= self.deadline):
            return False
        return self.kill("deadline")

    def note_job_done(self) -> None:
        self.current_key = None
        self.deadline = None
        self.state = STATE_IDLE
        self.crashes = 0
        self.jobs_done += 1

    def take_crash_context(self) -> Tuple[Optional[str], Optional[str]]:
        """Consume (job_key, kill_reason) for a just-detected death."""
        key, reason = self.current_key, self.kill_reason
        self.current_key = None
        self.deadline = None
        self.kill_reason = None
        return key, reason

    def reap(self) -> None:
        """Close the pipe and collect the dead process."""
        if self.conn is not None:
            _PARENT_ENDS.discard(self.conn)
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None
        if self.process is not None:
            if self.process.is_alive():
                self.process.kill()
            self.process.join(timeout=5.0)
            self.process = None

    def stop(self) -> None:
        """Graceful stop: ask the worker to exit, then reap it."""
        if self.conn is not None and self.alive:
            try:
                self.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        self.reap()
        self.state = STATE_STOPPED

    def healthz(self) -> dict:
        return {
            "index": self.index,
            "state": self.state,
            "alive": self.alive,
            "pid": self.pid,
            "spawns": self.spawns,
            "crashes_streak": self.crashes,
            "jobs_done": self.jobs_done,
            "busy_with": self.current_key,
        }
