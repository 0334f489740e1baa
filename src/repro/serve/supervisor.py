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
  SIGKILLs are literally the same code;
- **shared code**: a worker returns the code objects it compiled
  (:mod:`repro.pycode`) with each ``done`` frame, the owner keeps them in
  one table for all its shards, and each ``job`` frame carries the
  entries its worker has not been sent, so each generated-code shape is
  compiled by about one worker per pool.  A respawned worker is sent the
  whole table with its first job.

The shard never decides a job's fate.  Its owner (serve's supervision
tasks, or sweep's loop) charges the attempt, applies the
:class:`~repro.harness.retry.RetryPolicy`, builds the next attempt's
checkpoint-resume params with
:func:`repro.harness.parallel.attempt_params` and respawns the worker
(serve after a backoff that grows with the shard's crash streak).
"""

from __future__ import annotations

import gc
import multiprocessing
import signal
import threading
import time
import traceback
from typing import Any, Optional, Tuple

from repro import pycode

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

#: The code objects the workers of this process's shards returned, as
#: ``(key, marshalled code, pid of the worker)``, first returned first,
#: at most ``pycode.CAPACITY``; it only grows, so a shard's cursor into
#: it stays valid.  ``_SHARED_KEYS`` holds their keys; the lock is taken
#: to add an entry (serve receives frames in several threads).
_SHARED: list = []
_SHARED_KEYS: set = set()
_SHARED_LOCK = threading.Lock()


def shared_code() -> dict:
    """The pool's code table for healthz: its entries and their bytes."""
    return {"entries": len(_SHARED),
            "bytes": sum(len(blob) for _key, blob, _pid in _SHARED)}


def _worker_main(conn) -> None:
    """Worker-process entry: execute jobs until told to stop.

    SIGINT is ignored (the shard's owner does teardown; a Ctrl-C on the
    terminal must not race the parent's graceful drain), and the
    final state of every job is delivered as a frame — exceptions are
    records, never worker deaths (only SIGKILL-class events kill a
    worker, which is exactly what supervision is for).  A result the
    pipe cannot carry is sent as an error record of its job.

    The heap inherited from the owner lives as long as the worker, so it
    is frozen out of the cyclic collector's walks.  Code the pool sent is
    installed before the job runs, and the code the job compiled goes
    back with its ``done`` frame.
    """
    gc.freeze()
    for end in _PARENT_ENDS:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.harness.parallel import _worker
    pycode.share()
    conn.send(("ready", None))
    while True:
        try:
            frame = conn.recv()
        except (EOFError, OSError):
            break
        if frame[0] == "stop":
            break
        _, job_key, task, params, trace, code = frame
        pycode.receive(code)
        if trace is not None:
            params = {**params, "_trace": trace}
        try:
            _send_done(conn, ("done", job_key, *_worker(task, params),
                              pycode.take_shared()))
        except OSError:
            break
    conn.close()


def _send_done(conn, frame) -> None:
    """Send a job's ``done`` frame, or, when it cannot be pickled (then
    nothing reached the pipe), the job's error record with the same
    duration, stderr tail and code entries.  A closed pipe raises
    ``OSError``."""
    try:
        conn.send(frame)
    except OSError:
        raise
    except Exception:
        conn.send(("done", frame[1], "error", traceback.format_exc(),
                   *frame[4:]))


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
        #: Entries of ``_SHARED`` that the current worker has been sent
        #: or skipped as its own: the next job carries the ones after it.
        self.code_cursor = 0
        #: Shared-code entries sent to and returned by the current
        #: worker (healthz).
        self.code_sent = 0
        self.code_returned = 0

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
        self.code_cursor = self.code_sent = self.code_returned = 0

    def send_job(self, job_key: str, task: str, params: dict,
                 deadline_s: Optional[float],
                 trace: Optional[dict] = None) -> None:
        self.current_key = job_key
        self.deadline = (time.monotonic() + deadline_s
                         if deadline_s else None)
        self.state = STATE_BUSY
        # Serve receives other shards' frames in threads, which append
        # to ``_SHARED`` meanwhile: the cursor moves past the entries
        # read here, never to the table's length.
        unsent = _SHARED[self.code_cursor:]
        code = [(key, blob) for key, blob, pid in unsent
                if pid != self.pid]
        self.conn.send(("job", job_key, task, params, trace, code))
        self.code_cursor += len(unsent)
        self.code_sent += len(code)

    def abort_dispatch(self) -> None:
        """Forget a dispatch that never reached the worker (the frame
        could not be sent, e.g. unpicklable params): the worker is still
        idle and usable, only the parent-side bookkeeping rolls back."""
        self.current_key = None
        self.deadline = None
        self.state = STATE_IDLE

    def recv(self) -> Optional[Tuple[Any, ...]]:
        """Blocking receive; ``None`` = the worker died.  A ``done``
        frame's code entries go to the pool's table, and the frame is
        handed on without them."""
        try:
            frame = self.conn.recv()
        except (EOFError, OSError):
            return None
        if frame[0] != "done":
            return frame
        *frame, code = frame
        self.code_returned += len(code)
        with _SHARED_LOCK:
            for key, blob in code:
                if key not in _SHARED_KEYS and \
                        len(_SHARED) < pycode.CAPACITY:
                    _SHARED_KEYS.add(key)
                    _SHARED.append((key, blob, self.pid))
        return tuple(frame)

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
            "code_sent": self.code_sent,
            "code_returned": self.code_returned,
        }
