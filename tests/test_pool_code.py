"""Code shared by the workers of one pool (:mod:`repro.serve.supervisor`,
:mod:`repro.pycode`): a worker returns the code objects it compiled with
each result, the pool's table sends them to the workers that have not
had them, a respawned worker gets the whole table, and an entry that
does not load is compiled instead.  Results never depend on it."""

import pickle
import random
import sys
import threading
import time
import types

import pytest

from repro import pycode
from repro.harness import parallel
from repro.serve import supervisor
from repro.serve.supervisor import Shard

KERNEL = {"workload": "429.mcf", "validate": False}


@pytest.fixture
def pool(monkeypatch):
    """An empty code table in this process and an empty pool table, so
    the workers forked below compile every shape they need."""
    monkeypatch.setattr(pycode, "_CODES", {})
    monkeypatch.setattr(supervisor, "_SHARED", [])
    monkeypatch.setattr(supervisor, "_SHARED_KEYS", set())
    shards = []

    def spawn(index):
        shard = Shard(index)
        shards.append(shard)
        shard.spawn()
        assert shard.recv() == ("ready", None)
        return shard

    yield spawn
    for shard in shards:
        shard.stop()


def _run(shard, task, params):
    """Run one job on ``shard``: ``(status, payload)``."""
    shard.send_job("job", task, params, None)
    frame = shard.recv()
    assert frame is not None, "the worker died"
    shard.note_job_done()
    return frame[2], frame[3]


def _inline(task, params):
    status, payload, _duration, _stderr = parallel._worker(task,
                                                          dict(params))
    assert status == "ok", payload
    return payload


def test_second_worker_compiles_none_of_the_first_workers_shapes(pool):
    first, second = pool(0), pool(1)
    small, large = {**KERNEL, "scale": 0.05}, {**KERNEL, "scale": 0.08}
    status, value_small = _run(first, "workload_metrics", small)
    assert status == "ok"
    assert first.code_returned == len(supervisor._SHARED) > 0
    status, value_large = _run(second, "workload_metrics", large)
    assert status == "ok"
    # The second worker was sent every entry the first returned, and each
    # entry it returned is a shape the table did not have.
    assert second.code_sent == first.code_returned
    assert second.code_returned == sum(
        1 for _key, _blob, pid in supervisor._SHARED if pid == second.pid)
    assert supervisor.shared_code()["entries"] == \
        first.code_returned + second.code_returned
    for value, params in ((value_small, small), (value_large, large)):
        assert pickle.dumps(value) == pickle.dumps(
            _inline("workload_metrics", params))


def test_respawned_worker_gets_the_whole_table_and_resumes(pool,
                                                           tmp_path):
    shard = pool(0)
    assert _run(shard, "workload_metrics",
                {**KERNEL, "scale": 0.05})[0] == "ok"
    table = len(supervisor._SHARED)
    assert table > 0
    # About 1.5 s, a checkpoint at each of its ~150 syscalls.
    job = parallel.SweepJob("arch_run", {"workload": "ticker",
                                         "scale": 5.0})
    key = job.key(parallel.code_fingerprint())
    ckpt = tmp_path / "ckpt"
    shard.send_job(key, job.task, parallel.attempt_params(
        job, key, 1, ckpt), None)
    deadline = time.monotonic() + 60
    while not list(ckpt.glob("*/ckpt-*.json")):
        assert time.monotonic() < deadline, "no checkpoint was written"
        time.sleep(0.01)
    assert shard.kill("chaos")
    assert shard.recv() is None
    assert shard.take_crash_context() == (key, "chaos")
    shard.reap()
    shard.spawn()
    assert shard.recv() == ("ready", None)
    status, value = _run(shard, job.task, parallel.attempt_params(
        job, key, 2, ckpt))
    assert status == "ok", value
    assert shard.code_sent == table
    assert "resumed from ckpt-" in next(
        ckpt.glob("*/resume.log")).read_text()
    assert pickle.dumps(value) == pickle.dumps(
        _inline(job.task, job.params))


def test_entry_that_does_not_load_is_compiled_instead(pool):
    params = {**KERNEL, "scale": 0.05}
    first = pool(0)
    status, value = _run(first, "workload_metrics", params)
    assert status == "ok"
    supervisor._SHARED[:] = [(key, b"\x00 not marshal data", pid)
                             for key, _blob, pid in supervisor._SHARED]
    second = pool(1)
    status, again = _run(second, "workload_metrics", params)
    assert status == "ok", again
    assert second.code_sent == first.code_returned
    assert second.code_returned == first.code_returned
    assert pickle.dumps(again) == pickle.dumps(value)


class _Pipe:
    """A worker pipe's stand-in: ``recv`` hands out the given frames in
    order, ``send`` keeps what is sent."""

    def __init__(self, frames=()):
        self.frames = list(frames)
        self.sent = []

    def recv(self):
        return self.frames.pop(0)

    def send(self, frame):
        self.sent.append(frame)
        time.sleep(0)  # a pipe write releases the interpreter lock


def _fake_shard(index, frames=()):
    shard = Shard(index)
    shard.process = types.SimpleNamespace(pid=1000 + index)
    shard.conn = _Pipe(frames)
    return shard


def test_threads_returning_code_while_a_shard_dispatches(monkeypatch):
    """Serve receives ``done`` frames in several threads while its event
    loop dispatches: each key enters the table once, and a shard that
    keeps dispatching meanwhile is sent every entry exactly once."""
    monkeypatch.setattr(supervisor, "_SHARED", [])
    monkeypatch.setattr(supervisor, "_SHARED_KEYS", set())
    keys = [("shape", k) for k in range(2000)]
    # Every receiver returns every key, in the same order, so that they
    # race on each one.
    frames = [("done", "job", "ok", None, 0.0, "",
               [(key, repr(key).encode()) for key in keys[k:k + 10]])
              for k in range(0, len(keys), 10)]
    receivers = [_fake_shard(index, frames) for index in range(4)]
    dispatcher = _fake_shard(9)
    start = threading.Barrier(len(receivers) + 1, timeout=60)
    errors = []

    def receive(shard):
        try:
            start.wait()
            while shard.conn.frames:
                assert shard.recv() == ("done", "job", "ok", None, 0.0, "")
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=receive, args=(shard,))
               for shard in receivers]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        start.wait()
        while any(thread.is_alive() for thread in threads):
            dispatcher.send_job("job", "task", {}, None)
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    dispatcher.send_job("job", "task", {}, None)
    table = [key for key, _blob, _pid in supervisor._SHARED]
    assert sorted(table) == keys
    assert len(supervisor._SHARED_KEYS) == len(keys)
    sent = [key for frame in dispatcher.conn.sent for key, _blob in frame[-1]]
    assert sorted(sent) == keys
    assert dispatcher.code_sent == len(keys)
    assert [shard.code_returned for shard in receivers] == [len(keys)] * 4
