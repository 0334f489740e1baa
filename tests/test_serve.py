"""darco serve: supervised workers, deadlines/retries, admission
control, coalescing, degradation tiers, and chaos (SIGKILL) recovery.

The service under test runs in-process on a background thread with its
own event loop; clients talk to it over a real unix socket, exactly as
the CLI does.
"""

import asyncio
import json
import logging
import os
import signal
import socket
import threading
import time

import pytest

from repro.harness import parallel
from repro.harness.retry import RetryPolicy
from repro.serve import ServeClient, ServeConfig, ServeService
from repro.serve import protocol
from repro.serve.client import ServeError
from repro.serve.supervisor import Shard

WORKLOAD = {"workload": "429.mcf", "scale": 0.05}


@parallel.register_task("_serve_sleep")
def _serve_sleep_task(seconds=1.0, tag=""):
    time.sleep(seconds)
    return {"slept": seconds, "tag": tag}


class ServeHost:
    """In-process serve instance on a background event-loop thread."""

    def __init__(self, tmp_path, **kw):
        self.sock = str(tmp_path / "serve.sock")
        kw.setdefault("cache_dir", str(tmp_path / "cache"))
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
            with self.client() as client:
                client.shutdown()
        except ServeError:
            pass
        self._thread.join(20)

    def client(self):
        return ServeClient(socket_path=self.sock)


# -- the happy path ------------------------------------------------------------


def test_submit_runs_and_fetch_returns_value(tmp_path):
    with ServeHost(tmp_path, workers=2) as host:
        with host.client() as client:
            reply = client.submit("workload_metrics", WORKLOAD)
            assert reply["code"] == protocol.ACCEPTED
            assert reply["state"] == "queued"
            final = client.wait(reply["job"], timeout=120)
            assert final["code"] == protocol.OK
            assert final["state"] == "done"
            assert final["attempts"] == 1
            assert isinstance(final["value"], dict)
            assert final["telemetry_digest"]     # fed from the registry
            assert final["duration_s"] > 0


def test_identical_submission_coalesces_when_done(tmp_path):
    with ServeHost(tmp_path, workers=1) as host:
        with host.client() as client:
            first = client.submit("workload_metrics", WORKLOAD)
            client.wait(first["job"], timeout=120)
            again = client.submit("workload_metrics", WORKLOAD)
            assert again["code"] == protocol.OK
            assert again["coalesced"] is True
            assert again["job"] == first["job"]
            health = client.healthz()
            assert health["counters"]["serve.coalesced"] >= 1


def test_inflight_submissions_share_one_run(tmp_path):
    with ServeHost(tmp_path, workers=1, use_cache=False) as host:
        with host.client() as c1, host.client() as c2:
            params = {"seconds": 1.0, "tag": "shared"}
            a = c1.submit("_serve_sleep", params)
            b = c2.submit("_serve_sleep", params)
            assert b["job"] == a["job"]
            assert b["coalesced"] is True
            ra = c1.wait(a["job"], timeout=60)
            rb = c2.fetch(b["job"])
            assert ra["state"] == rb["state"] == "done"
            assert ra["value"] == rb["value"]
            assert rb["submits"] >= 2
            # One run served both tenants: a single attempt total.
            assert ra["attempts"] == 1


def test_cache_survives_service_restart(tmp_path):
    """A second service instance over the same cache dir replays the
    first instance's results without running anything."""
    with ServeHost(tmp_path, workers=1) as host:
        with host.client() as client:
            first = client.submit("workload_metrics", WORKLOAD)
            value = client.wait(first["job"], timeout=120)["value"]
    with ServeHost(tmp_path, workers=1) as host:
        with host.client() as client:
            replay = client.submit("workload_metrics", WORKLOAD)
            assert replay["code"] == protocol.OK
            assert replay["cached"] is True
            assert client.fetch(replay["job"])["value"] == value
            assert client.healthz()["counters"]["serve.cache_hits"] == 1


# -- supervision: crashes, deadlines, chaos ------------------------------------


def test_stop_hangs_up_idle_clients_without_asyncio_errors(tmp_path,
                                                         caplog):
    """A client that stays connected while the service stops is hung up
    on, and its handler ends: nothing is left for the event loop's
    teardown to cancel (which asyncio logs as an exception in a
    callback)."""
    caplog.set_level(logging.ERROR, logger="asyncio")
    with ServeHost(tmp_path, workers=1) as host:
        idle = host.client().connect()
        assert idle.healthz()["live"]
    assert not host._thread.is_alive()
    idle.close()
    assert [r.getMessage() for r in caplog.records
            if r.name == "asyncio"] == []


def _alive(pid):
    """True while ``pid`` runs (a zombie waiting for its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_workers_exit_when_their_owner_is_sigkilled(tmp_path):
    """Each worker closes the parent ends of the pipes it inherited, so
    the death of its owner reaches it as EOF even without any cleanup."""
    pid_file = tmp_path / "pids"
    owner = os.fork()
    if owner == 0:  # the owner: a 2-shard pool, a 1 s job on each shard
        try:
            shards = [Shard(i) for i in range(2)]
            for shard in shards:
                shard.spawn()
            for shard in shards:
                assert shard.recv()[0] == "ready"
                shard.send_job(f"job{shard.index}", "_serve_sleep",
                               {"seconds": 1.0}, None)
            written = tmp_path / "pids.tmp"
            written.write_text(" ".join(str(s.pid) for s in shards))
            written.rename(pid_file)
            time.sleep(60)
        finally:
            os._exit(0)
    workers = []
    try:
        deadline = time.monotonic() + 30
        while not pid_file.exists():
            assert time.monotonic() < deadline, "the owner never spawned"
            time.sleep(0.01)
        workers = [int(pid) for pid in pid_file.read_text().split()]
        os.kill(owner, signal.SIGKILL)
        os.waitpid(owner, 0)
        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in workers) and \
                time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _alive(pid)]
    finally:
        for pid in [owner] + workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def _busy_worker_pid(client, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        workers = client.healthz()["workers"]
        busy = [w for w in workers if w["state"] == "busy" and w["pid"]]
        if busy:
            return busy[0]["pid"]
        time.sleep(0.01)
    raise AssertionError("no worker went busy")


def test_sigkilled_worker_respawns_and_job_resumes_bit_identical(
        tmp_path):
    """Chaos acceptance at test scale: SIGKILL the worker mid-job; the
    job must still complete — resumed from its checkpoint — and its
    result must be bit-identical to a clean, uninterrupted run."""
    from repro.harness.parallel import _execute
    from repro.ioutil import canonical_json
    from repro.serve.service import wire_value

    params = {"workload": "429.mcf", "scale": 0.3}
    clean = canonical_json(wire_value(_execute("arch_run", dict(params))))

    with ServeHost(tmp_path, workers=1, use_cache=False,
                   checkpoint_dir=str(tmp_path / "ckpt")) as host:
        with host.client() as client:
            reply = client.submit("arch_run", params, max_attempts=5)
            pid = _busy_worker_pid(client)
            os.kill(pid, signal.SIGKILL)
            final = client.wait(reply["job"], timeout=180)
            assert final["state"] == "done"
            assert final["attempts"] >= 2
            assert canonical_json(final["value"]) == clean
            health = client.healthz()
            assert health["counters"]["serve.worker_deaths"] >= 1
            assert health["counters"]["serve.worker_restarts"] >= 1
            # The pool healed: a live worker with a fresh pid.
            alive = [w for w in health["workers"] if w["alive"]]
            assert alive and alive[0]["pid"] != pid


def test_deadline_exceeded_kills_worker_and_fails_job(tmp_path):
    with ServeHost(tmp_path, workers=1, use_cache=False) as host:
        with host.client() as client:
            reply = client.submit("_serve_sleep", {"seconds": 60.0},
                                  deadline_s=0.4, max_attempts=1)
            final = client.wait(reply["job"], timeout=60)
            assert final["code"] == protocol.FAILED
            assert final["state"] == "failed"
            assert "deadline exceeded" in final["last_error"]
            assert client.healthz()["counters"][
                "serve.deadline_kills"] >= 1


def test_retry_budget_bounds_attempts_for_failing_task(tmp_path):
    with ServeHost(tmp_path, workers=1, use_cache=False,
                   retry=RetryPolicy(max_attempts=3, base_delay_s=0.0,
                                     jitter=0.0)) as host:
        with host.client() as client:
            reply = client.submit(
                "workload_metrics", {"workload": "no.such.workload"})
            final = client.wait(reply["job"], timeout=60)
            assert final["state"] == "failed"
            assert final["attempts"] == 3
            assert "no.such.workload" in final["last_error"]


def test_livelocked_job_is_killed_and_reported_not_hung(tmp_path):
    """Satellite regression: an event-budget-exhausting job submitted
    through serve is killed and reported (the budget raises inside the
    worker), never left hanging a shard."""
    with ServeHost(tmp_path, workers=1, use_cache=False) as host:
        with host.client() as client:
            reply = client.submit(
                "workload_metrics",
                {"workload": "429.mcf", "scale": 0.05,
                 "config": {"event_budget": 2}},
                max_attempts=1)
            final = client.wait(reply["job"], timeout=60)
            assert final["state"] == "failed"
            assert "event budget exhausted" in final["full_error"]
            # The shard survived and still serves other work.
            ok = client.submit("workload_metrics", WORKLOAD)
            assert client.wait(ok["job"], timeout=120)["state"] == "done"


# -- admission control and degradation -----------------------------------------


def test_full_queue_sheds_with_retry_after(tmp_path):
    service = ServeService(ServeConfig(workers=1, max_pending=2,
                                       use_cache=False))
    service._pending = 2  # saturated
    reply = service.submit({"op": "submit", "task": "workload_metrics",
                            "params": WORKLOAD})
    assert reply["code"] == protocol.SHED
    assert reply["retry_after_s"] >= 1.0
    assert "queue full" in reply["error"]


def test_overload_serves_stale_result_with_marker(tmp_path):
    service = ServeService(ServeConfig(workers=1, max_pending=2,
                                       use_cache=False))
    spec = {"op": "submit", "task": "workload_metrics",
            "params": WORKLOAD}
    accepted = service.submit(spec)
    assert accepted["code"] == protocol.ACCEPTED
    # Simulate an earlier completion of this logical job, then drop the
    # table entry (as if it aged out) and saturate the queue.
    entry = service.table[accepted["key"]]
    entry.value_payload = {"stale": "payload"}
    service._note_known_result(entry)
    del service.table[accepted["key"]]
    service._pending = 2
    degraded = service.submit(spec)
    assert degraded["code"] == protocol.DEGRADED_STALE
    assert degraded["stale"] is True
    assert degraded["stale_fingerprint"] == service.fingerprint
    fetched = service._handle_fetch({"job": degraded["job"]})
    assert fetched["code"] == protocol.DEGRADED_STALE
    assert fetched["value"] == {"stale": "payload"}
    # With stale serving disabled the same submit sheds instead.
    service.config.stale_serve = False
    assert service.submit(spec)["code"] == protocol.SHED


def test_accepted_jobs_bypass_admission_on_retry(tmp_path):
    service = ServeService(ServeConfig(workers=1, max_pending=1,
                                       use_cache=False))
    accepted = service.submit({"op": "submit",
                               "task": "workload_metrics",
                               "params": WORKLOAD})
    assert accepted["code"] == protocol.ACCEPTED
    entry = service.table[accepted["key"]]
    # Queue is saturated, yet the in-flight job's requeue still lands.
    assert service._pending == service.config.max_pending
    service._requeue(entry)
    assert service.queue.qsize() == 2


# -- protocol and error paths --------------------------------------------------


def test_unknown_task_and_unknown_job(tmp_path):
    with ServeHost(tmp_path, workers=1) as host:
        with host.client() as client:
            bad = client.submit("no_such_task", {})
            assert bad["code"] == protocol.NOT_FOUND
            assert "workload_metrics" in bad["error"]
            missing = client.status("feedfacecafebeef")
            assert missing["code"] == protocol.NOT_FOUND
            assert client.fetch("feedfacecafebeef")["code"] == \
                protocol.NOT_FOUND


def test_malformed_frames_get_400_not_disconnect(tmp_path):
    with ServeHost(tmp_path, workers=1) as host:
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(10)
        raw.connect(host.sock)
        raw.sendall(b"this is not json\n")
        first = json.loads(raw.makefile().readline())
        assert first["code"] == protocol.BAD_REQUEST
        # The connection survives a bad frame.
        raw.sendall(protocol.encode({"op": "healthz"}))
        second = json.loads(raw.makefile().readline())
        assert second["live"] is True
        raw.close()


def test_bad_budget_values_rejected_400_and_pool_survives(tmp_path):
    """Garbage ``deadline_s``/``max_attempts`` must be the submitter's
    400 at admission — never a TypeError inside a supervision task
    (which would kill the shard and wedge every later submission)."""
    with ServeHost(tmp_path, workers=1, use_cache=False) as host:
        with host.client() as client:
            for extra in ({"deadline_s": "soon"}, {"deadline_s": -1},
                          {"deadline_s": 0}, {"max_attempts": "lots"},
                          {"max_attempts": [3]}):
                bad = client.submit("_serve_sleep", {"seconds": 0.01},
                                    **extra)
                assert bad["code"] == protocol.BAD_REQUEST, extra
                assert "must be" in bad["error"]
            # The pool is untouched: a well-formed job still completes.
            ok = client.submit("_serve_sleep", {"seconds": 0.01},
                               deadline_s=30, max_attempts=2)
            assert ok["code"] == protocol.ACCEPTED
            assert client.wait(ok["job"], timeout=60)["state"] == "done"
            health = client.healthz()
            assert any(w["alive"] for w in health["workers"])


def test_dispatch_error_fails_job_not_supervision(tmp_path):
    """An unexpected exception while handing a job to a worker fails
    that job through the retry budget; the shard's supervision task and
    worker survive to run the next job."""
    with ServeHost(tmp_path, workers=1, use_cache=False) as host:
        def boom(entry):
            raise RuntimeError("boom")
        host.service._exec_params = boom
        with host.client() as client:
            reply = client.submit("_serve_sleep", {"seconds": 0.01},
                                  max_attempts=1)
            final = client.wait(reply["job"], timeout=60)
            assert final["state"] == "failed"
            assert "dispatch error" in final["full_error"]
        del host.service._exec_params
        with host.client() as client:
            ok = client.submit("_serve_sleep", {"seconds": 0.01,
                                                "tag": "after"})
            assert client.wait(ok["job"], timeout=60)["state"] == "done"
            health = client.healthz()
            assert health["counters"]["serve.dispatch_errors"] >= 1
            assert any(w["alive"] for w in health["workers"])


def test_oversized_request_lines_answered_400(tmp_path):
    """A line above the protocol bound gets a 400, both under the
    stream-reader limit (connection survives) and over it (answered,
    then hung up) — never a silent disconnect."""
    with ServeHost(tmp_path, workers=1) as host:
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(30)
        raw.connect(host.sock)
        stream = raw.makefile("rb")
        raw.sendall(b"x" * (protocol.MAX_LINE_BYTES + 10) + b"\n")
        first = json.loads(stream.readline())
        assert first["code"] == protocol.BAD_REQUEST
        assert "exceeds" in first["error"]
        raw.sendall(protocol.encode({"op": "healthz"}))
        assert json.loads(stream.readline())["live"] is True
        raw.close()

        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(30)
        raw.connect(host.sock)
        stream = raw.makefile("rb")
        raw.sendall(b"y" * (protocol.MAX_LINE_BYTES + 4096 + 1000)
                    + b"\n")
        over = json.loads(stream.readline())
        assert over["code"] == protocol.BAD_REQUEST
        assert "exceeds" in over["error"]
        raw.close()


def test_terminal_entries_evicted_and_fetchable_from_cache(tmp_path):
    """The job table is bounded: past ``max_terminal_entries`` the
    oldest-finished entries are dropped from memory, and their values
    remain fetchable by full key from the on-disk result cache."""
    with ServeHost(tmp_path, workers=1, max_terminal_entries=2) as host:
        with host.client() as client:
            keys = []
            for tag in "abcd":
                reply = client.submit("_serve_sleep",
                                      {"seconds": 0.01, "tag": tag})
                client.wait(reply["job"], timeout=60)
                keys.append(reply["key"])
            table = host.service.table
            assert sum(1 for e in table.values() if e.terminal) <= 2
            assert keys[0] not in table
            evicted = client.fetch(keys[0])
            assert evicted["code"] == protocol.OK
            assert evicted["evicted"] is True
            assert evicted["value"]["tag"] == "a"
            assert client.healthz()["counters"]["serve.evicted"] >= 2


def test_stale_index_bounded_lru():
    from repro.harness.parallel import SweepJob
    from repro.serve.service import JobEntry

    service = ServeService(ServeConfig(workers=1, use_cache=False,
                                       max_stale_entries=2))
    jobs = [SweepJob(task="workload_metrics",
                     params={"workload": "429.mcf", "scale": 0.01 * (i + 1)})
            for i in range(4)]

    def note(i):
        entry = JobEntry(key=f"k{i}", job=jobs[i])
        entry.value_payload = {"i": i}
        service._note_known_result(entry)

    note(0), note(1), note(2)
    assert len(service._stale_index) == 2
    assert service._logical_key(jobs[0]) not in service._stale_index
    note(1)  # LRU touch: 1 is now the most recent of {1, 2}
    note(3)  # evicts 2, not 1
    assert service._logical_key(jobs[2]) not in service._stale_index
    assert service._logical_key(jobs[1]) in service._stale_index
    assert service._logical_key(jobs[3]) in service._stale_index


def test_unknown_op_rejected(tmp_path):
    with ServeHost(tmp_path, workers=1) as host:
        with host.client() as client:
            reply = client.request("frobnicate")
            assert reply["code"] == protocol.BAD_REQUEST
            assert "submit" in reply["error"]


def test_protocol_decode_limits():
    with pytest.raises(protocol.ProtocolError):
        protocol.decode(b"[1, 2, 3]\n")          # not an object
    with pytest.raises(protocol.ProtocolError):
        protocol.decode(b"{broken\n")
    with pytest.raises(protocol.ProtocolError):
        protocol.decode(b"x" * (protocol.MAX_LINE_BYTES + 1))


def test_config_params_inflate_to_tolconfig():
    params = protocol.inflate_job_params(
        {"workload": "429.mcf",
         "config": {"event_budget": 1234, "watchdog_stall_limit": 9}})
    from repro.tol.config import TolConfig
    assert isinstance(params["config"], TolConfig)
    assert params["config"].event_budget == 1234
    assert params["config"].watchdog_stall_limit == 9


# -- observability -------------------------------------------------------------


def test_healthz_reports_host_saturation_and_workers(tmp_path):
    with ServeHost(tmp_path, workers=2) as host:
        with host.client() as client:
            health = client.healthz()
            assert health["live"] is True
            assert health["host"]["cpu_count"] >= 1
            assert "available_cpus" in health["host"]
            assert health["queue"]["capacity"] == 64
            assert 0.0 <= health["saturation"] <= 1.0
            assert len(health["workers"]) == 2
            metrics = client.metrics()["snapshot"]
            assert "serve.workers_alive" in metrics["gauges"]


def test_watch_streams_states_until_terminal(tmp_path):
    with ServeHost(tmp_path, workers=1, use_cache=False) as host:
        with host.client() as client:
            reply = client.submit("_serve_sleep", {"seconds": 0.3})
        with host.client() as watcher:
            states = [u["state"] for u in watcher.watch(reply["job"])]
            assert states[-1] == "done"
            assert len(states) >= 2


def test_status_accepts_job_id_prefix(tmp_path):
    with ServeHost(tmp_path, workers=1) as host:
        with host.client() as client:
            reply = client.submit("workload_metrics", WORKLOAD)
            client.wait(reply["job"], timeout=120)
            assert client.status(reply["job"][:12])["state"] == "done"
