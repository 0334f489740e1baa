"""Observability layer: distributed trace context, span-file merge,
time-series metrics, latency percentiles, flight recorder, dashboard.

The integration tests run a real serve instance (background event loop,
unix socket, forked workers) exactly like test_serve.py, then assemble
the job's cross-process timeline with the same merge path ``darco
trace --job`` uses and assert the ISSUE's acceptance properties: one
trace id on every span, B/E balance per lane, retry/resume instants on
a killed job, and run-to-run determinism modulo wall-clock fields.
"""

import asyncio
import json
import os
import signal
import threading
import time
from collections import defaultdict
from pathlib import Path

import pytest

from repro.harness import parallel
from repro.serve import ServeClient, ServeConfig, ServeService
from repro.serve import protocol
from repro.serve.client import ServeError
from repro.serve.flightrec import FlightRecorder
from repro.telemetry.registry import MetricsRegistry, histogram_percentiles
from repro.telemetry.timeseries import (
    TimeSeriesScraper, load_timeseries_jsonl, sparkline,
)
from repro.telemetry.tracectx import (
    SpanFileWriter, TraceContext, epoch_us, mint_trace_id,
)
from repro.telemetry.tracemerge import (
    merge_trace, read_span_file, strip_wallclock,
)

WORKLOAD = {"workload": "429.mcf", "scale": 0.05}


@parallel.register_task("_obs_sleep")
def _obs_sleep_task(seconds=0.05, tag=""):
    time.sleep(seconds)
    return {"slept": seconds, "tag": tag}


class ServeHost:
    """In-process serve instance on a background event-loop thread."""

    def __init__(self, tmp_path, **kw):
        self.sock = str(tmp_path / "serve.sock")
        kw.setdefault("cache_dir", str(tmp_path / "cache"))
        kw.setdefault("trace_dir", str(tmp_path / "traces"))
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


def _events(doc):
    return [ev for ev in doc["traceEvents"] if ev.get("ph") != "M"]


def _assert_balanced(events):
    """Every (pid, tid) lane must close every span it opens, in order."""
    depth = defaultdict(int)
    for ev in events:
        lane = (ev.get("pid"), ev.get("tid"))
        if ev["ph"] == "B":
            depth[lane] += 1
        elif ev["ph"] == "E":
            depth[lane] -= 1
            assert depth[lane] >= 0, f"E without B on lane {lane}"
    assert all(d == 0 for d in depth.values()), f"unbalanced: {dict(depth)}"


# -- trace context and span files ----------------------------------------------


def test_mint_trace_id_is_deterministic_for_a_seed():
    assert mint_trace_id(seed="abc") == mint_trace_id(seed="abc")
    assert mint_trace_id(seed="abc") != mint_trace_id(seed="abd")
    assert len(mint_trace_id()) == 16
    assert mint_trace_id() != mint_trace_id()


def test_trace_context_wire_round_trip_and_validation():
    ctx = TraceContext(trace_id=mint_trace_id(seed="x"), job="j1",
                       mode="full")
    assert TraceContext.from_wire(ctx.as_wire()) == ctx
    assert TraceContext.from_wire(None) is None
    for bad in ("string", 7, {"trace_id": ""}, {"trace_id": 5},
                {"trace_id": "a" * 65},
                {"trace_id": "ok", "mode": "loud"},
                {"trace_id": "ok", "job": ["x"]}):
        with pytest.raises(ValueError):
            TraceContext.from_wire(bad)


def test_span_file_writer_spans_and_torn_tail(tmp_path):
    ctx = TraceContext(trace_id="t" * 16, job="jobjob")
    w = SpanFileWriter(tmp_path, "service", pid=7)
    t0 = epoch_us()
    sid = w.complete("queue_wait", "service", t0, t0 + 1500, ctx=ctx,
                     attempt=1)
    w.instant("retry_wait", "service", ctx=ctx, delay_s=0.1)
    assert sid == "service:7:1"
    # Simulate a killed writer: torn trailing line.
    with open(w.path, "a", encoding="utf-8") as fh:
        fh.write('{"name": "half')
    loaded = read_span_file(w.path)
    assert loaded["header"]["role"] == "service"
    assert loaded["header"]["pid"] == 7
    assert [ev["ph"] for ev in loaded["events"]] == ["X", "i"]
    ev = loaded["events"][0]
    assert ev["args"]["trace_id"] == "t" * 16
    assert ev["args"]["job"] == "jobjob"
    assert ev["dur"] == 1500


def test_merge_filters_by_trace_and_synthesizes_process_names(tmp_path):
    a = TraceContext(trace_id="a" * 16, job="job-a")
    b = TraceContext(trace_id="b" * 16, job="job-b")
    sw = SpanFileWriter(tmp_path, "service", pid=1)
    ww = SpanFileWriter(tmp_path, "worker", pid=2)
    t0 = epoch_us()
    sw.complete("queue_wait", "service", t0, t0 + 10, ctx=a)
    sw.complete("queue_wait", "service", t0, t0 + 10, ctx=b)
    ww.complete("attempt", "worker", t0 + 10, t0 + 50, ctx=a, resume=False)

    doc = merge_trace(tmp_path, trace_id="a" * 16)
    events = _events(doc)
    assert len(events) == 2
    assert all(ev["args"]["trace_id"] == "a" * 16 for ev in events)
    names = {ev["args"]["name"] for ev in doc["traceEvents"]
             if ev.get("ph") == "M" and ev["name"] == "process_name"}
    assert names == {"service", "worker"}
    # Timeline is normalized to start at zero.
    assert min(ev["ts"] for ev in events) == 0
    # Job-prefix addressing matches the same events.
    assert len(_events(merge_trace(tmp_path, job="job-a"))) == 2
    assert len(_events(merge_trace(tmp_path, job="job-"))) == 3


# -- histograms, time series, flight recorder ----------------------------------


def test_histogram_percentiles_interpolate_and_clamp():
    reg = MetricsRegistry()
    hist = reg.histogram("lat", bounds=(10, 100, 1000))
    for _ in range(90):
        hist.observe(5)       # first bucket (0, 10]
    for _ in range(10):
        hist.observe(5000)    # overflow bucket
    pct = hist.percentiles()
    assert 0 < pct["p50"] <= 10
    assert pct["p99"] == 1000          # overflow clamps to top edge
    assert histogram_percentiles({"bounds": [], "counts": [],
                                  "count": 0}) == {
        "p50": 0.0, "p95": 0.0, "p99": 0.0}


def test_timeseries_scraper_rates_ring_bound_and_jsonl(tmp_path):
    reg = MetricsRegistry()
    scraper = TimeSeriesScraper(reg, interval_s=1.0, capacity=4)
    scraper.sample(now=100.0)
    reg.inc("serve.completed", 10)
    reg.set_gauge("serve.queue_depth", 3)
    second = scraper.sample(now=102.0)
    assert second["rates"]["serve.completed"] == pytest.approx(5.0)
    assert second["gauges"]["serve.queue_depth"] == 3
    for i in range(10):
        scraper.sample(now=103.0 + i)
    assert len(scraper.window()) == 4          # ring is bounded
    assert scraper.samples_taken == 12
    assert scraper.series("serve.queue_depth")[-1][1] == 3

    path = tmp_path / "ts.jsonl"
    scraper.export_jsonl(path)
    loaded = load_timeseries_jsonl(path)
    assert loaded["header"]["kind"] == "timeseries"
    assert len(loaded["samples"]) == 4

    artifact = tmp_path / "ts.json"
    scraper.export_artifact(artifact)
    from repro.ioutil import load_artifact
    payload = load_artifact(artifact, "timeseries", 1)
    assert len(payload["samples"]) == 4


def test_sparkline_is_pure_and_bounded():
    assert sparkline([]) == ""
    assert sparkline([1.0, 1.0]) == "▁▁"
    line = sparkline(list(range(100)), width=16)
    assert len(line) == 16
    assert line[0] == "▁" and line[-1] == "█"


def test_flight_recorder_ring_is_bounded():
    rec = FlightRecorder(capacity=8)
    for i in range(20):
        rec.mark("dispatch", attempt=i)
    rec.incident("worker_death", attempt=19)
    dump = rec.as_dict()
    assert len(dump["events"]) == 8
    assert dump["recorded"] == 21
    assert dump["dropped"] == 13
    assert dump["events"][-1]["kind"] == "incident"
    json.dumps(dump)  # must stay JSON-able


# -- integration: traced jobs through a real service ---------------------------


def test_traced_job_end_to_end_one_timeline(tmp_path):
    """A served job yields one merged timeline: service spans (queue
    wait, run) and worker spans (attempt + simulator-internal phases in
    full mode), every one stamped with the same trace id."""
    with ServeHost(tmp_path, workers=1, use_cache=False,
                   tracing="full") as host:
        with host.client() as client:
            reply = client.submit("workload_metrics", WORKLOAD)
            assert reply["code"] == protocol.ACCEPTED
            trace_id = reply["trace_id"]
            assert trace_id
            final = client.wait(reply["job"], timeout=120)
            assert final["state"] == "done"
            assert final["trace_id"] == trace_id
            health = client.healthz()
            assert health["latency"]["run_ms"]["p50"] > 0

    doc = merge_trace(host.config.trace_dir, job=reply["job"])
    events = _events(doc)
    assert doc["otherData"]["trace_ids"] == [trace_id]
    assert all(ev["args"]["trace_id"] == trace_id for ev in events)
    names = {ev["name"] for ev in events}
    assert {"queue_wait", "run", "attempt", "accepted"} <= names
    assert "dispatch" in names  # full mode: simulator-internal spans
    roles = {ev["args"]["name"] for ev in doc["traceEvents"]
             if ev.get("ph") == "M" and ev["name"] == "process_name"}
    assert {"service", "worker"} <= roles
    _assert_balanced(events)
    # The attempt span records this was a clean first attempt.
    attempt = [ev for ev in events if ev["name"] == "attempt"]
    assert len(attempt) == 1
    assert attempt[0]["args"]["resume"] is False
    assert attempt[0]["args"]["status"] == "ok"


def test_client_supplied_context_wins_and_bad_context_is_400(tmp_path):
    with ServeHost(tmp_path, workers=1, use_cache=False,
                   tracing="counters") as host:
        with host.client() as client:
            ctx = TraceContext(trace_id="c1de" * 4, mode="counters")
            reply = client.submit("_obs_sleep", {"seconds": 0.01},
                                  trace=ctx.as_wire())
            assert reply["trace_id"] == "c1de" * 4
            assert client.wait(reply["job"], 60)["state"] == "done"
            bad = client.submit("_obs_sleep", {"seconds": 0.01,
                                               "tag": "bad"},
                                trace={"trace_id": ""})
            assert bad["code"] == protocol.BAD_REQUEST
            assert "trace" in bad["error"]
            # Tracing off end to end: no context is minted.
            off = client.submit("_obs_sleep", {"seconds": 0.01,
                                               "tag": "off"},
                                trace=TraceContext(
                                    trace_id="off0" * 4,
                                    mode="off").as_wire())
            assert client.wait(off["job"], 60)["state"] == "done"
    doc = merge_trace(host.config.trace_dir, trace_id="off0" * 4)
    assert _events(doc) == []


def test_concurrent_jobs_keep_their_trace_ids_apart(tmp_path):
    """N distinct jobs through a 4-worker pool: each job's merged
    timeline carries exactly its own trace id on every span."""
    jobs = {}
    with ServeHost(tmp_path, workers=4, use_cache=False,
                   tracing="counters") as host:
        with host.client() as client:
            for i in range(6):
                reply = client.submit(
                    "_obs_sleep", {"seconds": 0.05, "tag": f"j{i}"})
                assert reply["code"] == protocol.ACCEPTED
                jobs[reply["job"]] = reply["trace_id"]
            for job in jobs:
                assert client.wait(job, timeout=60)["state"] == "done"
    assert len(set(jobs.values())) == len(jobs)
    for job, trace_id in jobs.items():
        events = _events(merge_trace(host.config.trace_dir, job=job))
        assert events, f"no spans for {job}"
        assert all(ev["args"]["trace_id"] == trace_id for ev in events)
        assert {"queue_wait", "run", "attempt"} <= {
            ev["name"] for ev in events}
        _assert_balanced(events)


def _busy_worker_pid(client, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        workers = client.healthz()["workers"]
        busy = [w for w in workers if w["state"] == "busy" and w["pid"]]
        if busy:
            return busy[0]["pid"]
        time.sleep(0.01)
    raise AssertionError("no worker went busy")


def _await_attempt_start(trace_dir, pid, timeout=30.0):
    """Wait until worker ``pid`` has flushed its ``attempt_start``
    instant (busy in healthz can come before it is written)."""
    path = Path(trace_dir) / f"worker-{pid}.jsonl"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists() and "attempt_start" in path.read_text():
            return
        time.sleep(0.01)
    raise AssertionError(f"worker {pid} wrote no attempt_start")


def test_killed_and_resumed_job_is_one_timeline_with_retry_instants(
        tmp_path):
    """ISSUE acceptance: SIGKILL a worker mid-job; the merged timeline
    still reads as one story — first attempt, worker_death and
    retry_wait instants, then a resumed attempt — all under one trace
    id, with spans from two different worker processes."""
    params = {"workload": "429.mcf", "scale": 0.3}
    with ServeHost(tmp_path, workers=1, use_cache=False,
                   tracing="counters",
                   checkpoint_dir=str(tmp_path / "ckpt")) as host:
        with host.client() as client:
            reply = client.submit("arch_run", params, max_attempts=5)
            trace_id = reply["trace_id"]
            pid = _busy_worker_pid(client)
            _await_attempt_start(host.config.trace_dir, pid)
            os.kill(pid, signal.SIGKILL)
            final = client.wait(reply["job"], timeout=180)
            assert final["state"] == "done"
            assert final["attempts"] >= 2

    doc = merge_trace(host.config.trace_dir, job=reply["job"])
    events = _events(doc)
    assert all(ev["args"]["trace_id"] == trace_id for ev in events)
    names = [ev["name"] for ev in events]
    assert "worker_death" in names
    assert "retry_wait" in names
    attempts = [ev for ev in events if ev["name"] == "attempt"]
    # The killed attempt wrote no attempt span (SIGKILL), but every
    # surviving attempt did, and the last one resumed from checkpoint.
    assert attempts
    assert attempts[-1]["args"]["resume"] is True
    # The service dispatched at least twice (a killed attempt leaves no
    # "run" span — no result frame ever arrived — but its queue_wait
    # dispatch span is already on disk).
    waits = [ev for ev in events if ev["name"] == "queue_wait"]
    assert len(waits) >= 2
    # The surviving attempt came from a different worker process than
    # the killed one: the trace spans more than one worker span file.
    worker_files = [p for p in doc["otherData"]["span_files"]
                    if "worker-" in p]
    assert len(worker_files) >= 2
    _assert_balanced(events)
    # Chronology: the death instant precedes the resumed attempt.
    t_death = min(ev["ts"] for ev in events
                  if ev["name"] == "worker_death")
    assert t_death <= attempts[-1]["ts"]


def test_merged_timeline_identical_across_runs_modulo_wallclock(
        tmp_path):
    """Two clean runs of the same job produce structurally identical
    merged timelines once wall-clock fields are stripped (deterministic
    span ids + deterministic simulator spans)."""
    docs = []
    for run in ("one", "two"):
        trace_dir = str(tmp_path / f"traces-{run}")
        with ServeHost(tmp_path, workers=1, use_cache=False,
                       tracing="full", trace_dir=trace_dir) as host:
            with host.client() as client:
                reply = client.submit("workload_metrics", WORKLOAD)
                assert client.wait(reply["job"], 120)["state"] == "done"
        docs.append(merge_trace(trace_dir, job=reply["job"]))
    assert strip_wallclock(docs[0]) == strip_wallclock(docs[1])
    assert _events(docs[0])  # and not vacuously


# -- flight recorder, percentiles, timeseries op, dashboard --------------------


def test_failed_job_record_carries_flight_recorder(tmp_path):
    with ServeHost(tmp_path, workers=1, use_cache=False,
                   flight_recorder_events=16) as host:
        with host.client() as client:
            reply = client.submit("_obs_sleep", {"seconds": 60.0},
                                  deadline_s=0.4, max_attempts=2)
            final = client.wait(reply["job"], timeout=60)
            assert final["state"] == "failed"
            flight = final["flight"]
            assert flight["capacity"] == 16
            kinds = [(ev["kind"], ev["name"]) for ev in flight["events"]]
            assert ("incident", "deadline_kill") in kinds
            assert ("incident", "failed") in kinds
            assert ("mark", "dispatch") in kinds
            assert ("mark", "retry_wait") in kinds
            # Two attempts, both recorded.
            dispatches = [ev for ev in flight["events"]
                          if ev["name"] == "dispatch"]
            assert len(dispatches) == 2
            # Done jobs don't ship the recorder on fetch.
            ok = client.submit("_obs_sleep", {"seconds": 0.01})
            done = client.wait(ok["job"], 60)
            assert done["state"] == "done"
            assert "flight" not in done


def test_healthz_percentiles_and_timeseries_op(tmp_path):
    with ServeHost(tmp_path, workers=2, use_cache=False,
                   metrics_interval_s=0.1) as host:
        with host.client() as client:
            for i in range(3):
                reply = client.submit("_obs_sleep",
                                      {"seconds": 0.03, "tag": f"t{i}"})
                assert client.wait(reply["job"], 60)["state"] == "done"
            health = client.healthz()
            latency = health["latency"]
            assert latency["run_ms"]["p50"] > 0
            assert (latency["run_ms"]["p50"]
                    <= latency["run_ms"]["p95"]
                    <= latency["run_ms"]["p99"])
            assert latency["queue_wait_ms"]["p99"] >= 0
            ts = client.timeseries(n=50)
            assert ts["code"] == protocol.OK
            samples = ts["timeseries"]["samples"]
            assert samples
            last = samples[-1]
            assert last["counters"]["serve.completed"] == 3
            assert "serve.queue_wait_ms" in last["percentiles"]
            assert "serve.workers_alive" in last["gauges"]
            bad = client.request("timeseries", n="many")
            assert bad["code"] == protocol.BAD_REQUEST


def test_dashboard_render_is_pure_and_complete(tmp_path):
    from repro.serve.dashboard import render
    with ServeHost(tmp_path, workers=2, use_cache=False,
                   metrics_interval_s=0.1) as host:
        with host.client() as client:
            reply = client.submit("workload_metrics", WORKLOAD)
            assert client.wait(reply["job"], 120)["state"] == "done"
            health = client.healthz()
            series = client.timeseries(n=30)["timeseries"]
    frame = render(health, series)
    assert frame == render(health, series)  # pure
    for needle in ("darco serve", "jobs/s", "latency", "queue_wait_ms",
                   "workers (2/2 alive)", "queue depth",
                   "hottest tiers", "BB translations"):
        assert needle in frame, f"missing {needle!r} in frame"
    # Renders healthz alone too (timeseries endpoint unreachable).
    assert "darco serve" in render(health, None)


def test_cli_trace_job_merge_and_top_once(tmp_path, capsys):
    """The operator path: darco top --once against a live service, then
    darco trace --job after it exited (offline merge)."""
    from repro import cli
    with ServeHost(tmp_path, workers=1, use_cache=False,
                   tracing="counters",
                   metrics_interval_s=0.1) as host:
        with host.client() as client:
            reply = client.submit("_obs_sleep", {"seconds": 0.02})
            assert client.wait(reply["job"], 60)["state"] == "done"
        assert cli.main(["top", "--once", "--socket", host.sock]) == 0
        frame = capsys.readouterr().out
        assert "darco serve" in frame and "workers" in frame
    out = str(tmp_path / "merged.json")
    rc = cli.main(["trace", "--job", reply["job"],
                   "--trace-dir", host.config.trace_dir, "--out", out])
    assert rc == 0
    doc = json.loads(open(out).read())
    assert _events(doc)
    # And the validator the CI smoke uses accepts it.
    import subprocess, sys as _sys
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [_sys.executable, os.path.join(root, "tools",
                                       "validate_trace.py"), out],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # Unknown job: explicit failure, not an empty trace.
    assert cli.main(["trace", "--job", "nosuchjob",
                     "--trace-dir", host.config.trace_dir,
                     "--out", str(tmp_path / "none.json")]) == 1
