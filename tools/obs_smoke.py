#!/usr/bin/env python
"""End-to-end smoke test for the serve observability layer (CI job).

Everything goes through the real CLI as subprocesses — the same path an
operator types — against a service running with full tracing:

1. ``darco serve --tracing full`` comes up; ``darco submit --trace
   full --wait`` completes a job and prints its trace id (client-side
   minting: the submit RPC is the timeline's first span).
2. Chaos: a traced checkpointable ``arch_run`` job is submitted, the
   busy worker is SIGKILLed mid-run, and the job resumes on a fresh
   worker.
3. ``darco trace --job <id>`` assembles ONE merged timeline per job
   from the per-process span files: client + service + worker tracks,
   every event stamped with the job's trace id, and — for the chaos
   job — the ``worker_death`` / ``retry_wait`` instants and the
   resumed attempt.  ``tools/validate_trace.py`` must accept both
   merged files (Perfetto-loadable schema).
4. ``darco top --once`` renders a dashboard frame (latency
   percentiles, worker table, hottest tiers) over the live socket, and
   ``darco status`` shows the queue-wait/run percentile lines.
5. A deadline-killed job fails with a flight recorder attached;
   ``darco fetch --postmortem`` exports it as a versioned artifact.

Exit status 0 on success.  Run from the repository root::

    PYTHONPATH=src python tools/obs_smoke.py
"""

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

WORKROOT = Path(".obs_smoke")
SOCK = WORKROOT / "serve.sock"
TRACES = WORKROOT / "traces"
#: Long enough (about 4 s with checkpoints) that a status poll, a fresh
#: CLI process each time, sees the worker busy before the job finishes.
CHAOS_PARAMS = {"workload": "429.mcf", "scale": 10.0}


def cli(*args, check=True, timeout=300):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, timeout=timeout)
    if check and proc.returncode != 0:
        fail(f"darco {' '.join(args)} exited {proc.returncode}\n"
             f"stdout: {proc.stdout}\nstderr: {proc.stderr}")
    return proc


def serve_cli(*args, **kw):
    return cli(*args, "--socket", str(SOCK), **kw)


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def wait_for_socket(deadline_s=30):
    end = time.time() + deadline_s
    while time.time() < end:
        if SOCK.exists():
            probe = socket.socket(socket.AF_UNIX)
            try:
                probe.connect(str(SOCK))
                return
            except OSError:
                pass
            finally:
                probe.close()
        time.sleep(0.1)
    fail("serve socket never came up")


def json_tail(text):
    start = text.index("{")
    return json.loads(text[start:])


def healthz():
    return json.loads(serve_cli("status", "--json").stdout)


def merge_and_validate(job, out_name):
    """``darco trace --job`` + schema validation; returns the doc."""
    out = WORKROOT / out_name
    proc = cli("trace", "--job", job, "--trace-dir", str(TRACES),
               "--out", str(out))
    if "span files" not in proc.stdout:
        fail(f"trace merge said nothing useful: {proc.stdout}")
    check = subprocess.run(
        [sys.executable, "tools/validate_trace.py", str(out)],
        capture_output=True, text=True)
    if check.returncode != 0:
        fail(f"validate_trace rejected {out}:\n"
             f"{check.stdout}{check.stderr}")
    return json.loads(out.read_text())


def events_of(doc):
    return [ev for ev in doc["traceEvents"] if ev.get("ph") != "M"]


def main():
    shutil.rmtree(WORKROOT, ignore_errors=True)
    WORKROOT.mkdir()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--socket", str(SOCK), "--workers", "2", "--max-attempts", "6",
         "--cache-dir", str(WORKROOT / "cache"),
         "--checkpoint-dir", str(WORKROOT / "ckpt"),
         "--tracing", "full", "--trace-dir", str(TRACES),
         "--metrics-interval", "0.2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        wait_for_socket()
        print("== serve up (tracing full)")

        # 1. A traced job end to end; the client mints the trace id.
        done = serve_cli("submit", "workload_metrics",
                         "--param", "workload=429.mcf",
                         "--param", "scale=0.05",
                         "--trace", "full", "--trace-dir", str(TRACES),
                         "--wait")
        first_line = done.stdout.splitlines()[0]
        if " trace " not in first_line:
            fail(f"submit printed no trace id: {first_line}")
        clean_job = first_line.split()[1]
        trace_id = first_line.split(" trace ")[1].strip()
        if json_tail(done.stdout).get("state") != "done":
            fail("traced job did not complete")
        print(f"== traced job {clean_job} done (trace {trace_id})")

        # 2. Chaos: SIGKILL the worker under a traced arch_run.
        sub = serve_cli("submit", "arch_run",
                        "--params", json.dumps(CHAOS_PARAMS),
                        "--max-attempts", "6")
        chaos_job = sub.stdout.split()[1]
        victim = None
        for _ in range(300):
            busy = [w for w in healthz()["workers"]
                    if w["state"] == "busy" and w["pid"]]
            if busy:
                victim = busy[0]["pid"]
                break
            time.sleep(0.05)
        if victim is None:
            fail("no worker ever went busy on the chaos job")
        time.sleep(0.3)  # let it get past the first checkpoint
        os.kill(victim, signal.SIGKILL)
        final = json_tail(serve_cli("fetch", chaos_job, "--wait",
                                    "--timeout", "300").stdout)
        if final.get("state") != "done" or final.get("attempts", 0) < 2:
            fail(f"chaos job did not resume to completion: {final}")
        print(f"== chaos job {chaos_job} resumed "
              f"({final['attempts']} attempts)")

        # 3. One merged Perfetto timeline per job.
        doc = merge_and_validate(clean_job, "trace_clean.json")
        events = events_of(doc)
        if doc["otherData"]["trace_ids"] != [trace_id]:
            fail(f"clean timeline trace ids: "
                 f"{doc['otherData']['trace_ids']}")
        if any(ev["args"].get("trace_id") != trace_id for ev in events):
            fail("an event lost its trace id")
        roles = {ev["args"]["name"] for ev in doc["traceEvents"]
                 if ev.get("ph") == "M"
                 and ev["name"] == "process_name"}
        if not {"client", "service", "worker"} <= roles:
            fail(f"timeline missing a process track: {roles}")
        names = {ev["name"] for ev in events}
        if not {"submit", "queue_wait", "run", "attempt"} <= names:
            fail(f"timeline missing lifecycle spans: {sorted(names)}")
        print(f"== clean timeline valid ({len(events)} events, "
              f"client+service+worker tracks)")

        chaos_doc = merge_and_validate(chaos_job, "trace_chaos.json")
        chaos_events = events_of(chaos_doc)
        chaos_names = [ev["name"] for ev in chaos_events]
        ids = {ev["args"].get("trace_id") for ev in chaos_events}
        if len(ids) != 1:
            fail(f"chaos timeline mixes trace ids: {ids}")
        for needle in ("worker_death", "retry_wait", "attempt_start"):
            if needle not in chaos_names:
                fail(f"chaos timeline lacks {needle!r}: "
                     f"{sorted(set(chaos_names))}")
        resumed = [ev for ev in chaos_events if ev["name"] == "attempt"
                   and ev["args"].get("resume")]
        if not resumed:
            fail("chaos timeline has no resumed attempt span")
        print(f"== chaos timeline valid ({len(chaos_events)} events, "
              f"kill + retry + resume visible)")

        # 4. The dashboard and the status percentiles.
        frame = serve_cli("top", "--once").stdout
        for needle in ("darco serve", "jobs/s", "latency", "workers",
                       "hottest tiers"):
            if needle not in frame:
                fail(f"darco top frame missing {needle!r}:\n{frame}")
        status = serve_cli("status").stdout
        if "queue_wait_ms" not in status or "run_ms" not in status:
            fail(f"darco status lacks latency percentiles:\n{status}")
        print("== darco top frame + status percentiles render")

        # 5. Flight recorder on a failed job, exported as an artifact.
        # Fresh params (scale differs from the chaos job) so the cached
        # chaos result cannot answer it; the tight deadline kills it.
        dead = serve_cli("submit", "arch_run",
                         "--params",
                         json.dumps({"workload": "429.mcf",
                                     "scale": 0.35}),
                         "--deadline", "0.2", "--max-attempts", "1")
        dead_job = dead.stdout.split()[1]
        post = WORKROOT / "postmortem.json"
        fetched = serve_cli("fetch", dead_job, "--wait",
                            "--timeout", "120",
                            "--postmortem", str(post), check=False)
        if fetched.returncode != 1:
            fail(f"fetch on a failed job exited {fetched.returncode}\n"
                 f"{fetched.stdout}{fetched.stderr}")
        if "flight recorder" not in fetched.stderr:
            fail(f"fetch printed no flight recorder:\n{fetched.stderr}")
        if not post.exists():
            fail("fetch --postmortem wrote no artifact")
        artifact = json.loads(post.read_text())
        if artifact.get("kind") != "job_postmortem":
            fail(f"postmortem artifact malformed: {artifact.get('kind')}")
        kinds = {(ev["kind"], ev["name"]) for ev in
                 (artifact["payload"].get("flight") or {})
                 .get("events", ())}
        if ("incident", "deadline_kill") not in kinds:
            fail(f"postmortem missing deadline_kill incident: {kinds}")
        print("== failed job carries flight recorder; postmortem written")
    finally:
        server.send_signal(signal.SIGINT)
        try:
            out, _ = server.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            out, _ = server.communicate()
            fail("serve did not shut down on SIGINT")

    if server.returncode != 0:
        fail(f"serve exited {server.returncode}:\n{out}")
    shutil.rmtree(WORKROOT, ignore_errors=True)
    print("obs smoke: OK")


if __name__ == "__main__":
    main()
