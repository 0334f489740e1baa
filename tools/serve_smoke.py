#!/usr/bin/env python
"""End-to-end smoke test for ``darco serve`` (CI job).

Everything goes through the real CLI as subprocesses — the same path a
user types — against a service with supervised workers:

1. ``darco serve`` comes up and its unix socket accepts clients.
2. ``darco submit --wait`` runs a job to completion and returns its
   result JSON.
3. Resubmitting the identical job is answered from the shared result
   cache (code 200) without consuming a worker.
4. Chaos: a checkpointable ``arch_run`` job is submitted, the busy
   worker is SIGKILLed mid-run, and ``darco fetch --wait`` must still
   return a completed result that is **bit-identical** to a clean
   in-process run — the supervisor restarted the worker and the job
   resumed from its checkpoint.
5. ``darco status`` healthz reflects the restart: the restarted worker,
   given a job, was sent the pool's shared code table (the entries the
   other workers compiled).  SIGINT shuts the service down cleanly
   (socket removed).

Exit status 0 on success; any assertion failure exits non-zero with a
diagnostic.  Run from the repository root::

    PYTHONPATH=src python tools/serve_smoke.py
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

WORKROOT = Path(".serve_smoke")
SOCK = WORKROOT / "serve.sock"
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


def serve_cli(*args):
    return cli(*args, "--socket", str(SOCK))


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
    """Parse the JSON object that ends ``text`` (after any log lines)."""
    start = text.index("{")
    return json.loads(text[start:])


def healthz():
    return json.loads(serve_cli("status", "--json").stdout)


def main():
    shutil.rmtree(WORKROOT, ignore_errors=True)
    WORKROOT.mkdir()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--socket", str(SOCK), "--workers", "2", "--max-attempts", "6",
         "--cache-dir", str(WORKROOT / "cache"),
         "--checkpoint-dir", str(WORKROOT / "ckpt")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        wait_for_socket()
        print("== serve up, socket accepting")

        # 2. A job runs to completion through submit --wait.
        done = serve_cli("submit", "workload_metrics",
                         "--param", "workload=429.mcf",
                         "--param", "scale=0.05", "--wait")
        result = json_tail(done.stdout)
        if result.get("state") != "done" or "value" not in result:
            fail(f"submit --wait did not complete the job: {result}")
        print("== submit --wait completed a job")

        # 3. The identical submission must ride the result cache.
        again = serve_cli("submit", "workload_metrics",
                          "--param", "workload=429.mcf",
                          "--param", "scale=0.05")
        if "code 200" not in again.stdout:
            fail(f"resubmit was not coalesced/cached: {again.stdout}")
        print("== identical resubmit answered from cache (code 200)")

        # 4. Chaos: SIGKILL the worker mid-job; the job must still
        # finish, bit-identical to a clean run.
        sub = serve_cli("submit", "arch_run",
                        "--params", json.dumps(CHAOS_PARAMS),
                        "--max-attempts", "6")
        job = sub.stdout.split()[1]
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
        print(f"== SIGKILLed busy worker pid={victim}")

        fetched = serve_cli("fetch", job, "--wait", "--timeout", "300")
        final = json_tail(fetched.stdout)
        if final.get("state") != "done":
            fail(f"chaos job did not complete: {final}")
        if final.get("attempts", 0) < 2:
            fail(f"chaos job finished in {final.get('attempts')} "
                 f"attempt(s) — the kill never landed mid-job")

        from repro.harness.parallel import _execute
        from repro.ioutil import canonical_json
        from repro.serve.service import wire_value
        clean = canonical_json(wire_value(
            _execute("arch_run", dict(CHAOS_PARAMS))))
        if canonical_json(final["value"]) != clean:
            fail("chaos result differs from a clean run "
                 "(determinism contract broken)")
        print(f"== chaos job completed in {final['attempts']} attempts, "
              f"bit-identical to clean run")

        # 5. The supervisor restarted the killed worker, and the
        # restarted worker's first job carried the pool's code table.
        counters = healthz()["counters"]
        if counters.get("serve.worker_restarts", 0) < 1:
            fail(f"no worker restart recorded: {counters}")
        for scale in ("0.06", "0.07", "0.08", "0.09"):
            health = healthz()
            restarted = [w for w in health["workers"] if w["spawns"] >= 2]
            if any(w["code_sent"] for w in restarted):
                break
            # The idle restarted worker takes the next job (or the one
            # after, if the other worker asked for work first).
            serve_cli("submit", "workload_metrics",
                      "--param", "workload=429.mcf",
                      "--param", f"scale={scale}", "--wait")
        health = healthz()
        table = health["code_table"]
        sent = [(w["code_sent"], w["code_returned"])
                for w in health["workers"] if w["spawns"] >= 2]
        if not any(got and got + own >= table["entries"]
                   for got, own in sent):
            fail(f"the restarted worker was not sent the pool's code "
                 f"table ({table}): {health['workers']}")
        human = serve_cli("status")
        if "live" not in human.stdout:
            fail(f"healthz summary missing liveness: {human.stdout}")
        print(f"== healthz shows the restart and the restarted worker "
              f"was sent the pool's code ({table['entries']} entries); "
              f"human summary live")
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
    if SOCK.exists():
        fail("serve left its socket behind after shutdown")
    shutil.rmtree(WORKROOT, ignore_errors=True)
    print("serve smoke: OK")


if __name__ == "__main__":
    main()
