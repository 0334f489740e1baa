"""``darco top``: a curses-free live dashboard for the serve platform.

Renders one frame of operator-facing service state — throughput,
latency percentiles, queue-depth history, shard liveness, and the
hottest simulation tiers — from two protocol calls (``healthz`` +
``timeseries``).  Deliberately plain text: :func:`render` is a pure
function of the two response dicts, so the test suite exercises it
without a terminal, and the CLI loop is nothing but "poll, clear
screen, print" (ANSI home+clear; no curses dependency, works over any
pipe with ``--once``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.telemetry.timeseries import sparkline

#: Tier panel: digest counter -> display label (insertion order is
#: display order).
TIER_ROWS = (
    ("jobs.tol.guest_icount", "guest insns"),
    ("jobs.tol.translations.bb", "BB translations"),
    ("jobs.tol.translations.sb", "SB translations"),
    ("jobs.cache.hits", "code-cache hits"),
    ("jobs.cache.misses", "code-cache misses"),
    ("jobs.host.insns.committed", "host insns committed"),
    ("jobs.controller.validations", "validations"),
    ("jobs.controller.recoveries", "recoveries"),
    ("jobs.resilience.incidents", "incidents"),
)

#: Worker states that render as healthy.
_GOOD_STATES = ("idle", "busy")


def _fmt_count(value: float) -> str:
    for bound, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= bound:
            return f"{value / bound:.1f}{suffix}"
    return f"{value:g}"


def _pct_line(name: str, pct: Dict[str, Any]) -> str:
    return (f"  {name:<14} p50 {pct.get('p50', 0.0):8.1f}  "
            f"p95 {pct.get('p95', 0.0):8.1f}  "
            f"p99 {pct.get('p99', 0.0):8.1f}  ms")


def render(healthz: Dict[str, Any],
           timeseries: Optional[Dict[str, Any]] = None,
           top_n: int = 6, width: int = 72) -> str:
    """One dashboard frame from a healthz (+ optional timeseries)
    response.  Pure: no I/O, no clock."""
    lines: List[str] = []
    queue = healthz.get("queue", {})
    jobs = healthz.get("jobs", {})
    counters = healthz.get("counters", {})
    workers = healthz.get("workers", [])
    alive = sum(1 for w in workers if w.get("alive"))

    lines.append(
        f"darco serve @ {healthz.get('endpoint', '?')}  "
        f"up {healthz.get('uptime_s', 0.0):.0f}s  "
        f"fingerprint {healthz.get('fingerprint', '?')}")
    lines.append("-" * width)

    rate = healthz.get("service_rate_jobs_per_s", 0.0)
    sat = healthz.get("saturation", 0.0)
    lines.append(
        f"jobs/s {rate:6.2f}   saturation {sat:5.1%}   "
        f"queue {queue.get('depth', 0)}/{queue.get('capacity', 0)} "
        f"(pending {queue.get('pending', 0)})")
    submitted = counters.get("serve.submitted", 0)
    coalesced = counters.get("serve.coalesced", 0)
    coalesce_rate = coalesced / submitted if submitted else 0.0
    lines.append(
        f"submitted {submitted}   coalesced {coalesced} "
        f"({coalesce_rate:.1%})   cache hits "
        f"{counters.get('serve.cache_hits', 0)}   stale served "
        f"{counters.get('serve.stale_served', 0)}   shed "
        f"{counters.get('serve.shed', 0)}")
    lines.append(
        f"completed {counters.get('serve.completed', 0)}   retries "
        f"{counters.get('serve.retries', 0)}   failed "
        f"{counters.get('serve.failed', 0)}   deadline kills "
        f"{counters.get('serve.deadline_kills', 0)}   worker deaths "
        f"{counters.get('serve.worker_deaths', 0)}")
    lines.append(
        "states  " + "  ".join(f"{s}:{jobs.get(s, 0)}"
                               for s in ("queued", "running",
                                         "retry-wait", "done",
                                         "failed")))

    latency = healthz.get("latency") or {}
    if latency:
        lines.append("")
        lines.append("latency")
        for name in ("queue_wait_ms", "run_ms"):
            pct = latency.get(name)
            if pct:
                lines.append(_pct_line(name, pct))

    if timeseries:
        samples = timeseries.get("samples", [])
        depths = [s.get("gauges", {}).get("serve.queue_depth", 0.0)
                  for s in samples]
        jobrates = [s.get("rates", {}).get("serve.completed", 0.0)
                    for s in samples if s.get("rates")]
        lines.append("")
        lines.append(f"queue depth  {sparkline(depths)}  "
                     f"now {depths[-1] if depths else 0:g}")
        if jobrates:
            lines.append(f"jobs/s       {sparkline(jobrates)}  "
                         f"now {jobrates[-1]:.2f}")

    lines.append("")
    lines.append(f"workers ({alive}/{len(workers)} alive)")
    for w in workers:
        state = w.get("state", "?")
        flag = " " if state in _GOOD_STATES else "!"
        busy = w.get("busy_with") or ""
        lines.append(
            f" {flag}shard {w.get('index', '?')}  {state:<8} "
            f"pid {str(w.get('pid', '-')):<8} spawns "
            f"{w.get('spawns', 0):<3} crashes {w.get('crashes_streak', 0):<3} "
            f"done {w.get('jobs_done', 0):<5} {busy[:12]}")

    tiers = [(label, counters.get(name, 0))
             for name, label in TIER_ROWS if counters.get(name, 0)]
    tiers.sort(key=lambda kv: kv[1], reverse=True)
    if tiers:
        lines.append("")
        lines.append("hottest tiers (work served)")
        top = tiers[:max(1, top_n)]
        peak = max(v for _, v in top)
        for label, value in top:
            bar = "#" * max(1, int(24 * value / peak))
            lines.append(f"  {label:<22} {_fmt_count(value):>8}  {bar}")

    return "\n".join(lines)
