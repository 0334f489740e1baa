"""``darco serve``: a fault-tolerant multi-tenant simulation service.

Composes the repo's existing robustness substrate into a served system
(ROADMAP item 3): the sweep task registry supplies the work, the
content-addressed :class:`~repro.harness.parallel.ResultCache` supplies
request coalescing and instant replays, the snapshot subsystem supplies
checkpoint/resume for killed workers, the shared
:class:`~repro.harness.retry.RetryPolicy` supplies attempt budgets and
backoff, and the telemetry registry supplies liveness/saturation
gauges.

Layers:

- :mod:`repro.serve.protocol` — the JSON-lines wire protocol (submit /
  status / fetch / healthz / metrics / watch / shutdown) with
  HTTP-flavoured status codes (202 accepted, 429 shed, ...);
- :mod:`repro.serve.supervisor` — one supervised worker process per
  shard: crash/SIGKILL detection and per-attempt deadline kills (the
  worker pool ``darco sweep`` runs on as well);
- :mod:`repro.serve.service` — the asyncio front end: admission
  control, a bounded queue with explicit load shedding, coalescing,
  degradation tiers, shard respawn with exponential backoff + jitter,
  the reaper, and the job table;
- :mod:`repro.serve.client` — the small blocking client used by
  ``darco submit`` / ``status`` / ``fetch`` and the benchmarks;
- :mod:`repro.serve.flightrec` — the per-job flight recorder: a
  bounded ring of recent lifecycle events attached to failed jobs;
- :mod:`repro.serve.dashboard` — the pure renderer behind
  ``darco top``.

Observability (DESIGN.md §13): jobs carry a distributed trace context
(:mod:`repro.telemetry.tracectx`) from ``darco submit`` through the
wire protocol and the shard pipe into the worker, each process
appending spans to its own span file; ``darco trace --job`` merges
them into one Perfetto timeline.  A time-series ring
(:mod:`repro.telemetry.timeseries`) samples the service registry for
``darco top`` and the ``timeseries`` op.
"""

from repro.serve.service import JobEntry, ServeConfig, ServeService
from repro.serve.client import ServeClient
from repro.serve.flightrec import FlightRecorder

__all__ = ["FlightRecorder", "JobEntry", "ServeClient", "ServeConfig",
           "ServeService"]
