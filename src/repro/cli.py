"""The ``darco`` command line interface.

Mirrors the paper's description of the controller as "the main user
interface of DARCO": run guest programs (assembly files or named
workloads) on the co-designed stack, optionally with timing/power
simulation, inspect TOL statistics, list workloads, and regenerate the
paper's figures.

Examples::

    darco list
    darco run program.s --stats
    darco run 429.mcf --scale 0.2 --timing --power
    darco figures --scale 0.5 --fig 4
    darco speed
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.guest.asmtext import assemble_text
from repro.tol.config import TolConfig


def _load_program(target: str, scale: float):
    """A path ending in .s is assembled; anything else is a workload."""
    if target.endswith(".s"):
        with open(target, "r", encoding="utf-8") as handle:
            return assemble_text(handle.read()), target
    from repro.workloads import get_workload
    workload = get_workload(target)
    return workload.program(scale=scale), workload.name


def _parse_set_pairs(pairs) -> dict:
    overrides = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key] = value
    return overrides


def _apply_config_overrides(config: TolConfig, pairs) -> TolConfig:
    try:
        return config.with_overrides(_parse_set_pairs(pairs))
    except ValueError as exc:
        raise SystemExit(str(exc))


def _merged_overrides(args) -> dict:
    """``--set`` pairs plus the dedicated robustness flags
    (``--watchdog-stall-limit`` / ``--event-budget``)."""
    overrides = _parse_set_pairs(getattr(args, "set", None))
    if getattr(args, "watchdog_stall_limit", None) is not None:
        overrides["watchdog_stall_limit"] = args.watchdog_stall_limit
    if getattr(args, "event_budget", None) is not None:
        overrides["event_budget"] = args.event_budget
    return overrides


def _add_budget_args(parser) -> None:
    parser.add_argument("--watchdog-stall-limit", type=int, default=None,
                        metavar="N",
                        help="kill a run after N consecutive events "
                             "with no guest progress (livelock guard)")
    parser.add_argument("--event-budget", type=int, default=None,
                        metavar="N",
                        help="hard cap on controller events per run "
                             "(runaway-application guard)")


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    program, name = _load_program(args.target, args.scale)
    config = _apply_config_overrides(TolConfig(), args.set)

    if args.timing or args.power:
        from repro.timing.run import run_with_timing
        result, controller, core = run_with_timing(
            program, tol_config=config, validate=not args.no_validate)
    else:
        from repro.system.controller import run_codesigned
        result, controller = run_codesigned(
            program, config=config, validate=not args.no_validate)
        core = None

    print(f"{name}: exit={result.exit_code} "
          f"guest_insns={result.guest_icount} "
          f"syscalls={result.syscalls} "
          f"data_requests={result.data_requests} "
          f"validations={result.validations}")
    if result.stdout:
        sys.stdout.write("--- guest stdout ---\n")
        sys.stdout.write(result.stdout.decode("utf-8", "replace"))
        sys.stdout.write("\n--------------------\n")
    if args.stats:
        from repro.debug.tracing import tol_stats_dump
        for key, value in tol_stats_dump(
                controller.codesigned.tol).items():
            print(f"  {key:26s}: {value}")
    if core is not None and args.timing:
        print("timing:")
        for key, value in core.report().items():
            print(f"  {key:26s}: {value}")
    if core is not None and args.power:
        from repro.power.model import PowerModel
        report = PowerModel(core.config).report(core)
        print("power:")
        print(f"  average power (W)         : "
              f"{report.average_power_w:.3f}")
        print(f"  energy per instr (pJ)     : "
              f"{report.energy_per_instruction_pj:.2f}")
        for key, fraction in sorted(report.breakdown().items(),
                                    key=lambda kv: -kv[1]):
            print(f"  dynamic {key:18s}: {fraction:.1%}")
    return 0 if result.exit_code == 0 else int(result.exit_code or 1)


def cmd_list(args) -> int:
    from repro.workloads import all_workloads
    by_suite = {}
    for workload in all_workloads():
        by_suite.setdefault(workload.suite, []).append(workload)
    for suite, items in by_suite.items():
        print(f"{suite}:")
        for w in items:
            print(f"  {w.name:<18} {w.description}")
    return 0


def cmd_figures(args) -> int:
    from repro.harness.figures import (
        fig4_table, fig5_table, fig6_table, fig7_table,
        run_suite_metrics, shape_checks,
    )
    metrics = run_suite_metrics(scale=args.scale,
                                validate=args.validate,
                                jobs=args.jobs,
                                use_cache=not args.no_cache,
                                cache_dir=args.cache_dir)
    tables = {"4": ("Figure 4: mode distribution", fig4_table),
              "5": ("Figure 5: emulation cost", fig5_table),
              "6": ("Figure 6: TOL overhead", fig6_table),
              "7": ("Figure 7: overhead breakdown", fig7_table)}
    wanted = tables.keys() if args.fig == "all" else [args.fig]
    for key in wanted:
        title, fn = tables[key]
        print(f"\n=== {title} ===")
        print(fn(metrics))
    print("\nshape checks:")
    for name, ok in shape_checks(metrics).items():
        print(f"  {'PASS' if ok else 'FAIL'}  {name}")
    return 0


def cmd_speed(args) -> int:
    from repro.harness.speed import measure_speed
    report = measure_speed(args.workload, scale=args.scale)
    print(report.table())
    return 0


def cmd_inject(args) -> int:
    """Seeded fault-injection campaign against the resilience layer.

    Exit status is 0 iff every *triggered* fault was caught — recovered
    by the controller or quarantined by the TOL's escalation ladder —
    and every run's final guest state matched the clean authoritative
    reference."""
    from repro.resilience.campaign import (
        DEFAULT_SITES, run_campaign,
    )
    from repro.resilience.faults import SITES

    sites = tuple(args.site) if args.site else DEFAULT_SITES
    for site in sites:
        if site not in SITES:
            raise SystemExit(f"unknown fault site {site!r}; valid: "
                             f"{', '.join(SITES)}")

    def progress(record, done, total):
        if not args.json:
            print(f"  [{done}/{total}] {record.site}#{record.ordinal}"
                  f" -> {record.status}", file=sys.stderr)

    overrides = _merged_overrides(args)
    report = run_campaign(args.seed, n=args.faults, sites=sites,
                          mode=args.mode, n_jobs=args.jobs or 1,
                          progress=progress if args.jobs in (None, 1)
                          else None,
                          config_overrides=overrides or None)
    if args.json:
        import json
        payload = {
            "schema_version": 1,
            "seed": report.seed,
            "mode": report.mode,
            "signature": report.signature(),
            "by_status": report.by_status,
            "all_triggered_caught": report.all_triggered_caught,
            "records": [
                {"site": r.site, "ordinal": r.ordinal, "salt": r.salt,
                 "status": r.status, "triggered": r.triggered,
                 "incidents": r.incidents,
                 "incident_kinds": list(r.incident_kinds),
                 "quarantined": r.quarantined,
                 "recoveries": r.recoveries,
                 "final_match": r.final_match,
                 "log_signature": r.log_signature,
                 "error": r.error}
                for r in report.records],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(report.table())
        print(f"campaign seed={report.seed} mode={report.mode} "
              f"signature={report.signature()[:16]}")
    ok = (report.all_triggered_caught
          and "failed" not in report.by_status)
    if not args.json:
        print("RESULT: PASS — every triggered fault was caught"
              if ok else "RESULT: FAIL — uncaught faults present")
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    import time

    from repro.harness.figures import (
        fig4_table, fig5_table, fig6_table, fig7_table, shape_checks,
    )
    from repro.harness.parallel import (
        ResultCache, merged_telemetry, print_progress, retry_summary,
        serialize_params, suite_sweep_jobs, sweep, telemetry_digest,
    )
    overrides = _merged_overrides(args)
    try:
        config = TolConfig().with_overrides(overrides) \
            if overrides else None
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.arch and args.timing:
        print("--arch and --timing are mutually exclusive",
              file=sys.stderr)
        return 1
    if args.arch:
        task = "arch_run"
    elif args.timing:
        task = "timing_report"
    else:
        task = "workload_metrics"
    sweep_jobs = suite_sweep_jobs(scale=args.scale, config=config,
                                  workloads=args.workload or None,
                                  validate=args.validate, task=task)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    start = time.perf_counter()
    results = sweep(sweep_jobs, n_jobs=args.jobs,
                    use_cache=not args.no_cache, cache=cache,
                    timeout=args.timeout, progress=print_progress,
                    checkpoint_dir=args.checkpoint_dir,
                    checkpoint_every=args.checkpoint_every,
                    resume=args.resume, retries=args.retries)
    wall = time.perf_counter() - start
    failed = [r for r in results if not r.ok]
    hits = cache.hits if cache is not None else 0
    print(f"\nsweep: {len(results) - len(failed)}/{len(results)} tasks ok, "
          f"{hits} cache hits, {wall:.1f}s wall "
          f"(jobs={args.jobs or 'auto'}, "
          f"cache={'off' if args.no_cache else args.cache_dir})")
    retried = retry_summary(results)
    if retried["extra_attempts"]:
        print(f"retries: {retried['tasks_retried']} task(s) retried, "
              f"{retried['extra_attempts']} extra attempt(s), "
              f"{retried['rescued']} rescued by retry")
    from repro.harness.parallel import SWEEP_ERROR_COUNTERS, SWEEP_ERROR_LOG
    swallowed = SWEEP_ERROR_COUNTERS.get("sweep.errors.swallowed", 0)
    if swallowed:
        print(f"sweep.errors.swallowed={swallowed} (unexpected exceptions "
              f"absorbed by the harness; most recent below)")
        for context, summary in list(SWEEP_ERROR_LOG)[-5:]:
            print(f"  {context}: {summary}")
    if args.out:
        # Deterministic result artifact: only resume-stable fields go
        # in (attempts/durations vary run to run), so a resumed sweep's
        # output is byte-identical to an uninterrupted one.
        from pathlib import Path

        from repro.ioutil import write_artifact
        payload = {"results": [
            {"task": r.job.task,
             "label": r.job.label,
             "params": serialize_params(r.job.params),
             "ok": r.ok,
             "value": (r.value.as_dict()
                       if hasattr(r.value, "as_dict")
                       else serialize_params(r.value)),
             "telemetry_digest": telemetry_digest(r.value),
             "error": r.error,
             "stderr_tail": r.stderr_tail}
            for r in results]}
        write_artifact(args.out, "sweep_results", 1, payload)
        print(f"wrote {args.out}")
        merged = merged_telemetry(results)
        if merged is not None:
            telemetry_path = Path(args.out).with_suffix(".telemetry.json")
            merged.save(telemetry_path)
            print(f"wrote {telemetry_path} (merged telemetry of "
                  f"{sum(1 for r in results if r.ok)} tasks)")
    for r in failed:
        print(f"\nFAILED {r.job.label} after {r.attempts} attempt(s):")
        for line in r.error.rstrip().splitlines():
            print(f"  {line}")
    if failed:
        return 1
    if args.figures and (args.arch or args.timing):
        print("--figures needs performance metrics; rerun without "
              "--arch/--timing", file=sys.stderr)
        return 1
    if args.figures:
        metrics = [r.value for r in results]
        for title, fn in (("Figure 4: mode distribution", fig4_table),
                          ("Figure 5: emulation cost", fig5_table),
                          ("Figure 6: TOL overhead", fig6_table),
                          ("Figure 7: overhead breakdown", fig7_table)):
            print(f"\n=== {title} ===")
            print(fn(metrics))
        print("\nshape checks:")
        for name, ok in shape_checks(metrics).items():
            print(f"  {'PASS' if ok else 'FAIL'}  {name}")
    return 0


def _print_snapshot(snapshot, show_zeros: bool = False) -> None:
    """Human-readable instrument table for a telemetry snapshot."""
    print("counters:")
    for name, value in snapshot.counters.items():
        if value or show_zeros:
            print(f"  {name:36s} {value}")
    if snapshot.gauges:
        print("gauges:")
        for name, value in snapshot.gauges.items():
            if value or show_zeros:
                print(f"  {name:36s} {value:g}")
    if snapshot.histograms:
        print("histograms:")
        for name, hist in snapshot.histograms.items():
            count = hist.get("count", 0)
            if not count and not show_zeros:
                continue
            mean = hist.get("total", 0) / count if count else 0.0
            print(f"  {name:36s} n={count} mean={mean:.1f}")


def cmd_metrics(args) -> int:
    """Dump a workload's metrics snapshot, or diff two saved snapshots."""
    if args.diff:
        from repro.ioutil import SchemaError
        from repro.telemetry import TelemetrySnapshot
        try:
            before = TelemetrySnapshot.load(args.diff[0])
            after = TelemetrySnapshot.load(args.diff[1])
        except SchemaError as exc:
            print(f"cannot load snapshot: {exc}", file=sys.stderr)
            return 1
        delta = before.diff(after)
        print(f"counter deltas ({args.diff[1]} - {args.diff[0]}):")
        for name, value in delta["counters"].items():
            if value or args.all:
                print(f"  {name:36s} {value:+d}")
        if delta["gauges"]:
            print("gauge changes (before -> after):")
            for name, (va, vb) in delta["gauges"].items():
                print(f"  {name:36s} {va} -> {vb}")
        changed_hists = {n: d for n, d in delta["histograms"].items() if d}
        if changed_hists:
            print("histogram observation deltas:")
            for name, value in changed_hists.items():
                print(f"  {name:36s} {value:+d}")
        return 0

    if not args.target:
        raise SystemExit("metrics needs a target (or --diff A B)")
    program, name = _load_program(args.target, args.scale)
    config = _apply_config_overrides(TolConfig(), args.set)
    if config.telemetry == "off":
        # The whole point of this command is a snapshot.
        config = replace(config, telemetry="counters")
    if args.timing:
        from repro.timing.run import run_with_timing
        result, _controller, core = run_with_timing(
            program, tol_config=config, validate=not args.no_validate)
    else:
        from repro.system.controller import run_codesigned
        result, _controller = run_codesigned(
            program, config=config, validate=not args.no_validate)
        core = None
    print(f"{name}: exit={result.exit_code} "
          f"guest_insns={result.guest_icount}")
    if core is not None:
        print("timing report:")
        for key, value in core.report().items():
            print(f"  {key:26s}: {value}")
    _print_snapshot(result.telemetry, show_zeros=args.all)
    if args.out:
        digest = result.telemetry.save(args.out)
        print(f"wrote {args.out} ({digest[:12]})")
    return 0 if result.exit_code == 0 else int(result.exit_code or 1)


def cmd_trace(args) -> int:
    """Run a workload in full-trace mode and export the span trace, or
    (--job/--trace-id) merge a served job's distributed span files into
    one Perfetto timeline."""
    if args.job or args.trace_id:
        return _cmd_trace_merge(args)
    if not args.target:
        raise SystemExit("need a workload target (or --job/--trace-id "
                         "to merge a served job's trace)")
    program, name = _load_program(args.target, args.scale)
    config = _apply_config_overrides(TolConfig(), args.set)
    config = replace(config, telemetry="full")
    from repro.system.controller import run_codesigned
    result, controller = run_codesigned(
        program, config=config, validate=not args.no_validate)
    tracer = controller.telemetry.tracer
    tracer.write_chrome(args.out)
    print(f"{name}: exit={result.exit_code} "
          f"guest_insns={result.guest_icount}")
    print(f"wrote {args.out} ({len(tracer.events)} events, "
          f"{tracer.dropped} dropped) — load in Perfetto "
          f"(ui.perfetto.dev) or chrome://tracing")
    if args.jsonl:
        tracer.write_jsonl(args.jsonl)
        print(f"wrote {args.jsonl}")
    return 0 if result.exit_code == 0 else int(result.exit_code or 1)


def _cmd_trace_merge(args) -> int:
    """Assemble one timeline for a served job from the per-process span
    files (client + service + workers).  Works offline: only the trace
    directory is read, no live service needed."""
    from repro.telemetry.tracemerge import write_merged_trace

    doc = write_merged_trace(args.trace_dir, args.out,
                             trace_id=args.trace_id, job=args.job)
    events = [ev for ev in doc["traceEvents"] if ev.get("ph") != "M"]
    other = doc.get("otherData", {})
    if not events:
        print(f"no spans matching "
              f"{'job ' + args.job if args.job else ''}"
              f"{'trace ' + args.trace_id if args.trace_id else ''} "
              f"under {args.trace_dir} "
              f"(is the service tracing? see darco serve --tracing)",
              file=sys.stderr)
        return 1
    span_ms = max((ev.get("ts", 0) + ev.get("dur", 0)
                   for ev in events), default=0) / 1000.0
    print(f"wrote {args.out} ({len(events)} events from "
          f"{len(other.get('span_files', []))} span files, "
          f"{span_ms:.1f}ms timeline, trace ids: "
          f"{', '.join(other.get('trace_ids', [])) or '-'}) — load in "
          f"Perfetto (ui.perfetto.dev) or chrome://tracing")
    return 0


def cmd_repro(args) -> int:
    """Replay a divergence repro bundle deterministically.

    Exit status: 0 when the bundle's failure reproduces, 2 when the
    replay runs clean (the bug did not reproduce), 1 when the bundle
    cannot be loaded."""
    from repro.ioutil import SchemaError
    from repro.snapshot.bundle import load_bundle, replay_bundle

    try:
        bundle = load_bundle(args.bundle)
    except SchemaError as exc:
        print(f"cannot load bundle: {exc}", file=sys.stderr)
        return 1

    fault = bundle.fault
    print(f"bundle: reason={bundle.reason} "
          f"guest_icount={bundle.guest_icount} "
          f"incidents={len(bundle.incidents)} "
          f"signature={bundle.incident_signature[:16]}")
    if bundle.error:
        print(f"  error: {bundle.error}")
    if fault:
        print(f"  fault: site={fault['site']} ordinal={fault['ordinal']} "
              f"salt={fault['salt']:#x}")
    if args.from_checkpoint and bundle.checkpoint is None:
        print("bundle carries no checkpoint; replaying from program "
              "start", file=sys.stderr)

    outcome, controller = replay_bundle(
        bundle, max_events=args.max_events,
        from_checkpoint=args.from_checkpoint and bundle.checkpoint
        is not None)
    status = "REPRODUCED" if outcome.reproduced else "did not reproduce"
    print(f"replay: {status} "
          f"(diverged={outcome.diverged} kinds={outcome.kinds} "
          f"exit={outcome.exit_code})")
    if outcome.error:
        print(f"  replay error: {outcome.error}")

    if args.find and outcome.reproduced:
        from repro.debug.divergence import find_divergence
        from repro.guest.syscalls import GuestOS
        stdin, seed = bundle.os_stdin, bundle.os_seed
        div = find_divergence(
            bundle.program, config=bundle.config, fault=fault,
            os_factory=lambda: GuestOS(stdin=stdin, rand_seed=seed))
        print(f"find_divergence: {div}" if div is not None
              else "find_divergence: no dispatch-level divergence "
                   "(incident was caught before state escaped)")

    if args.minimize and outcome.reproduced:
        from repro.snapshot.minimize import format_program, minimize_bundle
        minimized = minimize_bundle(
            bundle, max_events=args.max_events or 200_000)
        print(f"minimized: {minimized.original_instructions} -> "
              f"{minimized.instructions} instructions "
              f"({minimized.tests_run} oracle runs, "
              f"compacted={minimized.compacted})")
        print(format_program(minimized.program))

    return 0 if outcome.reproduced else 2


def _parse_plant(spec: str) -> dict:
    """``site:ordinal:salt@exec`` -> FuzzConfig.plant dict."""
    try:
        body, sep, exec_s = spec.partition("@")
        if not sep:
            raise ValueError("missing @exec")
        site, ordinal, salt = body.split(":")
        return {"site": site, "ordinal": int(ordinal),
                "salt": int(salt, 0), "exec": int(exec_s)}
    except (ValueError, TypeError):
        raise SystemExit(
            f"--plant expects SITE:ORDINAL:SALT@EXEC "
            f"(e.g. host_bitflip:0:0x1@2), got {spec!r}")


def cmd_fuzz(args) -> int:
    """Run a coverage-guided differential fuzz campaign.

    Exit status: 0 when the campaign completed and every finding was
    fully triaged (minimized where enabled and confirmed by replay),
    1 when any finding failed to confirm."""
    import json

    from repro.fuzz import FuzzConfig, run_campaign

    config = FuzzConfig(
        seed=args.seed, budget=args.budget,
        jobs=args.jobs or 1, batch=args.batch,
        sanitize=not args.no_sanitize,
        timing_every=args.timing_every,
        max_events=args.max_events, step_cap=args.step_cap,
        repro_dir=args.repro_dir, corpus_dir=args.corpus_dir,
        overrides=_parse_set_pairs(args.set),
        plant=_parse_plant(args.plant) if args.plant else None,
        minimize=not args.no_minimize,
        confirm=not args.no_confirm)

    def progress(executed, budget, edges, n_findings):
        print(f"  fuzz: {executed}/{budget} execs  {edges} edges  "
              f"{n_findings} findings", file=sys.stderr)

    result = run_campaign(config, progress=progress)

    if args.json or args.out:
        text = json.dumps(result.as_dict(), indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.out}")
        if args.json:
            print(text)
    else:
        print(f"campaign: {result.executions} execs in "
              f"{result.elapsed_s:.1f}s "
              f"({result.execs_per_sec:.2f} execs/s)  "
              f"seed={config.seed} jobs={config.jobs}")
        classified = " ".join(f"{k}={v}" for k, v in
                              sorted(result.classified.items()))
        print(f"classified: {classified}")
        print(f"coverage: {len(result.coverage)} edges  "
              f"digest={result.coverage_digest[:16]}")
        print(f"corpus: {result.corpus_size} entries")
        print(f"findings: {len(result.findings)}")
        for f in result.findings:
            print(f"  [{f.kind}] leg={f.leg} exec={f.exec_index} "
                  f"sig={f.signature[:16]} dupes={f.duplicates}")
            if f.minimized_instructions is not None:
                print(f"    minimized: {f.original_instructions} -> "
                      f"{f.minimized_instructions} instructions")
            if f.confirmed is not None:
                print(f"    confirmed: {f.confirmed}")
            if f.bundle_path:
                print(f"    bundle: {f.bundle_path}")

    untriaged = [f for f in result.findings
                 if not args.no_confirm and f.confirmed is not True]
    return 1 if untriaged else 0


DEFAULT_SOCKET = ".darco-serve.sock"


def _serve_client(args):
    from repro.serve.client import ServeClient
    if args.port:
        return ServeClient(host=args.host, port=args.port,
                           timeout=args.rpc_timeout)
    return ServeClient(socket_path=args.socket, timeout=args.rpc_timeout)


def cmd_serve(args) -> int:
    """Run the fault-tolerant simulation service until shutdown."""
    import asyncio

    from repro.harness.retry import RetryPolicy
    from repro.serve import ServeConfig, ServeService

    retry = RetryPolicy(max_attempts=max(1, args.max_attempts),
                        base_delay_s=0.05, max_delay_s=2.0, jitter=0.5)
    config = ServeConfig(
        socket_path=None if args.port is not None else args.socket,
        host=args.host, port=args.port,
        workers=args.workers, max_pending=args.max_pending,
        default_deadline_s=args.deadline, retry=retry,
        use_cache=not args.no_cache, cache_dir=args.cache_dir,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        stale_serve=not args.no_stale,
        tracing=args.tracing, trace_dir=args.trace_dir,
        metrics_interval_s=args.metrics_interval,
        timeseries_capacity=args.timeseries_capacity)
    service = ServeService(config)

    async def _main():
        await service.start()
        print(f"darco serve: listening on {service.endpoint} "
              f"({config.workers} workers, queue {config.max_pending}, "
              f"cache={'off' if args.no_cache else args.cache_dir})",
              flush=True)
        try:
            await service.serve_until_shutdown()
        except asyncio.CancelledError:
            await service.stop()
            raise

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_submit(args) -> int:
    """Submit one job; optionally wait for (and print) its result."""
    import json

    from repro.serve.client import ServeError

    params = {}
    if args.params:
        try:
            decoded = json.loads(args.params)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"--params is not valid JSON: {exc}")
        if not isinstance(decoded, dict):
            raise SystemExit("--params must be a JSON object")
        params.update(decoded)
    for pair in args.param or ():
        if "=" not in pair:
            raise SystemExit(f"--param expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    overrides = _parse_set_pairs(args.set)
    if overrides:
        base = params.get("config")
        params["config"] = ({**base, **overrides}
                            if isinstance(base, dict) else overrides)
    extra = {}
    if args.deadline is not None:
        extra["deadline_s"] = args.deadline
    if args.max_attempts is not None:
        extra["max_attempts"] = args.max_attempts

    # Distributed tracing: mint the trace context here, at the very
    # start of the job's lifecycle, and record the submit RPC as the
    # timeline's first span.  Without --trace the server decides
    # (its --tracing default); --trace off suppresses even that.
    ctx = spans = None
    if args.trace is not None:
        from repro.telemetry.tracectx import (
            SpanFileWriter, TraceContext, epoch_us, mint_trace_id)
        ctx = TraceContext(trace_id=args.trace_id or mint_trace_id(),
                           mode=args.trace)
        if args.trace != "off":
            spans = SpanFileWriter(args.trace_dir, "client")
        extra["trace"] = ctx.as_wire()

    try:
        with _serve_client(args) as client:
            if spans is not None:
                submit_start = epoch_us()
            reply = client.submit(args.task, params,
                                  label=args.label or "", **extra)
            code = reply.get("code")
            if spans is not None and "job" in reply:
                spans.complete("submit", "client", submit_start,
                               epoch_us(),
                               ctx=ctx.with_job(reply["job"]),
                               code=code, task=args.task)
            if code == 429:
                print(f"shed: {reply.get('error')} "
                      f"(retry after {reply.get('retry_after_s')}s)",
                      file=sys.stderr)
                return 2
            if reply.get("error"):
                print(f"submit failed ({code}): {reply['error']}",
                      file=sys.stderr)
                return 1
            note = "".join((
                ", coalesced" if reply.get("coalesced") else "",
                ", cached" if reply.get("cached") else "",
                ", STALE" if reply.get("stale") else ""))
            trace_note = (f" trace {reply['trace_id']}"
                          if reply.get("trace_id") else "")
            print(f"job {reply['job']} {reply['state']} "
                  f"(code {code}{note}){trace_note}")
            if not args.wait:
                return 0
            if spans is not None:
                wait_start = epoch_us()
            final = client.wait(reply["job"], timeout=args.timeout)
            if spans is not None:
                spans.complete("wait", "client", wait_start, epoch_us(),
                               ctx=ctx.with_job(reply["job"]),
                               state=final.get("state"))
            print(json.dumps(final, indent=2, sort_keys=True))
            return 0 if final.get("state") == "done" else 1
    except ServeError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 1


def cmd_serve_status(args) -> int:
    """Job status (with --watch streaming) or, without a job id, the
    service healthz summary."""
    import json

    from repro.serve.client import ServeError

    try:
        with _serve_client(args) as client:
            if args.job and args.watch:
                for update in client.watch(args.job):
                    if update.get("error"):
                        print(f"serve: {update['error']}",
                              file=sys.stderr)
                        return 1
                    print(f"{update.get('state'):<11} "
                          f"attempts={update.get('attempts')} "
                          f"{(update.get('events') or [''])[-1]}")
                return 0
            if args.job:
                reply = client.status(args.job)
                if reply.get("error"):
                    print(f"serve: {reply['error']}", file=sys.stderr)
                    return 1
                print(json.dumps(reply, indent=2, sort_keys=True))
                return 0
            health = client.healthz()
            if args.json:
                print(json.dumps(health, indent=2, sort_keys=True))
                return 0
            queue = health["queue"]
            print(f"serve at {health['endpoint']}: live, "
                  f"up {health['uptime_s']}s, "
                  f"saturation {health['saturation']:.2f} "
                  f"(pending {queue['pending']}/{queue['capacity']})")
            for name, pct in (health.get("latency") or {}).items():
                print(f"  {name:14s} p50={pct.get('p50', 0.0):g}ms "
                      f"p95={pct.get('p95', 0.0):g}ms "
                      f"p99={pct.get('p99', 0.0):g}ms")
            host = health["host"]
            load = host.get("loadavg") or {}
            print(f"host: {host['cpu_count']} cpus "
                  f"({host['available_cpus']} available), "
                  f"load {load.get('1m', '?')}")
            for worker in health["workers"]:
                print(f"  worker {worker['index']}: {worker['state']} "
                      f"pid={worker['pid']} spawns={worker['spawns']} "
                      f"done={worker['jobs_done']}")
            print("jobs: " + " ".join(
                f"{state}={count}"
                for state, count in health["jobs"].items()))
            for name, value in sorted(health["counters"].items()):
                print(f"  {name:28s} {value}")
            return 0
    except ServeError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 1


KIND_POSTMORTEM = "job_postmortem"
POSTMORTEM_SCHEMA_VERSION = 1


def _write_postmortem(path, reply) -> None:
    """Persist a failed job's record — flight recorder included — as a
    versioned artifact for offline triage."""
    from repro.ioutil import write_artifact
    write_artifact(path, KIND_POSTMORTEM, POSTMORTEM_SCHEMA_VERSION,
                   reply)
    print(f"wrote postmortem {path}", file=sys.stderr)


def cmd_fetch(args) -> int:
    """Fetch a completed job's value (exit 1: failed, 2: not done)."""
    import json

    from repro.serve.client import ServeError

    try:
        with _serve_client(args) as client:
            reply = client.fetch(args.job) if not args.wait \
                else client.wait(args.job, timeout=args.timeout)
    except ServeError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 1
    if reply.get("error") and "value" not in reply:
        print(f"serve: {reply['error']}", file=sys.stderr)
        return 1
    state = reply.get("state")
    if state == "failed":
        print(f"job {args.job} failed after "
              f"{reply.get('attempts')} attempt(s): "
              f"{reply.get('last_error')}", file=sys.stderr)
        flight = reply.get("flight")
        if flight and flight.get("events"):
            print(f"flight recorder ({len(flight['events'])} events, "
                  f"{flight.get('dropped', 0)} dropped):",
                  file=sys.stderr)
            for ev in flight["events"]:
                detail = {k: v for k, v in ev.items()
                          if k not in ("t", "kind", "name")}
                print(f"  {ev.get('kind', '?'):8s} "
                      f"{ev.get('name', '?'):16s} "
                      f"{json.dumps(detail, sort_keys=True)}",
                      file=sys.stderr)
        if args.postmortem:
            _write_postmortem(args.postmortem, reply)
        return 1
    if state != "done":
        print(f"job {args.job} not done yet (state {state!r}); "
              f"use --wait", file=sys.stderr)
        return 2
    if reply.get("stale"):
        print(f"NOTE: stale result (computed at source fingerprint "
              f"{reply.get('stale_fingerprint', '')[:12]})",
              file=sys.stderr)
    text = json.dumps(reply, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_top(args) -> int:
    """Live service dashboard (curses-free); --once prints one frame."""
    import time as _time

    from repro.serve.client import ServeError
    from repro.serve.dashboard import render

    def frame(client) -> str:
        health = client.healthz()
        try:
            series = client.timeseries(n=args.window)
        except ServeError:
            series = {}
        return render(health, (series or {}).get("timeseries"),
                      top_n=args.top)

    try:
        with _serve_client(args) as client:
            if args.once:
                print(frame(client))
                return 0
            while True:
                text = frame(client)
                # ANSI home + clear-to-end: a poor man's curses that
                # works on every terminal the test suite cares about.
                sys.stdout.write("\x1b[H\x1b[2J" + text + "\n")
                sys.stdout.flush()
                _time.sleep(max(0.2, args.interval))
    except KeyboardInterrupt:
        return 0
    except ServeError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darco",
        description="DARCO: simulation infrastructure for HW/SW "
                    "co-designed processors (ISPASS 2017 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a .s file or named workload")
    run_p.add_argument("target", help="assembly file (*.s) or workload")
    run_p.add_argument("--scale", type=float, default=1.0,
                       help="workload scale factor")
    run_p.add_argument("--timing", action="store_true",
                       help="attach the timing simulator")
    run_p.add_argument("--power", action="store_true",
                       help="report power/energy (implies timing model)")
    run_p.add_argument("--stats", action="store_true",
                       help="print TOL statistics")
    run_p.add_argument("--no-validate", action="store_true",
                       help="skip authoritative state validation")
    run_p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a TolConfig field (repeatable)")
    run_p.set_defaults(fn=cmd_run)

    list_p = sub.add_parser("list", help="list the workload suite")
    list_p.set_defaults(fn=cmd_list)

    fig_p = sub.add_parser("figures",
                           help="regenerate the paper's figures")
    fig_p.add_argument("--fig", choices=["4", "5", "6", "7", "all"],
                       default="all")
    fig_p.add_argument("--scale", type=float, default=1.0)
    fig_p.add_argument("--validate", action="store_true")
    fig_p.add_argument("--jobs", "-j", type=int, default=None,
                       help="parallel worker processes "
                            "(default: sequential)")
    fig_p.add_argument("--no-cache", action="store_true",
                       help="disable the persistent result cache")
    fig_p.add_argument("--cache-dir", default=".repro_cache",
                       help="result cache directory "
                            "(default: .repro_cache)")
    fig_p.set_defaults(fn=cmd_figures)

    sweep_p = sub.add_parser(
        "sweep",
        help="fan the workload suite out over worker processes with a "
             "persistent result cache")
    sweep_p.add_argument("--jobs", "-j", type=int, default=None,
                         help="worker processes (default: cpu count)")
    sweep_p.add_argument("--no-cache", action="store_true",
                         help="disable the persistent result cache")
    sweep_p.add_argument("--cache-dir", default=".repro_cache",
                         help="result cache directory "
                              "(default: .repro_cache)")
    sweep_p.add_argument("--scale", type=float, default=1.0,
                         help="workload scale factor")
    sweep_p.add_argument("--workload", action="append", metavar="NAME",
                         help="restrict to this workload (repeatable; "
                              "default: the full paper suite)")
    sweep_p.add_argument("--validate", action="store_true",
                         help="enable authoritative state validation")
    sweep_p.add_argument("--timeout", type=float, default=None,
                         help="per-attempt timeout in seconds")
    sweep_p.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override a TolConfig field (repeatable)")
    sweep_p.add_argument("--figures", action="store_true",
                         help="print the figure tables after the sweep")
    sweep_p.add_argument("--arch", action="store_true",
                         help="run architectural (checkpointable) tasks "
                              "instead of performance metrics")
    sweep_p.add_argument("--timing", action="store_true",
                         help="run detailed-timing tasks (cycle reports "
                              "via the annotated fast path) instead of "
                              "performance metrics")
    sweep_p.add_argument("--checkpoint-dir", default=None,
                         help="write per-task checkpoints here; enables "
                              "crash-resumable sweeps for --arch tasks")
    sweep_p.add_argument("--checkpoint-every", type=int, default=1,
                         help="checkpoint cadence in validation "
                              "boundaries (default: 1)")
    sweep_p.add_argument("--resume", action="store_true",
                         help="resume interrupted tasks from their last "
                              "checkpoint (rerun the same sweep command "
                              "after a crash or kill)")
    sweep_p.add_argument("--out", default=None, metavar="PATH",
                         help="write a deterministic JSON result "
                              "artifact (resume-stable fields only)")
    sweep_p.add_argument("--retries", type=int, default=None,
                         metavar="N",
                         help="extra attempts per failed task "
                              "(default: 1 immediate retry)")
    _add_budget_args(sweep_p)
    sweep_p.set_defaults(fn=cmd_sweep)

    repro_p = sub.add_parser(
        "repro",
        help="replay a divergence repro bundle deterministically "
             "(exit 0 iff the failure reproduces)")
    repro_p.add_argument("bundle", help="path to a bundle-*.json file")
    repro_p.add_argument("--from-checkpoint", action="store_true",
                         help="replay from the bundle's embedded "
                              "checkpoint instead of program start")
    repro_p.add_argument("--find", action="store_true",
                         help="run the dispatch-level divergence finder "
                              "on a reproduced failure")
    repro_p.add_argument("--minimize", action="store_true",
                         help="delta-debug the guest program down to a "
                              "minimal diverging instruction sequence")
    repro_p.add_argument("--max-events", type=int, default=None,
                         help="cap replay length in controller events")
    repro_p.set_defaults(fn=cmd_repro)

    inject_p = sub.add_parser(
        "inject",
        help="run a seeded fault-injection campaign against the "
             "resilience layer (exit 0 iff every triggered fault was "
             "recovered or quarantined)")
    inject_p.add_argument("--seed", type=int, default=7,
                          help="campaign master seed (default: 7)")
    inject_p.add_argument("--faults", "-n", type=int, default=50,
                          help="number of faults to plan (default: 50)")
    inject_p.add_argument("--site", action="append", metavar="SITE",
                          help="restrict to this fault site "
                               "(repeatable; default: every site that "
                               "fires on the campaign workload)")
    inject_p.add_argument("--mode", choices=["recover", "strict"],
                          default="recover",
                          help="recovery_mode for the campaign runs "
                               "(default: recover)")
    inject_p.add_argument("--jobs", "-j", type=int, default=None,
                          help="fan the campaign out over worker "
                               "processes (default: sequential)")
    inject_p.add_argument("--json", action="store_true",
                          help="emit the full report as JSON")
    inject_p.add_argument("--set", action="append", metavar="KEY=VALUE",
                          help="override a TolConfig field for every "
                               "campaign run (repeatable)")
    _add_budget_args(inject_p)
    inject_p.set_defaults(fn=cmd_inject)

    fuzz_p = sub.add_parser(
        "fuzz",
        help="coverage-guided differential fuzz campaign across the "
             "execution tiers with auto-minimized repro triage "
             "(exit 0 iff every finding confirmed)")
    fuzz_p.add_argument("--seed", type=int, default=1,
                        help="campaign master seed (default: 1)")
    fuzz_p.add_argument("--budget", "-n", type=int, default=200,
                        help="candidate executions (default: 200)")
    fuzz_p.add_argument("--jobs", "-j", type=int, default=None,
                        help="fan candidates out over worker processes "
                             "(default: sequential; the mutant stream "
                             "and results are identical at any value)")
    fuzz_p.add_argument("--batch", type=int, default=16,
                        help="candidates per scheduling round "
                             "(default: 16)")
    fuzz_p.add_argument("--plant", metavar="SITE:ORD:SALT@EXEC",
                        default=None,
                        help="plant a deterministic fault on one "
                             "execution (campaign self-test, e.g. "
                             "host_bitflip:0:0x1@2)")
    fuzz_p.add_argument("--repro-dir", default=None, metavar="DIR",
                        help="write self-contained repro bundles for "
                             "findings here")
    fuzz_p.add_argument("--corpus-dir", default=None, metavar="DIR",
                        help="extra seed programs (corpus JSON files)")
    fuzz_p.add_argument("--timing-every", type=int, default=0,
                        metavar="N",
                        help="run the annotated-timing oracle leg on "
                             "every Nth candidate (default: off)")
    fuzz_p.add_argument("--max-events", type=int, default=100_000,
                        help="controller event budget per oracle leg "
                             "(runaway mutants classify as 'runaway' "
                             "and are skipped)")
    fuzz_p.add_argument("--step-cap", type=int, default=400_000,
                        help="reference-interpreter step cap per "
                             "candidate")
    fuzz_p.add_argument("--no-sanitize", action="store_true",
                        help="do not run the TOL invariant sanitizer "
                             "during oracle legs")
    fuzz_p.add_argument("--no-minimize", action="store_true",
                        help="skip ddmin minimization of findings")
    fuzz_p.add_argument("--no-confirm", action="store_true",
                        help="skip confirming findings by bundle replay")
    fuzz_p.add_argument("--json", action="store_true",
                        help="emit the full campaign result as JSON")
    fuzz_p.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON campaign result here")
    fuzz_p.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a TolConfig field for every "
                             "oracle leg (repeatable)")
    fuzz_p.set_defaults(fn=cmd_fuzz)

    metrics_p = sub.add_parser(
        "metrics",
        help="run a workload and dump its telemetry snapshot, or diff "
             "two saved snapshots (--diff)")
    metrics_p.add_argument("target", nargs="?", default=None,
                           help="assembly file (*.s) or workload")
    metrics_p.add_argument("--scale", type=float, default=1.0,
                           help="workload scale factor")
    metrics_p.add_argument("--no-validate", action="store_true",
                           help="skip authoritative state validation")
    metrics_p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override a TolConfig field (repeatable)")
    metrics_p.add_argument("--all", action="store_true",
                           help="include zero-valued instruments")
    metrics_p.add_argument("--timing", action="store_true",
                           help="attach the timing simulator: print the "
                                "cycle report and include timing.* / "
                                "timing.annotated.* instruments")
    metrics_p.add_argument("--out", default=None, metavar="PATH",
                           help="save the snapshot as a versioned "
                                "artifact (for later --diff)")
    metrics_p.add_argument("--diff", nargs=2, metavar=("A", "B"),
                           default=None,
                           help="report per-instrument deltas B - A of "
                                "two saved snapshots")
    metrics_p.set_defaults(fn=cmd_metrics)

    trace_p = sub.add_parser(
        "trace",
        help="run a workload in full-trace mode and export a "
             "Perfetto-viewable Chrome trace, or merge a served job's "
             "distributed span files (--job) into one timeline")
    trace_p.add_argument("target", nargs="?", default=None,
                         help="assembly file (*.s) or workload "
                              "(omit with --job/--trace-id)")
    trace_p.add_argument("--scale", type=float, default=1.0,
                         help="workload scale factor")
    trace_p.add_argument("--no-validate", action="store_true",
                         help="skip authoritative state validation")
    trace_p.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override a TolConfig field (repeatable)")
    trace_p.add_argument("--out", default="trace.json", metavar="PATH",
                         help="Chrome trace-event JSON output path "
                              "(default: trace.json)")
    trace_p.add_argument("--jsonl", default=None, metavar="PATH",
                         help="additionally write one event per line "
                              "here (jq/pandas-friendly)")
    trace_p.add_argument("--job", default=None, metavar="ID",
                         help="merge a served job's end-to-end trace "
                              "(job id prefix) from --trace-dir")
    trace_p.add_argument("--trace-id", default=None, metavar="HEX",
                         help="merge by trace id instead of job id")
    trace_p.add_argument("--trace-dir", default=".darco-serve-traces",
                         metavar="DIR",
                         help="span-file directory (default: "
                              ".darco-serve-traces)")
    trace_p.set_defaults(fn=cmd_trace)

    speed_p = sub.add_parser("speed", help="measure simulation speed")
    speed_p.add_argument("--workload", default="429.mcf")
    speed_p.add_argument("--scale", type=float, default=0.4)
    speed_p.set_defaults(fn=cmd_speed)

    def _endpoint_args(p):
        p.add_argument("--socket", default=DEFAULT_SOCKET,
                       metavar="PATH",
                       help=f"unix socket path "
                            f"(default: {DEFAULT_SOCKET})")
        p.add_argument("--host", default="127.0.0.1",
                       help="TCP host for --port mode")
        p.add_argument("--port", type=int, default=None,
                       help="serve over TCP loopback instead of the "
                            "unix socket (0 = pick a free port)")
        p.add_argument("--rpc-timeout", type=float, default=30.0,
                       help="client-side RPC timeout in seconds")

    serve_p = sub.add_parser(
        "serve",
        help="run the fault-tolerant simulation service: supervised "
             "workers, deadlines/retries, admission control, graceful "
             "degradation")
    _endpoint_args(serve_p)
    serve_p.add_argument("--workers", type=int, default=2,
                         help="supervised worker processes (default: 2)")
    serve_p.add_argument("--max-pending", type=int, default=64,
                         help="admission bound: queued+running jobs "
                              "before shedding (default: 64)")
    serve_p.add_argument("--deadline", type=float, default=None,
                         metavar="S",
                         help="default per-attempt deadline in seconds "
                              "(jobs past it are killed and retried)")
    serve_p.add_argument("--max-attempts", type=int, default=3,
                         help="default attempt budget per job "
                              "(default: 3)")
    serve_p.add_argument("--no-cache", action="store_true",
                         help="disable the shared result cache")
    serve_p.add_argument("--cache-dir", default=".repro_cache",
                         help="result cache directory (shared with "
                              "darco sweep; default: .repro_cache)")
    serve_p.add_argument("--checkpoint-dir", default=None,
                         help="checkpoint long checkpointable jobs "
                              "here so killed workers resume them")
    serve_p.add_argument("--checkpoint-every", type=int, default=1,
                         help="checkpoint cadence (default: 1)")
    serve_p.add_argument("--no-stale", action="store_true",
                         help="shed instead of serving stale results "
                              "under overload")
    serve_p.add_argument("--tracing",
                         choices=["off", "counters", "full"],
                         default="counters",
                         help="distributed-tracing default for jobs "
                              "without their own context: lifecycle "
                              "spans (counters), simulator-internal "
                              "spans too (full), or none (off) "
                              "(default: counters)")
    serve_p.add_argument("--trace-dir", default=".darco-serve-traces",
                         metavar="DIR",
                         help="per-process span-file directory "
                              "(default: .darco-serve-traces)")
    serve_p.add_argument("--metrics-interval", type=float, default=1.0,
                         metavar="S",
                         help="time-series sampling interval in "
                              "seconds (default: 1.0)")
    serve_p.add_argument("--timeseries-capacity", type=int, default=512,
                         help="time-series ring size in samples "
                              "(default: 512)")
    serve_p.set_defaults(fn=cmd_serve)

    submit_p = sub.add_parser(
        "submit",
        help="submit a job to a running darco serve (exit 2 when shed)")
    _endpoint_args(submit_p)
    submit_p.add_argument("task",
                          help="registered sweep task, e.g. "
                               "workload_metrics, arch_run, "
                               "timing_report, fault_run")
    submit_p.add_argument("--param", action="append",
                          metavar="KEY=VALUE",
                          help="task parameter (JSON-coerced; "
                               "repeatable), e.g. workload=429.mcf "
                               "scale=0.2")
    submit_p.add_argument("--params", default=None, metavar="JSON",
                          help="task parameters as one JSON object")
    submit_p.add_argument("--set", action="append", metavar="KEY=VALUE",
                          help="TolConfig override for the job "
                               "(repeatable)")
    submit_p.add_argument("--label", default=None,
                          help="human-readable job label")
    submit_p.add_argument("--deadline", type=float, default=None,
                          metavar="S",
                          help="per-attempt deadline for this job")
    submit_p.add_argument("--max-attempts", type=int, default=None,
                          help="attempt budget for this job")
    submit_p.add_argument("--wait", action="store_true",
                          help="block until terminal and print the "
                               "final fetch")
    submit_p.add_argument("--timeout", type=float, default=300.0,
                          help="--wait timeout in seconds")
    submit_p.add_argument("--trace",
                          choices=["off", "counters", "full"],
                          default=None,
                          help="mint a client-side trace context for "
                               "this job (default: let the service "
                               "decide; off suppresses tracing)")
    submit_p.add_argument("--trace-id", default=None, metavar="HEX",
                          help="use this trace id instead of a random "
                               "one (with --trace)")
    submit_p.add_argument("--trace-dir", default=".darco-serve-traces",
                          metavar="DIR",
                          help="client span-file directory (must match "
                               "the service's; default: "
                               ".darco-serve-traces)")
    submit_p.set_defaults(fn=cmd_submit)

    status_p = sub.add_parser(
        "status",
        help="job status (--watch to stream) or, with no job id, the "
             "service healthz summary")
    _endpoint_args(status_p)
    status_p.add_argument("job", nargs="?", default=None,
                          help="job id (prefix accepted)")
    status_p.add_argument("--watch", action="store_true",
                          help="stream state changes until terminal")
    status_p.add_argument("--json", action="store_true",
                          help="raw healthz JSON")
    status_p.set_defaults(fn=cmd_serve_status)

    fetch_p = sub.add_parser(
        "fetch",
        help="fetch a completed job's result JSON")
    _endpoint_args(fetch_p)
    fetch_p.add_argument("job", help="job id (prefix accepted)")
    fetch_p.add_argument("--wait", action="store_true",
                         help="block until the job is terminal first")
    fetch_p.add_argument("--timeout", type=float, default=300.0,
                         help="--wait timeout in seconds")
    fetch_p.add_argument("--out", default=None, metavar="PATH",
                         help="write the result JSON here instead of "
                              "stdout")
    fetch_p.add_argument("--postmortem", default=None, metavar="PATH",
                         help="on failure, write the job record (flight "
                              "recorder included) as a versioned "
                              "postmortem artifact")
    fetch_p.set_defaults(fn=cmd_fetch)

    top_p = sub.add_parser(
        "top",
        help="live serve dashboard: throughput, latency percentiles, "
             "queue-depth history, shard liveness, hottest tiers")
    _endpoint_args(top_p)
    top_p.add_argument("--once", action="store_true",
                       help="print one frame and exit (CI/pipes)")
    top_p.add_argument("--interval", type=float, default=2.0,
                       metavar="S",
                       help="refresh interval in seconds (default: 2)")
    top_p.add_argument("--window", type=int, default=60,
                       help="time-series samples per frame "
                            "(default: 60)")
    top_p.add_argument("--top", type=int, default=6,
                       help="hottest-tier rows shown (default: 6)")
    top_p.set_defaults(fn=cmd_top)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
