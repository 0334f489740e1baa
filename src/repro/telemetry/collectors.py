"""Collector callbacks scraping component-native counters into the
metrics registry.

Every component of the tri-component system keeps its own plain-int
counters in the hot path (they predate telemetry — the paper's figures
are read off them); these collectors are the single place where those
native counters acquire stable instrument names.  They run only at
snapshot boundaries, so registering them costs nothing per dispatch.

Instrument namespace:

=================  =====================================================
``tol.*``          TOL dispatch machinery: translations, rollbacks,
                   chaining, promotion, watchdog, overhead categories
``cache.*``        code cache: hits/misses/insertions/evictions/flushes
``host.*``         host emulator: committed/wasted instructions, IBTC,
                   generated-program entries and instructions
``mode.retired.*`` dynamic guest instructions per execution mode
``resilience.*``   incidents, quarantine ladder, armed/fired faults
``cov.*``          TOL-path coverage edges for the fuzzer: unit-exit
                   arms, translation shapes, generated-program
                   outcomes and strips, quarantine ladder
                   transitions, sanitizer checks
``controller.*``   synchronization protocol: syscalls, data requests,
                   validations, recoveries, checkpoints
``timing.*``       timing model: cycles, per-unit-class issue counts,
                   branch/cache statistics, stall attribution
``sweep.*``        harness-side: task counts, cache hits, retries
=================  =====================================================
"""

from __future__ import annotations

from repro.tol.overhead import CATEGORIES


def register_tol_collectors(telemetry, tol) -> None:
    """Scrape the TOL and everything it owns (code cache, host
    emulator, profiler, quarantine, incident log, armed fault)."""

    def collect(reg):
        stats = tol.stats
        reg.set_counter("tol.guest_icount", tol.guest_icount)
        reg.set_counter("tol.translations.bb",
                        tol.translator.bb_translations)
        reg.set_counter("tol.translations.sb",
                        tol.translator.sb_translations)
        reg.set_counter("tol.translations.sbx",
                        tol.translator.sbx_translations)
        reg.set_counter("tol.loops_unrolled", tol.translator.loops_unrolled)
        reg.set_counter("tol.speculated_pairs",
                        tol.translator.speculated_pairs)
        reg.set_counter("tol.rollbacks.assert", stats.assert_failures)
        reg.set_counter("tol.rollbacks.spec", stats.spec_failures)
        reg.set_counter("tol.demotions", stats.demotions)
        reg.set_counter("tol.chains_made", stats.chains_made)
        reg.set_counter("tol.ibtc_fills", stats.ibtc_fills)
        reg.set_counter("tol.sb_blacklisted", stats.sb_blacklisted)
        reg.set_counter("tol.watchdog_fires", stats.watchdog_fires)
        reg.set_counter("tol.im_guest_insns", stats.im_guest_insns)
        reg.set_counter("tol.background_translation_insns",
                        tol.background_translation_insns)
        for category in CATEGORIES:
            reg.set_counter(f"tol.overhead.{category}",
                            tol.overhead.counters[category])
        reg.set_counter("tol.overhead.total", tol.overhead.total)

        cache = tol.cache
        reg.set_counter("cache.hits", cache.hits)
        reg.set_counter("cache.misses", cache.misses)
        reg.set_counter("cache.insertions", cache.insertions)
        reg.set_counter("cache.invalidations", cache.invalidations)
        reg.set_counter("cache.evictions", cache.evictions)
        reg.set_counter("cache.flushes", cache.flushes)
        reg.set_counter("cache.oversize_rejections",
                        cache.oversize_rejections)
        reg.set_gauge("cache.units", len(cache))
        reg.set_gauge("cache.size_insns", cache.size_insns)

        host = tol.host
        reg.set_counter("host.insns.total", host.host_insns_total)
        reg.set_counter("host.insns.committed", host.host_insns_committed)
        reg.set_counter("host.insns.wasted", host.host_insns_wasted)
        reg.set_counter("host.guest_retired", host.guest_retired_total)
        reg.set_counter("host.ibtc.hits", host.ibtc.hits)
        reg.set_counter("host.ibtc.misses", host.ibtc.misses)
        reg.set_counter("host.direct.entries", host.direct_entries)
        reg.set_counter("host.direct.insns", host.direct_insns)
        reg.set_counter("host.alias_search_insns", host.alias_search_insns)
        for mode, retired in sorted(tol.mode_distribution().items()):
            reg.set_counter(f"mode.retired.{mode}", retired)

        reg.set_counter("resilience.incidents", len(tol.incidents))
        for kind in set(tol.incidents.kinds()):
            reg.set_counter(f"resilience.incidents.{kind}",
                            tol.incidents.count(kind))
        reg.set_counter("resilience.quarantined_pcs", len(tol.quarantine))
        for level, count in sorted(tol.quarantine.summary().items()):
            reg.set_counter(f"resilience.quarantine.{level}", count)
        injector = getattr(tol, "fault_injector", None)
        if injector is not None:
            reg.set_counter("resilience.faults_armed", 1)
            reg.set_counter("resilience.faults_fired",
                            1 if injector.fired else 0)

        # Coverage namespace: the fuzzer's map is built from these.
        for key, count in sorted(stats.exit_arms.items()):
            reg.set_counter(f"cov.exit.{key}", count)
        for key, count in sorted(stats.sb_shapes.items()):
            reg.set_counter(f"cov.shape.{key}", count)
        for key, count in sorted(stats.direct_tier.items()):
            reg.set_counter(f"cov.direct.{key}", count)
        for edge, count in sorted(tol.quarantine.edges.items()):
            reg.set_counter(f"cov.quarantine.{edge}", count)
        reg.set_counter("cov.direct.strips", cache.direct_strips)
        sanitizer = tol.sanitizer
        if sanitizer is not None:
            reg.set_counter("cov.sanitizer.checks", sanitizer.checks_run)
            reg.set_counter("cov.sanitizer.violations",
                            sanitizer.violations)

    telemetry.register_collector(collect)


def register_controller_collector(telemetry, controller) -> None:
    """Scrape the synchronization-protocol counters the controller
    owns (the TOL never sees them)."""

    def collect(reg):
        reg.set_counter("controller.syscalls", controller.syscall_events)
        reg.set_counter("controller.data_requests",
                        controller.codesigned.data_requests)
        reg.set_counter("controller.validations", controller.validations)
        reg.set_counter("controller.recoveries", controller.recoveries)
        store = controller._checkpoint_store
        if store is not None:
            reg.set_counter("controller.checkpoints_written",
                            len(store.written))

    telemetry.register_collector(collect)


def register_timing_collector(telemetry, core, session=None) -> None:
    """Scrape the in-order timing core: cycles, per-unit-class issue
    counts, branch/cache statistics and stall attribution.  With a
    ``TimingSession`` attached, also surface its batched annotated
    traffic (``timing.annotated.*``)."""

    def collect(reg):
        stats = core.stats
        reg.set_counter("timing.instructions", stats.instructions)
        reg.set_counter("timing.cycles", stats.cycles)
        reg.set_counter("timing.branches", stats.branches)
        reg.set_counter("timing.mispredicts", stats.mispredicts)
        reg.set_counter("timing.loads", stats.loads)
        reg.set_counter("timing.stores", stats.stores)
        for klass, count in sorted(stats.by_class.items()):
            reg.set_counter(f"timing.class.{klass}", count)
        for kind, cycles in sorted(core._stall.items()):
            reg.set_counter(f"timing.stall.{kind}", cycles)
        reg.set_gauge("timing.ipc", stats.ipc)
        mem = core.mem
        reg.set_gauge("timing.l1d_miss_rate", mem.l1d.miss_rate())
        reg.set_gauge("timing.l1i_miss_rate", mem.l1i.miss_rate())
        reg.set_gauge("timing.l2_miss_rate", mem.l2.miss_rate())
        reg.set_counter("timing.dtlb_misses", mem.dtlb.misses)
        if mem.prefetcher:
            reg.set_counter("timing.prefetches_issued",
                            mem.prefetcher.issued)
            reg.set_counter("timing.prefetch_hits", mem.l1d.prefetch_hits)
        if session is not None:
            reg.set_counter("timing.annotated.units",
                            session.annotated_units)
            reg.set_counter("timing.annotated.compiled_units",
                            session.compiled_units)
            reg.set_counter("timing.annotated.batches",
                            session.fastpath_batches)
            reg.set_counter("timing.annotated.fastpath",
                            session.fastpath_insns)

    telemetry.register_collector(collect)
