"""TOL configuration.

Centralizes every threshold, limit and feature toggle so design-space
studies (the paper's purpose for DARCO) are plain parameter sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Mapping, Tuple


@dataclass
class TolConfig:
    # -- promotion thresholds (paper §V-B: 3-stage IM/BBM/SBM) --------------
    #: Interpreted executions of a basic block before BBM translation.
    bbm_threshold: int = 10
    #: BBM executions of a block before superblock creation.
    sbm_threshold: int = 60

    # -- superblock formation -------------------------------------------------
    #: Minimum edge bias to keep extending a superblock.
    bias_threshold: float = 0.7
    #: Minimum cumulative reaching probability.
    min_cum_prob: float = 0.4
    #: Maximum guest instructions in a superblock.
    max_sb_insns: int = 200
    #: Maximum basic blocks in a superblock.
    max_sb_bbs: int = 16
    #: Maximum guest instructions decoded into one basic block.
    max_bb_insns: int = 64
    #: Assert failures tolerated before a superblock is recreated without
    #: asserts (single-entry multiple-exit).
    assert_fail_limit: int = 8

    # -- loop unrolling --------------------------------------------------------
    unroll_enable: bool = True
    unroll_factor: int = 4
    #: Maximum body size (guest insns) eligible for unrolling.
    unroll_max_body: int = 24

    # -- speculation -----------------------------------------------------------
    #: Allow reordering may-alias memory pairs with hardware checks.
    mem_speculation: bool = True
    alias_table_size: int = 32

    # -- dispatch machinery ------------------------------------------------------
    chaining_enable: bool = True
    ibtc_enable: bool = True
    ibtc_size: int = 256
    #: Code cache capacity in host instructions (flush-on-full policy).
    code_cache_capacity: int = 4_000_000

    # -- optimization pipelines -----------------------------------------------
    bbm_passes: Tuple[str, ...] = ("constfold", "constprop", "dce")
    sbm_passes: Tuple[str, ...] = (
        "constfold", "constprop", "cse", "constprop", "dce")

    # -- design-choice mechanisms (paper SIII) --------------------------------
    #: Nvidia-Denver-style dual decoder: cold code executes through a
    #: hardware guest-ISA decoder at ~native cost instead of software
    #: interpretation, eliminating the startup delay at the price of extra
    #: hardware (paper SIII, "Startup Delay").
    dual_decoder: bool = False
    #: Host instructions per guest instruction through the hardware guest
    #: decoder (slightly above 1: no dynamic optimization applied).
    dual_decode_cost: float = 1.3
    #: Serial alias-table search: checking stores pay per-entry search
    #: cost instead of a parallel CAM lookup (paper SIII, "Speculative
    #: Execution": parallel search costs power/size, serial costs latency).
    alias_serial_search: bool = False
    #: Hardware-assisted profiling: BBM inline counter updates become free
    #: (paper SIII, "Profiling": "what hardware support can accelerate
    #: profiling").
    profiling_hw_assist: bool = False
    #: Defer translation work to a dedicated core: translation costs do
    #: not steal cycles from the application stream (paper SIII, "When and
    #: where to translate/optimize").
    background_translation: bool = False

    # -- simulator fast paths ---------------------------------------------------
    #: The one switch between generated and reference forms.  True: the
    #: IM interpreter runs one closure per decode address, each
    #: translated unit runs as one generated program
    #: (``repro.tol.direct``, compiled at the unit's first entry; a
    #: chain back to the unit loops inside it, every other chain goes
    #: through the driver), and a timing session tiers hot units up to
    #: generated appliers.  False: the interpreter walks ``eval_ops``,
    #: every unit runs on the host's reference loop, one step per host
    #: instruction, and timing records stay on the generic loop (the
    #: fuzz oracle's reference legs).  Simulator wall-clock only:
    #: simulated costs and results are identical either way.
    host_fastpath: bool = True

    # -- resilience ---------------------------------------------------------------
    #: What to do when validation against the authoritative x86 component
    #: fails (or synchronization is lost): ``strict`` raises on the first
    #: divergence (the seed behaviour, right for debugging the simulator
    #: itself); ``recover`` resyncs the co-designed state from the
    #: authoritative state, quarantines the implicated translations and
    #: continues (the default for sweeps and fault campaigns).
    recovery_mode: str = "strict"
    #: Controller event budget per run (pause/data-request/syscall events
    #: from the co-designed component before the run is declared runaway).
    event_budget: int = 10_000_000
    #: Forward-progress watchdog: detect dispatch loops that retire zero
    #: guest instructions (the PR-2 livelock class) and quarantine the
    #: spinning translation.
    watchdog_enable: bool = True
    #: Consecutive event-free, retirement-free dispatches before the
    #: watchdog fires.
    watchdog_stall_limit: int = 100
    #: Recent-dispatch window (host units entered, including chained and
    #: IBTC hops) kept for divergence implication and runaway diagnostics.
    dispatch_window_size: int = 64
    #: Invariant-checker pass (``tol/sanitize.py``): verify code-cache
    #: link integrity after every mutation, chain/IBTC target
    #: consistency, quarantine-ladder monotonicity and undo-log balance
    #: at rollback, so a corrupted dispatch structure fires a
    #: ``sanitizer_violation`` incident *at the corrupting step* instead
    #: of surfacing as an eventual state divergence.  Off by default
    #: (zero cost when off: nothing is wrapped); the fuzzer runs it hot.
    sanitize: bool = False

    # -- telemetry ----------------------------------------------------------------
    #: Observability mode: ``off`` (no snapshots, no tracing),
    #: ``counters`` (deterministic metrics snapshots scraped from
    #: component-native counters at run boundaries — guaranteed <5% KIPS
    #: overhead vs ``off`` by ``benchmarks/bench_fastpath.py``), or
    #: ``full`` (``counters`` plus the span tracer, exportable to
    #: Chrome trace-event JSON for Perfetto).
    telemetry: str = "counters"
    #: Hard cap on buffered trace events in ``full`` mode.
    telemetry_max_trace_events: int = 200_000

    # -- validation ---------------------------------------------------------------
    #: Compare emulated vs authoritative state every N synchronization
    #: events (1 = every syscall; 0 disables periodic comparison — the
    #: end-of-application comparison always runs).
    validate_every: int = 1
    #: Validation epoch in guest instructions: skip a due validation when
    #: fewer than this many guest instructions retired since the previous
    #: one (0 = validate on every due sync event, the seed behaviour).
    #: Amortizes validation cost in syscall-dense phases without weakening
    #: the authoritative-emulator contract — the end-of-application
    #: comparison always runs.
    validate_min_icount_gap: int = 0

    def with_overrides(self, overrides: Mapping[str, object]
                       ) -> "TolConfig":
        """A copy with ``overrides`` applied, coercing string values to
        each field's type (the ``--set key=value`` path of the CLI and
        the JSON config dict of the serve protocol share this parser).

        Raises :class:`ValueError` for an unknown field name.
        """
        valid = {f.name for f in fields(TolConfig)}
        coerced = {}
        for key, value in overrides.items():
            if key not in valid:
                raise ValueError(
                    f"unknown TolConfig field {key!r}; valid: "
                    f"{', '.join(sorted(valid))}")
            current = getattr(self, key)
            if not isinstance(value, str):
                # Native JSON value (serve protocol): adopt, but keep
                # tuple-typed fields tuples.
                coerced[key] = tuple(value) if isinstance(current, tuple) \
                    and isinstance(value, (list, tuple)) else value
            elif isinstance(current, bool):
                coerced[key] = value.lower() in ("1", "true", "yes", "on")
            elif isinstance(current, int):
                coerced[key] = int(value, 0)
            elif isinstance(current, float):
                coerced[key] = float(value)
            elif isinstance(current, tuple):
                coerced[key] = tuple(v for v in value.split(",") if v)
            else:
                coerced[key] = value
        return replace(self, **coerced)

    def scaled_thresholds(self, factor: float) -> "TolConfig":
        """A copy with promotion thresholds downscaled (warm-up
        methodology, paper §VI-E)."""
        return replace(
            self,
            bbm_threshold=max(1, int(self.bbm_threshold / factor)),
            sbm_threshold=max(1, int(self.sbm_threshold / factor)),
        )
