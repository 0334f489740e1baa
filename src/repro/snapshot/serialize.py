"""Serialization of the full tri-component system state.

:func:`capture_controller` projects a :class:`~repro.system.controller.
Controller` paused at a synchronization boundary into a JSON-safe payload;
:func:`restore_controller` rebuilds a controller from such a payload that
continues the run **bit-identically** (final guest state, memory image,
retirement count, incident-log hash, RunResult counters) to the original
uncheckpointed run.

What is captured
----------------
- the guest program image (code/data/entry/stack — checkpoints are
  self-contained: no source file needed to resume);
- the :class:`TolConfig` (field by field);
- authoritative x86 component: architectural state, every materialized
  memory page, emulator counters, and the deterministic OS (stdout so
  far, stdin cursor, heap break, tick/rand generators, syscall count);
- co-designed component: emulated state, the *materialized subset* of
  its lazy memory image, and the data-request count;
- TOL control plane: retirement count, interpreter counters, profiler
  repetition/edge counters, quarantine ladder, incident log, superblock
  blacklist, overhead/host accounting, TolStats;
- controller protocol counters (validations, sync events, recoveries);
- the armed fault injector, if any (spec + fired flag + eligible-event
  count), so an injected-but-not-yet-fired fault fires at the same
  ordinal after resume.

What is deliberately NOT captured
---------------------------------
The code cache, chains, IBTC and the dispatch window are
micro-architectural artifacts: every execution mode (IM/BBM/SBM) is
architecturally equivalent, and the profiler counters *are* restored, so
hot entry PCs cross the promotion thresholds again on their first
post-resume dispatch and the cache re-warms to an equivalent steady
state.  See DESIGN.md §7 for the full argument and the one caveat
(fault-corrupted-but-latent cached units).
"""

from __future__ import annotations

import base64
from collections import Counter
from dataclasses import asdict
from typing import Any, Dict, Optional

from repro.guest.isa import InsnClass
from repro.guest.program import GuestProgram
from repro.guest.syscalls import GuestOS
from repro.tol.config import TolConfig
from repro.tol.overhead import CATEGORIES


def _b64(data: bytes) -> str:
    return base64.b64encode(bytes(data)).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


# ---------------------------------------------------------------------------
# Leaf (de)serializers.
# ---------------------------------------------------------------------------


def program_to_dict(program: GuestProgram) -> Dict[str, Any]:
    return {
        "code": _b64(program.code),
        "base": program.base,
        "entry": program.entry,
        "data": {str(addr): _b64(blob)
                 for addr, blob in sorted(program.data.items())},
        "stack_top": program.stack_top,
        "labels": dict(program.labels),
    }


def program_from_dict(d: Dict[str, Any]) -> GuestProgram:
    return GuestProgram(
        code=_unb64(d["code"]),
        base=d["base"],
        entry=d["entry"],
        data={int(addr): _unb64(blob) for addr, blob in d["data"].items()},
        stack_top=d["stack_top"],
        labels=dict(d["labels"]),
    )


def config_to_dict(config: TolConfig) -> Dict[str, Any]:
    out = {}
    for name, value in asdict(config).items():
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


#: Config fields that older bundles may name but that no longer exist;
#: loading drops them (``direct_enable``: every translated unit now runs
#: as a generated program unless ``host_fastpath`` is off; the
#: ``direct_promote_threshold``, ``direct_max_repromotions`` and
#: ``direct_cluster_max`` knobs of program promotion: every unit now
#: runs the one program compiled at its first entry; ``interp_fastpath``:
#: ``host_fastpath`` now selects the interpreter's form too).
RETIRED_CONFIG_FIELDS = frozenset({
    "direct_enable", "direct_promote_threshold", "direct_max_repromotions",
    "direct_cluster_max", "interp_fastpath"})


def config_from_dict(d: Dict[str, Any]) -> TolConfig:
    defaults = TolConfig()
    kwargs = {}
    for name, value in d.items():
        if name in RETIRED_CONFIG_FIELDS:
            continue
        if isinstance(getattr(defaults, name, None), tuple):
            value = tuple(value)
        kwargs[name] = value
    return TolConfig(**kwargs)


def _pages_to_dict(memory) -> Dict[str, str]:
    return {str(page): _b64(memory.export_page(page))
            for page in sorted(memory.present_pages())}


def _install_pages(memory, pages: Dict[str, str]) -> None:
    for page, blob in pages.items():
        memory.install_page(int(page), _unb64(blob))


def _os_to_dict(os: GuestOS) -> Dict[str, Any]:
    return {
        "stdout": _b64(os.stdout),
        "stdin": _b64(os.stdin),
        "stdin_pos": os.stdin_pos,
        "heap_top": os.heap_top,
        "ticks": os.ticks,
        "rand_state": os.rand_state,
        "seed": os._seed,
        "exit_code": os.exit_code,
        "syscall_count": os.syscall_count,
    }


def _os_restore(os: GuestOS, d: Dict[str, Any]) -> None:
    os.stdout = bytearray(_unb64(d["stdout"]))
    os.stdin = _unb64(d["stdin"])
    os.stdin_pos = d["stdin_pos"]
    os.heap_top = d["heap_top"]
    os.ticks = d["ticks"]
    os.rand_state = d["rand_state"]
    os._seed = d["seed"]
    os.exit_code = d["exit_code"]
    os.syscall_count = d["syscall_count"]


def fault_to_dict(injector) -> Optional[Dict[str, Any]]:
    """Serialize an attached :class:`FaultInjector` (or ``None``)."""
    if injector is None:
        return None
    return {
        "site": injector.spec.site,
        "ordinal": injector.spec.ordinal,
        "salt": injector.spec.salt,
        "fired": injector.fired,
        "seen": injector._seen,
        "fired_detail": dict(injector.fired_detail),
    }


def fault_from_dict(d: Optional[Dict[str, Any]]):
    """Rebuild a :class:`FaultInjector` ready to re-attach.

    Safe across a checkpoint because the injector's private RNG is only
    consumed at fire time: a not-yet-fired fault re-fires at the same
    eligible-event ordinal with the same random choices, and a fired one
    stays inert (every hook is a pass-through once ``fired`` is set).
    """
    if d is None:
        return None
    from repro.resilience.faults import FaultInjector, FaultSpec
    injector = FaultInjector(FaultSpec(site=d["site"], ordinal=d["ordinal"],
                                       salt=d["salt"]))
    injector.fired = d["fired"]
    injector._seen = d["seen"]
    injector.fired_detail = dict(d["fired_detail"])
    return injector


# ---------------------------------------------------------------------------
# Whole-controller capture / restore.
# ---------------------------------------------------------------------------


def capture_controller(controller) -> Dict[str, Any]:
    """JSON-safe snapshot of a controller paused at a sync boundary."""
    tol = controller.codesigned.tol
    x86 = controller.x86
    payload = {
        "program": program_to_dict(controller.program),
        "config": config_to_dict(controller.config),
        "controller": {
            "validate": controller.validate,
            "validations": controller.validations,
            "syscall_events": controller.syscall_events,
            "sync_events": controller._sync_events,
            "last_validated_icount": controller._last_validated_icount,
            "recoveries": controller.recoveries,
        },
        "x86": {
            "state": x86.state.snapshot(),
            "icount": x86.emulator.icount,
            "branch_count": x86.emulator.branch_count,
            "bb_count": x86.emulator.bb_count,
            "class_counts": {klass.value: count for klass, count
                             in sorted(x86.emulator.class_counts.items(),
                                       key=lambda kv: kv[0].value)},
            "pages": _pages_to_dict(x86.memory),
            "os": _os_to_dict(x86.os),
        },
        "codesigned": {
            "state": controller.codesigned.state.snapshot(),
            "pages": _pages_to_dict(controller.codesigned.memory),
            "data_requests": controller.codesigned.data_requests,
        },
        "tol": {
            "guest_icount": tol.guest_icount,
            "interp": {
                "icount": tol.interp.icount,
                "ir_ops_evaluated": tol.interp.ir_ops_evaluated,
            },
            "stats": asdict(tol.stats),
            "profiler": {
                "bb_counts": {str(pc): n for pc, n
                              in sorted(tol.profiler.bb_counts.items())},
                "edge_counts": {
                    str(pc): {str(succ): n
                              for succ, n in sorted(edges.items())}
                    for pc, edges in sorted(tol.profiler.edge_counts.items())
                    if edges},
            },
            "quarantine": {
                "levels": {str(pc): level
                           for pc, level in tol.quarantine.entries()},
                "escalations": tol.quarantine.escalations,
            },
            "incidents": tol.incidents.as_dicts(),
            "sb_blacklist": sorted(tol._sb_blacklist),
            "overhead": dict(tol.overhead.counters),
            "host": {
                "host_insns_total": tol.host.host_insns_total,
                "host_insns_committed": tol.host.host_insns_committed,
                "host_insns_wasted": tol.host.host_insns_wasted,
                "guest_retired_total": tol.host.guest_retired_total,
                "guest_retired_by_mode": dict(tol.host.guest_retired_by_mode),
                "host_committed_by_mode": dict(tol.host.host_committed_by_mode),
                "alias_search_insns": tol.host.alias_search_insns,
            },
            "background_translation_insns": tol.background_translation_insns,
            "hw_decode_insns": tol._hw_decode_insns,
        },
        "fault": fault_to_dict(getattr(tol, "fault_injector", None)),
    }
    return payload


def restore_controller(payload: Dict[str, Any]):
    """Rebuild a resumable controller from :func:`capture_controller`'s
    payload.  The returned controller is past initialization; calling
    ``run()`` continues the interrupted execution."""
    from repro.system.controller import Controller

    program = program_from_dict(payload["program"])
    config = config_from_dict(payload["config"])
    ctl = payload["controller"]
    controller = Controller(program, config=config,
                            validate=ctl["validate"])
    controller.validations = ctl["validations"]
    controller.syscall_events = ctl["syscall_events"]
    controller._sync_events = ctl["sync_events"]
    controller._last_validated_icount = ctl["last_validated_icount"]
    controller.recoveries = ctl["recoveries"]

    x86p = payload["x86"]
    x86 = controller.x86
    x86.state.restore(x86p["state"])
    x86.emulator.icount = x86p["icount"]
    x86.emulator.branch_count = x86p["branch_count"]
    x86.emulator.bb_count = x86p["bb_count"]
    x86.emulator.class_counts = Counter(
        {InsnClass(value): count
         for value, count in x86p["class_counts"].items()})
    # The constructor already loaded the program image; the checkpoint's
    # page set is a superset of it (pages are only ever added), so
    # installing every checkpointed page fully overwrites the image.
    _install_pages(x86.memory, x86p["pages"])
    x86.memory.clear_dirty()
    _os_restore(x86.os, x86p["os"])
    x86.tracker.launched = True

    cdp = payload["codesigned"]
    controller.codesigned.state.restore(cdp["state"])
    _install_pages(controller.codesigned.memory, cdp["pages"])
    controller.codesigned.memory.clear_dirty()
    controller.codesigned.data_requests = cdp["data_requests"]

    tolp = payload["tol"]
    tol = controller.codesigned.tol
    tol.guest_icount = tolp["guest_icount"]
    tol.interp.icount = tolp["interp"]["icount"]
    tol.interp.ir_ops_evaluated = tolp["interp"]["ir_ops_evaluated"]
    for name, value in tolp["stats"].items():
        if hasattr(tol.stats, name):  # older checkpoints: retired counters
            setattr(tol.stats, name, value)
    tol.profiler.bb_counts = Counter(
        {int(pc): n for pc, n in tolp["profiler"]["bb_counts"].items()})
    for pc, edges in tolp["profiler"]["edge_counts"].items():
        tol.profiler.edge_counts[int(pc)] = Counter(
            {int(succ): n for succ, n in edges.items()})
    tol.quarantine._levels = {
        int(pc): level
        for pc, level in tolp["quarantine"]["levels"].items()}
    tol.quarantine.escalations = tolp["quarantine"]["escalations"]
    tol.incidents.restore(tolp["incidents"])
    tol._sb_blacklist = set(tolp["sb_blacklist"])
    for category in CATEGORIES:
        tol.overhead.counters[category] = tolp["overhead"][category]
    hostp = tolp["host"]
    tol.host.host_insns_total = hostp["host_insns_total"]
    tol.host.host_insns_committed = hostp["host_insns_committed"]
    tol.host.host_insns_wasted = hostp["host_insns_wasted"]
    tol.host.guest_retired_total = hostp["guest_retired_total"]
    tol.host.guest_retired_by_mode = dict(hostp["guest_retired_by_mode"])
    tol.host.host_committed_by_mode = dict(hostp["host_committed_by_mode"])
    tol.host.alias_search_insns = hostp["alias_search_insns"]
    tol.background_translation_insns = tolp["background_translation_insns"]
    tol._hw_decode_insns = tolp["hw_decode_insns"]

    injector = fault_from_dict(payload.get("fault"))
    if injector is not None:
        injector.attach(tol)

    controller._initialized = True
    return controller
