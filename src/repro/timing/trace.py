"""Adapter from executed host instructions to timing-model records.

The host emulator's ``trace_sink`` hands over a unit execution's
``(index, info)`` records at once.  Units are placed in a synthetic
code-address space (:func:`~repro.timing.annotate.host_pc`) so the
I-cache and branch predictors see a realistic stream.

Every record is fed through its unit's annotation
(:mod:`repro.timing.annotate`), which carries the instruction's static
facts; ``info`` carries only its per-execution dynamics.  A batch runs
on the generic loop, or on the unit's generated applier once the unit
is hot; the TOL's ``host_fastpath`` switch, read at :meth:`install`,
keeps every unit on the generic loop when off.  Both compute the same
step, so reports are identical; ``timing.annotated.*`` telemetry
counters expose the traffic.
"""

from __future__ import annotations

from typing import Optional

from repro.timing.annotate import (  # noqa: F401  (host_pc: re-export)
    UnitAnnotation, compile_applier, compile_periodic, host_pc,
    profile_entry, resolve_annotation,
)
from repro.timing.core import InOrderCore

#: the per-execution dynamics of a TOL-mix branch (always taken)
_TAKEN = {"taken": True}


class TimingSession:
    """Streams executed host instructions into an :class:`InOrderCore`.

    Attach via :meth:`install`.  Optionally, TOL overhead charges are fed
    as synthetic instruction batches so the timing results include the
    software layer (:meth:`feed_tol_overhead`).
    """

    #: Synthetic TOL instruction mix: (class, has_mem).
    TOL_MIX = (
        ("simple", False), ("simple", False), ("simple", False),
        ("load", True), ("simple", False), ("branch", False),
        ("load", True), ("simple", False), ("store", True),
        ("simple", False),
    )
    #: records after which the mix slot and the destination pattern of
    #: :meth:`_grow_tol` both repeat
    TOL_PERIOD = 30

    def __init__(self, core: Optional[InOrderCore] = None):
        self.core = core if core is not None else InOrderCore()
        #: tier hot units up to their generated appliers (:meth:`install`
        #: sets it from the TOL's ``host_fastpath``)
        self._tier_up = True
        self.fed = 0
        self._tol_pc = 0x7F00_0000
        self._tol_addr = 0xE000_0000
        #: the TOL mix as a synthetic annotation, sized to the longest
        #: charge so far (at least one period); its records with the
        #: mix's static dynamics, the positions of its memory accesses,
        #: and its periodic applier (built on the first charge)
        self._tol_ann = UnitAnnotation(-1, (), self.core)
        self._tol_records = []
        self._tol_mem = []
        self._tol_applier = None
        self._feed_unit = self.core.feed_unit
        #: uid -> resolved UnitAnnotation
        self._annotations = {}
        # -- batched-delivery accounting (timing.annotated.* telemetry) --
        self.annotated_units = 0
        self.compiled_units = 0
        self.fastpath_batches = 0
        self.fastpath_insns = 0

    # ------------------------------------------------------------------

    def install(self, tol) -> None:
        """Wire this session into a TOL instance: the host's trace sink
        (it hands its buffered records to :meth:`sink_batch`), the
        tier-up switch (the TOL's ``host_fastpath``), and
        annotation-cache invalidation chained onto the code cache's
        ``on_remove`` hook (which already keeps the IBTC consistent)."""
        tol.host.trace_sink = self.sink_batch
        self._tier_up = tol.config.host_fastpath
        cache = tol.cache
        prev = cache.on_remove
        inv = self.invalidate_unit
        if prev is None:
            cache.on_remove = inv
        else:
            def chained(unit, _prev=prev, _inv=inv):
                _inv(unit)
                _prev(unit)
            cache.on_remove = chained

    def invalidate_unit(self, unit) -> None:
        """Drop a removed unit's annotation (``CodeCache.on_remove``)."""
        self._annotations.pop(unit.uid, None)

    # ------------------------------------------------------------------

    def sink(self, unit, index: int, ins, info) -> None:
        """Feed one executed record through its unit's annotation."""
        ann = self._annotations.get(unit.uid) \
            or self._build_annotation(unit)
        self._feed_unit(ann, ((index, info),))
        self.fed += 1

    def sink_batch(self, unit, records) -> None:
        """Batch form of :meth:`sink`: ``records`` is a list of
        ``(index, info)`` pairs in execution order, applied in one core
        call (the unit's compiled applier once it is hot)."""
        ann = self._annotations.get(unit.uid) \
            or self._build_annotation(unit)
        n = len(records)
        fn = ann.compiled
        if fn is not None:
            rem = fn(records)
            if rem is not None:
                # Entry off a leader (a pause flush inside a run): finish
                # the batch on the generic loop.
                self._feed_unit(ann, records[rem:])
        else:
            self._feed_unit(ann, records)
            if ann.compile_at is not None:
                ann.fed_records += n
                if ann.fed_records >= ann.compile_at:
                    self._compile_annotation(unit, ann)
        self.fed += n
        self.fastpath_batches += 1
        self.fastpath_insns += n

    def _compile_annotation(self, unit, ann) -> None:
        """Tier a hot unit up to its generated applier; a unit too large
        to compile stays on the generic loop for good."""
        ann.compile_at = None
        ann.compiled = compile_applier(unit, self.core)
        if ann.compiled is not None:
            self.compiled_units += 1

    def _build_annotation(self, unit):
        """Resolve and cache a unit's annotation (never tiered up when
        the TOL's ``host_fastpath`` is off)."""
        ann = self._annotations[unit.uid] = resolve_annotation(unit,
                                                               self.core)
        if not self._tier_up:
            ann.compile_at = None
        self.annotated_units += 1
        return ann

    # ------------------------------------------------------------------

    def _grow_tol(self, size: int) -> None:
        """Extend the synthetic TOL annotation to ``size`` records.
        Record ``i`` of a charge is mix slot ``i % len(TOL_MIX)`` at PC
        slot ``i % 4096``; it writes ``20`` or ``21`` and reads that and
        ``22``, and a branch is taken, 64 bytes ahead."""
        mix = self.TOL_MIX
        profile = []
        for i in range(self._tol_ann.size, size):
            klass, has_mem = mix[i % len(mix)]
            pc = self._tol_pc + (i & 4095) * 4
            dst = 20 if i % 3 == 0 else 21
            profile.append(profile_entry(pc, klass, dst, (dst, 22), pc + 64))
            self._tol_records.append((i, _TAKEN if klass == "branch"
                                      else None))
            if has_mem:
                self._tol_mem.append(i)
        self._tol_ann.extend(profile, self.core)

    def feed_tol_overhead(self, host_insns: int) -> None:
        """Feed ``host_insns`` synthetic TOL instructions (a fixed,
        moderately serial mix over a small working set) as one batch of
        the synthetic TOL annotation, through its periodic applier."""
        if self._tol_applier is None:
            self._grow_tol(max(host_insns, self.TOL_PERIOD))
            self._tol_applier = compile_periodic(
                self._tol_ann, self.TOL_PERIOD, self.core)
        elif self._tol_ann.size < host_insns:
            self._grow_tol(host_insns)
        records = self._tol_records[:host_insns]
        addr = self._tol_addr
        for i in self._tol_mem:
            if i >= host_insns:
                break
            addr = 0xE000_0000 + ((addr + 64) & 0x1FFF)
            records[i] = (i, {"mem_addr": addr})
        self._tol_addr = addr
        self._tol_applier(records)
        self.fed += host_insns
