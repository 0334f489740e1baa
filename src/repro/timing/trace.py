"""Adapter from executed host instructions to timing-model records.

The host emulator's ``trace_sink`` hands over a unit execution's
``(index, info)`` records at once.  Units are placed in a synthetic
code-address space (:func:`~repro.timing.annotate.host_pc`) so the
I-cache and branch predictors see a realistic stream.

Every record is fed through its unit's annotation
(:mod:`repro.timing.annotate`), which carries the instruction's static
facts; ``info`` carries only its per-execution dynamics.  A batch runs
on the generic loop, or on the unit's generated applier once the unit
is hot.  A TOL overhead charge is only a count of synthetic instructions
of a fixed mix: the TOL applier
(:func:`~repro.timing.annotate.compile_tol`) feeds it from the count
and the last data address.  The TOL's ``host_fastpath`` switch, read at
:meth:`install`, selects the reference forms when off: every unit stays
on the generic loop, and a charge is fed one ``InOrderCore.feed`` call
per instruction.  Both forms compute the same step, so reports are
identical; ``timing.annotated.*`` telemetry counters expose the units'
traffic.
"""

from __future__ import annotations

from typing import Optional

from repro.timing.annotate import (  # noqa: F401  (host_pc: re-export)
    compile_applier, compile_tol, host_pc, resolve_annotation,
)
from repro.timing.core import InOrderCore


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
    #: :meth:`_tol_record` both repeat
    TOL_PERIOD = 30
    #: PC slots of the TOL code: record ``i`` of a charge is at slot
    #: ``i % TOL_SLOTS`` from ``_tol_pc``, four bytes apart
    TOL_SLOTS = 4096
    #: the TOL's data working set, ``(base, stride, mask)``: each memory
    #: access steps the address to ``base + ((addr + stride) & mask)``
    TOL_DATA = (0xE000_0000, 64, 0x1FFF)

    def __init__(self, core: Optional[InOrderCore] = None):
        self.core = core if core is not None else InOrderCore()
        #: tier hot units up to their generated appliers (:meth:`install`
        #: sets it from the TOL's ``host_fastpath``)
        self._tier_up = True
        self.fed = 0
        self._tol_pc = 0x7F00_0000
        self._tol_addr = 0xE000_0000
        #: ``fn(n, addr) -> addr`` feeding a TOL charge: the generated
        #: applier, or the reference feed with tier-up off (chosen at the
        #: first charge)
        self._tol_feed = None
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

    def _tol_record(self, i: int) -> tuple:
        """Record ``i`` of a TOL charge, ``(klass, has_mem, dst, srcs)``:
        mix slot ``i % len(TOL_MIX)``, writing ``20`` or ``21`` and
        reading that and ``22``.  A branch is taken, 64 bytes ahead."""
        klass, has_mem = self.TOL_MIX[i % len(self.TOL_MIX)]
        dst = 20 if i % 3 == 0 else 21
        return klass, has_mem, dst, (dst, 22)

    def _feed_tol_reference(self, n: int, addr: int) -> int:
        """Feed records ``0..n-1`` of a TOL charge one
        ``InOrderCore.feed`` call each, on the generic loop; return the
        last data address.  The reference form of :func:`compile_tol`."""
        base, stride, mask = self.TOL_DATA
        for i in range(n):
            klass, has_mem, dst, srcs = self._tol_record(i)
            pc = self._tol_pc + (i % self.TOL_SLOTS) * 4
            mem = None
            if has_mem:
                addr = mem = base + ((addr + stride) & mask)
            self.core.feed(pc, klass, dst, srcs, mem_addr=mem,
                           branch=(True, pc + 64) if klass == "branch"
                           else None)
        return addr

    def feed_tol_overhead(self, host_insns: int) -> None:
        """Feed ``host_insns`` synthetic TOL instructions (a fixed,
        moderately serial mix over a small working set) as one charge:
        through the TOL applier generated at the first charge, or, with
        tier-up off, the reference feed."""
        feed = self._tol_feed
        if feed is None:
            feed = self._tol_feed = compile_tol(
                self.core,
                [self._tol_record(i) for i in range(self.TOL_PERIOD)],
                self._tol_pc, self.TOL_SLOTS, self.TOL_DATA) \
                if self._tier_up else self._feed_tol_reference
        self._tol_addr = feed(host_insns, self._tol_addr)
        self.fed += host_insns
