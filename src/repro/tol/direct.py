"""IR-less direct translation: the third gear above superblocks.

When a superblock stays hot past ``direct_promote_threshold`` entries,
its host instruction sequence is compiled *once* into a single generated
Python function: value and memory ops become the statements the op
table in :mod:`repro.host.isa` gives them (the host emulator's steps and
segments are generated from the same rows), and the per-instruction
dispatch loop disappears entirely.  Control flow becomes a flat
``while``-dispatcher over branch-leader arms, and a unit whose hot exit
chains back to itself loops *inside* the generated function without
returning to the driver.

The contract is the same one ``interp_fastpath``/``host_fastpath``
already obey, extended to every op class: **only simulator wall-clock
changes**.  Every simulated quantity — committed/wasted host
instructions, per-mode retirement, alias-table contents and serial
search charges, IBTC hit/miss counts, undo-log rollback effects, trace
records under a timing sink, pause boundaries — is produced exactly as
the interpretive path produces it.  The hot path keeps its accounting
in locals (region rebase counter, per-mode retirement deltas) and every
path out of the function funnels through one sync block that writes
them back, so nothing outside the function can ever observe a stale
counter.  ``tests/test_fastpath.py`` holds the two paths to
bit-identity.

Anything the generator cannot prove it can replicate (unknown op,
branch into a non-branch target, missing metadata, an immediate with
no literal form) makes ``compile_direct`` return ``None`` and the unit
simply stays on the interpretive path.

Failure paths stay precise: speculation asserts, alias conflicts and
page faults raise module-level exceptions that the generated epilogue
turns into the same rollback (+ undo replay) the host emulator performs,
so the resilience layer's recover mode and quarantine ladder see
identical events.  A quarantined entry PC is never direct-promoted and
cache invalidation strips the generated program.
"""

from __future__ import annotations

from repro import costs
from repro.guest.memory import PageFault
from repro.host.emulator import (
    _TRACE_BATCH_CAP, AssertFail, HostEmulationError, SpecFail,
    literal_stmt,
)
from repro.host.isa import (
    BINDINGS, HostOp, MEMORY_OPS, OP_NS, REGFILES, memory_lines, names_in,
)
from repro.pycode import define


class _Bail(Exception):
    """Unit not compilable to the direct tier (stay on the slow path)."""


#: Hard cap on unit size (generated source grows linearly with it).
_MAX_INSTRS = 10_000

_BRANCH_OPS = ("beqz", "bnez", "j")
#: Ops that terminate an arm (control never falls through them).
_TERMINATORS = frozenset({"j", "exit", "exit_ind", "ibtc"})
_SPEC_OPS = frozenset(op for op, (_, size) in MEMORY_OPS.items() if size)

#: Emulator state the function reads besides the op table's ``BINDINGS``
#: (which are baked as keyword-argument defaults: evaluated once at
#: ``def`` time, loaded at local speed).  This state may change between
#: calls, so the prologue re-reads it (the per-mode dicts are rebound by
#: snapshot restore, ``pause_retired_at`` changes between runs, the
#: hooks are wiring-dependent).
_PER_CALL = (
    ("U", "_U"),
    ("ULOG", "EMU.unit_log"),
    ("GBM", "EMU.guest_retired_by_mode"),
    ("HBM", "EMU.host_committed_by_mode"),
    ("GBMG", "GBM.get"),
    ("HBMG", "HBM.get"),
    ("PAUSE", "EMU.pause_retired_at"),
    ("PH", "EMU.profile_hook"),
    ("FLUSH", "EMU._flush_direct_trace"),
)

_BINDING_DEPS = {"ATE": ("AT",), "ATRL": ("AT",),
                 "GBMG": ("GBM",), "HBMG": ("HBM",)}


class _DirectCompiler:
    """Generates one ``_direct(EMU, executed, fuel)`` function source.

    The function returns ``(kind, a, b, executed, unit)``:
    0 = chain to unit ``a``; 1 = TOL exit (``a`` next_pc, ``b``
    exit_index or None for a pause); 2 = IBTC miss; 3 = page fault
    (``a`` restart pc, ``b`` fault addr); 4 = assert fail; 5 = spec
    fail (``a`` restart pc).  ``unit`` is the member the function was
    in when it returned — for a single-unit program that is the entry
    unit, but a *cluster* program (several mutually-chained hot units
    compiled together) follows chain links between its members without
    returning to the driver, so the driver must be told where control
    ended up.

    Accounting scheme: ``executed`` is the only per-op counter on the
    hot path.  The region counter is the rebased difference
    ``executed - _rb`` (``_rb`` resets at each commit/rollback), and
    commits accumulate into local deltas (``_ug``/``_uh``/``_gbm``/
    ``_hbm``/``_hc``/``GRT``) that :meth:`_emit_sync` writes back to
    the emulator and unit on every path out of the function.
    """

    def __init__(self, units, emu, traced):
        self.units = units
        self.unit = units[0]
        self.uidx = 0
        self.cluster = len(units) > 1
        assert not (traced and self.cluster)
        self.emu = emu
        self.traced = traced
        self.serial = bool(emu.alias_serial_search)
        self.lines = []
        self.needs = set()
        self.ns_extra = {}
        self.pending = 0
        self.has_chkpt = False
        ops = {ins.op for u in units for ins in u.instrs}
        # Known before any sync block is emitted: untraced units with a
        # chainable exit may loop/transfer inside the function (the
        # link is only resolved at run time, so any exit qualifies; in
        # a cluster IBTC hits on members transfer internally too).
        chain_ops = {"exit", "ibtc"} if self.cluster else {"exit"}
        self.has_selfloop = not traced and bool(ops & chain_ops)
        self.has_mem = bool(ops & MEMORY_OPS.keys())
        self.has_store = bool(ops & HostOp.STORE)
        self.has_spec = bool(ops & _SPEC_OPS)
        self.has_assert = bool(ops & {"assert_z", "assert_nz"})

    # -- emission helpers ----------------------------------------------------

    def w(self, depth, text):
        self.lines.append("    " * depth + text)

    def need(self, *names):
        for name in names:
            self.needs.add(name)
            for dep in _BINDING_DEPS.get(name, ()):
                self.needs.add(dep)

    def _flush(self, d, extra=0):
        """Charge pending pure ops (+``extra`` for the barrier op)."""
        n = self.pending + extra
        self.pending = 0
        if n:
            self.w(d, f"executed += {n}")

    def _record(self, d, idx, info="None"):
        if self.traced:
            self.w(d, f"TRB.append(({idx}, {info}))")

    def _trace_flush(self, d):
        if self.traced:
            self.need("FLUSH", "U")
            self.w(d, "FLUSH(U, TRB)")

    def _trace_cap_flush(self, d):
        """Capped flush at back-edge sites: the record buffer drains at
        unit boundaries (pause/exit/fault), so intra-unit flushes are
        only needed to bound memory on long-running self-loops."""
        if self.traced:
            self.need("FLUSH", "U")
            self.w(d, f"if len(TRB) > {_TRACE_BATCH_CAP}:")
            self.w(d + 1, "FLUSH(U, TRB)")

    def _emit_sync(self, d):
        """Write the localized accounting back to the emulator and
        unit.  Every path out of the generated function (returns and
        exception handlers) funnels through this block, so no caller
        can observe a stale counter."""
        self.need("U", "GBMG", "HBMG")
        mode = self.unit.mode
        self.w(d, "EMU._region_insns = executed - _rb")
        self.w(d, "EMU.guest_retired_total = GRT")
        self.w(d, "EMU.host_insns_committed += _hc")
        self.w(d, "U.guest_insns_retired += _ug")
        self.w(d, "U.host_insns_committed += _uh")
        if self.has_selfloop:
            self.w(d, "if _de:")
            self.w(d + 1, "EMU.direct_entries += _de")
        # The per-mode dict keys must only spring into existence when a
        # commit actually happened (the slow path creates them at the
        # first commit; mode_distribution iterates the keys).  The
        # per-mode deltas need no accumulators of their own: commits
        # are the only thing that advance ``GRT`` past its entry value
        # ``_g0`` (guest delta) and every commit adds the same ``_r``
        # to the committed-host delta ``_hc`` as to the per-mode split
        # (all members share one mode), so both fall out of existing
        # locals.
        self.w(d, "if GRT != _g0:")
        self.w(d + 1, f"GBM[{mode!r}] = GBMG({mode!r}, 0) + (GRT - _g0)")
        self.w(d + 1, f"HBM[{mode!r}] = HBMG({mode!r}, 0) + _hc")

    # -- structure -----------------------------------------------------------

    def build(self):
        self.unit_leaders = []
        for unit in self.units:
            instrs = unit.instrs
            size = len(instrs)
            if size == 0 or size > _MAX_INSTRS:
                raise _Bail
            targets = set()
            for ins in instrs:
                if ins.target is not None:
                    if ins.op not in _BRANCH_OPS:
                        raise _Bail
                    if not 0 <= ins.target < size:
                        raise _Bail
                    targets.add(ins.target)
            self.unit_leaders.append(sorted({0} | targets))
        self._analyze_clobbers()
        try:
            self._gen_body()
        except KeyError:
            raise _Bail from None
        return self._assemble()

    def _analyze_clobbers(self):
        # Clobbers are unioned over the whole cluster: one save/restore
        # shape regardless of which member's checkpoint is active.
        # Restoring a register no member wrote since the checkpoint
        # rewrites its checkpointed (= current) value — bit-identical.
        written = {"i": set(), "f": set(), "v": set()}
        for unit in self.units:
            for ins in unit.instrs:
                if ins.d is not None and ins.op not in HostOp.STORE:
                    written[REGFILES[ins.op][0]].add(ins.d)
        saves = [f"{file.upper()}[{k}]"
                 for file in "ifv" for k in sorted(written[file])]
        if saves:
            self.need(*(file.upper() for file in "ifv" if written[file]))
            self.save_expr = "(" + ", ".join(saves) + ",)"
        else:
            self.save_expr = "()"
        self.restores = [f"{ref} = _ck[{i}]" for i, ref in enumerate(saves)]

    def _gen_body(self):
        self.body = []
        lines_backup = self.lines
        self.lines = self.body
        base = 3
        for j, unit in enumerate(self.units):
            self.unit = unit
            self.uidx = j
            if self.cluster:
                keyword = "if" if j == 0 else "elif"
                self.w(3, f"{keyword} _un == {j}:")
                base = 4
            instrs = unit.instrs
            size = len(instrs)
            leaders = self.unit_leaders[j]
            for n, leader in enumerate(leaders):
                keyword = "if" if n == 0 else "elif"
                self.w(base, f"{keyword} _ip == {leader}:")
                nxt = leaders[n + 1] if n + 1 < len(leaders) else size
                self._gen_arm(base + 1, leader, nxt, size)
            badmsg = (f"direct: bad dispatch target in unit {unit.uid} "
                      f"(entry {unit.entry_pc:#x})")
            self.w(base, "else:")
            self.w(base + 1, f"raise _HEE({badmsg!r})")
        self.unit = self.units[0]
        self.uidx = 0
        self.lines = lines_backup

    def _gen_arm(self, d, start, nxt, size):
        idx = start
        terminated = False
        while idx < nxt:
            ins = self.unit.instrs[idx]
            self._emit_op(d, idx, ins)
            idx += 1
            if ins.op in _TERMINATORS:
                terminated = True
                break  # anything up to the next leader is unreachable
        if terminated:
            assert self.pending == 0
            return
        if nxt < size:
            # Fall through into the next leader's arm (forward edge:
            # no capped trace flush needed — only back-edges can grow
            # the record buffer unboundedly).
            self._flush(d)
            self.w(d, f"_ip = {nxt}")
            self.w(d, "continue")
        else:
            self._flush(d)
            msg = (f"fell off the end of unit {self.unit.uid} "
                   f"(entry {self.unit.entry_pc:#x})")
            self.w(d, f"raise _HEE({msg!r})")

    # -- per-op emission -----------------------------------------------------

    def _emit_op(self, d, idx, ins):
        op = ins.op
        if op == "chkpt":
            self._emit_chkpt(d, idx, ins)
        elif op == "commit":
            self._flush(d, 1)
            self._emit_commit(d, ins.meta["guest_insns"])
            self._record(d, idx)
        elif op in ("assert_nz", "assert_z"):
            self.need("I")
            self._flush(d, 1)
            cmp = "==" if op == "assert_nz" else "!="
            self.w(d, f"if I[{ins.a}] {cmp} 0:")
            self.w(d + 1, "raise _FA")
            self._record(d, idx)
        elif op in ("beqz", "bnez"):
            self._emit_branch(d, idx, ins)
        elif op == "j":
            self._flush(d, 1)
            self._record(d, idx, "{'taken': True}")
            self._trace_cap_flush(d)
            self.w(d, f"_ip = {ins.target}")
            self.w(d, "continue")
        elif op in MEMORY_OPS:
            self._flush(d, 1)
            seq = ins.meta["seq"] if op in _SPEC_OPS else None
            lines = memory_lines(
                op, ins.d, ins.a, ins.b, ins.imm, seq,
                lambda entry: [f"UNDO.append({entry})"],
                charge="executed" if self.serial else None)
            self.need(*names_in(lines))
            for line in lines:
                self.w(d, line)
            self._record(d, idx, "{'mem_addr': _a}")
        elif op == "exit":
            self._emit_exit(d, idx, ins)
        elif op == "exit_ind":
            self._emit_exit_ind(d, idx, ins)
        elif op == "ibtc":
            self._emit_ibtc(d, idx, ins)
        else:
            stmt = literal_stmt(ins)
            if stmt is False:
                raise _Bail
            if op in ("mov", "fmov") and ins.d == ins.a:
                # Identity move (register-allocation epilogue): a
                # runtime no-op — still costed via ``pending``.
                stmt = None
            if stmt is not None:
                self.need(*names_in([stmt]))
                self.w(d, stmt)
            self.pending += 1
            self._record(d, idx)

    def _emit_chkpt(self, d, idx, ins):
        self.has_chkpt = True
        self.need("PAUSE")
        gpc = ins.meta["guest_pc"]
        self._flush(d, 1)
        self.w(d, "if PAUSE is not None and GRT >= PAUSE:")
        self._emit_sync(d + 1)
        self._trace_flush(d + 1)
        self.w(d + 1, f"return (1, {gpc}, None, executed, U)")
        self.w(d, f"_ck = {self.save_expr}")
        self.w(d, f"_ckpc = {gpc}")
        if self.has_store:
            # No-store units never append to the undo log, and the log
            # is provably empty at every region boundary — the clear is
            # only emitted when the unit can dirty it.
            self.need("UNDO")
            self.w(d, "del UNDO[:]")
        self._record(d, idx)

    def _emit_commit(self, d, guest_insns):
        """The inlined ``_commit_region`` body, on local deltas (the
        sync block writes them back; the undo/alias clears are skipped
        for units that provably never populate them)."""
        if self.has_store:
            self.need("UNDO")
            self.w(d, "del UNDO[:]")
        if self.has_spec:
            self.need("ATE")
            self.w(d, "del ATE[:]")
        self.w(d, "_ck = None")
        self.w(d, "_r = executed - _rb")
        self.w(d, "_rb = executed")
        self.w(d, f"_ug += {guest_insns}")
        self.w(d, f"GRT += {guest_insns}")
        self.w(d, "_uh += _r")
        self.w(d, "_hc += _r")

    def _emit_branch(self, d, idx, ins):
        self.need("I")
        self._flush(d, 1)
        cmp = "==" if ins.op == "beqz" else "!="
        if self.traced:
            self.w(d, f"_tk = I[{ins.a}] {cmp} 0")
            self._record(d, idx, "{'taken': _tk}")
            self.w(d, "if _tk:")
        else:
            self.w(d, f"if I[{ins.a}] {cmp} 0:")
        self._trace_cap_flush(d + 1)
        self.w(d + 1, f"_ip = {ins.target}")
        self.w(d + 1, "continue")

    def _emit_profile(self, d, target_expr, want_interrupt):
        """BBM inline-profiling sequence at a profiled exit."""
        self.need("PH", "U")
        cost = self.emu.profile_inline_cost
        if cost:
            self.w(d, f"executed += {cost}")
        if want_interrupt:
            self.w(d, f"_int = PH(U, {target_expr}) "
                      "if PH is not None else False")
        else:
            self.w(d, "if PH is not None:")
            self.w(d + 1, f"PH(U, {target_expr})")

    def _emit_transition(self, d, k):
        """Internal chain transfer to cluster member ``k``: the
        per-entry bookkeeping the driver would do, plus flushing the
        unit-scoped accounting deltas into the unit being left."""
        self.need("U", "ULOG")
        self.w(d, "U.guest_insns_retired += _ug")
        self.w(d, "U.host_insns_committed += _uh")
        self.w(d, "_ug = _uh = 0")
        self.w(d, f"U = _CU{k}")
        self.w(d, "U.exec_count += 1")
        self.w(d, "_de += 1")
        self.w(d, "if ULOG is not None:")
        self.w(d + 1, "ULOG.append(U)")
        self.w(d, f"_un = {k}")
        self.w(d, "_ip = 0")
        self.w(d, "continue")

    def _emit_exit(self, d, idx, ins):
        meta = ins.meta
        npc = meta["next_pc"]
        prof = bool(meta.get("profile"))
        mname = f"_META{self.uidx}_{idx}"
        self.ns_extra[mname] = meta
        self._flush(d, 1)
        if prof:
            self._emit_profile(d, str(npc), want_interrupt=True)
        self._emit_commit(d, meta["guest_insns"])
        self._record(d, idx, "{'taken': True}")
        # The link is patched/unlinked at run time: read it through the
        # unit's live meta dict, never bake it.  An identity test
        # against a baked member therefore has exactly the driver's
        # staleness semantics — invalidating a member unlinks every
        # chain to it, so the test simply stops matching.
        self.w(d, f"_lnk = {mname}.get('link')")
        guard_tail = " and not _int" if prof else ""
        if self.cluster:
            self.w(d, f"if _lnk is not None{guard_tail}:")
            for k in range(len(self.units)):
                keyword = "if" if k == 0 else "elif"
                self.w(d + 1, f"{keyword} _lnk is _CU{k}:")
                self._emit_transition(d + 2, k)
            self._emit_sync(d + 1)
            self.w(d + 1, "return (0, _lnk, None, executed, U)")
        else:
            if self.has_selfloop:
                # Self-chain: a unit whose exit links back to itself
                # loops without returning to the driver (the hot-loop
                # case).  The per-entry bookkeeping the driver would do
                # happens here.
                self.need("U", "ULOG")
                self.w(d, f"if _lnk is U{guard_tail}:")
                self.w(d + 1, "U.exec_count += 1")
                self.w(d + 1, "_de += 1")
                self.w(d + 1, "if ULOG is not None:")
                self.w(d + 2, "ULOG.append(U)")
                self.w(d + 1, "_ip = 0")
                self.w(d + 1, "continue")
            self.w(d, f"if _lnk is not None{guard_tail}:")
            self._emit_sync(d + 1)
            self._trace_flush(d + 1)
            self.w(d + 1, "return (0, _lnk, None, executed, U)")
        self._emit_sync(d)
        self._trace_flush(d)
        self.w(d, f"return (1, {npc}, {idx}, executed, U)")

    def _emit_exit_ind(self, d, idx, ins):
        meta = ins.meta
        prof = bool(meta.get("profile"))
        self.need("I")
        self._flush(d, 1)
        self.w(d, f"_pc = I[{ins.a}] & 0xFFFFFFFF")
        if prof:
            self._emit_profile(d, "_pc", want_interrupt=False)
        self._emit_commit(d, meta["guest_insns"])
        self._record(d, idx, "{'taken': True}")
        self._emit_sync(d)
        self._trace_flush(d)
        self.w(d, f"return (1, _pc, {idx}, executed, U)")

    def _emit_ibtc(self, d, idx, ins):
        meta = ins.meta
        prof = bool(meta.get("profile"))
        self.need("I", "IBTCL")
        self._flush(d, 1)
        self.w(d, f"_pc = I[{ins.a}] & 0xFFFFFFFF")
        if prof:
            self._emit_profile(d, "_pc", want_interrupt=True)
        inline = costs.IBTC_HIT_INLINE
        if inline:
            self.w(d, f"executed += {inline}")
        self._emit_commit(d, meta["guest_insns"])
        self._record(d, idx, "{'taken': True}")
        if prof:
            self.w(d, "if _int:")
            self._emit_sync(d + 1)
            self._trace_flush(d + 1)
            self.w(d + 1, f"return (1, _pc, {idx}, executed, U)")
        # The IBTC lookup (a pure table probe; its hit/miss counters
        # are independent of the synced accounting) happens before the
        # sync so a cluster-member hit can transfer internally.
        self.w(d, "_t = IBTCL(_pc)")
        self.w(d, "if _t is not None:")
        if self.cluster:
            for k in range(len(self.units)):
                keyword = "if" if k == 0 else "elif"
                self.w(d + 1, f"{keyword} _t is _CU{k}:")
                self._emit_transition(d + 2, k)
        self._emit_sync(d + 1)
        self._trace_flush(d + 1)
        self.w(d + 1, "return (0, _t, None, executed, U)")
        self._emit_sync(d)
        self._trace_flush(d)
        self.w(d, f"return (2, _pc, {idx}, executed, U)")

    # -- rollback + final assembly -------------------------------------------

    def _emit_rollback(self, d):
        """The inlined ``_rollback`` body: undo replay, alias/undo
        clear, clobbered-register restore, wasted-work accounting."""
        self._trace_flush(d)
        if not self.has_chkpt:
            self._emit_sync(d)
            self.w(d, "raise _HEE('rollback without active checkpoint')")
            return False
        self.need("U")
        self.w(d, "if _ck is None:")
        self._emit_sync(d + 1)
        self.w(d + 1,
               "raise _HEE('rollback without active checkpoint')")
        if self.has_store:
            self.need("UNDO", "MW", "MWF", "MWV")
            self.w(d, "for _k, _ra, _ro in reversed(UNDO):")
            self.w(d + 1, "if _k == 'u32':")
            self.w(d + 2, "MW(_ra, _ro)")
            self.w(d + 1, "elif _k == 'f64':")
            self.w(d + 2, "MWF(_ra, _ro)")
            self.w(d + 1, "else:")
            self.w(d + 2, "MWV(_ra, _ro)")
            self.w(d, "del UNDO[:]")
        if self.has_spec:
            self.need("ATE")
            self.w(d, "del ATE[:]")
        for line in self.restores:
            self.w(d, line)
        self.w(d, "_r = executed - _rb")
        self.w(d, "_rb = executed")
        self.w(d, "U.host_insns_wasted += _r")
        self.w(d, "EMU.host_insns_wasted += _r")
        self._emit_sync(d)
        return True

    def _gen_handlers(self):
        """Generate the exception handlers (into their own buffer, so
        the binding needs they add are known before the prologue is
        emitted)."""
        handlers = []
        lines_backup = self.lines
        self.lines = handlers
        if self.has_mem:
            self.w(1, "except _PF as _fault:")
            if self._emit_rollback(2):
                self.w(2, "return (3, _ckpc, _fault.addr, executed, U)")
        if self.has_assert:
            self.w(1, "except _FA:")
            if self._emit_rollback(2):
                self.need("U")
                self.w(2, "U.assert_failures += 1")
                self.w(2, "return (4, _ckpc, None, executed, U)")
        if self.has_spec:
            self.w(1, "except _FS:")
            if self._emit_rollback(2):
                self.need("U")
                self.w(2, "U.spec_failures += 1")
                self.w(2, "return (5, _ckpc, None, executed, U)")
        self.w(1, "except BaseException:")
        self._emit_sync(2)
        self._trace_flush(2)
        self.w(2, "raise")
        self.lines = lines_backup
        return handlers

    def _assemble(self):
        unit = self.unit
        handlers = self._gen_handlers()
        params = ["EMU", "executed", "fuel"]
        for name in BINDINGS:
            if name in self.needs:
                params.append(f"{name}=_BK_{name}")
        out = []
        self.lines = out
        self.w(0, f"def _direct({', '.join(params)}):")
        for name, expr in _PER_CALL:
            if name in self.needs:
                self.w(1, f"{name} = {expr}")
        self.w(1, "_rb = executed - EMU._region_insns")
        self.w(1, "_g0 = GRT = EMU.guest_retired_total")
        self.w(1, "_hc = _ug = _uh = 0")
        if self.has_selfloop:
            self.w(1, "_de = 0")
        self.w(1, "_ck = None")
        self.w(1, "_ckpc = 0")
        if self.cluster:
            self.w(1, "_un = 0")
        self.w(1, "_ip = 0")
        if self.traced:
            self.w(1, "TRB = []")
        self.w(1, "try:")
        self.w(2, "while True:")
        self.w(3, "if executed >= fuel:")
        fuelmsg = (f"fuel exhausted in unit {unit.uid} "
                   f"(entry {unit.entry_pc:#x}): likely a "
                   f"translation bug (infinite loop)")
        self.w(4, f"raise _HEE({fuelmsg!r})")
        out.extend(self.body)
        out.extend(handlers)
        return "\n".join(out) + "\n"


def compile_direct(unit, emu, traced=False, cluster=None):
    """Compile ``unit`` to a direct-tier program, or return ``None``
    when the unit is not eligible (the unit then stays on the
    interpretive path — bailing is always safe).

    ``cluster`` may name further same-mode units the entry unit chains
    into: the whole group compiles into one function that follows
    links between members internally (the driver round-trip — call
    prologue, return-tuple unpack, re-dispatch — disappears for the
    hot-loop transitions that dominate small-unit workloads)."""
    units = [unit]
    if cluster:
        units += [u for u in cluster if u is not unit]
    compiler = _DirectCompiler(units, emu, traced)
    try:
        src = compiler.build()
    except _Bail:
        return None
    ns = dict(OP_NS)
    ns["_U"] = unit
    ns["_FA"] = AssertFail
    ns["_FS"] = SpecFail
    ns["_PF"] = PageFault
    ns["_HEE"] = HostEmulationError
    for k, member in enumerate(units):
        ns[f"_CU{k}"] = member
    bake_env = {"EMU": emu}
    for name, expr in BINDINGS.items():
        if name in compiler.needs:
            ns[f"_BK_{name}"] = eval(expr, bake_env)  # noqa: S307
    ns.update(compiler.ns_extra)
    tag = f"+{len(units) - 1}" if len(units) > 1 else ""
    return define(src, "_direct", ns,
                  f"<direct:{unit.mode}@{unit.entry_pc:#x}{tag}>")
