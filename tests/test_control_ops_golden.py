"""Golden outcomes of the host control ops through every execution form.

Each scenario is a handful of hand-written units run on the host
emulator of a ``Tol`` built from one of two configurations:

- ``reference``: ``host_fastpath=False``, no unit ever compiled;
- ``single``: the default host form, each unit compiled to its own
  program at its first entry.

The outcome of a scenario is the ExitEvent (or the exception), the
guest registers, the host's committed, wasted, total and per-mode
counts, the IBTC hits and misses, every unit's entry and accounting
counters, the profile hook's calls and the trace records, once
untraced, once with a sink that takes the host's batches one record at
a time and once with one that takes each batch whole.
Every form must produce the same outcome, and its digest was recorded
before the control ops were restated; a mismatch names the scenario.

The scenarios cover each branch and assert taken and not taken,
profiled exits with and without an interrupt, ``exit_ind``, IBTC hits
and misses, a pause at a ``chkpt``, rollbacks after stores (an assert
and a page fault), chain transfers between units and fuel
exhaustion.
"""

import hashlib
import json

import pytest

from repro.guest.memory import PagedMemory
from repro.guest.state import GuestState
from repro.host.isa import CodeUnit, HostInstr as H
from repro.tol.config import TolConfig
from repro.tol.tol import Tol

FORMS = {
    "reference": dict(host_fastpath=False),
    "single": {},
}

A, B, C = 0x1000, 0x2000, 0x3000
OUT = 0x9000
DATA = 0x10000


def chk(pc):
    return H("chkpt", meta={"guest_pc": pc})


def ext(pc, guest_insns=1, **meta):
    return H("exit", meta={"next_pc": pc, "guest_insns": guest_insns,
                           **meta})


def unit(uid, pc, body, mode="SBM"):
    return CodeUnit(uid=uid, mode=mode, entry_pc=pc, instrs=body)


def _branch(op, value):
    """``op`` on I[20] = value: taken goes to exit 0x9100, not taken to
    0x9200 (``j`` always takes)."""
    def build():
        fields = {} if op == "j" else {"a": 20}
        u = unit(1, A, [
            chk(A),
            H("li", d=20, imm=value),
            H(op, target=5, **fields),
            H("addi32", d=1, a=1, imm=7),
            ext(0x9200, 2),
            H("addi32", d=2, a=2, imm=9),
            ext(0x9100, 3),
        ])
        return [u], {}
    return build


def _assert(op, value):
    def build():
        u = unit(1, A, [
            chk(A),
            H("addi32", d=1, a=1, imm=1),
            H("commit", meta={"guest_insns": 1}),
            chk(A + 4),
            H("li", d=20, imm=value),
            H("addi32", d=3, a=3, imm=5),
            H(op, a=20),
            ext(OUT, 2),
        ])
        return [u], {}
    return build


def _profiled(op, interrupt):
    """A BBM unit whose profiled ``op`` exit would follow ``link``
    (``exit``) or an IBTC hit (``ibtc``); the hook interrupts or not."""
    def build():
        target = unit(2, B, [chk(B), H("addi32", d=2, a=2, imm=1),
                             ext(OUT, 1)])
        last = {"exit": ext(B, 2, profile=True, link=target),
                "exit_ind": H("exit_ind", a=20,
                              meta={"guest_insns": 2, "profile": True}),
                "ibtc": H("ibtc", a=20,
                          meta={"guest_insns": 2, "profile": True}),
                }[op]
        u = unit(1, A, [chk(A), H("li", d=20, imm=B),
                        H("addi32", d=1, a=1, imm=3), last], mode="BBM")
        return [u, target], {"interrupt": interrupt, "ibtc": {B: target}}
    return build


def _exit_ind():
    u = unit(1, A, [chk(A), H("li", d=20, imm=0x12345),
                    H("addi32", d=1, a=1, imm=1),
                    H("exit_ind", a=20, meta={"guest_insns": 2})])
    return [u], {}


def _ibtc(hit):
    def build():
        target = unit(2, B, [chk(B), H("addi32", d=2, a=2, imm=1),
                             ext(OUT, 4)])
        u = unit(1, A, [chk(A), H("li", d=20, imm=B),
                        H("ibtc", a=20, meta={"guest_insns": 2})])
        return [u, target], {"ibtc": {B: target} if hit else {}}
    return build


def _pause():
    u = unit(1, A, [
        chk(A), H("addi32", d=1, a=1, imm=1),
        H("commit", meta={"guest_insns": 2}),
        chk(A + 8), H("addi32", d=2, a=2, imm=1),
        ext(OUT, 1),
    ])
    return [u], {"pause": 1}


def _rollback(kind):
    def build():
        fail = {"assert": [H("li", d=21, imm=0), H("assert_nz", a=21)],
                "fault": [H("li", d=21, imm=0x55000),
                          H("ld32", d=22, a=21, imm=0)]}[kind]
        u = unit(1, A, [
            chk(A),
            H("li", d=20, imm=DATA),
            H("li", d=23, imm=0x11),
            H("st32", a=20, b=23, imm=0),
            H("commit", meta={"guest_insns": 1}),
            chk(A + 4),
            H("li", d=23, imm=0x22),
            H("st32", a=20, b=23, imm=4),
            H("lif", d=20, imm=2.5),
            H("vsplat", d=12, a=23),
            *fail,
            ext(OUT, 1),
        ])
        return [u], {}
    return build


def _chain():
    """A and B chain into each other through I[20]'s countdown; C is
    reached through the IBTC from B."""
    def build():
        c = unit(3, C, [chk(C), H("addi32", d=3, a=3, imm=1),
                        ext(OUT, 1)])
        b = unit(2, B, [chk(B), H("beqz", a=20, target=3),
                        ext(A, 1, link=None),
                        H("li", d=24, imm=C),
                        H("ibtc", a=24, meta={"guest_insns": 1})])
        a = unit(1, A, [chk(A), H("addi32", d=20, a=20, imm=-1),
                        H("commit", meta={"guest_insns": 1}),
                        chk(A + 4), H("addi32", d=1, a=1, imm=2),
                        ext(B, 1, link=b)])
        b.instrs[2].meta["link"] = a
        return [a, b, c], {"ibtc": {C: c}, "regs": {20: 4}}
    return build


def _fuel():
    u = unit(1, A, [chk(A), H("addi32", d=1, a=1, imm=1), ext(A, 1)])
    u.instrs[2].meta["link"] = u
    return [u], {"fuel": 30}


SCENARIOS = {
    **{f"{op}_{'taken' if taken else 'not_taken'}":
       _branch(op, 0 if (op == "beqz") == taken else 1)
       for op in ("beqz", "bnez") for taken in (True, False)},
    "j": _branch("j", 0),
    **{f"{op}_{'holds' if holds else 'fails'}":
       _assert(op, 0 if (op == "assert_z") == holds else 1)
       for op in ("assert_z", "assert_nz") for holds in (True, False)},
    **{f"profiled_{op}_{'interrupt' if interrupt else 'follow'}":
       _profiled(op, interrupt)
       for op in ("exit", "exit_ind", "ibtc")
       for interrupt in (True, False)},
    "exit_ind": _exit_ind,
    "ibtc_hit": _ibtc(True),
    "ibtc_miss": _ibtc(False),
    "pause_at_chkpt": _pause,
    "rollback_assert_after_store": _rollback("assert"),
    "rollback_fault_after_store": _rollback("fault"),
    "cluster_chain": _chain(),
    "fuel_exhausted": _fuel,
}


def _outcome(form, build, trace):
    units, opts = build()
    memory = PagedMemory(demand_zero=False)
    memory.install_page(DATA >> 12, bytes(4096))
    state = GuestState()
    state.eip = units[0].entry_pc
    tol = Tol(state, memory, TolConfig(**FORMS[form]))
    host = tol.host
    calls = []

    def hook(u, target):
        calls.append([u.uid, target])
        return opts.get("interrupt", False)

    host.profile_hook = hook
    for pc, target in opts.get("ibtc", {}).items():
        host.ibtc.insert(pc, target)
    if "fuel" in opts:
        host.fuel_per_dispatch = opts["fuel"]
    if "pause" in opts:
        host.pause_retired_at = opts["pause"]
    records = []

    def one_by_one(u, recs):
        for index, info in recs:
            records.append([u.uid, index, info])

    if trace == "records":
        host.trace_sink = one_by_one
    elif trace == "batched":
        host.trace_sink = lambda u, recs: records.extend(
            [u.uid, index, info] for index, info in recs)
    # Registers other than the guest homes survive between entries.
    for index, value in opts.get("regs", {}).items():
        host.iregs[index] = value
    try:
        event = host.execute(units[0], state)
        exit_ = [event.kind, event.next_pc, event.fault_addr,
                 event.unit.uid, event.exit_index, event.ibtc_miss,
                 event.host_insns]
    except Exception as exc:  # noqa: BLE001 (the error is the outcome)
        exit_ = ["raise", type(exc).__name__, str(exc)]
    return {
        "exit": exit_,
        "gpr": list(state.gpr),
        "host": [host.host_insns_total, host.host_insns_committed,
                 host.host_insns_wasted, host.guest_retired_total,
                 sorted(host.guest_retired_by_mode.items()),
                 sorted(host.host_committed_by_mode.items()),
                 host.ibtc.hits, host.ibtc.misses],
        "units": [[u.uid, u.exec_count, u.guest_insns_retired,
                   u.host_insns_committed, u.host_insns_wasted,
                   u.assert_failures, u.spec_failures] for u in units],
        "profile": calls,
        "memory": memory.read_bytes(DATA, 8).hex(),
        "records": records,
    }


def _digest(outcome):
    text = json.dumps(outcome, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_control_op_golden(name):
    outcomes = {trace: {form: _outcome(form, SCENARIOS[name], trace)
                        for form in FORMS}
                for trace in (None, "records", "batched")}
    for by_form in outcomes.values():
        assert by_form["single"] == by_form["reference"]
    assert _digest({str(trace): by_form["reference"]
                    for trace, by_form in outcomes.items()}) \
        == GOLDEN[name]


GOLDEN = {
    'assert_nz_fails': '2aa38db2aafe4eec',
    'assert_nz_holds': 'd73834c422798c56',
    'assert_z_fails': '2aa38db2aafe4eec',
    'assert_z_holds': 'd73834c422798c56',
    'beqz_not_taken': 'e98b6ac52dd25e9f',
    'beqz_taken': '96bc3834ae54b700',
    'bnez_not_taken': 'e98b6ac52dd25e9f',
    'bnez_taken': '96bc3834ae54b700',
    'cluster_chain': 'c7e8a2d88fd4904b',
    'exit_ind': '096905b89fd814e2',
    'fuel_exhausted': '66243e2b9bf7f0ee',
    'ibtc_hit': '552ef86da562d781',
    'ibtc_miss': 'c1d80df12128d860',
    'j': '96bc3834ae54b700',
    'pause_at_chkpt': 'a735b5ebcb10f658',
    'profiled_exit_follow': '7fed28ac8322fa29',
    'profiled_exit_ind_follow': 'a25e8d17cb133b48',
    'profiled_exit_ind_interrupt': 'a25e8d17cb133b48',
    'profiled_exit_interrupt': 'a25e8d17cb133b48',
    'profiled_ibtc_follow': 'af594899ed19e785',
    'profiled_ibtc_interrupt': 'f937986e1d3e3e7b',
    'rollback_assert_after_store': '0600e92568b2fdab',
    'rollback_fault_after_store': '1b99817d31f78ecc',
}
