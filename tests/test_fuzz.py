"""The coverage-guided differential fuzzer: mutation determinism,
coverage accounting, oracle classification, campaign replay determinism
across ``--jobs``, runaway containment, planted-bug end-to-end triage
(found -> deduped -> minimized -> confirmed via ``darco repro``) and the
pinned-corpus regression of programs compiled again after flushes.
"""

import json
import os
import random
from collections import Counter
from dataclasses import asdict

import pytest

from repro.fuzz.coverage import CoverageMap, edges_from_counters
from repro.fuzz.engine import FuzzConfig, run_campaign, seed_corpus
from repro.fuzz.mutate import MutationEngine, load_corpus_program
from repro.fuzz.oracle import FuzzOutcome, evaluate_candidate
from repro.snapshot.minimize import decode_program_instrs
from repro.tol.config import TolConfig
from repro.workloads.generator import SyntheticSpec, generate

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

#: Plants known to convert exec 0 of a ``seed=2`` campaign into a
#: finding (scanned once, pinned for determinism).
PLANT_DIVERGENCE = {"exec": 0, "site": "host_bitflip", "ordinal": 2,
                    "salt": 7}
PLANT_SANITIZER = {"exec": 0, "site": "stale_chain", "ordinal": 1,
                   "salt": 11}


def _small_program():
    return generate(SyntheticSpec(seed=9, hot_loops=1, trip_count=60,
                                  bb_size=4, cold_stanzas=1))


# ---------------------------------------------------------------------------
# Mutation engine.
# ---------------------------------------------------------------------------


def test_mutations_are_deterministic_and_length_preserving():
    program = _small_program()
    engine = MutationEngine(program)
    a = engine.mutate(random.Random("k:1"))
    b = engine.mutate(random.Random("k:1"))
    c = engine.mutate(random.Random("k:2"))
    assert a.code == b.code          # same seed -> same mutant
    assert a.code != program.code    # something actually changed
    assert len(a.code) == len(program.code)
    assert c.code != a.code          # different seed -> different mutant
    # Every mutant still decodes to the same instruction boundaries.
    assert [i.addr for i in decode_program_instrs(a)] == \
        [i.addr for i in decode_program_instrs(program)]


# ---------------------------------------------------------------------------
# Coverage map.
# ---------------------------------------------------------------------------


def test_coverage_edges_whitelist_and_buckets():
    edges = edges_from_counters({
        "cov.exit.SBM:exit": 5,          # -> bucket 3
        "mode.retired.IM": 1000,         # -> bucket 10
        "tol.dispatches": 99,            # not a coverage namespace
        "cov.shape.bb": 0,               # zero: not exercised
    })
    assert edges == {"cov.exit.SBM:exit#3", "mode.retired.IM#10"}


def test_coverage_digest_tracks_edge_set_not_hit_counts():
    a, b = CoverageMap(), CoverageMap()
    assert a.add(["x#1", "y#2"]) == 2
    assert a.add(["x#1"]) == 0           # repeat: hit count, not new
    b.add(["y#2"])
    b.add(["x#1"])
    assert a.digest() == b.digest()      # order/count independent
    assert a.as_dict() == {"x#1": 2, "y#2": 1}
    b.add(["z#1"])
    assert a.digest() != b.digest()


# ---------------------------------------------------------------------------
# Oracle classification.
# ---------------------------------------------------------------------------


def test_clean_candidate_classifies_ok_with_edges():
    outcome = evaluate_candidate(_small_program())
    assert outcome.classification == "ok"
    assert outcome.edges                          # coverage non-empty
    assert any(e.startswith("cov.") for e in outcome.edges)


def test_reference_crashing_candidate_is_invalid():
    program = _small_program()
    # Entry pointing at the data-less tail: reference faults -> invalid,
    # regardless of what the co-designed stack would do with it.
    from dataclasses import replace
    broken = replace(program, entry=program.base + len(program.code) - 1)
    outcome = evaluate_candidate(broken)
    assert outcome.classification == "invalid"


#: A branchy kernel whose traced programs take and skip branches.
TIMING_PROBE = SyntheticSpec(seed=5, hot_loops=2, trip_count=120, bb_size=6,
                             branchy=True, mem_ops=1, fp_ops=1)
TIMING_PROBE_CONFIG = {"bbm_threshold": 3, "sbm_threshold": 8}


def test_timing_leg_passes_a_clean_candidate():
    outcome = evaluate_candidate(generate(TIMING_PROBE),
                                 base_overrides=TIMING_PROBE_CONFIG,
                                 timing=True)
    assert outcome.classification == "ok"


def test_timing_leg_compares_generated_against_reference_forms(
        monkeypatch):
    """Traced programs planted to record every ``beqz``/``bnez`` as not
    taken leave every untimed leg clean; the timing leg's reference
    forms (the reference loop, the generic timing loop) see the real
    branch outcomes, so the cycle reports differ.  An empty code table
    keeps an already compiled traced shape from hiding the plant."""
    from repro import pycode
    from repro.tol import direct

    record = direct._Program.record

    def not_taken(self, info):
        return record(self, "{'taken': False}" if info == "{'taken': _tk}"
                      else info)

    monkeypatch.setattr(pycode, "_CODES", {})
    monkeypatch.setattr(direct._Program, "record", not_taken)
    outcome = evaluate_candidate(generate(TIMING_PROBE),
                                 base_overrides=TIMING_PROBE_CONFIG,
                                 timing=True)
    assert outcome.classification == "finding"
    assert outcome.finding_kind == "timing"
    assert outcome.finding_leg == "timing_generated"


# ---------------------------------------------------------------------------
# Runaway containment (satellite: never hang a worker, never abort).
# ---------------------------------------------------------------------------


def _syscall_spinner(trips=1500):
    """A deliberate livelock kernel: every loop iteration crosses the
    controller (SYS_TIME), so a tiny event budget is guaranteed to blow.
    The body repeats the syscall so most mutants still spin."""
    from repro.guest.assembler import Assembler, EAX, ECX
    asm = Assembler()
    with asm.counted_loop(ECX, trips):
        for _ in range(8):
            asm.mov(EAX, 5)          # SYS_TIME: benign, deterministic
            asm.emit("SYSCALL")
    asm.exit(0)
    return asm.program()


def test_clean_candidate_runs_three_legs():
    outcome = evaluate_candidate(_small_program())
    assert outcome.classification == "ok"
    from repro.fuzz.oracle import DEFAULT_LEGS
    assert [name for name, _ in DEFAULT_LEGS] == [
        "interp_strict", "generated_strict", "generated_recover"]


def test_per_mode_host_charge_mismatch_names_the_leg(monkeypatch):
    """A clean candidate whose recover leg charges one extra host
    instruction to a mode is a divergence finding naming that leg:
    the cross-leg check covers host accounting, not only retirement."""
    from repro.tol.tol import Tol
    init = Tol.__init__

    def perturbed(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.config.recovery_mode != "recover":
            return
        host = self.host
        run = host._run

        def run_and_miscount(unit):
            event = run(unit)
            by_mode = host.host_committed_by_mode
            by_mode[unit.mode] = by_mode.get(unit.mode, 0) + 1
            return event
        host._run = run_and_miscount

    monkeypatch.setattr(Tol, "__init__", perturbed)
    outcome = evaluate_candidate(_small_program())
    assert outcome.classification == "finding"
    assert outcome.finding_kind == "divergence"
    assert outcome.finding_leg == "generated_recover"
    assert "host_committed_by_mode" in outcome.error


def test_sanitizer_checks_every_return_from_a_dispatch(monkeypatch):
    """With ``sanitize=True`` the host's region state is checked where
    both execution forms pass, so a generated program that leaves an
    undo entry behind raises SanitizerError in strict mode; with it
    off nothing is wrapped."""
    import repro.tol.tol as tol_module
    from repro.system.controller import Controller
    from repro.tol.sanitize import SanitizerError

    plain = Controller(_small_program(), config=TolConfig())
    host = plain.codesigned.tol.host
    assert "_run" not in host.__dict__ and host.undo_check is None
    compile_direct = tol_module.compile_direct

    def leaky(unit, emu, traced=False):
        prog = compile_direct(unit, emu, traced=traced)

        def run(emu_, executed, fuel):
            result = prog(emu_, executed, fuel)
            emu_._undo.append(("u32", 0x1000, 0))
            return result
        return run

    monkeypatch.setattr(tol_module, "compile_direct", leaky)
    controller = Controller(_small_program(), config=TolConfig(
        sanitize=True, recovery_mode="strict"))
    with pytest.raises(SanitizerError, match="undo_log"):
        controller.run()


def test_event_budget_blowout_classifies_runaway():
    """The livelock kernel under a tiny event budget is 'runaway' — not
    a crash, not a finding, and it must not hang the evaluation."""
    outcome = evaluate_candidate(_syscall_spinner(), max_events=100)
    assert outcome.classification == "runaway"
    assert outcome.runaway_leg == "interp_strict"
    assert "event budget" in outcome.error
    # With the normal budget the same kernel is a clean program.
    assert evaluate_candidate(_syscall_spinner()).classification == "ok"


def test_campaign_skips_runaway_mutants_and_completes(tmp_path):
    from repro.fuzz.mutate import save_corpus_program
    save_corpus_program(str(tmp_path / "spinner.json"),
                        _syscall_spinner())
    result = run_campaign(FuzzConfig(seed=3, budget=6, batch=6,
                                     corpus_dir=str(tmp_path),
                                     max_events=100, minimize=False,
                                     confirm=False))
    assert result.executions == 6               # never aborted
    assert result.classified["runaway"] >= 1    # spinner mutant skipped
    assert not result.findings                  # and not misfiled


# ---------------------------------------------------------------------------
# Replay determinism across --jobs.
# ---------------------------------------------------------------------------


def test_campaign_identical_at_jobs_1_and_jobs_4():
    config = dict(seed=5, budget=8, batch=4, minimize=False,
                  confirm=False)
    seq = run_campaign(FuzzConfig(jobs=1, **config))
    par = run_campaign(FuzzConfig(jobs=4, **config))
    assert seq.executions == par.executions == 8
    assert seq.coverage_digest == par.coverage_digest
    assert seq.coverage == par.coverage
    assert seq.classified == par.classified
    assert seq.signatures() == par.signatures()
    assert seq.corpus_size == par.corpus_size


# ---------------------------------------------------------------------------
# Planted bugs: found, minimized, confirmed end to end.
# ---------------------------------------------------------------------------


def _planted_campaign(tmp_path, plant):
    return run_campaign(FuzzConfig(
        seed=2, budget=1, batch=1, plant=plant,
        repro_dir=str(tmp_path / "repro")))


def test_planted_divergence_found_minimized_confirmed(tmp_path):
    from repro.cli import main
    result = _planted_campaign(tmp_path, PLANT_DIVERGENCE)
    assert len(result.findings) == 1
    finding = result.findings[0]
    assert finding.kind == "divergence"
    assert finding.minimized_instructions is not None
    assert finding.minimized_instructions <= 10
    assert finding.minimized_instructions < finding.original_instructions
    assert finding.confirmed is True
    # The emitted bundle replays through the user-facing command.
    assert finding.bundle_path and os.path.exists(finding.bundle_path)
    assert main(["repro", finding.bundle_path]) == 0


def test_planted_sanitizer_violation_found_minimized_confirmed(tmp_path):
    from repro.cli import main
    result = _planted_campaign(tmp_path, PLANT_SANITIZER)
    assert len(result.findings) == 1
    finding = result.findings[0]
    assert finding.kind == "sanitizer"
    assert finding.minimized_instructions is not None
    assert finding.minimized_instructions <= 10
    assert finding.confirmed is True
    assert finding.bundle_path and os.path.exists(finding.bundle_path)
    assert main(["repro", finding.bundle_path]) == 0


# ---------------------------------------------------------------------------
# Dedup + worker-crash triage (stubbed sweep: no real runs).
# ---------------------------------------------------------------------------


def _stub_sweep(outcomes):
    """A sweep replacement yielding canned per-job results."""
    from repro.harness.parallel import SweepResult

    def fake_sweep(jobs, n_jobs=None, use_cache=False):
        results = []
        for job, canned in zip(jobs, outcomes):
            if isinstance(canned, str):
                results.append(SweepResult(job=job, error=canned))
            else:
                results.append(SweepResult(job=job, value=asdict(canned)))
        return results
    return fake_sweep


def test_same_signature_findings_dedup(monkeypatch):
    import repro.fuzz.engine as engine_mod
    finding = FuzzOutcome(classification="finding",
                          finding_kind="divergence",
                          finding_leg="direct_strict",
                          signature="sig-xyz", edges=["cov.a#1"])
    monkeypatch.setattr(engine_mod, "sweep",
                        _stub_sweep([finding, finding]))
    result = run_campaign(FuzzConfig(seed=1, budget=2, batch=2,
                                     minimize=False, confirm=False))
    assert result.classified["finding"] == 2
    assert len(result.findings) == 1            # deduped by signature
    assert result.findings[0].duplicates == 1


def test_worker_crash_becomes_finding_not_abort(monkeypatch):
    import repro.fuzz.engine as engine_mod
    monkeypatch.setattr(engine_mod, "sweep",
                        _stub_sweep(["TypeError: worker exploded"]))
    result = run_campaign(FuzzConfig(seed=1, budget=1, batch=1,
                                     minimize=False, confirm=False))
    assert result.executions == 1               # campaign completed
    assert len(result.findings) == 1
    assert result.findings[0].leg == "worker"
    assert "worker exploded" in result.findings[0].error


# ---------------------------------------------------------------------------
# Pinned corpus seed: programs compiled again after flushes.
# ---------------------------------------------------------------------------


def test_corpus_dir_feeds_the_seed_corpus():
    entries = seed_corpus(1, corpus_dir=CORPUS_DIR)
    ids = [e.entry_id for e in entries]
    assert "corpus:direct_repromote.json" in ids


def test_flushed_units_compile_again_at_their_first_entry(monkeypatch):
    """The pinned corpus kernel (hot function called from a loop: a
    stable superblock head) compiles every unit's program at the unit's
    first entry; cache flushes strip the programs, and the units
    translated again at the same entry PCs compile again, each at its
    own first entry."""
    import repro.tol.tol as tol_module
    from repro.system.controller import Controller

    compile_direct = tol_module.compile_direct
    compiles = []

    def counted(unit, emu, traced=False):
        compiles.append((unit.entry_pc, unit.exec_count))
        return compile_direct(unit, emu, traced=traced)

    monkeypatch.setattr(tol_module, "compile_direct", counted)
    program = load_corpus_program(
        os.path.join(CORPUS_DIR, "direct_repromote.json"))
    controller = Controller(program, config=TolConfig())
    tol = controller.codesigned.tol

    target = 2500
    result = None
    for _ in range(10):
        result = controller.run(until_icount=target)
        if result.exit_code is not None:
            break
        tol.cache.flush()               # organic capacity-flush demotion
        target += 2500
    if result.exit_code is None:
        result = controller.run()
    assert result.exit_code == 0

    assert tol.cache.direct_strips >= 2
    assert compiles and all(entries == 1 for _, entries in compiles)
    assert max(Counter(pc for pc, _ in compiles).values()) >= 2
    assert tol.stats.direct_tier == {"compiled": len(compiles)}

    # The compiles and strips are visible to the fuzzer's coverage map.
    counters = tol.telemetry.snapshot().counters
    assert counters["cov.direct.compiled"] == len(compiles)
    assert counters["cov.direct.strips"] == tol.cache.direct_strips
    edges = edges_from_counters(counters)
    assert any(e.startswith("cov.direct.compiled#") for e in edges)


def test_pinned_corpus_program_runs_clean_through_the_oracle():
    program = load_corpus_program(
        os.path.join(CORPUS_DIR, "direct_repromote.json"))
    outcome = evaluate_candidate(program)
    assert outcome.classification == "ok"
    assert any(e.startswith("cov.direct.") for e in outcome.edges)


# ---------------------------------------------------------------------------
# Campaign result serialization (what --json/--out and CI consume).
# ---------------------------------------------------------------------------


def test_campaign_result_as_dict_is_json_safe():
    result = run_campaign(FuzzConfig(seed=6, budget=2, batch=2,
                                     minimize=False, confirm=False))
    blob = json.dumps(result.as_dict(), sort_keys=True)
    loaded = json.loads(blob)
    assert loaded["executions"] == 2
    assert loaded["coverage_digest"] == result.coverage_digest
    assert "execs_per_sec" in loaded
