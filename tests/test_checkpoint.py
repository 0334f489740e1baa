"""Checkpoint/restore round-trip guarantee (the tentpole property).

A run checkpointed at every validation boundary, then resumed from ANY
of those checkpoints, must produce architectural results bit-identical
to an uncheckpointed run: same exit code, retirement count, stdout,
final register/memory state and incident-log hash.  The matrix covers
integer, floating-point, string-op and syscall-heavy workloads in both
strict and recover modes.
"""

import pytest

from repro.guest.asmtext import assemble_text
from repro.ioutil import SchemaError, load_artifact
from repro.snapshot.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION, KIND_CHECKPOINT, CheckpointStore,
)
from repro.snapshot.runner import arch_result, run_checkpointed
from repro.tol.config import TolConfig

# ---------------------------------------------------------------------------
# The workload matrix: each program loops through several syscalls (so
# checkpoints land mid-run) and is hot enough to promote code through
# BBM into SBM under the aggressive thresholds below.
# ---------------------------------------------------------------------------

INT_SRC = """
    mov esi, 0
    mov ebp, 5
outer:
    mov ecx, 25
inner:
    imul esi, 3
    add esi, ecx
    xor esi, 0x1f
    mov [0x9100], esi
    mov edx, [0x9100]
    add esi, edx
    dec ecx
    jne inner
    mov eax, 2
    mov ecx, 0x9000
    mov edx, 4
    syscall
    dec ebp
    jne outer
    mov eax, 1
    mov ebx, 0
    syscall
    .data 0x9000 u32 0x2e2e2e2e
"""

FP_SRC = """
    mov ebp, 6
    fldi f0, 1
    fldi f1, 3
floop:
    mov ecx, 12
fin:
    fadd f0, f1
    fmul f0, f1
    fsqrt f0
    fst [0x9200], f0
    fld f2, [0x9200]
    fadd f0, f2
    dec ecx
    jne fin
    mov eax, 2
    mov ecx, 0x9000
    mov edx, 2
    syscall
    dec ebp
    jne floop
    mov eax, 1
    mov ebx, 0
    syscall
    .data 0x9000 u32 0x2a2a2a2a
"""

STRING_SRC = """
    mov ebp, 5
sloop:
    mov esi, 0x9000
    mov edi, 0x9400
    mov ecx, 8
    rep_movsd
    mov eax, 0x41414141
    mov edi, 0x9500
    mov ecx, 6
    rep_stosd
    mov eax, 2
    mov ecx, 0x9400
    mov edx, 4
    syscall
    dec ebp
    jne sloop
    mov eax, 1
    mov ebx, 0
    syscall
    .data 0x9000 u32 0x2b2b2b2b 2 3 4 5 6 7 8
"""

SYSCALL_SRC = """
    mov ebp, 8
qloop:
    mov eax, 6
    syscall
    mov [0x9300], eax
    mov eax, 5
    syscall
    mov eax, 3
    mov ecx, 0x9340
    mov edx, 2
    syscall
    mov eax, 2
    mov ecx, 0x9300
    mov edx, 4
    syscall
    mov eax, 4
    mov ebx, 0
    syscall
    dec ebp
    jne qloop
    mov eax, 1
    mov ebx, 0
    syscall
"""

WORKLOADS = {
    "int": INT_SRC,
    "fp": FP_SRC,
    "string": STRING_SRC,
    "syscall": SYSCALL_SRC,
}
MODES = ("strict", "recover")


def _config(mode: str) -> TolConfig:
    return TolConfig(bbm_threshold=2, sbm_threshold=6,
                     recovery_mode=mode)


# ---------------------------------------------------------------------------
# The round-trip matrix.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_resume_from_every_boundary_is_bit_identical(name, mode, tmp_path):
    program = assemble_text(WORKLOADS[name])
    config = _config(mode)
    baseline, _ = run_checkpointed(program, config=config)

    checkpointed, _ = run_checkpointed(
        program, config=config, checkpoint_dir=tmp_path,
        checkpoint_every=1)
    # Checkpointing itself must not perturb the run.
    assert checkpointed == baseline

    store = CheckpointStore(tmp_path)
    paths = store.paths()
    assert len(paths) >= 2, "matrix workload must checkpoint mid-run"
    for path in paths:
        controller = store.restore(path)
        result = controller.run()
        assert arch_result(result, controller) == baseline, \
            f"resume from {path.name} diverged"


def test_workloads_cover_all_execution_modes():
    """Sanity: the matrix really exercises interpreter + translations."""
    program = assemble_text(INT_SRC)
    _, controller = run_checkpointed(program, config=_config("strict"))
    dist = controller.codesigned.tol.mode_distribution()
    assert dist["IM"] > 0 and dist["BBM"] > 0 and dist["SBM"] > 0


def test_checkpoint_cadence(tmp_path):
    program = assemble_text(SYSCALL_SRC)
    _, _ = run_checkpointed(program, config=_config("strict"),
                            checkpoint_dir=tmp_path, checkpoint_every=1)
    dense = len(CheckpointStore(tmp_path).paths())

    sparse_dir = tmp_path / "sparse"
    _, _ = run_checkpointed(program, config=_config("strict"),
                            checkpoint_dir=sparse_dir,
                            checkpoint_every=5)
    sparse = len(CheckpointStore(sparse_dir).paths())
    assert dense > sparse >= 1


def test_resume_logs_evidence_outside_the_value(tmp_path):
    program = assemble_text(INT_SRC)
    config = _config("strict")
    baseline, _ = run_checkpointed(program, config=config)
    run_checkpointed(program, config=config, checkpoint_dir=tmp_path)

    resumed, _ = run_checkpointed(program, config=config,
                                  checkpoint_dir=tmp_path, resume=True)
    assert resumed == baseline
    log = (tmp_path / "resume.log").read_text()
    assert "resumed from ckpt-" in log
    assert "guest_icount=" in log


def test_fresh_run_clears_stale_checkpoints(tmp_path):
    program = assemble_text(INT_SRC)
    config = _config("strict")
    run_checkpointed(program, config=config, checkpoint_dir=tmp_path)
    first = {p.name for p in CheckpointStore(tmp_path).paths()}
    assert first
    # resume=False must not inherit resume points from the previous run.
    run_checkpointed(program, config=config, checkpoint_dir=tmp_path,
                     checkpoint_every=5)
    second = {p.name for p in CheckpointStore(tmp_path).paths()}
    assert len(second) < len(first)


def test_checkpoint_naming_retired_fields_restores_bit_identical(tmp_path):
    """A checkpoint written while programs were still promoted names the
    three promotion knobs in its config and carries
    ``direct_promotions`` in ``tol.stats``: it restores without them and
    finishes bit-identical to an uncheckpointed run."""
    from repro.ioutil import write_artifact

    program = assemble_text(INT_SRC)
    config = _config("strict")
    baseline, _ = run_checkpointed(program, config=config)
    run_checkpointed(program, config=config, checkpoint_dir=tmp_path,
                     checkpoint_every=1)
    store = CheckpointStore(tmp_path)
    paths = store.paths()
    path = paths[len(paths) // 2]
    payload = store.load(path)
    payload["config"].update(direct_promote_threshold=200,
                             direct_max_repromotions=8,
                             direct_cluster_max=4)
    payload["tol"]["stats"]["direct_promotions"] = 3
    write_artifact(path, KIND_CHECKPOINT, CHECKPOINT_SCHEMA_VERSION,
                   payload)

    controller = store.restore(path)
    assert not hasattr(controller.codesigned.tol.stats, "direct_promotions")
    result = controller.run()
    assert arch_result(result, controller) == baseline


# ---------------------------------------------------------------------------
# Faulted runs: checkpoints taken after the fault fired and its
# incidents were recorded restore both the fault's inert state and the
# incident log, so the tail replays to the same signature.
# ---------------------------------------------------------------------------


def test_faulted_recover_run_resumes_after_incidents(tmp_path):
    from repro.resilience.campaign import (
        build_campaign_program, campaign_config,
    )
    from repro.resilience.faults import FaultInjector, FaultSpec
    from repro.system.controller import Controller

    program = build_campaign_program()
    config = campaign_config("recover")
    spec = FaultSpec(site="host_bitflip", ordinal=2, salt=0xF2A74DE4)

    controller = Controller(program, config=config)
    FaultInjector(spec).attach(controller.codesigned.tol)
    result = controller.run(checkpoint_dir=tmp_path)
    baseline = arch_result(result, controller)
    assert baseline.incidents >= 1, "fault case must record incidents"

    store = CheckpointStore(tmp_path)
    eligible = 0
    for path in store.paths():
        payload = store.load(path)
        fault = payload["fault"]
        post_fault = fault is not None and fault["fired"]
        all_incidents = (len(payload["tol"]["incidents"])
                         == baseline.incidents)
        if not (post_fault and all_incidents):
            # A checkpoint taken before the fault manifested holds
            # micro-architectural fault state the snapshot deliberately
            # does not carry (see DESIGN.md §7); only post-incident
            # checkpoints promise bit-identical tails.
            continue
        eligible += 1
        resumed = store.restore(path)
        r2 = resumed.run()
        assert arch_result(r2, resumed) == baseline
    assert eligible >= 1, "no post-incident checkpoint to resume from"


# ---------------------------------------------------------------------------
# Artifact integrity: versioned envelopes, corruption and mismatch
# detection (satellite: schema versioning).
# ---------------------------------------------------------------------------


def test_checkpoints_are_versioned_artifacts(tmp_path):
    program = assemble_text(INT_SRC)
    run_checkpointed(program, config=_config("strict"),
                     checkpoint_dir=tmp_path)
    path = CheckpointStore(tmp_path).latest()
    payload = load_artifact(path, KIND_CHECKPOINT,
                            CHECKPOINT_SCHEMA_VERSION)
    assert payload["program"]["code"]
    with pytest.raises(SchemaError, match="schema version"):
        load_artifact(path, KIND_CHECKPOINT,
                      CHECKPOINT_SCHEMA_VERSION + 1)
    with pytest.raises(SchemaError, match="artifact kind"):
        load_artifact(path, "repro_bundle", CHECKPOINT_SCHEMA_VERSION)


def test_tampered_checkpoint_is_rejected(tmp_path):
    program = assemble_text(INT_SRC)
    run_checkpointed(program, config=_config("strict"),
                     checkpoint_dir=tmp_path)
    store = CheckpointStore(tmp_path)
    path = store.latest()
    text = path.read_text().replace('"guest_icount"', '"guest_icovnt"')
    path.write_text(text)
    with pytest.raises(SchemaError):
        store.load(path)


def test_restore_from_empty_directory_raises(tmp_path):
    with pytest.raises(SchemaError, match="no checkpoints"):
        CheckpointStore(tmp_path).restore()
