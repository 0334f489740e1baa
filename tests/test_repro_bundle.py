"""Repro bundles, deterministic replay, the ``darco repro`` command and
the delta-debugging minimizer — plus the shared artifact I/O helpers
they are built on.
"""

import json
import pickle

import pytest

from repro.ioutil import (
    SchemaError, atomic_write_bytes, canonical_json, content_hash,
    load_artifact, write_artifact,
)
from repro.resilience.campaign import (
    build_campaign_program, campaign_config,
)
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.snapshot.bundle import load_bundle, replay_bundle, write_bundle
from repro.system.controller import Controller

#: A campaign fault case known to produce a state divergence (found by
#: scanning ``plan_campaign(7, 30)``; pinned so the tests are
#: deterministic).
DIVERGING_FAULT = FaultSpec(site="host_bitflip", ordinal=2,
                            salt=0xF2A74DE4)


def _faulted_controller(mode="recover"):
    controller = Controller(build_campaign_program(),
                            config=campaign_config(mode))
    FaultInjector(DIVERGING_FAULT).attach(controller.codesigned.tol)
    return controller


# ---------------------------------------------------------------------------
# Shared artifact I/O (satellite: one atomic-write helper, versioned
# schemas everywhere).
# ---------------------------------------------------------------------------


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "sub" / "blob.bin"
    atomic_write_bytes(path, b"payload")
    assert path.read_bytes() == b"payload"
    assert [p.name for p in path.parent.iterdir()] == ["blob.bin"]


def test_canonical_json_is_key_order_independent():
    assert (canonical_json({"b": 1, "a": [2, 3]})
            == canonical_json({"a": [2, 3], "b": 1}))
    assert (content_hash({"x": 1, "y": 2})
            == content_hash({"y": 2, "x": 1}))


def test_artifact_roundtrip_and_corruption_as_miss(tmp_path):
    path = tmp_path / "thing.json"
    write_artifact(path, "thing", 3, {"n": 42})
    assert load_artifact(path, "thing", 3) == {"n": 42}

    path.write_text(path.read_text()[:-40])  # truncate
    assert load_artifact(path, "thing", 3, missing_ok=True) is None
    with pytest.raises(SchemaError):
        load_artifact(path, "thing", 3)
    assert load_artifact(tmp_path / "absent.json", "thing", 3,
                         missing_ok=True) is None


def test_result_cache_uses_corruption_as_miss(tmp_path):
    from repro.harness.parallel import _MISS, ResultCache
    cache = ResultCache(tmp_path)
    cache.put("deadbeef", {"v": 1})
    assert cache.get("deadbeef") == {"v": 1}
    # Corrupt the entry in place: reads as a miss and is dropped.
    path = cache._path("deadbeef")
    path.write_bytes(path.read_bytes()[:5])
    assert cache.get("deadbeef") is _MISS
    assert not path.exists()


def test_incident_log_save_load_roundtrip(tmp_path):
    controller = _faulted_controller("recover")
    controller.run()
    log = controller.codesigned.tol.incidents
    assert len(log) >= 1
    path = tmp_path / "incidents.json"
    log.save(path)
    loaded = type(log).load(path)
    assert loaded.signature() == log.signature()
    assert loaded.kinds() == log.kinds()


# ---------------------------------------------------------------------------
# Bundle emission and deterministic replay.
# ---------------------------------------------------------------------------


def test_incident_run_emits_replayable_bundle(tmp_path):
    controller = _faulted_controller("recover")
    result = controller.run(repro_dir=tmp_path,
                            checkpoint_dir=tmp_path / "ck")
    assert result.incidents >= 1
    assert controller.last_bundle_path is not None

    bundle = load_bundle(controller.last_bundle_path)
    assert bundle.reason == "incidents"
    assert bundle.fault["site"] == DIVERGING_FAULT.site
    assert bundle.checkpoint is not None
    signature = controller.codesigned.tol.incidents.signature()
    assert bundle.incident_signature == signature

    outcome, replayed = replay_bundle(bundle)
    assert outcome.reproduced
    assert outcome.incident_signature == signature


#: Each retired config field, with a value bundles written before it
#: was retired carry: the default of ``direct_enable`` before every unit
#: ran as a generated program and of the promotion knobs before every
#: unit ran the one program compiled at its first entry;
#: ``interp_fastpath`` as the fuzz oracle's reference leg set it before
#: ``host_fastpath`` selected the interpreter's form too.
RETIRED_FIELDS = {"direct_enable": True, "direct_promote_threshold": 200,
                  "direct_max_repromotions": 8, "direct_cluster_max": 4,
                  "interp_fastpath": False}


@pytest.mark.parametrize("name", sorted(RETIRED_FIELDS))
def test_bundle_naming_a_retired_config_field_loads_and_replays(name,
                                                                tmp_path):
    """Bundles written before a config field was retired name it in
    their config: loading drops it, and the bundle still replays.
    Overrides keep rejecting the unknown name."""
    from repro.snapshot.bundle import BUNDLE_SCHEMA_VERSION, KIND_BUNDLE
    from repro.snapshot.serialize import RETIRED_CONFIG_FIELDS
    from repro.tol.config import TolConfig

    assert name in RETIRED_CONFIG_FIELDS
    controller = _faulted_controller("recover")
    controller.run(repro_dir=tmp_path)
    path = controller.last_bundle_path
    payload = load_artifact(path, KIND_BUNDLE, BUNDLE_SCHEMA_VERSION)
    payload["config"][name] = RETIRED_FIELDS[name]
    write_artifact(path, KIND_BUNDLE, BUNDLE_SCHEMA_VERSION, payload)

    bundle = load_bundle(path)
    assert not hasattr(bundle.config, name)
    outcome, _ = replay_bundle(bundle)
    assert outcome.reproduced
    assert outcome.incident_signature == bundle.incident_signature
    with pytest.raises(ValueError):
        TolConfig().with_overrides(
            {name: str(RETIRED_FIELDS[name]).lower()})


def test_strict_exception_emits_bundle_and_reraises(tmp_path):
    controller = _faulted_controller("strict")
    with pytest.raises(Exception):
        controller.run(repro_dir=tmp_path)
    bundle = load_bundle(controller.last_bundle_path)
    assert bundle.reason == "exception"
    assert bundle.error
    outcome, _ = replay_bundle(bundle)
    assert outcome.reproduced
    assert outcome.error


def test_bundle_emission_never_masks_the_run(tmp_path, monkeypatch):
    """A failing bundle writer must not change the run's outcome."""
    import repro.snapshot.bundle as bundle_mod
    def boom(*args, **kwargs):
        raise OSError("disk full")
    monkeypatch.setattr(bundle_mod, "write_bundle", boom)
    controller = _faulted_controller("recover")
    result = controller.run(repro_dir=tmp_path)
    assert result.exit_code == 0
    assert controller.last_bundle_path is None


def test_manual_bundle_of_clean_run_does_not_reproduce(tmp_path):
    controller = Controller(build_campaign_program(),
                            config=campaign_config("recover"))
    controller.run()
    path = write_bundle(tmp_path, controller, "manual")
    outcome, _ = replay_bundle(load_bundle(path))
    assert not outcome.reproduced


# ---------------------------------------------------------------------------
# The darco repro subcommand (exit codes are the contract).
# ---------------------------------------------------------------------------


def test_cli_repro_exit_codes(tmp_path, capsys):
    from repro.cli import main

    controller = _faulted_controller("recover")
    controller.run(repro_dir=tmp_path)
    bundle_path = str(controller.last_bundle_path)
    assert main(["repro", bundle_path]) == 0
    assert "REPRODUCED" in capsys.readouterr().out

    clean = Controller(build_campaign_program(),
                       config=campaign_config("recover"))
    clean.run()
    clean_path = str(write_bundle(tmp_path, clean, "manual"))
    assert main(["repro", clean_path]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["repro", str(bad)]) == 1


# ---------------------------------------------------------------------------
# Delta-debugging minimizer (acceptance: a campaign divergence shrinks
# to <= 10 instructions and still diverges under darco repro).
# ---------------------------------------------------------------------------


def test_minimizer_shrinks_campaign_divergence(tmp_path):
    from repro.cli import main
    from repro.snapshot.minimize import (
        decode_program_instrs, minimize_program,
    )

    program = build_campaign_program()
    config = campaign_config("recover")
    fault = {"site": DIVERGING_FAULT.site,
             "ordinal": DIVERGING_FAULT.ordinal,
             "salt": DIVERGING_FAULT.salt}
    result = minimize_program(program, config, fault=fault)
    assert result.instructions <= 10
    assert result.instructions < result.original_instructions

    # The minimized program still diverges — confirmed end to end by
    # running it and replaying the bundle through darco repro.
    controller = Controller(result.program, config=config)
    FaultInjector(DIVERGING_FAULT).attach(controller.codesigned.tol)
    run = controller.run(repro_dir=tmp_path)
    assert run.incidents >= 1
    assert main(["repro", str(controller.last_bundle_path)]) == 0
    if result.compacted:
        assert (len(result.program.code)
                < len(decode_program_instrs(program))
                * max(i.length for i in decode_program_instrs(program)))


def test_minimizer_rejects_clean_input():
    from repro.snapshot.minimize import minimize_program
    with pytest.raises(ValueError, match="does not diverge"):
        minimize_program(build_campaign_program(),
                         campaign_config("recover"))
