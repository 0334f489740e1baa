"""Pluggable minimizer oracles: one regression test per oracle kind.

The generic :class:`ProgramOracle` (divergence), the
:class:`SanitizerOracle` (TOL invariant violations) and the
:class:`TimingMismatchOracle` (cycle-report disagreement) each have to
(a) fire on their own failure kind, (b) reject every other kind —
shrinking must preserve what the finding *is* — and (c) drive ddmin to
a small reproducer.  ``oracle_for_reason`` is the dispatch the fuzzer
and ``darco repro --minimize`` rely on.
"""

import pytest

from repro.snapshot.minimize import (
    ProgramOracle, SanitizerOracle, TimingMismatchOracle,
    decode_program_instrs, minimize_program, oracle_for_reason,
)
from repro.tol.config import TolConfig
from repro.workloads.generator import SyntheticSpec, generate

#: Pinned faults known to fire on :func:`_small_program` (scanned once;
#: pinned so the tests are deterministic).
SANITIZER_FAULT = {"site": "stale_chain", "ordinal": 1, "salt": 11}
DIVERGENCE_FAULT = {"site": "host_bitflip", "ordinal": 1, "salt": 7}


def _small_program():
    """A ~36-instruction looping kernel: big enough to translate and
    chain (so ``stale_chain`` has something to corrupt), small enough
    that ddmin stays fast."""
    return generate(SyntheticSpec(seed=9, hot_loops=1, trip_count=60,
                                  bb_size=4, cold_stanzas=1))


def _strict_config():
    return TolConfig(recovery_mode="strict")


# ---------------------------------------------------------------------------
# Divergence oracle (the pre-existing default, exercised via dispatch).
# ---------------------------------------------------------------------------


def test_program_oracle_fires_on_divergence_fault():
    oracle = ProgramOracle(_strict_config(), fault=DIVERGENCE_FAULT)
    assert oracle.diverges(_small_program())


def test_program_oracle_clean_program_does_not_diverge():
    oracle = ProgramOracle(_strict_config())
    assert not oracle.diverges(_small_program())


# ---------------------------------------------------------------------------
# Sanitizer oracle.
# ---------------------------------------------------------------------------


def test_sanitizer_oracle_fires_on_invariant_violation():
    oracle = SanitizerOracle(_strict_config(), fault=SANITIZER_FAULT)
    assert oracle.config.sanitize  # forced on regardless of input
    assert oracle.diverges(_small_program())


def test_sanitizer_oracle_rejects_other_failure_kinds():
    """A plain divergence is NOT a sanitizer finding: the oracle must
    reject it so shrinking cannot trade one bug kind for another."""
    oracle = SanitizerOracle(_strict_config(), fault=DIVERGENCE_FAULT)
    assert not oracle.diverges(_small_program())


def test_sanitizer_oracle_minimizes_and_preserves_kind():
    program = _small_program()
    oracle = SanitizerOracle(_strict_config(), fault=SANITIZER_FAULT)
    result = minimize_program(program, oracle=oracle)
    assert result.instructions <= 10
    assert result.instructions < result.original_instructions
    # The minimized program still trips the *sanitizer*, not something
    # else — checked with a fresh oracle of the same kind.
    assert SanitizerOracle(_strict_config(),
                           fault=SANITIZER_FAULT).diverges(result.program)


# ---------------------------------------------------------------------------
# Timing-mismatch oracle.
# ---------------------------------------------------------------------------


def test_timing_oracle_identity_holds_on_one_config():
    """The generated forms vs the reference forms on the same
    TimingConfig is the timing identity contract: no mismatch on a
    clean kernel."""
    from repro.timing.config import TimingConfig
    oracle = TimingMismatchOracle(_strict_config(),
                                  timing_config=TimingConfig())
    assert not oracle.diverges(_small_program())


def test_timing_oracle_fires_on_config_sensitive_kernel():
    from repro.timing.config import TimingConfig
    oracle = TimingMismatchOracle(
        _strict_config(), timing_config=TimingConfig(),
        timing_config_b=TimingConfig(mispredict_penalty=30,
                                     memory_latency=400))
    assert oracle.diverges(_small_program())


def test_timing_oracle_refuses_armed_faults():
    from repro.timing.config import TimingConfig
    with pytest.raises(ValueError, match="armed faults"):
        TimingMismatchOracle(_strict_config(),
                             timing_config=TimingConfig(),
                             fault=DIVERGENCE_FAULT)


# ---------------------------------------------------------------------------
# Reason -> oracle dispatch.
# ---------------------------------------------------------------------------


def test_oracle_for_reason_dispatch():
    cfg = _strict_config()
    assert isinstance(oracle_for_reason("fuzz_sanitizer", cfg),
                      SanitizerOracle)
    assert isinstance(oracle_for_reason("fuzz_timing", cfg,
                                        fault=DIVERGENCE_FAULT),
                      TimingMismatchOracle)  # fault dropped, not fatal
    generic = oracle_for_reason("fuzz_divergence", cfg,
                                fault=DIVERGENCE_FAULT)
    assert type(generic) is ProgramOracle
    assert generic.fault == DIVERGENCE_FAULT
    # Campaign-era reasons keep minimizing with the generic oracle.
    assert type(oracle_for_reason("state_divergence", cfg)) \
        is ProgramOracle


def test_minimize_rejects_clean_input_under_each_oracle():
    program = _small_program()
    cfg = _strict_config()
    for oracle in (ProgramOracle(cfg), SanitizerOracle(cfg)):
        with pytest.raises(ValueError, match="does not diverge"):
            minimize_program(program, oracle=oracle)
