"""Coverage-guided differential fuzzer for the co-designed stack.

``darco fuzz`` mutates GISA guest programs to maximize TOL-path
coverage (``cov.*`` telemetry: unit-exit arms, superblock shapes,
quarantine ladder edges, generated-program outcomes) and runs every
candidate through a differential oracle — the reference forms
(``host_fastpath=False``) vs generated code in strict and recover
modes, and the same two forms under timing — flagging any divergence
in architectural state, retirement or host accounting, or cycle
reports.
Findings are auto-triaged: deduped by incident signature, emitted as
self-contained repro bundles, ddmin-minimized with a kind-matched
oracle, and replayed for confirmation.
"""

from repro.fuzz.coverage import COVERAGE_NAMESPACES, CoverageMap
from repro.fuzz.mutate import MutationEngine, load_corpus_program
from repro.fuzz.oracle import DEFAULT_LEGS, FuzzOutcome, evaluate_candidate
from repro.fuzz.engine import (
    CampaignResult, Finding, FuzzConfig, run_campaign,
)

__all__ = [
    "COVERAGE_NAMESPACES", "CoverageMap", "MutationEngine",
    "load_corpus_program", "DEFAULT_LEGS", "FuzzOutcome",
    "evaluate_candidate", "CampaignResult", "Finding", "FuzzConfig",
    "run_campaign",
]
