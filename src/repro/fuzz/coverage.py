"""The fuzzer's coverage map, derived from the telemetry registry.

An "edge" is a counter name from the whitelisted namespaces bucketed by
the magnitude of its value (``name#bit_length``): coverage grows when a
run exercises a *new path class* (a new exit arm, a new superblock
shape, a new quarantine transition) or pushes a known one into a new
order of magnitude (a loop that used to spin 10 times spinning 10k
times is new behaviour worth keeping).  Buckets keep the map small and
stable: exact counts differ across trivial mutations, magnitudes only
across genuinely different behaviour.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping

#: Counter namespaces that constitute TOL-path coverage.  ``cov.*`` are
#: the dedicated cheap path counters (exit arms, shapes, program
#: outcomes, quarantine edges, sanitizer checks); the others capture
#: mode mix and incident kinds.
COVERAGE_NAMESPACES = (
    "cov.",
    "mode.retired.",
    "resilience.incidents.",
    "resilience.quarantine.",
)


def edges_from_counters(counters: Mapping[str, int]) -> FrozenSet[str]:
    """The coverage edges exercised by one run's counter snapshot."""
    edges = set()
    for name, value in counters.items():
        if not value:
            continue
        for ns in COVERAGE_NAMESPACES:
            if name.startswith(ns):
                edges.add(f"{name}#{int(value).bit_length()}")
                break
    return frozenset(edges)


class CoverageMap:
    """Accumulated edge set across a campaign."""

    def __init__(self):
        self._edges: Dict[str, int] = {}  # edge -> hit count (runs)

    def __len__(self) -> int:
        return len(self._edges)

    def add(self, edges: Iterable[str]) -> int:
        """Merge one run's edges; returns how many were new."""
        new = 0
        for edge in edges:
            if edge not in self._edges:
                new += 1
                self._edges[edge] = 1
            else:
                self._edges[edge] += 1
        return new

    def edges(self) -> FrozenSet[str]:
        return frozenset(self._edges)

    def as_dict(self) -> Dict[str, int]:
        """Deterministic serialization (sorted edge -> hit count)."""
        return dict(sorted(self._edges.items()))

    def digest(self) -> str:
        """Stable fingerprint of the edge *set* (not hit counts), for
        replay-determinism assertions across ``--jobs`` values."""
        import hashlib
        blob = "\n".join(sorted(self._edges)).encode()
        return hashlib.sha256(blob).hexdigest()
