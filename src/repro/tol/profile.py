"""Execution profiling.

IM profiles basic-block execution frequencies with software repetition
counters; BBM-translated code carries inline instrumentation that maintains
execution and edge counters (paper §V-B2).  The superblock builder consumes
the edge counters to follow biased branch directions.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Optional, Tuple


class Profiler:
    """Repetition and edge counters keyed by basic-block entry PC."""

    def __init__(self):
        self.bb_counts: Counter = Counter()
        #: edge_counts[bb_entry_pc][successor_pc] = executions
        self.edge_counts: Dict[int, Counter] = defaultdict(Counter)

    # -- IM profiling --------------------------------------------------------

    def record_interpretation(self, bb_entry_pc: int) -> int:
        """Count one interpreted execution; returns the new count."""
        self.bb_counts[bb_entry_pc] += 1
        return self.bb_counts[bb_entry_pc]

    def interpreted_count(self, bb_entry_pc: int) -> int:
        return self.bb_counts[bb_entry_pc]

    # -- BBM inline profiling ---------------------------------------------------

    def record_edge(self, bb_entry_pc: int, successor_pc: int) -> None:
        self.edge_counts[bb_entry_pc][successor_pc] += 1

    def biased_successor(
            self, bb_entry_pc: int) -> Tuple[Optional[int], float]:
        """(most likely successor, bias) or (None, 0.0) if unprofiled."""
        edges = self.edge_counts.get(bb_entry_pc)
        if not edges:
            return None, 0.0
        successor, hits = edges.most_common(1)[0]
        return successor, hits / sum(edges.values())

    def reset(self) -> None:
        self.bb_counts.clear()
        self.edge_counts.clear()
