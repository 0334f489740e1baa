"""Measurement helpers for the DARCO benchmark.

- **Calibration.**  A fixed, pure-builtins loop timed in-process between
  stretches of measured work.  Its duration tracks how fast this host is
  running Python over the run (frequency, co-tenants), so dividing it
  out makes numbers from a busy and a quiet host comparable:
  ``normalized rate = raw rate * factor`` and ``normalized time = raw
  time / factor`` (see :func:`calibration_factor`).
- **Order statistics.**  Quartiles, and a percentile that refuses to
  report a tail with fewer than ten samples beyond it.
- **Memory and host.**  Peak RSS of this process plus its children, and
  the ``repro.hostinfo`` snapshot.
- **Comparison.**  The per-metric verdict for two sets of runs (alternating
  pairs, win fraction, median gap against the parent's spread).
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: Median duration of one calibration repetition on the reference host (a
#: 2-core x86-64 container, CPython 3.11).  Only the ratio to it matters,
#: and it is the same on both sides of any comparison.
CALIB_NOMINAL_S = 0.0140

#: Loop iterations in one calibration repetition.
CALIB_ITERS = 100_000

#: Repetitions at the start and end of a run (and around a serve pass).
CALIB_REPS = 7

#: How much of the calibration loop's slowdown the simulator shares, for
#: the host's speed over a whole pass (``RUN``) and for a burst around one
#: item (``BURST``).  On the reference host the loop ran 1.6-2x slower in
#: a busy hour than in a quiet one, and the simulator 1.5-1.8x slower, but
#: within one busy hour the simulator shared as little as a third of the
#: loop's run-to-run changes.  Over six ten-run sets from different hours,
#: these exponents kept the sets' medians within 13% of each other (40%
#: with 0.5 for both) at a ten-run spread of at most 9.4% (13%).
CALIB_ELASTICITY_RUN = 0.8
CALIB_ELASTICITY_BURST = 0.7

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def check_no_hooks() -> None:
    """Refuse to measure under a trace or profile hook: it would slow the
    simulator and the calibration loop alike, and normalization would
    hide the slowdown."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        raise RuntimeError("a sys.settrace/setprofile hook is active; "
                           "measurements would be meaningless")


def _calibration_work(n: int) -> int:
    table = {}
    ring = list(range(64))
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
        ring[i & 63] = acc >> 3
    return acc + len(table) + ring[7]


def calibration_rep() -> float:
    """Seconds one repetition of the calibration loop takes."""
    t0 = time.perf_counter()
    _calibration_work(CALIB_ITERS)
    return time.perf_counter() - t0


class Calibrator:
    """Calibration repetitions taken between units of measured work.

    Call :meth:`sample` before and after the measured work and between
    its units.  :meth:`factor` of an interval comes from the median of
    all repetitions and the mean of the two on each side of it
    (:func:`calibration_factor`): a shared host slows down by up to 2x in
    bursts of a few seconds, which the repetitions next to a unit of work
    see, and one repetition alone is noisy."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []  # (end time, seconds)

    def sample(self, reps: int = 1) -> None:
        check_no_hooks()
        if not self.samples:
            # The first pass through the loop runs slow (the interpreter
            # specializes its bytecode on first use); keep it out.
            _calibration_work(CALIB_ITERS)
        for _ in range(reps):
            seconds = calibration_rep()
            self.samples.append((time.perf_counter(), seconds))

    def median_s(self) -> float:
        return statistics.median(v for _, v in self.samples)

    def factor(self, start: float, end: float) -> float:
        before = [v for t, v in self.samples if t <= start][-2:]
        after = [v for t, v in self.samples if t >= end][:2]
        return calibration_factor(before + after, self.median_s())


def calibration_factor(local: Sequence[float], run_s: float) -> float:
    """Slowdown factor of work bracketed by the calibration repetitions
    ``local``, in a run whose repetitions have the median ``run_s``."""
    local_s = statistics.fmean(local) if local else run_s
    return ((run_s / CALIB_NOMINAL_S) ** CALIB_ELASTICITY_RUN
            * (local_s / run_s) ** CALIB_ELASTICITY_BURST)


# ---------------------------------------------------------------------------
# Order statistics.
# ---------------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], q: float,
               min_beyond: int = MIN_TAIL_SAMPLES) -> float:
    """Nearest-rank ``q``-th percentile; raises ``ValueError`` when fewer
    than ``min_beyond`` samples lie beyond it (an unsupported tail)."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        raise ValueError(f"p{q:g} of {n} samples has {n - rank} beyond it "
                         f"(need {min_beyond})")
    return ordered[rank - 1]


def tail(values: Sequence[float],
         candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
         ) -> Optional[Tuple[float, float]]:
    """The highest of ``candidates`` the samples support, as ``(q, value)``;
    ``None`` when even the median has fewer than ten samples beyond."""
    for q in candidates:
        try:
            return q, percentile(values, q)
        except ValueError:
            continue
    return None


# ---------------------------------------------------------------------------
# Memory and host.
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited-for
    child (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def host() -> Dict[str, object]:
    from repro.hostinfo import host_snapshot
    return host_snapshot()


# ---------------------------------------------------------------------------
# Comparison of two sets of runs.
# ---------------------------------------------------------------------------


def _better(a: float, b: float, better: str) -> bool:
    return a > b if better == "higher" else a < b


def compare(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> Dict[str, object]:
    """Verdict for one metric on one workload.

    ``parent[i]`` and ``change[i]`` form pair ``i``.  A gain needs the
    change to win at least nine tenths of the pairs (ties count for
    neither) and the medians to differ by more than the parent's
    interquartile range.  When either side's spread (IQR over median)
    exceeds ``bound`` the metric is unresolved, unless every change run
    reads better than every parent run.  Otherwise a change median worse
    than the parent's by more than ``bound`` (a share of the parent
    median) is a regression, and anything else is the same."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if _better(c, p, better))
    win_frac = wins / len(pairs) if pairs else 0.0
    gap = cm - pm
    worse_by = (-gap if better == "higher" else gap) / pm if pm else 0.0
    spread = max((p3 - p1) / pm if pm else 0.0,
                 (c3 - c1) / cm if cm else 0.0)
    all_better = all(_better(c, p, better) for c in change for p in parent)
    if win_frac >= 0.9 and worse_by < 0 and abs(gap) > p3 - p1:
        verdict = "gain"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "same"
    return {
        "parent": {"q1": p1, "median": pm, "q3": p3, "n": len(parent)},
        "change": {"q1": c1, "median": cm, "q3": c3, "n": len(change)},
        "pairs": len(pairs), "wins": wins, "win_frac": win_frac,
        "gap": gap, "parent_iqr": p3 - p1, "worse_by": worse_by,
        "spread": spread, "verdict": verdict,
    }
