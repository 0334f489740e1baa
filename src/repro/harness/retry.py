"""Shared retry policy: bounded attempts, exponential backoff, jitter.

``darco sweep`` and ``darco serve`` run worker attempts on the same
shards (:mod:`repro.serve.supervisor`) and make the same decision —
*is this failure worth another attempt, and how long do we wait
first?* — for job retries, worker respawns and client retry-after
hints.  :class:`RetryPolicy` states that decision once, so both layers
degrade the same way.

Backoff is exponential with full-range jitter::

    delay(k) = min(max_delay_s, base_delay_s * backoff**(k-1)) * U

where ``U`` is uniform in ``[1 - jitter, 1]``.  Jitter draws come from
a private :class:`random.Random` seeded per call site (never the global
RNG: simulated quantities must stay bit-identical whether or not the
harness retried anything around them).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RetryPolicy:
    """How a harness layer retries failed/crashed/timed-out work.

    ``max_attempts``
        Total tries including the first (``1`` = never retry).
    ``base_delay_s`` / ``backoff`` / ``max_delay_s``
        Exponential backoff shape for the wait before attempt ``k+1``.
    ``jitter``
        Fraction of each delay randomized away (``0.5`` = the delay
        lands uniformly in ``[0.5d, d]``), decorrelating simultaneous
        retriers (thundering-herd control for the worker pool).
    ``deadline_s``
        Per-attempt wall-clock budget; ``None`` = unbounded.  ``sweep``
        uses it when no ``timeout`` is given; every attempt on a shard,
        first or retry, is held to its deadline by killing the worker.
    """

    max_attempts: int = 2
    base_delay_s: float = 0.05
    backoff: float = 2.0
    max_delay_s: float = 5.0
    jitter: float = 0.5
    deadline_s: Optional[float] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0.0 or self.max_delay_s < 0.0:
            raise ValueError("delays must be >= 0")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError("jitter must be in [0, 1]")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")

    def allows(self, attempts_made: int) -> bool:
        """May another attempt be made after ``attempts_made`` tries?"""
        return attempts_made < self.max_attempts

    def delay(self, failures: int, rng: Optional[random.Random] = None,
              seed=None) -> float:
        """Backoff delay (seconds) before the retry that follows the
        ``failures``-th consecutive failure (1-based).

        Deterministic when ``rng`` or ``seed`` is given; otherwise a
        fresh unseeded RNG supplies the jitter draw.
        """
        if failures < 1:
            return 0.0
        raw = self.base_delay_s * (self.backoff ** (failures - 1))
        raw = min(self.max_delay_s, raw)
        if not self.jitter:
            return raw
        if rng is None:
            rng = random.Random(seed) if seed is not None else random.Random()
        return raw * (1.0 - self.jitter * rng.random())

    def retry_after_hint(self, queue_depth: int, service_rate: float,
                         floor_s: float = 1.0, cap_s: float = 60.0) -> float:
        """A client-facing "come back in N seconds" estimate for load
        shedding: queued work over the observed service rate, clamped.
        ``service_rate`` is jobs/second across the pool (0 = unknown)."""
        if service_rate <= 0.0:
            return cap_s if queue_depth else floor_s
        estimate = queue_depth / service_rate
        return max(floor_s, min(cap_s, estimate))


#: The sweep runner's historical behaviour: one immediate retry.
SWEEP_DEFAULT = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)
