"""Branch prediction: gshare direction predictor + branch target buffer."""

from __future__ import annotations


class Gshare:
    """Global-history XOR PC indexed table of 2-bit saturating counters."""

    def __init__(self, entries: int = 4096, history_bits: int = 10):
        if entries & (entries - 1):
            raise ValueError("gshare entries must be a power of two")
        self.entries = entries
        self.mask = entries - 1
        self.history_bits = history_bits
        self.history_mask = (1 << history_bits) - 1
        self.table = [2] * entries  # weakly taken
        self.history = 0
        self.lookups = 0
        self.mispredicts = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self.history) & self.mask

    def predict(self, pc: int) -> bool:
        return self.table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> bool:
        """Predict, train, and update history; returns correctness."""
        self.lookups += 1
        table = self.table
        index = ((pc >> 2) ^ self.history) & self.mask
        counter = table[index]
        if taken:
            if counter < 3:
                table[index] = counter + 1
            self.history = ((self.history << 1) | 1) & self.history_mask
            if counter >= 2:
                return True
        else:
            if counter > 0:
                table[index] = counter - 1
            self.history = (self.history << 1) & self.history_mask
            if counter < 2:
                return True
        self.mispredicts += 1
        return False


class BTB:
    """Direct-mapped branch target buffer."""

    def __init__(self, entries: int = 512):
        if entries & (entries - 1):
            raise ValueError("BTB entries must be a power of two")
        self.mask = entries - 1
        self.tags = [None] * entries
        self.targets = [0] * entries
        self.hits = 0
        self.misses = 0

    def lookup(self, pc: int):
        """Predicted target or None on miss."""
        index = (pc >> 2) & self.mask
        if self.tags[index] == pc:
            self.hits += 1
            return self.targets[index]
        self.misses += 1
        return None

    def update(self, pc: int, target: int) -> None:
        index = (pc >> 2) & self.mask
        self.tags[index] = pc
        self.targets[index] = target
