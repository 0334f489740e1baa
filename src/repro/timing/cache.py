"""Set-associative caches, two-level TLB and the stride prefetcher."""

from __future__ import annotations

from repro.timing.config import CacheConfig, TLBConfig


class Cache:
    """Set-associative LRU cache (tag-only: timing, not contents)."""

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.name = name
        self.line_bits = config.line_bytes.bit_length() - 1
        n_sets = config.size_bytes // (config.line_bytes * config.assoc)
        if n_sets <= 0:
            raise ValueError(f"{name}: degenerate geometry")
        self.n_sets = n_sets
        self.assoc = config.assoc
        self.hit_latency = config.hit_latency
        # Each set: list of tags in LRU order (front = MRU).
        self.sets = [[] for _ in range(n_sets)]
        self.hits = 0
        self.misses = 0
        self.prefetch_fills = 0
        self.prefetch_hits = 0
        self._prefetched = set()

    def access(self, addr: int) -> bool:
        """Access; returns hit?; fills on miss (LRU replace)."""
        tag = addr >> self.line_bits
        ways = self.sets[tag % self.n_sets]
        if tag in ways:
            self.hits += 1
            if ways[0] != tag:
                ways.remove(tag)
                ways.insert(0, tag)
            if tag in self._prefetched:
                self.prefetch_hits += 1
                self._prefetched.discard(tag)
            return True
        self.misses += 1
        self._fill(ways, tag)
        return False

    def _fill(self, ways: list, tag: int) -> None:
        ways.insert(0, tag)
        if len(ways) > self.assoc:
            evicted = ways.pop()
            self._prefetched.discard(evicted)

    def prefetch(self, addr: int) -> None:
        """Install a line without counting an access."""
        tag = addr >> self.line_bits
        ways = self.sets[tag % self.n_sets]
        if tag in ways:
            return
        self._fill(ways, tag)
        self._prefetched.add(tag)
        self.prefetch_fills += 1

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class TLB:
    """Set-associative TLB over 4KB pages."""

    PAGE_BITS = 12

    def __init__(self, config: TLBConfig, name: str = "tlb"):
        self.name = name
        n_sets = max(1, config.entries // config.assoc)
        self.n_sets = n_sets
        self.assoc = config.assoc
        self.hit_latency = config.hit_latency
        self.sets = [[] for _ in range(n_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        page = addr >> self.PAGE_BITS
        index = page % self.n_sets
        ways = self.sets[index]
        if page in ways:
            self.hits += 1
            if ways[0] != page:
                ways.remove(page)
                ways.insert(0, page)
            return True
        self.misses += 1
        ways.insert(0, page)
        if len(ways) > self.assoc:
            ways.pop()
        return False


class StridePrefetcher:
    """Per-PC stride detector issuing prefetches into the data caches."""

    def __init__(self, entries: int = 64, degree: int = 2):
        self.entries = entries
        self.degree = degree
        #: pc -> (last_addr, stride, confidence)
        self.table = {}
        self.issued = 0

    def observe(self, pc: int, addr: int, l1d: Cache, l2: Cache) -> None:
        entry = self.table.get(pc)
        if entry is None:
            if len(self.table) >= self.entries:
                self.table.pop(next(iter(self.table)))
            self.table[pc] = (addr, 0, 0)
            return
        last_addr, stride, confidence = entry
        new_stride = addr - last_addr
        if new_stride == stride and stride != 0:
            confidence = min(confidence + 1, 3)
        else:
            confidence = 0
        self.table[pc] = (addr, new_stride, confidence)
        if confidence >= 2 and new_stride != 0:
            for i in range(1, self.degree + 1):
                target = addr + new_stride * i
                l2.prefetch(target)
                l1d.prefetch(target)
                self.issued += 1


class MemoryHierarchy:
    """L1I/L1D + shared L2 + two-level TLB + stride prefetcher."""

    def __init__(self, config):
        self.config = config
        self.l1i = Cache(config.l1i, "L1I")
        self.l1d = Cache(config.l1d, "L1D")
        self.l2 = Cache(config.l2, "L2")
        self.dtlb = TLB(config.dtlb, "DTLB")
        self.stlb = TLB(config.stlb, "STLB")
        self.prefetcher = (
            StridePrefetcher(config.prefetch_table_entries,
                             config.prefetch_degree)
            if config.prefetch_enable else None)

    def fetch_latency(self, pc: int) -> int:
        if self.l1i.access(pc):
            return self.l1i.hit_latency
        if self.l2.access(pc):
            return self.l2.hit_latency
        return self.config.memory_latency

    def data_latency(self, pc: int, addr: int) -> int:
        """Latency of a data access at ``addr`` issued by instruction
        ``pc`` (TLB + cache hierarchy + prefetch training)."""
        if self.dtlb.access(addr):
            latency = 0
        elif self.stlb.access(addr):
            latency = self.stlb.hit_latency
        else:
            latency = self.config.page_walk_latency
        if self.l1d.access(addr):
            return latency + self.l1d.hit_latency
        if self.l2.access(addr):
            latency += self.l2.hit_latency
        else:
            latency += self.config.memory_latency
        if self.prefetcher is not None:
            self.prefetcher.observe(pc, addr, self.l1d, self.l2)
        return latency
