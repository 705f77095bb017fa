"""Set-associative cache simulator (the g-cache analogue).

Used by the trace-driven miss-rate calibration
(:func:`repro.workloads.trace.calibrate_miss_rates`) and directly testable
on synthetic access patterns.  The design is a classic index/tag LRU
cache; per-set recency is tracked with a monotonically increasing access
counter, which keeps ``access`` O(associativity) without linked lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import CoreConfig, MemoryConfig

__all__ = ["CacheHierarchy", "CacheStats", "SetAssociativeCache"]


@dataclass(frozen=True)
class CacheStats:
    """Aggregate hit/miss counters of a hierarchy run."""

    l1_accesses: int
    l1_misses: int
    l2_accesses: int
    l2_misses: int

    @property
    def l1_miss_rate(self) -> float:
        return self.l1_misses / self.l1_accesses if self.l1_accesses else 0.0


class SetAssociativeCache:
    """One level of set-associative cache with true-LRU replacement."""

    def __init__(self, size_bytes: int, associativity: int, block_bytes: int) -> None:
        if size_bytes <= 0 or associativity <= 0 or block_bytes <= 0:
            raise ValueError("cache geometry parameters must be positive")
        if block_bytes & (block_bytes - 1):
            raise ValueError("block size must be a power of two")
        n_blocks = size_bytes // block_bytes
        if n_blocks * block_bytes != size_bytes:
            raise ValueError("size must be a multiple of the block size")
        if n_blocks % associativity != 0:
            raise ValueError("block count must be a multiple of associativity")
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.block_bytes = block_bytes
        self.n_sets = n_blocks // associativity
        self._block_shift = int(np.log2(block_bytes))
        # tags[set, way]; -1 marks an invalid way.
        self._tags = np.full((self.n_sets, associativity), -1, dtype=np.int64)
        self._last_use = np.zeros((self.n_sets, associativity), dtype=np.int64)
        self._clock = 0
        self.accesses = 0
        self.misses = 0

    def _locate(self, address: int) -> tuple[int, int]:
        block = address >> self._block_shift
        return block % self.n_sets, block // self.n_sets

    def access(self, address: int) -> bool:
        """Reference ``address``; returns True on hit.  Misses allocate."""
        set_index, tag = self._locate(address)
        self.accesses += 1
        self._clock += 1
        ways = self._tags[set_index]
        hit_ways = np.flatnonzero(ways == tag)
        if hit_ways.size:
            self._last_use[set_index, hit_ways[0]] = self._clock
            return True
        self.misses += 1
        victim = int(np.argmin(self._last_use[set_index]))
        invalid = np.flatnonzero(ways == -1)
        if invalid.size:
            victim = int(invalid[0])
        self._tags[set_index, victim] = tag
        self._last_use[set_index, victim] = self._clock
        return False

    def reset_stats(self) -> None:
        """Zero the counters, keeping cache contents (for warmup)."""
        self.accesses = 0
        self.misses = 0

    def flush(self) -> None:
        """Invalidate all contents and zero the counters."""
        self._tags.fill(-1)
        self._last_use.fill(0)
        self._clock = 0
        self.reset_stats()


class CacheHierarchy:
    """Private L1 in front of a shared-L2 slice."""

    def __init__(self, l1: SetAssociativeCache, l2: SetAssociativeCache) -> None:
        self.l1 = l1
        self.l2 = l2

    @classmethod
    def from_configs(
        cls,
        core: CoreConfig | None = None,
        memory: MemoryConfig | None = None,
        cores_sharing_l2: int = 2,
    ) -> "CacheHierarchy":
        """Build the Table I hierarchy; L2 sized for ``cores_sharing_l2``."""
        core = core or CoreConfig()
        memory = memory or MemoryConfig()
        if cores_sharing_l2 < 1:
            raise ValueError("cores_sharing_l2 must be >= 1")
        l1 = SetAssociativeCache(
            core.l1_size_bytes, core.l1_associativity, core.l1_block_bytes
        )
        l2 = SetAssociativeCache(
            memory.l2_size_bytes_per_core * cores_sharing_l2,
            memory.l2_associativity,
            memory.l2_block_bytes,
        )
        return cls(l1, l2)

    def access(self, address: int) -> str:
        """Reference ``address``; returns "l1", "l2" or "memory"."""
        if self.l1.access(address):
            return "l1"
        if self.l2.access(address):
            return "l2"
        return "memory"

    def reset_stats(self) -> None:
        self.l1.reset_stats()
        self.l2.reset_stats()

    def stats(self) -> CacheStats:
        return CacheStats(
            l1_accesses=self.l1.accesses,
            l1_misses=self.l1.misses,
            l2_accesses=self.l2.accesses,
            l2_misses=self.l2.misses,
        )
